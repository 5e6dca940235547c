"""The certifying commands: a seed matrix through one correctness harness.

fuzz, certify, chaos, crashfuzz, replicate — each declared
(``_add_<command>``) next to its handler (``_cmd_<command>``).  Every one
is the same loop over consecutive seeds (:class:`SeedMatrix`): certify
the seed's cases, passing lines to stdout, failures to stderr, optionally
ddmin-shrink and dump a failing block as a JSON repro, print the summary
table, exit non-zero when any seed failed.  A command supplies only how a
seed becomes :class:`Case` s.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property, partial

from ..bench.harness import standard_chain
from ..check import (
    MUTATIONS,
    BlockFuzzer,
    FuzzConfig,
    block_to_json,
    certify_block,
    crash_sweep_block,
    failover_sweep,
    mutation_self_test,
    pipelined_crash_sweep_block,
    reorg_roundtrip_block,
    run_chaos_block,
    shrink_block,
)
from ..obs import (
    MetricsRegistry,
    certification_table,
    degradation_table,
    durability_table,
    replication_table,
)
from ..replication import FailoverPolicy
from ..resilience import SCENARIOS, default_suite
from ..workloads import Block
from .options import given, positive_int


@dataclass(slots=True)
class Case:
    """One certified report of a seed: how to print it and reproduce it."""

    report: object  # any harness report: ``.ok`` and ``.certification``
    passed: str | None  # the stdout line when ok (None: stay silent)
    failed: str  # the stderr text when not
    # The repro, for commands that dump one (``block`` None: nothing to dump).
    label: str = ""  # prefix of the shrink/dump notes, e.g. "seed 3"
    stem: str = ""  # dump file name, sans ".json"
    block: Block | None = None
    # ``recertify(candidate, **kw)`` re-runs the case's harness on a
    # candidate block; without it the case cannot ddmin, and
    # ``unshrinkable`` says why when ``--shrink`` asks.
    recertify: Callable | None = None
    unshrinkable: str = ""


@dataclass
class SeedMatrix:
    """The seed loop every certifying command runs."""

    args: argparse.Namespace
    dumped_as: str = "minimized repro"
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    failed_seeds: list[int] = field(default_factory=list)

    @cached_property
    def fuzzer(self) -> BlockFuzzer:
        return BlockFuzzer(FuzzConfig(txs_per_block=self.args.txs_per_block))

    def run(
        self,
        count: int,
        cases_of: Callable[[SeedMatrix, int], Iterable[Case]],
        table_of: Callable[[MetricsRegistry], str | None],
        table_lead: str = "\n",
    ) -> int:
        """Certify ``count`` seeds from ``args.seed``; the process exit code."""
        for seed in range(self.args.seed, self.args.seed + count):
            for case in cases_of(self, seed):
                if case.report.ok:
                    if case.passed is not None:
                        print(case.passed)
                    continue
                self.failed_seeds.append(seed)
                print(case.failed, file=sys.stderr)
                if case.block is not None:
                    self._reproduce(case)
        table = table_of(self.metrics)
        if table is not None:
            print(table_lead + table)
        return 1 if self.failed_seeds else 0

    def _reproduce(self, case: Case) -> None:
        """``--shrink`` the failing block, then ``--dump`` it with its report."""
        block, report = case.block, case.report
        if self.args.shrink and case.recertify is None:
            print(f"{case.label}: {case.unshrinkable}", file=sys.stderr)
        elif self.args.shrink:
            shrunk = shrink_block(
                block,
                lambda candidate: not case.recertify(
                    candidate, check_roots=False
                ).ok,
            )
            block = shrunk.block
            report = case.recertify(block)
            print(
                f"{case.label}: shrunk {shrunk.original_tx_count} -> "
                f"{shrunk.tx_count} txs in {shrunk.attempts} runs",
                file=sys.stderr,
            )
        if self.args.dump:
            os.makedirs(self.args.dump, exist_ok=True)
            path = os.path.join(self.args.dump, f"{case.stem}.json")
            with open(path, "w") as fh:
                fh.write(block_to_json(block, report.certification))
            print(f"{case.label}: {self.dumped_as} -> {path}", file=sys.stderr)


def _add_matrix_arguments(
    parser,
    *,
    seeds: int,
    txs: int | None,
    threads: int | None = 8,
    count: str = "--blocks",
) -> None:
    """``--seed/--blocks/--txs/--threads``: the seed matrix and its scale
    (``txs`` / ``threads`` None: the harness's own default)."""
    parser.add_argument("--seed", type=int, default=0, help="first seed")
    parser.add_argument(count, type=int, default=seeds, help="seeds to run")
    parser.add_argument(
        "--txs", dest="txs_per_block", metavar="TXS", type=int, default=txs,
        help="txs per block",
    )
    parser.add_argument("--threads", type=positive_int, default=threads)


def _add_repro_arguments(parser, shrink: bool = True) -> None:
    """``--shrink`` / ``--dump``: what to keep of a failing block."""
    parser.set_defaults(shrink=False)
    if shrink:
        parser.add_argument(
            "--shrink",
            action="store_true",
            help="ddmin-minimize any failing block to a 1-minimal repro",
        )
    parser.add_argument(
        "--dump", metavar="DIR", help="write failing repro blocks as JSON here"
    )


def _add_fuzz(sub) -> None:
    fuzz = sub.add_parser(
        "fuzz", help="certify fuzzed adversarial blocks, shrink/dump failures"
    )
    _add_matrix_arguments(fuzz, seeds=5, txs=40)
    _add_repro_arguments(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    def cases(matrix: SeedMatrix, seed: int):
        block = matrix.fuzzer.block(seed)
        certify = partial(certify_block, matrix.fuzzer.chain, threads=args.threads)
        report = certify(block, metrics=matrix.metrics)
        yield Case(
            report,
            f"seed {seed}: ok ({report.tx_count} txs, "
            f"{report.redo_replays} redo replays)",
            report.describe(),
            label=f"seed {seed}",
            stem=f"repro-seed{seed}",
            block=block,
            recertify=certify,
        )

    return SeedMatrix(args).run(args.blocks, cases, certification_table)


def _add_certify(sub) -> None:
    certify = sub.add_parser(
        "certify", help="serializability acceptance gate (fixed seed matrix)"
    )
    _add_matrix_arguments(certify, seeds=50, txs=40)
    certify.add_argument(
        "--self-test",
        action="store_true",
        help="inject known conflict-detection bugs; prove the oracle catches them",
    )
    certify.set_defaults(func=_cmd_certify)


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.self_test:
        chain = standard_chain(accounts=64)
        all_caught = True
        for mutation in sorted(MUTATIONS):
            outcome = mutation_self_test(
                chain, mutation=mutation, threads=args.threads
            )
            print(outcome.describe())
            all_caught = all_caught and outcome.caught
        return 0 if all_caught else 1

    def cases(matrix: SeedMatrix, seed: int):
        report = certify_block(
            matrix.fuzzer.chain,
            matrix.fuzzer.block(seed),
            threads=args.threads,
            metrics=matrix.metrics,
        )
        yield Case(report, None, report.describe())

    matrix = SeedMatrix(args)
    code = matrix.run(args.blocks, cases, certification_table, table_lead="")
    if matrix.failed_seeds:
        print(f"FAILED seeds: {matrix.failed_seeds}", file=sys.stderr)
    return code


def _add_chaos(sub) -> None:
    chaos = sub.add_parser(
        "chaos",
        help="certify fuzzed blocks with every executor under fault injection",
    )
    chaos.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS) + ["all"],
        default="all",
        help="chaos scenario to inject (default: the whole catalogue)",
    )
    _add_matrix_arguments(chaos, seeds=3, txs=24)
    chaos.add_argument(
        "--budget",
        type=int,
        default=None,
        help="override the per-transaction redo budget",
    )
    _add_repro_arguments(chaos)
    chaos.add_argument(
        "--metrics-json", metavar="FILE", help="write the metrics registry as JSON"
    )
    chaos.set_defaults(func=_cmd_chaos)


def _cmd_chaos(args: argparse.Namespace) -> int:
    scenarios = (
        default_suite()
        if args.scenario == "all"
        else [SCENARIOS[args.scenario]]
    )

    def cases(matrix: SeedMatrix, seed: int):
        block = matrix.fuzzer.block(seed)
        for scenario in scenarios:
            rerun = partial(
                run_chaos_block,
                matrix.fuzzer.chain,
                scenario=scenario,
                seed=seed,
                threads=args.threads,
                redo_budget=args.budget,
            )
            report = rerun(block, metrics=matrix.metrics)
            # Ingress and replication failures are a function of
            # (scenario, seed) alone — the fuzzer block plays no role, so
            # there is nothing to ddmin.
            seed_only = scenario.kind in ("ingress", "replication")
            yield Case(
                report,
                report.describe(),
                report.describe(),
                label=f"chaos[{scenario.name}] seed {seed}",
                stem=f"chaos-{scenario.name}-seed{seed}",
                block=block,
                recertify=None if seed_only else rerun,
                unshrinkable=f"{scenario.kind} scenarios do not shrink "
                f"(reproduce with the seed)",
            )

    matrix = SeedMatrix(args)
    code = matrix.run(args.blocks, cases, degradation_table)
    if args.metrics_json:
        matrix.metrics.write_json(args.metrics_json)
        print(
            f"metrics: {len(matrix.metrics.as_dict())} series -> "
            f"{args.metrics_json}"
        )
    return code


def _add_crashfuzz(sub) -> None:
    crashfuzz = sub.add_parser(
        "crashfuzz",
        help="certify commit atomicity: crash at every site of the durable "
        "commit path, recover, compare against pre/post-block state",
    )
    _add_matrix_arguments(crashfuzz, seeds=2, txs=16)
    crashfuzz.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1,
        help="checkpoint cadence during the sweep (1 also sweeps the "
        "snapshot crash sites; 0 disables checkpoints)",
    )
    crashfuzz.add_argument(
        "--pipeline",
        action="store_true",
        help="also sweep the pipelined case: block N+1 executes "
        "speculatively while N's commit crashes; recovery must land on "
        "N's sealed (or pre-N) root, never the speculative state",
    )
    crashfuzz.add_argument(
        "--no-reorg",
        action="store_true",
        help="skip the reorg rollback round trip",
    )
    _add_repro_arguments(crashfuzz, shrink=False)
    crashfuzz.set_defaults(func=_cmd_crashfuzz)


def _cmd_crashfuzz(args: argparse.Namespace) -> int:
    def cases(matrix: SeedMatrix, seed: int):
        block = matrix.fuzzer.block(seed)
        sweeps = [
            partial(crash_sweep_block, checkpoint_interval=args.checkpoint_interval)
        ]
        if args.pipeline:
            sweeps.append(pipelined_crash_sweep_block)
        if not args.no_reorg:
            sweeps.append(reorg_roundtrip_block)
        for sweep in sweeps:
            report = sweep(
                matrix.fuzzer.chain,
                block,
                threads=args.threads,
                metrics=matrix.metrics,
            )
            line = f"seed {seed}: {report.describe()}"
            yield Case(
                report,
                line,
                line,
                label=f"seed {seed}",
                stem=f"{report.kind}-seed{seed}",
                block=block,
            )

    matrix = SeedMatrix(args, dumped_as="repro block")
    return matrix.run(args.blocks, cases, durability_table)


def _add_replicate(sub) -> None:
    replicate = sub.add_parser(
        "replicate",
        help="certify zero-loss failover: crash the primary at every commit "
        "crash site x every executor config, promote the freshest replica, "
        "prove RPO=0 and epoch fencing; deterministic JSONL per seed",
    )
    _add_matrix_arguments(replicate, seeds=1, txs=None, threads=None, count="--sweeps")
    replicate.add_argument(
        "--warmup", dest="warmup_blocks", metavar="WARMUP", type=int,
        help="warm-up blocks",
    )
    replicate.add_argument("--replicas", type=int)
    replicate.add_argument(
        "--heartbeat-us", dest="heartbeat_timeout_us", metavar="HEARTBEAT_US",
        type=float, help="heartbeat silence declaring the primary dead (simulated us)",
    )
    replicate.add_argument(
        "--out", metavar="FILE", help="also write the JSONL lines here"
    )
    replicate.set_defaults(func=_cmd_replicate)


def replicate_sweep_arguments(args: argparse.Namespace) -> dict:
    """The :func:`failover_sweep` arguments a ``replicate`` command line set."""
    sweep = given(args, failover_sweep)
    if policy := given(args, FailoverPolicy):
        sweep["policy"] = FailoverPolicy(**policy)
    return sweep


def _cmd_replicate(args: argparse.Namespace) -> int:
    """Failover sweep(s) as deterministic JSONL, one line per seed."""
    sweep = replicate_sweep_arguments(args)
    lines = []

    def cases(matrix: SeedMatrix, seed: int):
        report = failover_sweep(fuzz_seed=seed, metrics=matrix.metrics, **sweep)
        line = json.dumps({"seed": seed, **report.as_dict()}, sort_keys=True)
        lines.append(line)
        yield Case(report, line, f"{line}\n{report.describe()}")

    code = SeedMatrix(args).run(args.sweeps, cases, replication_table)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return code


def register(sub) -> None:
    """Add the certifying commands to the ``repro`` sub-parser set."""
    for add in (_add_fuzz, _add_chaos, _add_crashfuzz, _add_replicate, _add_certify):
        add(sub)
