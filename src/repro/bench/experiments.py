"""Experiment runners: one function per table/figure of the paper.

Every runner returns an :class:`ExperimentResult` holding the structured
data, a plain-text rendering, and the paper's reference numbers so callers
(benchmarks, EXPERIMENTS.md generation) can print paper-vs-measured rows.

Scale parameters default to a size that completes in tens of seconds per
experiment on a laptop; the paper's absolute numbers were measured over a
million mainnet blocks, so only the *shape* (ordering, rough factors,
crossovers) is expected to match — see DESIGN.md.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field

from ..concurrency import (
    BlockSTMExecutor,
    OCCExecutor,
    SerialExecutor,
    TwoPLExecutor,
)
from ..concurrency.registry import make_executor
from ..core.executor import ParallelEVMExecutor
from ..core.tracer import SSATracer
from ..errors import ConcurrencyError
from ..state.view import BlockOverlay
from ..workloads import conflict_ratio_block
from ..workloads.zipf import zipf_head_share
from .harness import (
    DEFAULT_THREADS,
    TABLE1_EXECUTORS,
    block_touched_keys,
    measure_speedups,
    standard_chain,
    standard_workload,
)
from .report import render_histogram, render_series, render_table

START_BLOCK = 14_000_000  # the paper's evaluation window starts here


def _table1_suite(threads: int) -> list:
    return [make_executor(name, threads) for name in TABLE1_EXECUTORS]


@dataclass(slots=True)
class ExperimentResult:
    """One experiment's outcome: data, text rendering, paper reference."""

    experiment: str
    data: dict
    rendered: str
    paper: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.rendered


PAPER_TABLE1 = {"2pl": 1.26, "occ": 2.49, "block-stm": 2.82, "parallelevm": 4.28}
PAPER_TABLE2 = {
    "prefetch": 2.89,
    "2pl+": 2.23,
    "occ+": 3.25,
    "block-stm+": 5.52,
    "parallelevm+": 7.11,
}
PAPER_PREEXEC = {"parallelevm-preexec": 8.81}
PAPER_FIG3 = {
    "contract_head_share": 0.76,  # hottest 0.1% of contracts: 76% of calls
    "slot_head_share": 0.62,  # hottest 0.1% of slots: 62% of accesses
    "top10_contract_share": 0.25,
}
PAPER_OVERHEAD = {
    "log_to_instruction_ratio": 0.050,  # 127 / 2559
    "redo_entries_per_conflict": 7.0,
    "redo_fraction_of_instructions": 0.003,
    "redo_time_share": 0.049,
    "redo_success_rate": 0.87,
    "tracking_time_share": 0.045,
    "memory_overhead": 0.0441,
}


# --------------------------------------------------------------- Table 1


def run_table1(
    blocks: int = 3,
    txs_per_block: int = 200,
    threads: int = DEFAULT_THREADS,
    accounts: int = 500,
) -> ExperimentResult:
    """Table 1: mean speedup of each algorithm on mainnet-like blocks."""
    chain = standard_chain(accounts=accounts)
    workload = standard_workload(chain, txs_per_block)
    block_list = workload.blocks(START_BLOCK, blocks)
    summaries = measure_speedups(chain, block_list, _table1_suite(threads))

    data = {
        name: summary.mean
        for name, summary in summaries.items()
        if name != "serial"
    }
    rows = [
        [name, PAPER_TABLE1.get(name, "-"), f"{mean:.2f}x"]
        for name, mean in data.items()
    ]
    rendered = render_table(
        f"Table 1 — speedup vs serial ({threads} threads, "
        f"{blocks} blocks x {txs_per_block} txs)",
        ["algorithm", "paper", "measured"],
        rows,
    )
    return ExperimentResult("table1", data, rendered, PAPER_TABLE1)


# --------------------------------------------------------------- Table 2


def run_table2(
    blocks: int = 3,
    txs_per_block: int = 200,
    threads: int = DEFAULT_THREADS,
    accounts: int = 500,
) -> ExperimentResult:
    """Table 2: speedups with state prefetching (two-phase protocol).

    Phase one replays the block purely to discover and warm its storage
    slots; phase two is measured.  All speedups are against the *cold*
    serial baseline, as in the paper.
    """
    chain = standard_chain(accounts=accounts)
    workload = standard_workload(chain, txs_per_block)
    block_list = workload.blocks(START_BLOCK, blocks)

    data: dict[str, float] = {"prefetch": 0.0}
    sums: dict[str, float] = {}
    counts = 0
    for block in block_list:
        serial_cold = SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        keys = block_touched_keys(chain, block)

        warm_world = chain.fresh_world()
        warm_world.warm(keys)
        serial_warm = SerialExecutor().execute_block(
            warm_world, block.txs, block.env
        )
        if serial_warm.writes != serial_cold.writes:
            raise ConcurrencyError("prefetched serial run diverged")
        sums["prefetch"] = sums.get("prefetch", 0.0) + (
            serial_cold.makespan_us / serial_warm.makespan_us
        )

        for executor in _table1_suite(threads):
            world = chain.fresh_world()
            world.warm(keys)
            result = executor.execute_block(world, block.txs, block.env)
            if result.writes != serial_cold.writes:
                raise ConcurrencyError(f"{executor.name}+prefetch diverged")
            name = executor.name + "+"
            sums[name] = sums.get(name, 0.0) + (
                serial_cold.makespan_us / result.makespan_us
            )
        counts += 1

    data = {name: total / counts for name, total in sums.items()}
    rows = [
        [name, PAPER_TABLE2.get(name, "-"), f"{mean:.2f}x"]
        for name, mean in data.items()
    ]
    rendered = render_table(
        f"Table 2 — speedups with prefetching ({threads} threads)",
        ["configuration", "paper", "measured"],
        rows,
    )
    return ExperimentResult("table2", data, rendered, PAPER_TABLE2)


# ---------------------------------------------------------- pre-execution


def run_preexec(
    blocks: int = 3,
    txs_per_block: int = 200,
    threads: int = DEFAULT_THREADS,
    accounts: int = 500,
) -> ExperimentResult:
    """§6.3 pre-execution: SSA logs generated before block processing.

    Pre-executions run in the transaction-dissemination window, so the read
    phase is off the critical path and (as a side effect, exactly as in
    reality) the state it touches is already cached when the block arrives;
    stale reads surface as conflicts repaired by the redo phase.
    """
    chain = standard_chain(accounts=accounts)
    workload = standard_workload(chain, txs_per_block)
    block_list = workload.blocks(START_BLOCK, blocks)

    total = 0.0
    for block in block_list:
        serial = SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        executor = ParallelEVMExecutor(threads=threads, preexecute=True)
        result = executor.execute_block(chain.fresh_world(), block.txs, block.env)
        if result.writes != serial.writes:
            raise ConcurrencyError("pre-executed ParallelEVM diverged")
        total += serial.makespan_us / result.makespan_us

    mean = total / len(block_list)
    data = {"parallelevm-preexec": mean}
    rendered = render_table(
        "Pre-execution optimization (§6.3)",
        ["configuration", "paper", "measured"],
        [["parallelevm-preexec", PAPER_PREEXEC["parallelevm-preexec"], f"{mean:.2f}x"]],
    )
    return ExperimentResult("preexec", data, rendered, PAPER_PREEXEC)


# --------------------------------------------------------------- Figure 9


def run_fig9(
    blocks: int = 12,
    txs_per_block: int = 120,
    threads: int = DEFAULT_THREADS,
    accounts: int = 500,
) -> ExperimentResult:
    """Figure 9: the distribution of per-block ParallelEVM speedups.

    Real mainnet blocks vary widely in size and composition — that, far
    more than conflict rates (to which ParallelEVM is deliberately
    insensitive), is what spreads the paper's histogram over 2-7x.  Each
    sampled block here draws its transaction count and its native/DeFi mix
    from block-seeded distributions around the calibrated defaults.
    """
    import random as _random

    from ..workloads import MainnetConfig, MainnetWorkload

    chain = standard_chain(accounts=accounts)
    block_list = []
    for i in range(blocks):
        rng = _random.Random(0x9F9 ^ i)
        config = MainnetConfig()
        config.txs_per_block = max(10, int(txs_per_block * rng.uniform(0.15, 1.4)))
        config.native_share = min(0.8, config.native_share * rng.uniform(0.5, 2.5))
        config.amm_share = config.amm_share * rng.uniform(0.3, 1.5)
        block_list.append(
            MainnetWorkload(chain, config).block(START_BLOCK + i)
        )
    summaries = measure_speedups(
        chain, block_list, [ParallelEVMExecutor(threads=threads)]
    )
    speedups = summaries["parallelevm"].speedups

    edges = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 12.0]
    counts = [0] * (len(edges) - 1)
    for s in speedups:
        for i in range(len(edges) - 1):
            if edges[i] <= s < edges[i + 1]:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    rendered = render_histogram(
        f"Figure 9 — ParallelEVM speedup distribution over {blocks} blocks "
        "(paper: most blocks 2-7x, 0.88% below 1x)",
        edges,
        counts,
    )
    data = {
        "speedups": speedups,
        "edges": edges,
        "counts": counts,
        "below_1x_share": sum(1 for s in speedups if s < 1.0) / len(speedups),
    }
    return ExperimentResult("fig9", data, rendered, {"range": "2-7x"})


# -------------------------------------------------------------- Figure 10


def run_fig10(
    thread_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    blocks: int = 2,
    txs_per_block: int = 160,
    accounts: int = 500,
) -> ExperimentResult:
    """Figure 10: speedup of each algorithm versus thread count."""
    chain = standard_chain(accounts=accounts)
    workload = standard_workload(chain, txs_per_block)
    block_list = workload.blocks(START_BLOCK, blocks)

    series: dict[str, list[float]] = {}
    for threads in thread_counts:
        summaries = measure_speedups(chain, block_list, _table1_suite(threads))
        for name, summary in summaries.items():
            if name == "serial":
                continue
            series.setdefault(name, []).append(summary.mean)

    rendered = render_series(
        "Figure 10 — speedup vs number of threads",
        "threads",
        list(thread_counts),
        series,
    )
    return ExperimentResult(
        "fig10",
        {"threads": list(thread_counts), "series": series},
        rendered,
        {"shape": "ParallelEVM dominates and scales furthest"},
    )


# -------------------------------------------------------------- Figure 11


def run_fig11(
    ratios: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    txs_per_block: int = 150,
    threads: int = DEFAULT_THREADS,
    accounts: int = 500,
) -> ExperimentResult:
    """Figure 11: ERC20 blocks with a controlled conflicting-tx ratio."""
    chain = standard_chain(accounts=accounts)
    executors = [
        OCCExecutor(threads=threads),
        BlockSTMExecutor(threads=threads),
        ParallelEVMExecutor(threads=threads),
    ]
    series: dict[str, list[float]] = {ex.name: [] for ex in executors}
    for i, ratio in enumerate(ratios):
        block = conflict_ratio_block(
            chain, START_BLOCK + i, txs_per_block, ratio=ratio, seed=7
        )
        summaries = measure_speedups(chain, [block], executors)
        for ex in executors:
            series[ex.name].append(summaries[ex.name].mean)

    rendered = render_series(
        "Figure 11 — speedup vs conflicting-transaction ratio (ERC20 blocks)",
        "conflict ratio",
        [f"{r:.0%}" for r in ratios],
        series,
    )
    return ExperimentResult(
        "fig11",
        {"ratios": list(ratios), "series": series},
        rendered,
        {"shape": "near-parity at 0%; ParallelEVM's margin grows with contention"},
    )


# -------------------------------------------------------------- Figure 12


def run_fig12(
    block_sizes: tuple[int, ...] = (50, 100, 200, 400),
    threads: int = DEFAULT_THREADS,
    accounts: int = 900,
    blocks_per_size: int = 2,
) -> ExperimentResult:
    """Figure 12: ParallelEVM speedup versus block transaction count."""
    chain = standard_chain(accounts=accounts)
    speedups: list[float] = []
    for i, size in enumerate(block_sizes):
        workload = standard_workload(chain, size)
        blocks = workload.blocks(START_BLOCK + 10 * i, blocks_per_size)
        summaries = measure_speedups(
            chain, blocks, [ParallelEVMExecutor(threads=threads)]
        )
        speedups.append(summaries["parallelevm"].mean)

    rendered = render_series(
        "Figure 12 — ParallelEVM speedup vs block transaction count",
        "txs/block",
        list(block_sizes),
        {"parallelevm": speedups},
    )
    return ExperimentResult(
        "fig12",
        {"sizes": list(block_sizes), "speedups": speedups},
        rendered,
        {"shape": "speedup grows with block size"},
    )


# --------------------------------------------------------------- Figure 3


def run_fig3(
    blocks: int = 10,
    txs_per_block: int = 200,
    accounts: int = 500,
) -> ExperimentResult:
    """Figure 3: hot-spot distributions of the synthesized workload.

    Reports (a) the realised invocation/access concentration measured from
    generated blocks and (b) the generator's Zipf model extrapolated to the
    paper's populations (10M contracts, 200M slots) for the 0.1%-head
    statistics, which a laptop-scale population cannot express directly.
    """
    chain = standard_chain(accounts=accounts)
    workload = standard_workload(chain, txs_per_block)

    invocations: dict[bytes, int] = {}
    slot_accesses: dict[tuple, int] = {}
    for block in workload.blocks(START_BLOCK, blocks):
        serial = SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        for result in serial.tx_results:
            if result.tx.to is not None:
                invocations[result.tx.to] = invocations.get(result.tx.to, 0) + 1
            for key in list(result.read_set) + list(result.write_set):
                if key[0] == "s":
                    slot_accesses[key] = slot_accesses.get(key, 0) + 1

    inv_counts = sorted(invocations.values(), reverse=True)
    slot_counts = sorted(slot_accesses.values(), reverse=True)
    total_inv = sum(inv_counts)
    total_slots = sum(slot_counts)
    top10_share = sum(inv_counts[:10]) / total_inv

    data = {
        "measured_top10_contract_share": top10_share,
        "measured_top1pct_slot_share": (
            sum(slot_counts[: max(1, len(slot_counts) // 100)]) / total_slots
        ),
        # Exponents fitted to the paper's own measurements: s=1.10 puts 76%
        # of 10M contracts' invocations in the hottest 0.1%; s=0.987 puts 62%
        # of 200M slots' accesses in the hottest 0.1%.  The tiny populations
        # a laptop-scale chain can host need steeper per-population
        # exponents to produce the same *block-level* contention.
        "model_contract_head_share": zipf_head_share(10_000_000, 1.10, 0.001),
        "model_slot_head_share": zipf_head_share(200_000_000, 0.987, 0.001),
        "invocation_counts": inv_counts[:20],
        "slot_access_counts": slot_counts[:20],
    }
    rows = [
        ["hottest 0.1% contracts (model, 10M pop)", "76%",
         f"{data['model_contract_head_share']:.0%}"],
        ["hottest 0.1% slots (model, 200M pop)", "62%",
         f"{data['model_slot_head_share']:.0%}"],
        ["top-10 contracts (measured blocks, small population)", "~25%",
         f"{top10_share:.0%}"],
        ["hottest 1% slots (measured blocks, small population)", "(skewed)",
         f"{data['measured_top1pct_slot_share']:.0%}"],
    ]
    rendered = render_table(
        f"Figure 3 — hot-spot distributions ({blocks} blocks)",
        ["statistic", "paper", "measured"],
        rows,
    )
    return ExperimentResult("fig3", data, rendered, PAPER_FIG3)


# ------------------------------------------------------------- §6.4 stats


def _state_footprint_bytes(world) -> int:
    """A rough resident-size estimate of the node's committed state."""
    import sys

    total = 0
    for key, value in world.db.items():
        total += sys.getsizeof(key) + sys.getsizeof(value)
        for part in key:
            total += sys.getsizeof(part)
    return total


def run_overhead(
    blocks: int = 3,
    txs_per_block: int = 200,
    threads: int = DEFAULT_THREADS,
    accounts: int = 500,
) -> ExperimentResult:
    """§6.4: SSA-log size, redo cost, tracking and memory overheads."""
    chain = standard_chain(accounts=accounts)
    workload = standard_workload(chain, txs_per_block)
    block_list = workload.blocks(START_BLOCK, blocks)

    # -- log size and tracking share: trace every tx of every block --------
    from ..concurrency.base import run_speculative

    instructions = 0
    log_entries = 0
    tracked_txs = 0
    tracking_us = 0.0
    total_us = 0.0
    cost_model = ParallelEVMExecutor().cost_model
    for block in block_list:
        overlay = BlockOverlay()
        for tx in block.txs:
            tracer = SSATracer(cost_model=cost_model)
            result, meter = run_speculative(
                chain.world, overlay, tx, block.env, cost_model, tracer=tracer
            )
            overlay.apply(result.write_set)
            if tx.to is not None and result.ops_executed > 0:
                instructions += result.ops_executed
                log_entries += len(tracer.log)
                tracked_txs += 1
            tracking_us += meter.tracking_us
            total_us += meter.total_us

    # -- redo statistics from real ParallelEVM runs ------------------------
    redo_entries = 0
    conflicts = 0
    redo_successes = 0
    redo_attempts = 0
    redo_time = 0.0
    block_time = 0.0
    for block in block_list:
        executor = ParallelEVMExecutor(threads=threads)
        result = executor.execute_block(chain.fresh_world(), block.txs, block.env)
        stats = result.stats
        redo_entries += stats["redo_entries_total"]
        conflicts += stats["conflicting_txs"]
        redo_successes += stats["redo_successes"]
        redo_attempts += stats["redo_attempts"]
        redo_time += stats["redo_time_us"]
        block_time += result.makespan_us

    # -- memory overhead ----------------------------------------------------
    # The paper compares whole-node RSS (9.48 GB vs 9.08 GB => 4.41%): the
    # shadow structures exist only for transactions currently in flight.
    # The equivalent steady-state estimate here: per-transaction SSA
    # footprint (measured with tracemalloc) times the number of in-flight
    # transactions (one per thread), relative to the node's resident state.
    block = block_list[0]

    def _run_block(with_tracer: bool) -> int:
        overlay = BlockOverlay()
        keepalive = []
        tracemalloc.start()
        for tx in block.txs:
            tracer = SSATracer(cost_model=cost_model) if with_tracer else None
            result, _ = run_speculative(
                chain.world, overlay, tx, block.env, cost_model, tracer=tracer
            )
            overlay.apply(result.write_set)
            keepalive.append((result, tracer))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    peak_plain = _run_block(with_tracer=False)
    peak_traced = _run_block(with_tracer=True)
    ssa_bytes_per_tx = max(0, peak_traced - peak_plain) / len(block.txs)
    state_bytes = _state_footprint_bytes(chain.world)
    memory_overhead = (threads * ssa_bytes_per_tx) / max(1, state_bytes)

    data = {
        "mean_instructions": instructions / max(1, tracked_txs),
        "mean_log_entries": log_entries / max(1, tracked_txs),
        "log_to_instruction_ratio": log_entries / max(1, instructions),
        "redo_entries_per_conflict": redo_entries / max(1, conflicts),
        "redo_fraction_of_instructions": (
            (redo_entries / max(1, conflicts))
            / max(1.0, instructions / max(1, tracked_txs))
        ),
        "redo_time_share": redo_time / max(1.0, block_time),
        "redo_success_rate": redo_successes / max(1, redo_attempts),
        "tracking_time_share": tracking_us / max(1.0, total_us),
        "memory_overhead": memory_overhead,
        "ssa_bytes_per_tx": ssa_bytes_per_tx,
    }
    rows = [
        ["mean EVM instructions / call", 2559, f"{data['mean_instructions']:.0f}"],
        ["mean SSA log entries / call", 127, f"{data['mean_log_entries']:.0f}"],
        ["log size / instructions", "5.0%", f"{data['log_to_instruction_ratio']:.1%}"],
        ["redo entries / conflicting tx", 7, f"{data['redo_entries_per_conflict']:.1f}"],
        ["redo / instructions", "0.3%", f"{data['redo_fraction_of_instructions']:.1%}"],
        ["redo share of block time", "4.9%", f"{data['redo_time_share']:.1%}"],
        ["conflicts resolved by redo", "87%", f"{data['redo_success_rate']:.0%}"],
        ["SSA tracking time share", "4.5%", f"{data['tracking_time_share']:.1%}"],
        ["memory overhead", "4.4%", f"{data['memory_overhead']:.1%}"],
    ]
    rendered = render_table(
        "§6.4 — ParallelEVM overhead analysis",
        ["metric", "paper", "measured"],
        rows,
    )
    return ExperimentResult("overhead", data, rendered, PAPER_OVERHEAD)


# --------------------------------------------------- pipelined execution


def run_pipeline(
    blocks: int = 30,
    txs_per_block: int = 40,
    threads: int = DEFAULT_THREADS,
    accounts: int = 20_000,
) -> ExperimentResult:
    """Async-storage pipelining: prefetch and commit off the block path.

    Runs the chain service over the default soak stream with a durable
    commit pipeline attached, once per pipeline configuration, and reports
    sustained simulated service time per block.  The synchronous row is the
    baseline every ratio is against; "prefetch" warms the next block's
    statically-predicted read set in the dissemination window; "async
    commit" moves the journal+fsync commit onto the virtual commit lane.
    Every configuration must end on the identical state fingerprint — the
    pipeline changes *when* the clock says stages ran, never what executed.
    """
    # Lazy imports: experiments that never serve need no service layer.
    from ..durability import DurableCommitPipeline
    from ..pipeline import PipelineConfig, PipelineCoordinator
    from ..service import ChainService
    from ..workloads.stream import BlockStream, StreamSpec, build_stream_chain

    configs = [
        ("synchronous", None),
        ("prefetch only", PipelineConfig(async_commit=False)),
        ("async commit only", PipelineConfig(prefetch=False)),
        ("prefetch + async commit", PipelineConfig()),
    ]
    per_block: dict[str, float] = {}
    fingerprints = set()
    for label, pipeline_config in configs:
        chain = build_stream_chain(
            StreamSpec(accounts=accounts, txs_per_block=txs_per_block, seed=1),
            cache_capacity=100_000,
        )
        executor = ParallelEVMExecutor(threads=threads)
        executor.durability = DurableCommitPipeline()
        coordinator = (
            PipelineCoordinator(pipeline_config)
            if pipeline_config is not None
            else None
        )
        service = ChainService(BlockStream(chain), executor, pipeline=coordinator)
        for _ in service.run(blocks):
            pass
        per_block[label] = service.sim_time_us / blocks
        fingerprints.add(chain.world.fingerprint())
    if len(fingerprints) != 1:
        raise ConcurrencyError("pipelined service diverged from synchronous")

    baseline = per_block["synchronous"]
    data = {
        "per_block_us": per_block,
        "speedup": {
            label: baseline / value for label, value in per_block.items()
        },
    }
    rendered = render_table(
        "Pipelined execution (prefetch + async commit)",
        ["configuration", "us / block", "vs synchronous"],
        [
            [label, f"{per_block[label]:.1f}", f"{baseline / per_block[label]:.2f}x"]
            for label, _ in configs
        ],
    )
    return ExperimentResult("pipeline", data, rendered)


def run_ingress_overload(
    blocks: int = 24,
    txs_per_block: int = 12,
    threads: int = DEFAULT_THREADS,
    accounts: int = 160,
) -> ExperimentResult:
    """Overload sweep on the serving path: admission under rising load.

    Runs the deterministic ingress harness (clients -> JSON-RPC facade ->
    mempool -> chain service) at offered loads from comfortably
    sustainable to 4x oversubscribed and reports where every transaction
    went: committed, still pending, shed under backpressure, or rejected
    at admission.  Correctness-only — every row must certify conservation
    and serial equivalence, and no row makes a performance claim; the
    point is that the *accounting* closes at every load factor.
    """
    # Lazy imports: experiments that never serve need no service layer.
    from ..mempool import MempoolConfig
    from ..rpc import IngressConfig, run_ingress

    from ..obs.lifecycle import WATERFALL_PHASES
    from ..obs.streaming import format_stat

    rates = [0.8, 1.5, 2.5, 4.0]
    rows = []
    waterfall_rows = []
    data: dict[str, dict] = {}
    for rate in rates:
        report = run_ingress(
            IngressConfig(
                blocks=blocks,
                txs_per_block=txs_per_block,
                threads=threads,
                accounts=accounts,
                clients=6,
                seed=1,
                window_blocks=max(4, blocks // 4),
                rate_multiplier=rate,
                # A pool a few blocks deep, so the global watermark (not
                # just per-sender quotas) binds once the load exceeds 1x.
                mempool=MempoolConfig(
                    capacity=4 * txs_per_block,
                    per_sender_quota=2 * txs_per_block,
                ),
            )
        )
        if not report.ok:
            raise ConcurrencyError(
                f"ingress run at {rate}x diverged: {report.divergences}"
            )
        shed = sum(report.shed.values())
        rejected = sum(report.rejected.values())
        label = f"{rate:.1f}x"
        blame = report.lifecycle["blame"]
        latency = blame["latency_us"]
        data[label] = {
            "submitted": report.submitted,
            "admitted": report.admitted,
            "committed": report.committed,
            "pending": report.pending,
            "shed": shed,
            "rejected": rejected,
            "backpressure_events": report.backpressure_events,
            "retries": report.retries,
            "latency_p50_us": latency["p50"],
            "latency_p99_us": latency["p99"],
            "waterfall_p99_us": {
                name: blame["phases"][name]["p99"]
                for name in WATERFALL_PHASES
            },
            "slo_alerts": report.slo["alerts"],
        }
        waterfall_rows.append(
            [label]
            + [format_stat(blame["phases"][name], "p99") for name in WATERFALL_PHASES]
            + [format_stat(latency, "p99")]
        )
        rows.append(
            [
                label,
                str(report.submitted),
                str(report.admitted),
                str(report.committed),
                str(report.pending),
                str(shed),
                str(rejected),
                str(report.backpressure_events),
            ]
        )
    rendered = render_table(
        "Ingress overload sweep (offered load vs sustainable rate)",
        [
            "offered",
            "submitted",
            "admitted",
            "committed",
            "pending",
            "shed",
            "rejected",
            "backpressure",
        ],
        rows,
    )
    rendered += "\n\n" + render_table(
        "Latency waterfall at p99 (simulated us, committed txs)",
        ["offered", *WATERFALL_PHASES, "client p99"],
        waterfall_rows,
    )
    return ExperimentResult("ingress_overload", data, rendered)
