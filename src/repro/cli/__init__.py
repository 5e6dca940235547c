"""Command-line interface: ``python -m repro <command>``.

Commands
--------
compare      run one synthesized block through every executor, print speedups
run          run one block under one executor with tracing/metrics attached
experiment   run a named paper experiment (table1, fig11, ...), print it
bench        run the regression benchmark suite, emit BENCH_small.json
replay       replay a span of blocks with MPT state-root validation
recover      rebuild world state from an on-disk journal + snapshots
inspect      print the SSA operation log of one transaction and walk a redo
fuzz         certify fuzzed adversarial blocks, shrinking/dumping failures
chaos        certify blocks with every executor under fault injection
certify      the serializability acceptance gate (fixed seed matrix)
crashfuzz    certify commit atomicity at every crash site, plus reorgs
replicate    crash the primary at every commit site, certify zero-loss failover
soak         run the long-lived chain service, stream windowed telemetry
serve        expose the chain service over the demo HTTP JSON-RPC transport
loadgen      drive the serving stack with the seeded open-loop client fleet

Every command is deterministic: the same arguments print the same numbers.
One module per command family — :mod:`.blocks`, :mod:`.certify`,
:mod:`.serving` — each declaring its commands' arguments next to their
handlers and adding them through ``register(sub)``.  Every usage error is
one stderr line and exit status 2.
"""

from __future__ import annotations

import argparse
import sys

from . import blocks, certify, serving
from .blocks import EXPERIMENTS
from .options import UsageError

__all__ = ["EXPERIMENTS", "build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line (no usage echo)."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="ParallelEVM (EuroSys '25) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for family in (blocks, certify, serving):
        family.register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
