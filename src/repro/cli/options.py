"""Argument groups more than one command family declares."""

from __future__ import annotations

import argparse

from ..concurrency.registry import EXECUTOR_NAMES


def positive_int(text: str) -> int:
    """argparse type of ``--threads``: an integer of at least 1.

    A non-integer raises ``ValueError``, which argparse reports itself.
    """
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def add_executor(parser: argparse.ArgumentParser) -> None:
    """``--executor``: any config of the registry, ParallelEVM by default."""
    parser.add_argument(
        "--executor", choices=sorted(EXECUTOR_NAMES), default="parallelevm"
    )


def add_durability(parser: argparse.ArgumentParser, durable_dir_help: str) -> None:
    """``--durable-dir`` / ``--checkpoint-interval``: the on-disk journal."""
    parser.add_argument("--durable-dir", metavar="DIR", help=durable_dir_help)
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=0,
        help="snapshot + prune the journal every N blocks (0 disables)",
    )
