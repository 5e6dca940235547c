"""Argument types and groups more than one command family declares.

A flag that sets a config field (or a parameter) has ``dest=<field>`` and
no default: :func:`given` drops it when unset, so the config's own default
applies.
"""

from __future__ import annotations

import argparse
from inspect import signature

from ..concurrency.registry import EXECUTOR_NAMES


class UsageError(Exception):
    """A command line a handler rejects: ``main`` prints ``<command>:
    <message>`` as one stderr line and exits 2."""


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1 (argparse reports a
    non-integer itself)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a number above 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def share(text: str) -> float:
    """argparse type: a fraction in [0, 1]."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be a share in [0, 1], got {text}")
    return value


def given(args: argparse.Namespace, consumer) -> dict:
    """The parameters of ``consumer`` (a config class or a function) this
    command line set, by ``dest``."""
    names = signature(consumer).parameters
    values = {name: getattr(args, name, None) for name in names}
    return {name: value for name, value in values.items() if value is not None}


def add_executor(parser, default: str | None = "parallelevm") -> None:
    """``--executor``: any config of the registry (None: the config's)."""
    parser.add_argument("--executor", choices=sorted(EXECUTOR_NAMES), default=default)


def add_durability(parser, durable_dir_help: str, checkpoint_default=0) -> None:
    """``--durable-dir`` / ``--checkpoint-interval``: the on-disk journal."""
    parser.add_argument("--durable-dir", metavar="DIR", help=durable_dir_help)
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=checkpoint_default,
        help="snapshot + prune the journal every N blocks (0 disables)",
    )
