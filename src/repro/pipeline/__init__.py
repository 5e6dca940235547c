"""Async-storage pipelined execution across block boundaries.

The Reddio direction from the ROADMAP: decouple EVM execution from
storage I/O with (a) an async prefetch stage warming the block cache from
the next block's statically-predictable read set, (b) an async commit
lane overlapping block N's trie/journal commit with block N+1's
execution (barriering only on genuinely-read in-flight keys), and (c) a
multi-block driver — :class:`PipelineCoordinator` attached to a
:class:`~repro.service.ChainService` — so sustained tx/s reflects the
overlap.

Off by default everywhere: with no coordinator attached the service, the
executors and every benchmark take the exact pre-pipeline code path
(``BENCH_small.json`` stays byte-identical).

Entry points::

    from repro.pipeline import PipelineConfig, PipelineCoordinator

    service = ChainService(stream, executor,
                           pipeline=PipelineCoordinator(PipelineConfig()))

or ``python -m repro soak --pipeline`` from the CLI.
"""

from .driver import BlockTiming, PipelineConfig, PipelineCoordinator
from .prefetch import predicted_read_keys

__all__ = [
    "BlockTiming",
    "PipelineConfig",
    "PipelineCoordinator",
    "predicted_read_keys",
]
