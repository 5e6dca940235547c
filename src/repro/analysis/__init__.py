"""Workload analysis: conflict graphs and theoretical speedup bounds.

The paper grounds its expectations in the literature's observation that
"the optimal performance gain varies from 2x to 8x" on real blockchains
because the *critical path* — the longest chain of dependent transactions —
bounds any transaction-level scheme [Garamvölgyi et al.; Reijsbergen &
Dinh; Saraph & Herlihy].  ``analyze_block`` is the one definition of that
bound: the cold serial makespan over the critical path of a prefetched
(warm) serial run.  The ``run`` / ``compare`` report, the bench suite's
``bound_fraction`` and the ``bounds`` experiment all call it, so achieved
speedups are set against the workload's own ceiling — and show how far
ParallelEVM's operation-level strategy pushes *past* it.
"""

from .conflict_graph import BlockConflictAnalysis, analyze_block

__all__ = ["BlockConflictAnalysis", "analyze_block"]
