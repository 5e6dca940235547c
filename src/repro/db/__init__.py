"""Key-value storage substrates.

The paper's prototype reads committed Ethereum state from an on-disk LevelDB
database; storage reads (SLOADs) dominate block execution time (§6.3, "State
Prefetching Optimization").  This package provides the stand-in: an in-memory
map with a *simulated* read-latency model and an LRU cache layer, so the
discrete-event machine can charge realistic costs to cold and warm reads, and
so prefetching (Table 2) has the same effect it has in the paper.
"""

from .kvstore import SimulatedDiskKV, ReadSample
from .cache import LRUCache

__all__ = ["SimulatedDiskKV", "LRUCache", "ReadSample"]
