"""Workload generation: blocks whose statistics match the paper's.

The paper evaluates on Ethereum mainnet blocks 14.0M-15.0M.  Those traces
are not redistributable, so this package synthesizes blocks with the same
*measured contention structure* (Figure 3: 0.1% of contracts take 76% of
invocations, 0.1% of slots take 62% of accesses, the top-10 contracts — 9 of
them ERC20s — take ~25% of invocations), using real EVM bytecode for every
transaction.  DESIGN.md documents the substitution.
"""

from .block import Block, Chain, ChainSpec, ChainView, build_chain, copy_block
from .zipf import ZipfSampler
from .erc20_workload import conflict_ratio_block
from .mainnet import MainnetConfig, MainnetWorkload
from .stream import BlockStream, StreamSpec, build_stream_chain

__all__ = [
    "Block",
    "BlockStream",
    "Chain",
    "ChainSpec",
    "ChainView",
    "StreamSpec",
    "build_chain",
    "build_stream_chain",
    "copy_block",
    "ZipfSampler",
    "conflict_ratio_block",
    "MainnetConfig",
    "MainnetWorkload",
]
