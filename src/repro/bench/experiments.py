"""Every experiment of the reproduction: one registry, one result type.

Each runner regenerates one table or figure of the paper (or one extension
study) and returns its structured data and a plain-text rendering.
:data:`EXPERIMENTS` maps each experiment's name to its EXPERIMENTS.md
section title, its runner, a commentary function that writes the section's
prose from the results alone (so no measured number is ever typed by hand)
and the paper's reference numbers; :func:`run_experiment` turns one entry
into its :class:`ExperimentResult`.  ``scripts/generate_experiments_md.py``
runs the registry into ``benchmarks/results/<name>.json`` and assembles
EXPERIMENTS.md from those files; ``repro experiment <name>`` runs one entry.

Every runner's sizes are module constants — the record's one scale, a size
that completes in seconds per experiment on a laptop; the paper's absolute
numbers were measured over a million mainnet blocks, so only the *shape*
(ordering, rough factors, crossovers) is expected to match — see DESIGN.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from typing import Callable, Mapping

from ..analysis import analyze_block
from ..concurrency.base import run_speculative
from ..concurrency.registry import make_executor
from ..core import ScheduledValidatorExecutor, propose_schedule
from ..core.ssa_log import DEF_MEMORY, DEF_STACK, META, OPERANDS, RESULT
from ..core.tracer import SSATracer
from ..errors import ConcurrencyError
from ..sim.cost import DEFAULT_COST_MODEL
from ..state.view import BlockOverlay
from ..workloads import MainnetConfig, MainnetWorkload, conflict_ratio_block
from ..workloads.zipf import zipf_head_share
from .harness import (
    DEFAULT_THREADS,
    START_BLOCK,
    TABLE1_EXECUTORS,
    against_serial,
    measure_speedups,
    standard_chain,
    standard_workload,
)
from .report import render_histogram, render_series, render_table

# The record's one scale.  Runners use ``standard_chain()`` (500 accounts)
# and DEFAULT_THREADS unless they state otherwise.
BLOCKS = 3  # Tables 1 and 2, pre-execution and §6.4
TXS_PER_BLOCK = 200  # every mainnet-like block without a size of its own


@dataclass(frozen=True, slots=True)
class ExperimentResult:
    """One experiment's outcome, exactly as the record stores it.

    ``paper`` holds the paper's reference numbers.  Every field is plain
    JSON, and nothing in it depends on the wall clock.
    """

    experiment: str
    data: dict
    paper: dict
    rendered: str

    def to_json(self) -> str:
        """Sorted keys, one line per field: a regenerated record's diff
        names exactly the fields that moved."""
        lines = [
            f"{json.dumps(f.name)}: "
            f"{json.dumps(getattr(self, f.name), sort_keys=True, ensure_ascii=False)}"
            for f in sorted(fields(self), key=lambda f: f.name)
        ]
        return "{\n" + ",\n".join(lines) + "\n}\n"

    @classmethod
    def from_json(cls, text: str) -> ExperimentResult:
        return cls(**json.loads(text))


def _plain(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


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
PAPER_FIG9 = {"range": "2-7x", "below_1x_share": 0.0088}
PAPER_OVERHEAD = {
    "mean_instructions": 2559,
    "mean_log_entries": 127,
    "log_to_instruction_ratio": 0.050,  # 127 / 2559
    "redo_entries_per_conflict": 7.0,
    "redo_fraction_of_instructions": 0.003,
    "redo_time_share": 0.049,
    "redo_success_rate": 0.87,
    "tracking_time_share": 0.045,
    "memory_overhead": 0.0441,
}


# ----------------------------------------- Tables 1 and 2, pre-execution


def _speedup_table(
    title: str,
    label: str,
    names: tuple[str, ...],
    paper: Mapping,
    rows: tuple[str, ...] | None = None,
    *,
    prefetched: bool = False,
):
    """The mean speedup over cold serial of each registry config in
    ``names`` on the shared ``BLOCKS`` x ``TXS_PER_BLOCK`` sample, one row
    each, named ``rows`` (default: ``names``) beside its ``paper`` value.

    Rows follow the names given, not ``executor.name``:
    ``parallelevm-preexec`` reports itself as ``parallelevm``.
    """
    chain = standard_chain()
    block_list = standard_workload(chain, TXS_PER_BLOCK).blocks(START_BLOCK, BLOCKS)
    executors = [make_executor(name, DEFAULT_THREADS) for name in names]
    summaries = measure_speedups(chain, block_list, executors, prefetched=prefetched)
    data = {
        row: summary.mean for row, summary in zip(rows or names, summaries.values())
    }
    rendered = render_table(
        title,
        [label, "paper", "measured"],
        [[row, paper.get(row, "-"), f"{mean:.2f}x"] for row, mean in data.items()],
    )
    return data, rendered


def run_table1():
    """Table 1: mean speedup of each algorithm on mainnet-like blocks."""
    return _speedup_table(
        f"Table 1 — speedup vs serial ({DEFAULT_THREADS} threads, "
        f"{BLOCKS} blocks x {TXS_PER_BLOCK} txs)",
        "algorithm",
        TABLE1_EXECUTORS,
        PAPER_TABLE1,
    )


def _table1_text(results) -> str:
    t1, paper = results["table1"].data, PAPER_TABLE1
    return (
        "Ordering reproduces exactly (2PL < OCC < Block-STM < ParallelEVM). "
        f"Our 2PL lands at {t1['2pl']:.2f}x (paper {paper['2pl']}x): on the "
        "same simulated machine as the others, the trace-driven wound-wait "
        "model suffers wound storms on the hot keys and pays a serialized "
        "lock-manager tail.  "
        f"Block-STM ({t1['block-stm']:.2f}x) and ParallelEVM "
        f"({t1['parallelevm']:.2f}x) land above the paper's "
        f"{paper['block-stm']}x and {paper['parallelevm']}x — the fidelity gap "
        "the cost model still owes an account of — and their ratio is "
        f"{t1['parallelevm'] / t1['block-stm']:.2f} against the paper's "
        f"{paper['parallelevm'] / paper['block-stm']:.2f}."
    )


# --------------------------------------------------------------- Table 2


def run_table2():
    """Table 2: speedups with state prefetching (two-phase protocol).

    Phase one replays the block purely to discover and warm its storage
    slots; phase two is measured.  All speedups are against the *cold*
    serial baseline, as in the paper.
    """
    return _speedup_table(
        f"Table 2 — speedups with prefetching ({DEFAULT_THREADS} threads)",
        "configuration",
        ("serial", *TABLE1_EXECUTORS),
        PAPER_TABLE2,
        ("prefetch", *(name + "+" for name in TABLE1_EXECUTORS)),
        prefetched=True,
    )


def _table2_text(results) -> str:
    t1, t2, paper = results["table1"].data, results["table2"].data, PAPER_TABLE2
    lifted = all(t2[name + "+"] > t1[name] for name in t1)
    return (
        f"Prefetch-only serial execution lands at {t2['prefetch']:.2f}x "
        f"(paper {paper['prefetch']}x); "
        f"{'every' if lifted else 'not every'} algorithm improves on its "
        "Table 1 speedup, and ParallelEVM+prefetch stays on top at "
        f"{t2['parallelevm+']:.2f}x (paper {paper['parallelevm+']}x).  Our 2PL+ "
        f"({t2['2pl+']:.2f}x) is {t2['2pl+'] / t2['occ+']:.2f}x OCC+ "
        f"({t2['occ+']:.2f}x), where the paper's is "
        f"{paper['2pl+'] / paper['occ+']:.2f}x.  Why 2PL+ overtakes OCC+ is "
        "open and not yet diagnosed (ROADMAP 1(e))."
    )


# ---------------------------------------------------------- pre-execution


def run_preexec():
    """§6.3 pre-execution: SSA logs generated before block processing.

    Pre-executions run in the transaction-dissemination window, so the read
    phase is off the critical path and (as a side effect, exactly as in
    reality) the state it touches is already cached when the block arrives;
    stale reads surface as conflicts repaired by the redo phase.
    """
    return _speedup_table(
        "Pre-execution optimization (§6.3)",
        "configuration",
        ("parallelevm-preexec",),
        PAPER_PREEXEC,
    )


def _preexec_text(results) -> str:
    preexec = results["preexec"].data["parallelevm-preexec"]
    plain = results["table1"].data["parallelevm"]
    prefetched = results["table2"].data["parallelevm+"]
    return (
        "Pre-generating SSA logs in the dissemination window takes the read "
        "phase off the critical path, but every stale read then costs a redo "
        f"at the commit point.  Here pre-execution lands at {preexec:.2f}x, "
        f"{preexec / plain:.0%} of plain ParallelEVM ({plain:.2f}x) and "
        f"{preexec / prefetched:.0%} of ParallelEVM+prefetch "
        f"({prefetched:.2f}x); in the paper it is the fastest configuration "
        f"({PAPER_PREEXEC['parallelevm-preexec']}x)."
    )


# --------------------------------------------------------------- Figure 9


FIG9_BLOCKS = 12
FIG9_TXS_PER_BLOCK = 120  # the centre each sampled block's size scatters around


def run_fig9():
    """Figure 9: the distribution of per-block ParallelEVM speedups.

    Real mainnet blocks vary widely in size and composition — that, far
    more than conflict rates (to which ParallelEVM is deliberately
    insensitive), is what spreads the paper's histogram over 2-7x.  Each
    sampled block here draws its transaction count and its native/DeFi mix
    from block-seeded distributions around the calibrated defaults.
    """
    chain = standard_chain()
    block_list = []
    for i in range(FIG9_BLOCKS):
        rng = random.Random(0x9F9 ^ i)
        config = MainnetConfig()
        config.txs_per_block = max(
            10, int(FIG9_TXS_PER_BLOCK * rng.uniform(0.15, 1.4))
        )
        config.native_share = min(0.8, config.native_share * rng.uniform(0.5, 2.5))
        config.amm_share = config.amm_share * rng.uniform(0.3, 1.5)
        block_list.append(
            MainnetWorkload(chain, config).block(START_BLOCK + i)
        )
    summaries = measure_speedups(
        chain, block_list, [make_executor("parallelevm", DEFAULT_THREADS)]
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
        f"Figure 9 — ParallelEVM speedup distribution over {FIG9_BLOCKS} blocks "
        f"(paper: most blocks {PAPER_FIG9['range']}, "
        f"{PAPER_FIG9['below_1x_share']:.2%} below 1x)",
        edges,
        counts,
    )
    data = {
        "speedups": speedups,
        "edges": edges,
        "counts": counts,
        "below_1x_share": sum(1 for s in speedups if s < 1.0) / len(speedups),
    }
    return data, rendered


def _fig9_text(results) -> str:
    data = results["fig9"].data
    filled = [i for i, count in enumerate(data["counts"]) if count]
    low, high = data["edges"][filled[0]], data["edges"][filled[-1] + 1]
    return (
        f"The paper reports most blocks in {PAPER_FIG9['range']} with "
        f"{PAPER_FIG9['below_1x_share']:.2%} regressions; our per-block "
        f"speedups fill the {low:g}-{high:g}x buckets, and "
        f"{data['below_1x_share']:.0%} regress (the synthetic stream has less "
        "cross-block variance than a year of mainnet)."
    )


# -------------------------------------------------------------- Figure 10


FIG10_THREAD_COUNTS = (1, 2, 4, 8, 16)
FIG10_BLOCKS = 2
FIG10_TXS_PER_BLOCK = 160


def run_fig10():
    """Figure 10: speedup of each algorithm versus thread count."""
    chain = standard_chain()
    block_list = standard_workload(chain, FIG10_TXS_PER_BLOCK).blocks(
        START_BLOCK, FIG10_BLOCKS
    )

    series: dict[str, list[float]] = {}
    for threads in FIG10_THREAD_COUNTS:
        executors = [make_executor(name, threads) for name in TABLE1_EXECUTORS]
        summaries = measure_speedups(chain, block_list, executors)
        for name, summary in summaries.items():
            series.setdefault(name, []).append(summary.mean)

    rendered = render_series(
        "Figure 10 — speedup vs number of threads",
        "threads",
        list(FIG10_THREAD_COUNTS),
        series,
    )
    return {"threads": list(FIG10_THREAD_COUNTS), "series": series}, rendered


def _fig10_text(results) -> str:
    data = results["fig10"].data
    threads, series = data["threads"], data["series"]
    pe, occ = series["parallelevm"], series["occ"]
    occ_peak = occ.index(max(occ))
    return (
        "Paper shape holds: ParallelEVM leads at every thread count above "
        f"one, rising from {pe[0]:.2f}x on one thread to {max(pe):.2f}x; OCC "
        f"peaks at {threads[occ_peak]} threads ({occ[occ_peak]:.2f}x); 2PL "
        f"stays flat, never above {max(series['2pl']):.2f}x."
    )


# -------------------------------------------------------------- Figure 11


FIG11_RATIOS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
FIG11_TXS_PER_BLOCK = 150
# The paper's Fig. 11 columns; the critical-path bound analysis reuses them.
FIG11_EXECUTORS = ("occ", "block-stm", "parallelevm")


def run_fig11():
    """Figure 11: ERC20 blocks with a controlled conflicting-tx ratio."""
    chain = standard_chain()
    executors = [make_executor(name, DEFAULT_THREADS) for name in FIG11_EXECUTORS]
    series: dict[str, list[float]] = {name: [] for name in FIG11_EXECUTORS}
    for i, ratio in enumerate(FIG11_RATIOS):
        block = conflict_ratio_block(
            chain, START_BLOCK + i, FIG11_TXS_PER_BLOCK, ratio=ratio, seed=7
        )
        summaries = measure_speedups(chain, [block], executors)
        for name in FIG11_EXECUTORS:
            series[name].append(summaries[name].mean)

    rendered = render_series(
        "Figure 11 — speedup vs conflicting-transaction ratio (ERC20 blocks)",
        "conflict ratio",
        [f"{r:.0%}" for r in FIG11_RATIOS],
        series,
    )
    return {"ratios": list(FIG11_RATIOS), "series": series}, rendered


def _fig11_text(results) -> str:
    series = results["fig11"].data["series"]
    pe, occ, bstm = series["parallelevm"], series["occ"], series["block-stm"]
    return (
        "Paper shape holds: near-parity at 0% (ParallelEVM at "
        f"{pe[0] / occ[0]:.0%} of OCC — SSA tracking overhead is negligible), "
        "widening ParallelEVM lead as the conflicting share grows; at 100% "
        f"OCC and Block-STM sit at {occ[-1]:.2f}x and {bstm[-1]:.2f}x while "
        f"ParallelEVM keeps {pe[-1] / pe[0]:.0%} of its conflict-free "
        f"speedup ({pe[-1]:.2f}x)."
    )


# -------------------------------------------------------------- Figure 12


FIG12_BLOCK_SIZES = (12, 25, 50, 100, 200, 400)
FIG12_BLOCKS_PER_SIZE = 2
FIG12_ACCOUNTS = 900


def run_fig12():
    """Figure 12: ParallelEVM speedup versus block transaction count."""
    chain = standard_chain(accounts=FIG12_ACCOUNTS)
    speedups: list[float] = []
    for i, size in enumerate(FIG12_BLOCK_SIZES):
        workload = standard_workload(chain, size)
        blocks = workload.blocks(START_BLOCK + 10 * i, FIG12_BLOCKS_PER_SIZE)
        summaries = measure_speedups(
            chain, blocks, [make_executor("parallelevm", DEFAULT_THREADS)]
        )
        speedups.append(summaries["parallelevm"].mean)

    rendered = render_series(
        "Figure 12 — ParallelEVM speedup vs block transaction count",
        "txs/block",
        list(FIG12_BLOCK_SIZES),
        {"parallelevm": speedups},
    )
    return {"sizes": list(FIG12_BLOCK_SIZES), "speedups": speedups}, rendered


def _fig12_text(results) -> str:
    data = results["fig12"].data
    sizes, speedups = data["sizes"], data["speedups"]
    best = speedups.index(max(speedups))
    return (
        f"Paper shape holds: speedup rises from {speedups[0]:.2f}x at "
        f"{sizes[0]} transactions to {speedups[best]:.2f}x at {sizes[best]} "
        f"and holds {speedups[-1]:.2f}x at {sizes[-1]} — larger future blocks "
        "make ParallelEVM more attractive, not less."
    )


# --------------------------------------------------------------- Figure 3


FIG3_BLOCKS = 10


def run_fig3():
    """Figure 3: hot-spot distributions of the synthesized workload.

    Reports (a) the realised invocation/access concentration measured from
    generated blocks and (b) the generator's Zipf model extrapolated to the
    paper's populations (10M contracts, 200M slots) for the 0.1%-head
    statistics, which a laptop-scale population cannot express directly.
    """
    chain = standard_chain()
    workload = standard_workload(chain, TXS_PER_BLOCK)

    invocations: dict[bytes, int] = {}
    slot_accesses: dict[tuple, int] = {}
    for block in workload.blocks(START_BLOCK, FIG3_BLOCKS):
        serial = make_executor("serial", DEFAULT_THREADS).execute_block(
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
        ["hottest 0.1% contracts (model, 10M pop)",
         f"{PAPER_FIG3['contract_head_share']:.0%}",
         f"{data['model_contract_head_share']:.0%}"],
        ["hottest 0.1% slots (model, 200M pop)",
         f"{PAPER_FIG3['slot_head_share']:.0%}",
         f"{data['model_slot_head_share']:.0%}"],
        ["top-10 contracts (measured blocks, small population)",
         f"~{PAPER_FIG3['top10_contract_share']:.0%}", f"{top10_share:.0%}"],
        ["hottest 1% slots (measured blocks, small population)", "(skewed)",
         f"{data['measured_top1pct_slot_share']:.0%}"],
    ]
    rendered = render_table(
        f"Figure 3 — hot-spot distributions ({FIG3_BLOCKS} blocks)",
        ["statistic", "paper", "measured"],
        rows,
    )
    return data, rendered


def _fig3_text(results) -> str:
    data = results["fig3"].data
    return (
        "The workload generator's Zipf models are fitted to the paper's own "
        f"measurements (0.1% of contracts -> "
        f"{PAPER_FIG3['contract_head_share']:.0%} of invocations; 0.1% of "
        f"slots -> {PAPER_FIG3['slot_head_share']:.0%} of accesses).  "
        "Block-level measured concentrations run higher (top-10 contracts: "
        f"{data['measured_top10_contract_share']:.0%} against the paper's "
        f"{PAPER_FIG3['top10_contract_share']:.0%}) because a laptop-scale "
        "chain hosts a handful of contracts, not 10 million."
    )


# ------------------------------------------------------------- §6.4 stats


# The memory row prices the SSA log and the node's state with the same
# stated object sizes (those of 64-bit CPython 3.11), so it moves only when
# an entry, a DUG edge, a tracking item or a state item does.
REF_BYTES = 8  # one reference in a list, tuple or dict entry
LIST_BYTES = 56  # a list, plus REF_BYTES per element
TUPLE_BYTES = 40  # a tuple, plus REF_BYTES per element; () is shared
BYTES_BYTES = 33  # a bytes object, plus one byte per byte
INT_BYTES = 24  # an int, plus 4 per 30-bit digit (at least one)
DICT_BYTES = 64  # a dict, plus its key table (``_dict_bytes``)
ROW_BYTES = LIST_BYTES + 11 * REF_BYTES  # a log row: the eleven fields


def _dict_bytes(items: int) -> int:
    """A dict of ``items`` entries: with any, its key table has 2**k >= 8
    slots, at most two-thirds used: a 32 B header, an index of one byte per
    slot (two past 128 slots) and a 24 B entry per usable slot."""
    if not items:
        return DICT_BYTES
    slots = 8
    while items > slots * 2 // 3:
        slots *= 2
    index = slots if slots <= 128 else 2 * slots
    return DICT_BYTES + 32 + index + (slots * 2 // 3) * 24


def _value_bytes(value) -> int:
    """An int or a bytes buffer at the stated sizes.  The ints -5..256 are
    CPython's shared ones and cost nothing beyond the reference to them."""
    if isinstance(value, bytes):
        return BYTES_BYTES + len(value)
    if -5 <= value <= 256:
        return 0
    return INT_BYTES + 4 * max(1, -(-abs(value).bit_length() // 30))


def _tuple_bytes(items) -> int:
    return TUPLE_BYTES + REF_BYTES * len(items) if items else 0


def _row_bytes(row) -> int:
    """One log row with what it keeps alive: its operand, def-stack and
    def-memory tuples, the buffers among its operands, its result and its
    meta dict.  Its opcode (an enum member), key (the tuple the read and
    write sets hold), operand ints (earlier results or code immediates) and
    a LOG's record (the receipt's) are references only."""
    operands, def_memory, result, meta = (
        row[OPERANDS], row[DEF_MEMORY], row[RESULT], row[META]
    )
    return (
        ROW_BYTES
        + _tuple_bytes(operands)
        + _tuple_bytes(row[DEF_STACK])
        + _tuple_bytes(def_memory)
        + sum(_tuple_bytes(dep) for dep in def_memory)
        + sum(BYTES_BYTES + len(v) for v in operands if isinstance(v, bytes))
        + (0 if result is None else _value_bytes(result))
        + (0 if meta is None else _dict_bytes(len(meta)))
    )


def _map_bytes(mapping) -> int:
    """The DUG or a tracking map: its dict, plus a list per key whose value
    is a list of LSNs (``uses``, ``direct_reads``, ``writes_by_key``)."""
    return _dict_bytes(len(mapping)) + sum(
        LIST_BYTES + REF_BYTES * len(value)
        for value in mapping.values()
        if isinstance(value, list)
    )


def _ssa_bytes(log) -> int:
    """One transaction's SSA log at the stated sizes: its row list and rows,
    its DUG (built, as the first redo builds it) and its three tracking
    maps."""
    rows = log.rows
    return (
        LIST_BYTES
        + REF_BYTES * len(rows)
        + sum(map(_row_bytes, rows))
        + _map_bytes(log.uses)
        + _map_bytes(log.latest_writes)
        + _map_bytes(log.direct_reads)
        + _map_bytes(log.writes_by_key)
    )


def _state_footprint_bytes(world) -> int:
    """The node's committed state at the stated sizes: the store's dict,
    and each key tuple with its parts (the one-letter tags are shared) and
    each value."""
    items = world.db.items()
    total = _dict_bytes(len(items))
    for key, value in items:
        total += _tuple_bytes(key) + _value_bytes(value)
        total += sum(_value_bytes(part) for part in key[1:])
    return total


# (label, data key, paper format, measured format), in table order.
_OVERHEAD_ROWS = (
    ("mean EVM instructions / call", "mean_instructions", "{:.0f}", "{:.0f}"),
    ("mean SSA log entries / call", "mean_log_entries", "{:.0f}", "{:.0f}"),
    ("log size / instructions", "log_to_instruction_ratio", "{:.1%}", "{:.1%}"),
    ("redo entries / conflicting tx", "redo_entries_per_conflict", "{:.0f}", "{:.1f}"),
    ("redo / instructions", "redo_fraction_of_instructions", "{:.1%}", "{:.1%}"),
    ("redo share of block time", "redo_time_share", "{:.1%}", "{:.1%}"),
    ("conflicts resolved by redo", "redo_success_rate", "{:.0%}", "{:.0%}"),
    ("SSA tracking time share", "tracking_time_share", "{:.1%}", "{:.1%}"),
    ("memory overhead", "memory_overhead", "{:.1%}", "{:.1%}"),
)


def _traced_txs(world, block, tracer_cls=SSATracer):
    """Run ``block``'s transactions in order through ``run_speculative``
    over ``world``, each under a fresh ``tracer_cls`` and over the writes of
    those before it; yields ``(tx, result, meter, tracer)`` per transaction."""
    overlay = BlockOverlay()
    for tx in block.txs:
        tracer = tracer_cls()
        result, meter = run_speculative(
            world, overlay, tx, block.env, DEFAULT_COST_MODEL, tracer=tracer
        )
        overlay.apply(result.write_set)
        yield tx, result, meter, tracer


def run_overhead():
    """§6.4: SSA-log size, redo cost, tracking and memory overheads."""
    chain = standard_chain()
    block_list = standard_workload(chain, TXS_PER_BLOCK).blocks(START_BLOCK, BLOCKS)

    # -- log size and tracking share: trace every tx of every block --------
    instructions = 0
    log_entries = 0
    tracked_txs = 0
    tracking_us = 0.0
    total_us = 0.0
    for block in block_list:
        for tx, result, meter, tracer in _traced_txs(chain.world, block):
            if tx.to is not None and result.ops_executed > 0:
                instructions += result.ops_executed
                log_entries += len(tracer.log)
                tracked_txs += 1
            tracking_us += meter.tracking_us
            total_us += meter.total_us

    # -- redo statistics from ParallelEVM runs that equal serial's writes --
    redo_entries = 0
    conflicts = 0
    redo_successes = 0
    redo_attempts = 0
    redo_time = 0.0
    block_time = 0.0
    for block in block_list:
        _, (result,) = against_serial(
            chain, block, [make_executor("parallelevm", DEFAULT_THREADS)]
        )
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
    # The equivalent steady-state estimate here: the SSA structures one
    # transaction leaves (its log rows, DUG and tracking maps, priced at the
    # object sizes stated above ``_ssa_bytes``) times the number of
    # in-flight transactions (one per thread), relative to the node's
    # committed state at the same sizes.
    block = block_list[0]
    ssa_bytes = sum(
        _ssa_bytes(tracer.log) for *_, tracer in _traced_txs(chain.world, block)
    )
    ssa_bytes_per_tx = ssa_bytes / len(block.txs)
    state_bytes = _state_footprint_bytes(chain.world)
    memory_overhead = (DEFAULT_THREADS * ssa_bytes_per_tx) / max(1, state_bytes)

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
    rendered = render_table(
        "§6.4 — ParallelEVM overhead analysis",
        ["metric", "paper", "measured"],
        [
            [label, paper_fmt.format(PAPER_OVERHEAD[key]), fmt.format(data[key])]
            for label, key, paper_fmt, fmt in _OVERHEAD_ROWS
        ],
    )
    return data, rendered


def _overhead_text(results) -> str:
    data, paper = results["overhead"].data, PAPER_OVERHEAD
    return (
        "Redo entries per conflicting transaction "
        f"({data['redo_entries_per_conflict']:.1f} vs the paper's "
        f"{paper['redo_entries_per_conflict']:.0f}), redo success rate "
        f"({data['redo_success_rate']:.0%} vs "
        f"{paper['redo_success_rate']:.0%}) and tracking share "
        f"({data['tracking_time_share']:.1%} vs "
        f"{paper['tracking_time_share']:.1%}) land in the paper's bands. "
        "Memory overhead "
        f"({data['memory_overhead']:.1%} vs {paper['memory_overhead']:.1%}) "
        "is of the paper's order but not a like-for-like figure: the paper "
        "compares whole-node RSS, while here the log's rows, DUG and "
        "tracking maps and the committed state are priced at the same "
        "stated object sizes. Ratios normalised by instruction "
        "count run higher because the hand-assembled contracts execute "
        f"{paper['mean_instructions'] / data['mean_instructions']:.0f}x fewer "
        "instructions per call than solc output (DESIGN.md §2); redo time "
        "share is higher for the same reason (a larger fraction of the "
        "block's work is storage-dependent)."
    )


# --------------------------------------------------------- §6.4 ablation


class UnfoldedTracer(SSATracer):
    """SSATracer with constant folding disabled: every ALU op is logged."""

    def begin_frame(self, frame) -> None:
        super().begin_frame(frame)
        frame.shadow_state = None  # constant ALU ops must reach trace_alu too

    def trace_alu(self, frame, opcode, operands, result, gas_cost, dynamic_gas):
        self.meter.events += 1
        stack = self._stack
        n = len(operands)
        shadows = tuple(stack[-1 : -n - 1 : -1])
        del stack[-n:]
        rows = self._rows
        lsn = len(rows)
        rows.append([
            lsn, opcode, operands, result, shadows, None, (), None, gas_cost,
            dynamic_gas, None,
        ])
        stack.append(lsn)


def run_log_compaction():
    """Ablation: SSA-log compaction (constant folding) on vs off.

    The paper attributes the log's small size (5% of instructions) to
    "cutting down stack manipulation instructions and instructions
    independent of storage slots" (§6.4).  Disabling the constant-folding
    rule gives every computational operation an entry, as a naive operation
    log would; the experiment measures how much larger the log (and its
    generation cost) becomes, and how it compares with a log of one entry
    per executed instruction.
    """
    chain = standard_chain(accounts=200, tokens=4, amm_pairs=2)
    block = standard_workload(chain, TXS_PER_BLOCK).block(START_BLOCK)
    sizes = {"folded": 0, "unfolded": 0, "instructions": 0,
             "tracking_folded": 0.0, "tracking_unfolded": 0.0}
    for label, tracer_cls in (("folded", SSATracer), ("unfolded", UnfoldedTracer)):
        traced = _traced_txs(chain.fresh_world(), block, tracer_cls)
        for _, result, meter, tracer in traced:
            sizes[label] += len(tracer.log)
            sizes[f"tracking_{label}"] += meter.tracking_us
            if label == "folded":
                # A fully naive log records one entry per executed
                # instruction (the paper's 2559-instruction baseline).
                sizes["instructions"] += result.ops_executed

    alu_ratio = sizes["unfolded"] / max(1, sizes["folded"])
    naive_ratio = sizes["instructions"] / max(1, sizes["folded"])
    rendered = render_table(
        "Ablation — SSA log compaction (constant folding)",
        ["variant", "log entries", "tracking time (us)"],
        [
            ["folded (ParallelEVM)", sizes["folded"],
             f"{sizes['tracking_folded']:.0f}"],
            ["unfolded ALU (no constant folding)", sizes["unfolded"],
             f"{sizes['tracking_unfolded']:.0f}"],
            ["per-instruction (naive log)", sizes["instructions"], "-"],
            ["ALU-unfolding inflation", f"{alu_ratio:.2f}x", "-"],
            ["naive-log inflation", f"{naive_ratio:.2f}x", "-"],
        ],
    )
    return dict(sizes, alu_ratio=alu_ratio, naive_ratio=naive_ratio), rendered


def _log_compaction_text(results) -> str:
    data, paper = results["log-compaction"].data, PAPER_OVERHEAD
    return (
        "The paper credits the log's small size "
        f"({paper['log_to_instruction_ratio']:.0%} of instructions, "
        f"{paper['mean_log_entries']} entries against "
        f"{paper['mean_instructions']}) to logging only the storage-dependent "
        "slice.  Turning constant folding off inflates the log "
        f"{data['alu_ratio']:.2f}x and its tracking time "
        f"{data['tracking_unfolded'] / data['tracking_folded']:.2f}x; a naive "
        "log of one entry per executed instruction would be "
        f"{data['naive_ratio']:.2f}x the folded log (the paper's "
        f"{paper['mean_instructions'] / paper['mean_log_entries']:.0f}x, "
        "scaled down by the leaner hand-assembled contracts)."
    )


# ----------------------------------------------------- §7 schedule study


def run_schedule():
    """§7 future work: the proposer/validator split, built and measured.

    Two schedule granularities (transaction dependencies, and read values
    shipped with the schedule) against ParallelEVM itself and the
    Saraph-Herlihy two-phase baseline from the related work.
    """
    chain = standard_chain()
    block = standard_workload(chain, TXS_PER_BLOCK).block(START_BLOCK)
    schedule, proposer = propose_schedule(
        chain.fresh_world(), block.txs, block.env, threads=DEFAULT_THREADS
    )
    serial, (two_phase, dep_validator, value_validator) = against_serial(
        chain,
        block,
        [
            make_executor("two-phase", DEFAULT_THREADS),
            ScheduledValidatorExecutor(schedule, threads=DEFAULT_THREADS),
            ScheduledValidatorExecutor(
                schedule, threads=DEFAULT_THREADS, use_read_values=True
            ),
        ],
    )
    if proposer.writes != serial.writes:
        raise ConcurrencyError("the §7 proposer diverged from serial")

    def speedup(result):
        return serial.makespan_us / result.makespan_us

    data = {
        "two-phase (Saraph-Herlihy)": speedup(two_phase),
        "parallelevm (proposer)": speedup(proposer),
        "validator: dependency schedule": speedup(dep_validator),
        "validator: value schedule": speedup(value_validator),
        "critical_path": schedule.critical_path_length,
        "edges": schedule.edge_count(),
        "discarded": two_phase.stats["discarded"],
    }
    rows = [
        [name, f"{value:.2f}x"]
        for name, value in data.items()
        if isinstance(value, float)
    ]
    rows.append(["dependency critical path (txs)", data["critical_path"]])
    rows.append(["dependency edges", data["edges"]])
    rows.append(["two-phase discarded txs", data["discarded"]])
    rendered = render_table(
        "Extension — §7 proposer/validator schedules",
        ["configuration", "value"],
        rows,
    )
    return data, rendered


def _schedule_text(results) -> str:
    data = results["schedule"].data
    return (
        "Beyond the paper's evaluation: its §7 future-work design, built "
        "and measured.  A transaction-level dependency schedule "
        f"({data['validator: dependency schedule']:.2f}x) loses to "
        f"ParallelEVM itself ({data['parallelevm (proposer)']:.2f}x) on hot "
        "blocks (whole transactions serialise along dependency chains up to "
        f"{data['critical_path']} transactions long), while shipping read "
        "values with the schedule — the operation-level endpoint — removes "
        "all speculation cost and beats every other configuration "
        f"({data['validator: value schedule']:.2f}x).  The Saraph-Herlihy "
        "two-phase baseline from the related work "
        f"({data['two-phase (Saraph-Herlihy)']:.2f}x) is included for scale."
    )


# --------------------------------------------- critical-path bound analysis


def run_bounds():
    """Achieved speedups against the transaction-level critical-path bound.

    The literature the paper builds on (Garamvölgyi et al.; Reijsbergen &
    Dinh; Saraph & Herlihy) caps *transaction-level* schemes at total work /
    critical path.  This reports :func:`repro.analysis.analyze_block`'s
    bound — the cold serial makespan over the warm critical path — on a
    calibrated mainnet-like block and on a fully conflicting ERC20 block:
    transaction-level executors respect it, while ParallelEVM — which
    serialises only conflicting *operations* — passes it on the contended
    block.
    """
    chain = standard_chain()
    rows = []
    data = {}
    for label, block in (
        ("mainnet-like", standard_workload(chain, TXS_PER_BLOCK).block(START_BLOCK)),
        ("100% conflicting ERC20", conflict_ratio_block(chain, 77, 150, ratio=1.0)),
    ):
        executors = [make_executor(name, DEFAULT_THREADS) for name in FIG11_EXECUTORS]
        serial, results = against_serial(chain, block, executors)
        analysis = analyze_block(chain, block, serial)
        bound = analysis.tx_level_speedup_bound
        speedups = {
            name: serial.makespan_us / result.makespan_us
            for name, result in zip(FIG11_EXECUTORS, results)
        }
        rows.append(
            [
                label,
                f"{bound:.2f}x",
                f"{analysis.critical_path_txs}",
                f"{speedups['occ']:.2f}x",
                f"{speedups['block-stm']:.2f}x",
                f"{speedups['parallelevm']:.2f}x",
            ]
        )
        data[label] = {
            "bound": bound,
            "chain_txs": analysis.critical_path_txs,
            **speedups,
        }
    rendered = render_table(
        "Analysis — tx-level critical-path bound vs achieved speedups",
        ["workload", "tx-level bound", "chain", "occ", "block-stm",
         "parallelevm"],
        rows,
    )
    return data, rendered


def _bounds_text(results) -> str:
    contended = results["bounds"].data["100% conflicting ERC20"]
    return (
        "The structural thesis, quantified: the warm critical path bounds "
        "any transaction-level scheme — on the fully conflicting block OCC "
        f"({contended['occ']:.2f}x) and Block-STM "
        f"({contended['block-stm']:.2f}x) stay near its "
        f"{contended['bound']:.2f}x — while ParallelEVM's operation-level "
        f"redo breaks straight through it ({contended['parallelevm']:.2f}x, "
        f"{contended['parallelevm'] / contended['bound']:.1f} times the "
        "bound): only the conflicting operations serialise, not the "
        "transactions carrying them."
    )


# --------------------------------------------------- pipelined execution


PIPELINE_BLOCKS = 30
PIPELINE_TXS_PER_BLOCK = 40
PIPELINE_ACCOUNTS = 20_000


def run_pipeline():
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
            StreamSpec(
                accounts=PIPELINE_ACCOUNTS,
                txs_per_block=PIPELINE_TXS_PER_BLOCK,
                seed=1,
            ),
            cache_capacity=100_000,
        )
        executor = make_executor(
            "parallelevm", DEFAULT_THREADS, durability=DurableCommitPipeline()
        )
        coordinator = (
            PipelineCoordinator(pipeline_config)
            if pipeline_config is not None
            else None
        )
        service = ChainService(BlockStream(chain), executor, pipeline=coordinator)
        for _ in service.run(PIPELINE_BLOCKS):
            pass
        per_block[label] = service.sim_time_us / PIPELINE_BLOCKS
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
    return data, rendered


def _pipeline_text(results) -> str:
    per_block = results["pipeline"].data["per_block_us"]
    cut = 1 - per_block["prefetch + async commit"] / per_block["synchronous"]
    return (
        "Beyond the paper's single-block scope: the chain service run with "
        "a durable commit pipeline attached and the repro.pipeline "
        "coordinator overlapping blocks.  Prefetching the next block's "
        "statically-predicted read set in the dissemination window and "
        "moving the journal+fsync commit onto a virtual commit lane "
        f"together cut sustained simulated service time per block by {cut:.0%}; "
        "the next block barriers only while a key it reads is still "
        "unpublished by the in-flight commit.  Detached (the default), every "
        "benchmark above is bit-identical."
    )


# ------------------------------------------------- ingress overload sweep


INGRESS_BLOCKS = 24
INGRESS_TXS_PER_BLOCK = 12
INGRESS_ACCOUNTS = 160


def run_ingress_overload():
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
    waterfall_rows = []
    data: dict[str, dict] = {}
    for rate in rates:
        report = run_ingress(
            IngressConfig(
                blocks=INGRESS_BLOCKS,
                txs_per_block=INGRESS_TXS_PER_BLOCK,
                threads=DEFAULT_THREADS,
                accounts=INGRESS_ACCOUNTS,
                clients=6,
                seed=1,
                window_blocks=max(4, INGRESS_BLOCKS // 4),
                rate_multiplier=rate,
                # A pool a few blocks deep, so the global watermark (not
                # just per-sender quotas) binds once the load exceeds 1x.
                mempool=MempoolConfig(
                    capacity=4 * INGRESS_TXS_PER_BLOCK,
                    per_sender_quota=2 * INGRESS_TXS_PER_BLOCK,
                ),
            )
        )
        if not report.ok:
            raise ConcurrencyError(
                f"ingress run at {rate}x diverged: {report.divergences}"
            )
        label = f"{rate:.1f}x"
        blame = report.lifecycle["blame"]
        latency = blame["latency_us"]
        data[label] = {
            "submitted": report.submitted,
            "admitted": report.admitted,
            "committed": report.committed,
            "pending": report.pending,
            "shed": sum(report.shed.values()),
            "rejected": sum(report.rejected.values()),
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
    counts = ("submitted", "admitted", "committed", "pending", "shed", "rejected")
    rendered = render_table(
        "Ingress overload sweep (offered load vs sustainable rate)",
        ["offered", *counts, "backpressure"],
        [
            [label, *(str(row[key]) for key in counts), str(row["backpressure_events"])]
            for label, row in data.items()
        ],
    )
    rendered += "\n\n" + render_table(
        "Latency waterfall at p99 (simulated us, committed txs)",
        ["offered", *WATERFALL_PHASES, "client p99"],
        waterfall_rows,
    )
    return data, rendered


def _ingress_text(results) -> str:
    data = results["ingress-overload"].data
    loads = sorted(data, key=lambda label: float(label.rstrip("x")))
    light, heaviest = data[loads[0]], data[loads[-1]]
    stalled_s = max(
        (row["waterfall_p99_us"]["retry"] or 0) + (row["waterfall_p99_us"]["queue"] or 0)
        for row in data.values()
    ) / 1e6
    return (
        "Beyond the paper's scope: the JSON-RPC facade, fee-prioritised "
        "mempool and chain service under rising offered load (multiples of "
        "the sustainable rate).  Correctness-only — every row certifies "
        "conservation (admitted = committed + pending + shed) and serial "
        "equivalence of the committed chain; no performance claim is made. "
        f"Under light load ({loads[0]}) {light['committed']} of "
        f"{light['submitted']} transactions commit and the rest are still "
        "pending; oversubscribed, the pool's high-water mark answers sends "
        "with retryable backpressure (plus an escalating retry-after), "
        "per-sender quotas and the nonce window bound each client's "
        "footprint, and every rejection is typed — so the accounting still "
        f"closes exactly at {loads[-1]} offered load, with "
        f"{heaviest['rejected']} of {heaviest['submitted']} sends rejected.  "
        "The p99 latency waterfall (repro.obs.lifecycle) tells the blame "
        f"story: at {loads[0]} the p99 transaction's budget is queue-wait "
        f"({light['waterfall_p99_us']['queue']:.0f} us of a "
        f"{light['latency_p99_us']:.0f} us client p99) — execution and drain "
        f"take {light['waterfall_p99_us']['execute']:.0f} us and "
        f"{light['waterfall_p99_us']['drain']:.0f} us — while past saturation "
        f"retry backoff plus queue-wait swallow up to {stalled_s:.2f} simulated "
        "seconds.  (Columns are independent per-phase p99 quantiles, so a row "
        "need not sum to the client p99; the tiling invariant — the six "
        "phases summing exactly to the client-observed latency — holds per "
        "transaction and is asserted for every traced transaction in the "
        "integration suite.)"
    )


# ------------------------------------------------------------- registry


@dataclass(frozen=True, slots=True)
class Experiment:
    """One registry entry.

    ``title`` heads the experiment's EXPERIMENTS.md section; ``runner``
    returns ``(data, rendered)``; ``commentary`` writes the section's prose
    from the whole record (name -> result), so a sentence may compare
    experiments and never types a measured number; ``paper`` holds the
    paper's reference numbers.
    """

    title: str
    runner: Callable[[], tuple[dict, str]]
    commentary: Callable[[Mapping[str, ExperimentResult]], str]
    paper: Mapping | None = None


#: Every experiment, by name, in EXPERIMENTS.md section order.  The names
#: are the ``repro experiment`` choices and the record's file names.
EXPERIMENTS: dict[str, Experiment] = {
    "fig3": Experiment(
        "Figure 3 — hot-spot distributions", run_fig3, _fig3_text, PAPER_FIG3
    ),
    "table1": Experiment(
        "Table 1 — speedups on mainnet-like blocks",
        run_table1,
        _table1_text,
        PAPER_TABLE1,
    ),
    "fig9": Experiment(
        "Figure 9 — speedup distribution", run_fig9, _fig9_text, PAPER_FIG9
    ),
    "fig10": Experiment(
        "Figure 10 — thread scaling",
        run_fig10,
        _fig10_text,
        {"shape": "ParallelEVM dominates and scales furthest"},
    ),
    "fig11": Experiment(
        "Figure 11 — contention sweep (ERC20 conflict ratio)",
        run_fig11,
        _fig11_text,
        {"shape": "near-parity at 0%; ParallelEVM's margin grows with contention"},
    ),
    "fig12": Experiment(
        "Figure 12 — block-size scaling",
        run_fig12,
        _fig12_text,
        {"shape": "speedup grows with block size"},
    ),
    "table2": Experiment(
        "Table 2 — prefetching", run_table2, _table2_text, PAPER_TABLE2
    ),
    "preexec": Experiment(
        "Pre-execution (§6.3)", run_preexec, _preexec_text, PAPER_PREEXEC
    ),
    "pipeline": Experiment(
        "Extension — pipelined execution (prefetch + async commit)",
        run_pipeline,
        _pipeline_text,
    ),
    "ingress-overload": Experiment(
        "Extension — ingress overload sweep (serving & admission control)",
        run_ingress_overload,
        _ingress_text,
    ),
    "schedule": Experiment(
        "Extension — §7 proposer/validator schedules", run_schedule, _schedule_text
    ),
    "bounds": Experiment(
        "Analysis — the transaction-level critical-path bound",
        run_bounds,
        _bounds_text,
    ),
    "overhead": Experiment(
        "§6.4 — overhead analysis", run_overhead, _overhead_text, PAPER_OVERHEAD
    ),
    "log-compaction": Experiment(
        "Ablation — SSA log compaction (constant folding)",
        run_log_compaction,
        _log_compaction_text,
    ),
}


def run_experiment(name: str) -> ExperimentResult:
    """Run one registry entry into its record."""
    entry = EXPERIMENTS[name]
    data, rendered = entry.runner()
    return ExperimentResult(
        name, _plain(data), _plain(entry.paper or {}), rendered
    )
