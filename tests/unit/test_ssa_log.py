"""SSA operation log container: DUG edges, tracking maps, slice extraction.

The DUG is built on first read; ``eager_uses`` below is the graph every
append used to wire, kept as the oracle of ``TestLazyDUG``."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.check import BlockFuzzer
from repro.concurrency.base import run_speculative
from repro.concurrency.registry import make_executor
from repro.core.ssa_log import LogEntry, PseudoOp, SSAOperationLog
from repro.core.tracer import SSATracer
from repro.evm.opcodes import Op
from repro.primitives import make_address
from repro.sim.cost import DEFAULT_COST_MODEL
from repro.state.keys import storage_key
from repro.state.view import BlockOverlay
from repro.workloads import ChainSpec, build_chain, conflict_ratio_block

KEY_A = storage_key(make_address(1), 1)
KEY_B = storage_key(make_address(1), 2)


def sload(log: SSAOperationLog, key, value, def_storage=None) -> LogEntry:
    entry = LogEntry(
        lsn=len(log),
        opcode=Op.SLOAD,
        key=key,
        result=value,
        def_storage=def_storage,
    )
    log.append(entry)
    if def_storage is None:
        log.direct_reads.setdefault(key, []).append(entry.lsn)
    return entry


def sstore(log: SSAOperationLog, key, value, value_def=None) -> LogEntry:
    entry = LogEntry(
        lsn=len(log),
        opcode=Op.SSTORE,
        key=key,
        operands=(value,),
        def_stack=(value_def,),
        result=value,
    )
    log.append(entry)
    log.latest_writes[key] = entry.lsn
    log.writes_by_key.setdefault(key, []).append(entry.lsn)
    return entry


def alu(log: SSAOperationLog, opcode, operands, defs, result) -> LogEntry:
    entry = LogEntry(
        lsn=len(log),
        opcode=opcode,
        operands=operands,
        def_stack=defs,
        result=result,
    )
    log.append(entry)
    return entry


class TestAppend:
    def test_lsns_are_sequential(self):
        log = SSAOperationLog()
        e0 = sload(log, KEY_A, 10)
        e1 = alu(log, Op.ADD, (10, 5), (e0.lsn, None), 15)
        assert (e0.lsn, e1.lsn) == (0, 1)
        assert len(log) == 2

    def test_non_sequential_lsn_rejected(self):
        log = SSAOperationLog()
        with pytest.raises(AssertionError):
            log.append(LogEntry(lsn=5, opcode=Op.ADD))


class TestDUG:
    def test_def_stack_edge(self):
        log = SSAOperationLog()
        e0 = sload(log, KEY_A, 10)
        e1 = alu(log, Op.ADD, (10, 5), (e0.lsn, None), 15)
        assert log.uses[e0.lsn] == [e1.lsn]

    def test_def_storage_edge(self):
        log = SSAOperationLog()
        s0 = sstore(log, KEY_A, 7)
        l1 = sload(log, KEY_A, 7, def_storage=s0.lsn)
        assert l1.lsn in log.uses[s0.lsn]

    def test_def_memory_edges(self):
        log = SSAOperationLog()
        e0 = sload(log, KEY_A, 10)
        entry = LogEntry(
            lsn=len(log),
            opcode=Op.MLOAD,
            operands=(b"\x00" * 32,),
            def_memory=((0, 32, e0.lsn, 0),),
            result=10,
        )
        log.append(entry)
        assert entry.lsn in log.uses[e0.lsn]

    def test_duplicate_deps_make_one_edge(self):
        log = SSAOperationLog()
        e0 = sload(log, KEY_A, 10)
        alu(log, Op.MUL, (10, 10), (e0.lsn, e0.lsn), 100)
        assert log.uses[e0.lsn] == [1]

    def test_dependents_of_transitive(self):
        log = SSAOperationLog()
        e0 = sload(log, KEY_A, 10)  # source
        e1 = alu(log, Op.ADD, (10, 1), (e0.lsn, None), 11)
        e2 = alu(log, Op.MUL, (11, 2), (e1.lsn, None), 22)
        _unrelated = sload(log, KEY_B, 5)
        e4 = sstore(log, KEY_A, 22, value_def=e2.lsn)
        slice_ = log.dependents_of([e0.lsn])
        assert slice_ == [e0.lsn, e1.lsn, e2.lsn, e4.lsn]

    def test_dependents_of_returns_execution_order(self):
        log = SSAOperationLog()
        e0 = sload(log, KEY_A, 1)
        e1 = sload(log, KEY_B, 2)
        e2 = alu(log, Op.ADD, (1, 2), (e0.lsn, e1.lsn), 3)
        assert log.dependents_of([e1.lsn, e0.lsn]) == [0, 1, 2]

    def test_empty_sources(self):
        log = SSAOperationLog()
        sload(log, KEY_A, 1)
        assert log.dependents_of([]) == []


class TestTrackingMaps:
    def test_type1_load_recorded_in_direct_reads(self):
        log = SSAOperationLog()
        e0 = sload(log, KEY_A, 10)
        assert log.direct_reads[KEY_A] == [e0.lsn]

    def test_type2_load_not_in_direct_reads(self):
        log = SSAOperationLog()
        s0 = sstore(log, KEY_A, 7)
        sload(log, KEY_A, 7, def_storage=s0.lsn)
        assert KEY_A not in log.direct_reads

    def test_latest_writes_tracks_most_recent(self):
        log = SSAOperationLog()
        s0 = sstore(log, KEY_A, 1)
        s1 = sstore(log, KEY_A, 2)
        assert log.latest_writes[KEY_A] == s1.lsn
        assert log.writes_by_key[KEY_A] == [s0.lsn, s1.lsn]

    def test_multiple_type1_loads_all_recorded(self):
        log = SSAOperationLog()
        e0 = sload(log, KEY_A, 10)
        e1 = sload(log, KEY_A, 10)
        assert log.direct_reads[KEY_A] == [e0.lsn, e1.lsn]


class TestResultBytes:
    def test_int_result(self):
        log = SSAOperationLog()
        e0 = sload(log, KEY_A, 0xAB)
        assert log.result_bytes(e0.lsn) == (0xAB).to_bytes(32, "big")

    def test_bytes_result(self):
        log = SSAOperationLog()
        entry = LogEntry(lsn=0, opcode=Op.MLOAD, result=b"\x01" * 32)
        log.append(entry)
        assert log.result_bytes(0) == b"\x01" * 32


class TestRendering:
    def test_describe_mentions_lsn_and_opcode(self):
        log = SSAOperationLog()
        e0 = sload(log, KEY_A, 10)
        text = e0.describe()
        assert "L0" in text
        assert "SLOAD" in text

    def test_pseudo_op_names(self):
        entry = LogEntry(lsn=0, opcode=PseudoOp.ASSERT_EQ, operands=(5,), def_stack=(None,))
        assert "ASSERT_EQ" in entry.describe()

    def test_dump_is_line_per_entry(self):
        log = SSAOperationLog()
        sload(log, KEY_A, 1)
        sstore(log, KEY_A, 2)
        assert len(log.dump().splitlines()) == 2


def eager_uses(entries) -> dict[int, list[int]]:
    """The DUG wired entry by entry, as every append once did: each entry
    uses its stack, storage and memory definitions, each LSN once, in that
    order of first mention."""
    uses: dict[int, list[int]] = {}
    for entry in entries:
        deps = [dep for dep in entry.def_stack if dep is not None]
        if entry.def_storage is not None:
            deps.append(entry.def_storage)
        deps += [lsn for _, _, lsn, _ in entry.def_memory]
        for dep in dict.fromkeys(deps):
            uses.setdefault(dep, []).append(entry.lsn)
    return uses


@st.composite
def random_entries(draw) -> list[LogEntry]:
    """Entries whose definitions are earlier LSNs, repeats included."""
    entries = []
    for lsn in range(draw(st.integers(0, 20))):
        earlier = st.integers(0, lsn - 1) if lsn else st.nothing()
        defs = st.one_of(st.none(), earlier)
        entries.append(
            LogEntry(
                lsn=lsn,
                opcode=Op.ADD,
                def_stack=tuple(draw(st.lists(defs, max_size=3))),
                def_storage=draw(defs),
                def_memory=tuple(
                    (0, 32, dep, 0)
                    for dep in draw(st.lists(earlier, max_size=2 if lsn else 0))
                ),
            )
        )
    return entries


class TestLazyDUG:
    """``uses`` is built on first read and wired on every append after."""

    @given(entries=random_entries(), data=st.data())
    def test_uses_equals_the_eager_graph_wherever_it_is_first_read(
        self, entries, data
    ):
        first_read = data.draw(st.integers(0, len(entries)))
        log = SSAOperationLog()
        for entry in entries[:first_read]:
            log.append(entry)
        assert log.dependents_of([]) == []  # the first read, as redo does it
        for entry in entries[first_read:]:
            log.append(entry)
        assert list(log.uses.items()) == list(eager_uses(entries).items())

    def test_entries_appended_after_the_first_redo_get_their_edges(self):
        log = SSAOperationLog()
        e0 = sload(log, KEY_A, 10)
        assert log.dependents_of([e0.lsn]) == [e0.lsn]
        e1 = alu(log, Op.ADD, (10, 1), (e0.lsn, None), 11)
        e2 = sstore(log, KEY_A, 11, value_def=e1.lsn)
        assert log.uses == {e0.lsn: [e1.lsn], e1.lsn: [e2.lsn]}
        assert log.dependents_of([e0.lsn]) == [e0.lsn, e1.lsn, e2.lsn]

    def test_traced_logs_equal_the_eager_graph(self):
        fuzzer = BlockFuzzer()
        block = fuzzer.block(0)
        overlay = BlockOverlay()
        world = fuzzer.chain.fresh_world()
        edges = 0
        for tx in block.txs:
            tracer = SSATracer()
            result, _ = run_speculative(
                world, overlay, tx, block.env, DEFAULT_COST_MODEL, tracer=tracer
            )
            overlay.apply(result.write_set)
            log = tracer.log
            assert log._uses is None  # nothing has read it yet
            assert list(log.uses.items()) == list(eager_uses(log.entries).items())
            edges += sum(map(len, log.uses.values()))
        assert edges > 0

    def test_an_execution_never_redone_never_wires_an_edge(self, monkeypatch):
        logs: list[SSAOperationLog] = []
        wired: set[int] = set()
        redone: set[int] = set()
        init = SSAOperationLog.__init__
        add_edges = SSAOperationLog._add_edges
        dependents_of = SSAOperationLog.dependents_of

        def tracked_init(self):
            init(self)
            logs.append(self)

        def tracked_add_edges(self, entry):
            wired.add(id(self))
            add_edges(self, entry)

        def tracked_dependents_of(self, sources):
            redone.add(id(self))
            return dependents_of(self, sources)

        monkeypatch.setattr(SSAOperationLog, "__init__", tracked_init)
        monkeypatch.setattr(SSAOperationLog, "_add_edges", tracked_add_edges)
        monkeypatch.setattr(SSAOperationLog, "dependents_of", tracked_dependents_of)
        chain = build_chain(ChainSpec(tokens=1, amm_pairs=0, accounts=96))
        block = conflict_ratio_block(chain, 77, 40, ratio=0.9)
        make_executor("parallelevm", 8).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        assert wired and wired <= redone
        assert len(logs) > len(redone)  # most executions are never redone
        assert all(log._uses is None for log in logs if id(log) not in redone)
