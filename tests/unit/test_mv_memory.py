"""Block-STM's multi-version memory: read rules, estimates, finalisation."""

from __future__ import annotations

import pytest

from repro.concurrency.mv_memory import (
    EstimateDependency,
    MVMemory,
    MVReadAdapter,
)
from repro.primitives import make_address
from repro.state.keys import storage_key

KEY = storage_key(make_address(1), 1)
KEY2 = storage_key(make_address(1), 2)
_MISS = object()


class TestReads:
    def test_read_with_no_writes_falls_to_storage(self):
        mv = MVMemory()
        found, value, version = mv.read(KEY, reader_index=5)
        assert not found
        assert version == ("storage",)

    def test_reader_sees_highest_lower_writer(self):
        mv = MVMemory()
        mv.record_writes(1, 0, {KEY: 10})
        mv.record_writes(3, 0, {KEY: 30})
        found, value, version = mv.read(KEY, reader_index=5)
        assert found and value == 30
        assert version == ("tx", 3, 0)

    def test_reader_does_not_see_higher_writers(self):
        mv = MVMemory()
        mv.record_writes(7, 0, {KEY: 70})
        found, _, version = mv.read(KEY, reader_index=5)
        assert not found
        assert version == ("storage",)

    def test_reader_does_not_see_own_writes(self):
        mv = MVMemory()
        mv.record_writes(5, 0, {KEY: 50})
        found, _, _ = mv.read(KEY, reader_index=5)
        assert not found

    def test_estimate_raises_dependency(self):
        mv = MVMemory()
        mv.record_writes(2, 0, {KEY: 20})
        mv.convert_to_estimates(2)
        with pytest.raises(EstimateDependency) as exc:
            mv.read(KEY, reader_index=5)
        assert exc.value.blocking_tx == 2


class TestWriteLifecycle:
    def test_new_location_flag(self):
        mv = MVMemory()
        assert mv.record_writes(1, 0, {KEY: 1}) is True
        assert mv.record_writes(1, 1, {KEY: 2}) is False  # same footprint
        assert mv.record_writes(1, 2, {KEY: 2, KEY2: 3}) is True

    def test_shrinking_write_set_removes_stale_entries(self):
        mv = MVMemory()
        mv.record_writes(1, 0, {KEY: 1, KEY2: 2})
        mv.record_writes(1, 1, {KEY: 1})
        found, _, _ = mv.read(KEY2, reader_index=5)
        assert not found

    def test_incarnation_recorded(self):
        mv = MVMemory()
        mv.record_writes(1, 3, {KEY: 9})
        _, _, version = mv.read(KEY, reader_index=2)
        assert version == ("tx", 1, 3)

    def test_reexecution_clears_estimate(self):
        mv = MVMemory()
        mv.record_writes(2, 0, {KEY: 20})
        mv.convert_to_estimates(2)
        mv.record_writes(2, 1, {KEY: 21})
        found, value, _ = mv.read(KEY, reader_index=5)
        assert found and value == 21


class TestCurrentVersion:
    def test_storage_version(self):
        assert MVMemory().current_version(KEY, 3) == ("storage",)

    def test_estimate_version_differs_from_value_version(self):
        mv = MVMemory()
        mv.record_writes(1, 0, {KEY: 1})
        before = mv.current_version(KEY, 5)
        mv.convert_to_estimates(1)
        after = mv.current_version(KEY, 5)
        assert before != after
        assert after == ("estimate", 1)


class TestFinalWrites:
    def test_highest_writer_wins(self):
        mv = MVMemory()
        mv.record_writes(1, 0, {KEY: 10})
        mv.record_writes(4, 0, {KEY: 40})
        mv.record_writes(2, 0, {KEY2: 22})
        final = mv.final_writes(5)
        assert final == {KEY: 40, KEY2: 22}

    def test_finalising_estimates_is_a_bug(self):
        mv = MVMemory()
        mv.record_writes(1, 0, {KEY: 1})
        mv.convert_to_estimates(1)
        with pytest.raises(AssertionError):
            mv.final_writes(2)


class TestAdapter:
    def test_records_versions(self):
        mv = MVMemory()
        mv.record_writes(1, 0, {KEY: 10})
        adapter = MVReadAdapter(mv, tx_index=3)
        assert adapter.get(KEY, _MISS) == 10
        assert adapter.get(KEY2, _MISS) is _MISS
        assert adapter.read_versions == {
            KEY: ("tx", 1, 0),
            KEY2: ("storage",),
        }

    def test_first_version_sticks(self):
        mv = MVMemory()
        adapter = MVReadAdapter(mv, tx_index=3)
        adapter.get(KEY, _MISS)
        mv.record_writes(1, 0, {KEY: 10})
        adapter.get(KEY, _MISS)
        assert adapter.read_versions[KEY] == ("storage",)
