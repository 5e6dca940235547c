"""The committed-read path as it was composed before it became one call.

``StateView.read`` probed its own writes, then ``_read_committed`` asked the
base (``BlockOverlay.get(key)`` or ``mapping.get(key, missing)``), then
``WorldState.read`` took a :class:`ReadSample` from ``SimulatedDiskKV.read``
(since removed) — one ``LRUCache.get`` probe, the fault injector's
``drop_cache`` / ``on_read`` around it — and handed its latency to
``CostMeter.charge_storage``.
Here a sample is priced at the meter's model's ``disk_read_us`` /
``cache_read_us`` (the default model's without a meter), and the meter
counts the read as cold or warm plus the sample's whole-ns excess over that
price, as it now counts it.  Kept as the oracle of
``tests/property/test_read_path.py``: it drives the same objects through
``LRUCache.get`` / ``put``, the store's counters and backing dict, so it
shares no code with ``SimulatedDiskKV.read_into``.
"""

from __future__ import annotations

from repro.db.kvstore import ReadSample
from repro.sim.cost import DEFAULT_COST_MODEL
from repro.state.keys import default_value
from repro.state.view import _MISSING, BlockOverlay


def reference_db_read(db, key, default=None, model=DEFAULT_COST_MODEL) -> ReadSample:
    """``SimulatedDiskKV.read`` before ``read_into``, priced at ``model``."""
    faults = db.faults
    if faults is not None and faults.drop_cache(key):
        db.cache.drop(key)
    value = db.cache.get(key, _MISSING)
    if value is not _MISSING:
        sample = ReadSample(value, model.cache_read_us, True)
    else:
        value = db._data.get(key, default)
        db.cache.put(key, value)
        sample = ReadSample(value, model.disk_read_us, False)
    if faults is not None:
        sample = faults.on_read(key, sample)
    return sample


def reference_world_read(world, key, meter=None):
    """``WorldState.read``: a sample, then the meter's read counts and the
    sample's excess over its price in whole ns."""
    model = DEFAULT_COST_MODEL if meter is None else meter.model
    sample = reference_db_read(world.db, key, default_value(key), model)
    if meter is not None:
        if sample.cache_hit:
            meter.storage_warm_reads += 1
            price = model.cache_read_us
        else:
            meter.storage_cold_reads += 1
            price = model.disk_read_us
        meter.storage_fault_ns += round(sample.latency_us * 1000) - round(
            price * 1000
        )
    return sample.value


def reference_peek_committed(view, key):
    """``StateView._read_committed``, with its ``isinstance`` dispatch."""
    if view.base is not None:
        if isinstance(view.base, BlockOverlay):
            value = view.base.get(key)
        else:
            value = view.base.get(key, _MISSING)
        if value is not _MISSING:
            if view.meter is not None:
                view.meter.overlay_reads += 1
            return value
    return reference_world_read(view.world, key, view.meter)


def reference_read(view, key):
    """``StateView.read``: own writes, then committed state into the read set."""
    local = view._local.get(key, _MISSING)
    if local is not _MISSING:
        if view.meter is not None:
            view.meter.overlay_reads += 1
        return local
    value = reference_peek_committed(view, key)
    if key not in view.read_set:
        view.read_set[key] = value
    return value
