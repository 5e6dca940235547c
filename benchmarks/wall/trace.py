"""In-memory wall-clock spans around the calls into each ``repro`` layer.

The program under ``src/`` is not edited: ``install`` rebinds the public
names listed in ``FUNCTION_SPANS`` / ``METHOD_SPANS`` to timing wrappers and
``uninstall`` puts the originals back.  ``from ..crypto import keccak256``
binds at import, so a function is rebound in *every* loaded ``repro`` module
whose namespace holds it, not only where it is defined.

A span is recorded only inside a benchmark op (``begin_op`` .. ``end_op``):
work the harness does between ops — cloning worlds, generating client
requests — never shows up as layer time.  Per-opcode tracer hooks and
observer callbacks are too fine to wrap; their cost comes from the A/B
ratios in ``run.py``.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns

# span name -> (module, attribute); layer is the text before the first dot.
FUNCTION_SPANS = {
    "crypto.keccak256_cached": ("repro.crypto", "keccak256_cached"),
    "rlp.encode": ("repro.rlp", "encode"),
    "rlp.decode": ("repro.rlp", "decode"),
    "state.receipts_root": ("repro.state.receipts", "receipts_root"),
    "core.redo": ("repro.core.redo", "redo"),
    "durability.recover": ("repro.durability.recovery", "recover"),
}

# span name -> (module, class, method)
METHOD_SPANS = {
    "trie.put": ("repro.trie.mpt", "MerklePatriciaTrie", "put"),
    "trie.root_hash": ("repro.trie.mpt", "MerklePatriciaTrie", "root_hash"),
    "state.state_root": ("repro.state.world", "WorldState", "state_root"),
    "state.fingerprint": ("repro.state.world", "WorldState", "fingerprint"),
    "state.apply": ("repro.state.world", "WorldState", "apply"),
    "sim.machine_run": ("repro.sim.machine", "SimMachine", "run"),
    "concurrency.execute_block": (
        "repro.core.executor", "ParallelEVMExecutor", "execute_block"
    ),
    "concurrency.commit_block": (
        "repro.concurrency.base", "BlockExecutor", "commit_block"
    ),
    "durability.commit": (
        "repro.durability.commit", "DurableCommitPipeline", "commit"
    ),
    "durability.journal_append": (
        "repro.durability.journal", "WriteAheadJournal", "append"
    ),
    "pipeline.prefetch": ("repro.pipeline.driver", "PipelineCoordinator", "prefetch"),
    "pipeline.account": ("repro.pipeline.driver", "PipelineCoordinator", "account"),
    "mempool.add": ("repro.mempool.pool", "Mempool", "add"),
    "mempool.select": ("repro.mempool.pool", "Mempool", "select"),
    "rpc.send_transaction": ("repro.rpc.facade", "RpcFacade", "send_transaction"),
    "rpc.produce_block": ("repro.rpc.facade", "RpcFacade", "produce_block"),
    "rpc.transport_request": ("repro.rpc.transport", "SimTransport", "request"),
    "service.run_block": ("repro.service.chain_service", "ChainService", "run_block"),
    "service.ingest_block": (
        "repro.service.chain_service", "ChainService", "ingest_block"
    ),
    "obs.record_block": ("repro.obs.streaming", "SoakTelemetry", "record_block"),
    "workloads.stream_block": ("repro.workloads.stream", "BlockStream", "block"),
}

# Wrapped by hand below because they also feed counters.
KECCAK_SPAN = "crypto.keccak256"
EXECUTE_TX_SPAN = "evm.execute_transaction"


class Tracer:
    """Span store plus the wrappers that fill it.

    ``spans[i]`` is ``[name_id, start_ns, end_ns, parent]``; ``parent`` is an
    index into ``spans`` or -1 for an op's root span.  Parents always precede
    their children.  ``op_ids[i]`` is the benchmark op (block or request
    number) of root span ``i`` and ``op_scales[i]`` the host-speed scale
    ``OpTimer`` measured around it; aggregated times are scaled by it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.op_ids: dict[int, int] = {}
        self.op_scales: dict[int, float] = {}
        self.current = -1  # open span, -1 outside any op
        self.keccak_bytes = 0
        self.keccak_repeats = 0
        self.evm_ops = 0
        self._keccak_seen: set[bytes] = set()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ ops

    def name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def begin_op(self, kind: str, op_id: int) -> None:
        index = len(self.spans)
        self.spans.append([self.name_id("bench." + kind), 0, 0, -1])
        self.op_ids[index] = op_id
        self.current = index

    def end_op(self, start_ns: int, end_ns: int, scale: float) -> None:
        root = self.spans[self.current]
        root[1] = start_ns
        root[2] = end_ns
        self.op_scales[self.current] = scale
        self.current = -1

    # ------------------------------------------------------------- wrappers

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        name_id = self.name_id(name)

        def wrapper(*args, **kwargs):
            parent = tracer.current
            # A recursive call (rlp.encode on a nested list) stays inside
            # the outermost span: one span per call from another layer.
            if parent < 0 or spans[parent][0] == name_id:
                return fn(*args, **kwargs)
            record = [name_id, 0, 0, parent]
            tracer.current = len(spans)
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                tracer.current = parent

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_keccak(self, fn):
        tracer = self
        seen = self._keccak_seen
        timed = self._wrap(KECCAK_SPAN, fn)

        def keccak256(data):
            if tracer.current >= 0:
                tracer.keccak_bytes += len(data)
                data = bytes(data)
                if data in seen:
                    tracer.keccak_repeats += 1
                else:
                    seen.add(data)
            return timed(data)

        keccak256.__wrapped__ = fn
        return keccak256

    def _wrap_execute_transaction(self, fn):
        tracer = self
        timed = self._wrap(EXECUTE_TX_SPAN, fn)

        def execute_transaction(*args, **kwargs):
            result = timed(*args, **kwargs)
            if tracer.current >= 0:
                tracer.evm_ops += result.ops_executed
            return result

        execute_transaction.__wrapped__ = fn
        return execute_transaction

    # ------------------------------------------------------ install/uninstall

    def _rebind_function(self, module_name: str, attr: str, make_wrapper) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._installed.append((module, key, original))

    def install(self) -> None:
        """Rebind every listed name; call once, before the traced pass."""
        self._rebind_function("repro.crypto", "keccak256", self._wrap_keccak)
        self._rebind_function(
            "repro.evm.interpreter",
            "execute_transaction",
            self._wrap_execute_transaction,
        )
        for span, (module_name, attr) in FUNCTION_SPANS.items():
            self._rebind_function(
                module_name, attr, lambda fn, span=span: self._wrap(span, fn)
            )
        for span, (module_name, class_name, method) in METHOD_SPANS.items():
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(span, original))
            self._installed.append((cls, method, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------ aggregation

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total and self ns, and each duration.

        Self time is a span's duration minus the part of it its child spans
        cover (children never overlap: one thread).  Every time is scaled to
        reference host speed by its op's scale.
        """
        spans = self.spans
        scales = [1.0] * len(spans)
        durations = [0.0] * len(spans)
        self_ns = [0.0] * len(spans)
        for index, (_name, start, end, parent) in enumerate(spans):
            scale = self.op_scales[index] if parent < 0 else scales[parent]
            scales[index] = scale
            durations[index] = duration = (end - start) * scale
            self_ns[index] += duration
            if parent >= 0:
                self_ns[parent] -= duration
        stats: dict[str, dict] = {}
        for index, span in enumerate(spans):
            entry = stats.setdefault(
                self.names[span[0]],
                {"calls": 0, "total_ns": 0.0, "self_ns": 0.0, "durations_ns": []},
            )
            entry["calls"] += 1
            entry["total_ns"] += durations[index]
            entry["self_ns"] += self_ns[index]
            entry["durations_ns"].append(durations[index])
        return stats

    def dump(self, path: str) -> None:
        """Write every span, as measured, plus each op's host-speed scale."""
        op_of: list[int] = []
        rows = []
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            op_id = self.op_ids[index] if parent < 0 else op_of[parent]
            op_of.append(op_id)
            rows.append([name_id, start, end, parent, op_id])
        with open(path, "w") as handle:
            json.dump(
                {
                    "columns": ["name_id", "start_ns", "end_ns", "parent", "op_id"],
                    "names": self.names,
                    "op_scales": {str(k): v for k, v in self.op_scales.items()},
                    "spans": rows,
                },
                handle,
                separators=(",", ":"),
            )
            handle.write("\n")


def layer_self_ns(stats: dict[str, dict], layer: str) -> float:
    """Summed self time of every span whose name starts with ``layer.``."""
    prefix = layer + "."
    return sum(e["self_ns"] for name, e in stats.items() if name.startswith(prefix))
