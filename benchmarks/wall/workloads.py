"""The five workloads: fixture, serial reference, and one timed pass each.

Every workload is built from ``(seed, sizes)`` alone and runs the program
through its public functions.  ``run_pass`` rebuilds whatever the ops mutate
(worlds, services, journals) so that pass *k* does exactly the work of pass
1; only the ops themselves — ``OpTimer.op`` calls — are on the clock.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter_ns

from spec import (
    PROBE_MAX_AGE_NS,
    PROBE_NOMINAL_NS,
    START_BLOCK,
    THREADS,
    WARMUP_BLOCKS,
)


def host_probe() -> int:
    """A fixed pure-Python kernel whose wall time tracks the host's speed.

    Big-int arithmetic, list and dict traffic: the same interpreter work the
    program is made of, none of the program's code.  Never change it: every
    reported time is scaled by it (see :class:`OpTimer`).
    """
    acc = 0
    table = {}
    lanes = [1] * 25
    for i in range(1500):
        acc = (acc * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
        lanes[i % 25] ^= acc >> 7
        table[i & 63] = acc
    return acc


def probe_ns() -> int:
    """Wall time of one :func:`host_probe` right now."""
    start = perf_counter_ns()
    host_probe()
    return perf_counter_ns() - start


class OpTimer:
    """Times ops on the host clock, at reference host speed.

    The sandbox's speed drifts by tens of percent within seconds (README,
    "Host noise"), so every op is bracketed by :func:`host_probe`: one probe
    no older than ``PROBE_MAX_AGE_NS`` before it and, when the op itself
    lasted longer than that, one right after.  ``samples`` holds the op's
    wall time scaled by ``PROBE_NOMINAL_NS / mean(bracketing probes)``;
    ``raw`` holds it as measured.  With a tracer attached each op also opens
    a root span carrying the same scale.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[int]] = {}
        self.probes: list[int] = []
        self._probe_end = 0

    def probe(self) -> int:
        self.probes.append(probe_ns())
        self._probe_end = perf_counter_ns()
        return self.probes[-1]

    def op(self, kind: str, op_id: int, fn, *args):
        if not self.probes or perf_counter_ns() - self._probe_end > PROBE_MAX_AGE_NS:
            self.probe()
        before = self.probes[-1]
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(kind, op_id)
        start = perf_counter_ns()
        result = fn(*args)
        end = perf_counter_ns()
        after = self.probe() if end - start > PROBE_MAX_AGE_NS else before
        scale = PROBE_NOMINAL_NS / ((before + after) / 2)
        if tracer is not None:
            tracer.end_op(start, end, scale)
        self.raw.setdefault(kind, []).append(end - start)
        self.samples.setdefault(kind, []).append((end - start) * scale)
        return result


@dataclass
class PassResult:
    """What one pass produced: timings, outputs to check, layer counters."""

    timer: OpTimer
    records: list[tuple] = field(default_factory=list)  # one per block
    makespans: list[float] = field(default_factory=list)
    fingerprint: bytes = b""
    inputs_digest: bytes = b""  # of inputs the pass itself generated
    failed: int = 0  # failures seen inside the pass (see each workload)
    facts: dict = field(default_factory=dict)

    @property
    def samples(self) -> dict[str, list[float]]:
        return self.timer.samples

    @property
    def attempted(self) -> int:
        return sum(len(values) for values in self.samples.values())

    def sim_digest(self) -> str:
        """Exact-repeat digest of everything the simulated clock produced."""
        hasher = hashlib.sha256()
        for makespan in self.makespans:
            hasher.update(repr(makespan).encode())
        hasher.update(self.fingerprint)
        hasher.update(self.inputs_digest)
        return hasher.hexdigest()


def writes_digest(writes) -> bytes:
    hasher = hashlib.blake2b(digest_size=16)
    for key, value in sorted(writes.items()):
        hasher.update(repr(key).encode())
        hasher.update(repr(value).encode())
    return hasher.digest()


def receipts_digest(tx_results) -> bytes:
    """Digest of what a receipts trie commits to, without its keccak blooms.

    Only ``validate_roots`` pays for real receipts roots (it is the workload
    that measures them); the others compare the same fields through this.
    """
    hasher = hashlib.blake2b(digest_size=16)
    for result in sorted(tx_results, key=lambda r: r.tx.tx_index):
        logs = [(log.address, log.topics, log.data) for log in result.logs]
        hasher.update(
            repr((result.tx.tx_index, result.success, result.gas_used, logs)).encode()
        )
    return hasher.digest()


def block_record(result) -> tuple:
    return (
        writes_digest(result.writes),
        result.gas_used,
        receipts_digest(result.tx_results),
    )


# Summed over blocks from ``BlockResult.stats`` under the same names.
_EXECUTOR_STATS = (
    "executions",
    "log_entries_total",
    "redo_attempts",
    "redo_successes",
    "full_aborts",
)


def new_facts() -> dict:
    facts = dict.fromkeys(_EXECUTOR_STATS, 0)
    facts.update(blocks=0, txs=0, gas=0, cache_hits=0, cache_misses=0, gen_ns=[])
    return facts


def add_block_facts(facts: dict, result) -> None:
    facts["blocks"] += 1
    facts["txs"] += len(result.tx_results)
    facts["gas"] += result.gas_used
    for stat in _EXECUTOR_STATS:
        facts[stat] += result.stats.get(stat, 0)


def add_cache_facts(facts: dict, world) -> None:
    facts["cache_hits"] += world.db.cache.hits
    facts["cache_misses"] += world.db.cache.misses


class Workload:
    """Common shape; ``ref_*`` are filled by :meth:`reference`."""

    name = ""

    def __init__(self, seed: int, sizes: dict, work_dir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self.ref_records: list[tuple] = []
        self.ref_fingerprint = b""
        self.ref_makespan_us = 0.0

    def executor(self):
        from repro import ParallelEVMExecutor

        return ParallelEVMExecutor(threads=THREADS)

    def build(self) -> None:
        """Fixture and generated inputs (timed as set-up)."""

    def warm_up(self) -> None:
        """``WARMUP_BLOCKS`` untimed blocks, so lazy caches fill."""
        raise NotImplementedError

    def reference(self) -> None:
        """Run the serial executor over the same inputs; keep its outputs."""
        raise NotImplementedError

    def run_pass(self, timer: OpTimer) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> int:
        """Ops of ``result`` whose output differs from the serial reference."""
        failed = result.failed + abs(len(result.records) - len(self.ref_records))
        failed += sum(
            1 for got, want in zip(result.records, self.ref_records) if got != want
        )
        if result.fingerprint != self.ref_fingerprint:
            failed += 1
        return failed


# --------------------------------------------------------------------- replay


class _Replay(Workload):
    """Pre-generated blocks, each executed and committed on a fresh world."""

    def block_maker(self):
        """A ``number -> Block`` callable over ``self.chain``."""
        raise NotImplementedError

    def build(self) -> None:
        from repro.bench.harness import standard_chain

        self.chain = standard_chain(accounts=self.sizes["accounts"])
        make_block = self.block_maker()
        self.blocks = []
        self.gen_ns = []
        # Generation funds allowances in the genesis world, so every block
        # exists before the first world is cloned from it.
        for index in range(self.sizes["blocks"]):
            start = perf_counter_ns()
            self.blocks.append(make_block(START_BLOCK + index))
            self.gen_ns.append(perf_counter_ns() - start)

    @staticmethod
    def replay(executor, world, block):
        result = executor.execute_block(world, block.txs, block.env)
        executor.commit_block(world, block.number, result)
        return result

    def warm_up(self) -> None:
        executor = self.executor()
        for block in self.blocks[:WARMUP_BLOCKS]:
            self.replay(executor, self.chain.fresh_world(), block)

    def _run(self, executor, timer: OpTimer) -> PassResult:
        result = PassResult(timer, facts=new_facts())
        result.facts["gen_ns"] = self.gen_ns
        world = None
        for index, block in enumerate(self.blocks):
            world = self.chain.fresh_world()
            block_result = timer.op("block", index, self.replay, executor, world, block)
            result.records.append(block_record(block_result))
            result.makespans.append(block_result.makespan_us)
            add_block_facts(result.facts, block_result)
            add_cache_facts(result.facts, world)
        result.fingerprint = world.fingerprint()
        return result

    def reference(self) -> None:
        from repro import SerialExecutor

        serial = self._run(SerialExecutor(), OpTimer())
        self.ref_records = serial.records
        self.ref_fingerprint = serial.fingerprint
        self.ref_makespan_us = sum(serial.makespans)

    def run_pass(self, timer: OpTimer) -> PassResult:
        return self._run(self.executor(), timer)


class ReplayMainnet(_Replay):
    name = "replay_mainnet"

    def block_maker(self):
        from repro.workloads import MainnetConfig, MainnetWorkload

        config = MainnetConfig(txs_per_block=self.sizes["txs"], seed=self.seed)
        return MainnetWorkload(self.chain, config).block


class ReplayContended(_Replay):
    name = "replay_contended"

    def block_maker(self):
        from repro.workloads import conflict_ratio_block

        return lambda number: conflict_ratio_block(
            self.chain, number, self.sizes["txs"], self.sizes["ratio"], seed=self.seed
        )


# ------------------------------------------------------------- validate_roots


class ValidateRoots(Workload):
    """A live chain; every block is followed by both roots.

    Every account holds every token from genesis (``build_chain``, not the
    lazily funded stream chain), so the state a root is taken over has the
    same size at block 1 and block 160, and for every seed.
    """

    name = "validate_roots"

    def _service(self, executor):
        from repro.service import ChainService
        from repro.workloads import BlockStream, ChainSpec, StreamSpec, build_chain

        sizes = self.sizes
        chain = build_chain(
            ChainSpec(
                accounts=sizes["accounts"],
                tokens=sizes["tokens"],
                proxied_tokens=1,
                amm_pairs=sizes["amm_pairs"],
            )
        )
        spec = StreamSpec(
            accounts=sizes["accounts"],
            tokens=sizes["tokens"],
            amm_pairs=sizes["amm_pairs"],
            txs_per_block=sizes["txs"],
            seed=self.seed,
        )
        return ChainService(BlockStream(chain, spec), executor)

    @staticmethod
    def validate(service):
        from repro import receipts_root

        service.run_block()
        result = service.last_result
        return result, service.world.state_root(), receipts_root(result.tx_results)

    def _run(self, executor, blocks: int, timer: OpTimer) -> PassResult:
        service = self._service(executor)
        result = PassResult(timer, facts=new_facts())
        for index in range(blocks):
            block_result, state_root, receipts = timer.op(
                "block", index, self.validate, service
            )
            result.records.append(
                (
                    writes_digest(block_result.writes),
                    block_result.gas_used,
                    receipts,
                    state_root,
                )
            )
            result.makespans.append(block_result.makespan_us)
            add_block_facts(result.facts, block_result)
        add_cache_facts(result.facts, service.world)
        result.fingerprint = service.world.fingerprint()
        return result

    def warm_up(self) -> None:
        self._run(self.executor(), WARMUP_BLOCKS, OpTimer())

    def reference(self) -> None:
        from repro import SerialExecutor

        serial = self._run(SerialExecutor(), self.sizes["blocks"], OpTimer())
        self.ref_records = serial.records
        self.ref_fingerprint = serial.fingerprint
        self.ref_makespan_us = sum(serial.makespans)

    def run_pass(self, timer: OpTimer) -> PassResult:
        return self._run(self.executor(), self.sizes["blocks"], timer)


# ----------------------------------------------------------- durable_pipeline


class DurablePipeline(Workload):
    """Pipelined service, file-backed journal, telemetry attached, recovery."""

    name = "durable_pipeline"

    def _chain(self, blocks: int):
        """A stream chain with every lazy token funding already written.

        ``BlockStream`` funds accounts by writing the world directly, which
        no journal sees; generating the blocks once up front puts all of it
        in the genesis that ``recover`` starts from, so the recovered state
        can be compared with the live one exactly.
        """
        from repro.workloads import BlockStream, StreamSpec, build_stream_chain

        spec = StreamSpec(
            accounts=self.sizes["accounts"],
            txs_per_block=self.sizes["txs"],
            seed=self.seed,
        )
        chain = build_stream_chain(spec)
        BlockStream(chain).blocks(spec.start_block, blocks)
        return chain

    def _plain_run(self, executor, blocks: int) -> PassResult:
        from repro.service import ChainService
        from repro.workloads import BlockStream

        service = ChainService(BlockStream(self._chain(blocks)), executor)
        result = PassResult(OpTimer(), facts=new_facts())
        for _ in range(blocks):
            service.run_block()
            result.records.append(block_record(service.last_result))
            result.makespans.append(service.last_result.makespan_us)
        result.fingerprint = service.world.fingerprint()
        return result

    def reference(self) -> None:
        from repro import SerialExecutor

        serial = self._plain_run(SerialExecutor(), self.sizes["blocks"])
        self.ref_records = serial.records
        self.ref_fingerprint = serial.fingerprint
        self.ref_makespan_us = sum(serial.makespans)

    @staticmethod
    def step(service, telemetry):
        outcome = service.run_block()
        telemetry.record_block(
            outcome.number,
            tx_count=outcome.tx_count,
            gas_used=outcome.gas_used,
            latency_us=outcome.latency_us,
            tx_latencies_us=outcome.tx_latencies_us,
            advance_us=outcome.advance_us,
        )
        return service.last_result

    def _run(self, blocks: int, timer: OpTimer) -> PassResult:
        from repro import ParallelEVMExecutor
        from repro.durability import DurableCommitPipeline, FileMedium, recover
        from repro.obs import MetricsRegistry
        from repro.obs.streaming import SoakTelemetry
        from repro.pipeline import PipelineConfig, PipelineCoordinator
        from repro.service import ChainService, SoakObserver
        from repro.workloads import BlockStream

        chain = self._chain(blocks)
        genesis = chain.world.clone()
        registry = MetricsRegistry()
        observer = SoakObserver(metrics=registry)
        executor = ParallelEVMExecutor(threads=THREADS, observer=observer)
        journal_dir = os.path.join(self.work_dir, f"journal-{os.getpid()}")
        shutil.rmtree(journal_dir, ignore_errors=True)
        durability = DurableCommitPipeline(
            FileMedium(journal_dir),
            checkpoint_interval=self.sizes["checkpoint_interval"],
            metrics=registry,
        )
        executor.durability = durability
        service = ChainService(
            BlockStream(chain),
            executor,
            observer=observer,
            pipeline=PipelineCoordinator(PipelineConfig(), metrics=registry),
        )
        telemetry = SoakTelemetry(
            window_blocks=20, registry=registry, db=chain.world.db
        )
        result = PassResult(timer, facts=new_facts())
        try:
            for index in range(blocks):
                block_result = timer.op("block", index, self.step, service, telemetry)
                result.records.append(block_record(block_result))
                result.makespans.append(block_result.makespan_us)
                add_block_facts(result.facts, block_result)
            recovered = timer.op(
                "recover", 0, recover, FileMedium(journal_dir), lambda: genesis
            )
        finally:
            shutil.rmtree(journal_dir, ignore_errors=True)
        result.fingerprint = service.world.fingerprint()
        if recovered.world.fingerprint() != result.fingerprint:
            result.failed += 1
        add_cache_facts(result.facts, service.world)
        result.facts["journal_bytes"] = durability.journal.bytes_written
        result.facts["fsyncs"] = durability.fsyncs
        return result

    def warm_up(self) -> None:
        self._run(WARMUP_BLOCKS, OpTimer())

    def run_pass(self, timer: OpTimer) -> PassResult:
        return self._run(self.sizes["blocks"], timer)


# -------------------------------------------------------------- serve_ingress


class ServeIngress(Workload):
    """The serving stack ``run_ingress`` builds, under the benchmark's loop.

    Arrivals are open-loop on the simulated clock (seeded Poisson clients at
    ``rate_multiplier`` x the sustainable rate); on the wall clock one caller
    issues each request or production tick when the previous one returned.
    Client-side request construction (three keccaks per transfer) happens
    between ops and is not timed.

    The blocks the run commits are only known afterwards, so the serial
    reference is replayed over them in :meth:`check` rather than in set-up.
    """

    name = "serve_ingress"

    def __init__(self, seed: int, sizes: dict, work_dir: str) -> None:
        super().__init__(seed, sizes, work_dir)
        self._checked: dict[bytes, int] = {}

    def reference(self) -> None:
        """Nothing to do before the run; see :meth:`check`."""

    def _run(self, blocks: int, timer: OpTimer) -> PassResult:
        from repro import ParallelEVMExecutor
        from repro.mempool.pool import Mempool, MempoolConfig
        from repro.obs import MetricsRegistry
        from repro.obs.lifecycle import (
            FlightRecorder,
            LifecycleTracker,
            SloConfig,
            SloMonitor,
        )
        from repro.obs.streaming import SoakTelemetry
        from repro.rpc.dispatcher import RpcDispatcher
        from repro.rpc.facade import RpcConfig, RpcFacade, ingress_backoff_policy
        from repro.rpc.transport import SimTransport
        from repro.service import ChainService, SoakObserver
        from repro.workloads import ChainSpec, build_chain
        from repro.workloads.clients import ClientSpec, build_fleet

        sizes = self.sizes
        interval_us = 50_000.0
        chain = build_chain(
            ChainSpec(
                accounts=sizes["accounts"],
                tokens=2,
                proxied_tokens=2,
                amm_pairs=1,
                seed=self.seed,
            )
        )
        genesis = chain.world.clone()
        registry = MetricsRegistry(label_limit=512)
        observer = SoakObserver(metrics=registry)
        executor = ParallelEVMExecutor(threads=THREADS, observer=observer)
        service = ChainService(None, executor, observer=observer, chain=chain)
        mempool = Mempool(MempoolConfig(), chain.world, metrics=registry)
        recorder = FlightRecorder()
        slo_config = SloConfig()
        slo = SloMonitor(
            slo_config,
            metrics=registry,
            on_alert=lambda alert: recorder.trigger(
                f"slo:{alert['objective']}",
                (alert["window"] + 1) * slo_config.window_us,
            ),
        )
        tracker = LifecycleTracker(metrics=registry, slo=slo, recorder=recorder)
        facade = RpcFacade(
            service,
            mempool,
            config=RpcConfig(
                block_txs=sizes["txs"],
                block_interval_us=interval_us,
                record_blocks=True,
            ),
            metrics=registry,
            lifecycle=tracker,
        )
        transport = SimTransport(RpcDispatcher(facade, metrics=registry))
        horizon_us = blocks * interval_us
        fleet = build_fleet(
            ClientSpec(
                clients=sizes["clients"],
                base_rate_tps=sizes["rate_multiplier"]
                * sizes["txs"]
                / (interval_us / 1e6),
                read_share=sizes["read_share"],
                seed=self.seed,
            ),
            chain.accounts,
            ingress_backoff_policy(),
            chain.env.chain_id,
        )
        telemetry = SoakTelemetry(
            window_blocks=8, registry=registry, lifecycle=tracker, slo=slo
        )

        result = PassResult(timer, facts=new_facts())
        facts = result.facts
        facts.update(sends=0, rejected=0)
        inputs = hashlib.sha256()
        admitted: set[str] = set()
        committed: set[str] = set()
        shed: set[str] = set()

        events: list = []
        seq = 0

        def push(at_us: float, kind: str, payload) -> None:
            nonlocal seq
            heapq.heappush(events, (at_us, seq, kind, payload))
            seq += 1

        def serve(client, request, now_us, attempt, first_us) -> None:
            inputs.update(json.dumps(request, sort_keys=True).encode())
            inputs.update(repr(now_us).encode())
            request_id = len(timer.samples.get("request", ()))
            response = timer.op(
                "request", request_id, transport.request, request, now_us
            )
            method = request["method"]
            if method == "send_transaction":
                facts["sends"] += 1
            error = response.get("error")
            if error is None:
                if method == "send_transaction":
                    tx_hash = response["result"]["tx_hash"]
                    admitted.add(tx_hash)
                    client.note_accepted(tx_hash)
                    if attempt > 0:
                        tracker.note_submission(tx_hash, first_us, attempt + 1)
                return
            data = error.get("data") or {}
            if not data.get("reason"):
                result.failed += 1  # an untyped error is a failed request
                return
            if method != "send_transaction":
                return
            facts["rejected"] += 1
            if data.get("retryable"):
                delay = client.retry_delay_us(attempt, data.get("retry_after_us", 0.0))
                if delay is not None:
                    push(now_us + delay, "retry", (client, request, attempt + 1, first_us))

        def tick(now_us: float):
            produced = facade.produce_block(now_us)
            outcome = produced.outcome
            if outcome is not None:
                telemetry.record_block(
                    outcome.number,
                    tx_count=outcome.tx_count,
                    gas_used=outcome.gas_used,
                    latency_us=outcome.latency_us,
                    tx_latencies_us=[
                        now_us + outcome.latency_us - entry.admitted_at_us
                        for entry in produced.entries
                    ],
                    advance_us=None,
                )
            return produced

        for client in fleet:
            push(client.next_arrival(0.0), "arrival", client)
        push(interval_us, "tick", None)
        ticks = 0
        last_now = 0.0
        while events and ticks < blocks:
            now_us, _, kind, payload = heapq.heappop(events)
            last_now = max(last_now, now_us)
            if kind == "tick":
                produced = timer.op("block", ticks, tick, now_us)
                ticks += 1
                for entry in produced.shed + produced.stale:
                    shed.add("0x" + entry.tx_hash.hex())
                if produced.outcome is not None:
                    block_result = service.last_result
                    for entry in produced.entries:
                        tx_hash = "0x" + entry.tx_hash.hex()
                        if tx_hash in committed:
                            result.failed += 1  # double commit
                        committed.add(tx_hash)
                    result.records.append(block_record(block_result))
                    result.makespans.append(block_result.makespan_us)
                    add_block_facts(facts, block_result)
                push(now_us + interval_us, "tick", None)
            elif kind == "arrival":
                client = payload
                if now_us < horizon_us:
                    start = perf_counter_ns()
                    request = client.make_request(now_us)
                    facts["gen_ns"].append(perf_counter_ns() - start)
                    serve(client, request, now_us, 0, now_us)
                    upcoming = client.next_arrival(now_us)
                    if upcoming < horizon_us:
                        push(upcoming, "arrival", client)
            elif now_us < horizon_us:  # retry
                client, request, attempt, first_us = payload
                serve(client, request, now_us, attempt, first_us)
        slo.finalize(last_now)
        telemetry.finish()

        # Conservation: every admitted tx is committed, typed-shed or pending.
        pending = {"0x" + h.hex() for h in mempool.pending_hashes()}
        result.failed += len(admitted - committed - shed - pending)
        result.failed += len(committed & shed)
        add_cache_facts(facts, chain.world)
        result.fingerprint = chain.world.fingerprint()
        result.inputs_digest = inputs.digest()
        self._last_run = (genesis, facade.committed_blocks)
        return result

    def warm_up(self) -> None:
        self._run(WARMUP_BLOCKS, OpTimer())

    def run_pass(self, timer: OpTimer) -> PassResult:
        return self._run(self.sizes["blocks"], timer)

    def check(self, result: PassResult) -> int:
        """Replay the committed blocks serially from genesis and compare.

        The replay runs once per distinct pass (passes of one run are
        identical, which ``sim_digest`` enforces); it also yields the serial
        makespan the simulated speed-up is taken against.
        """
        from repro import SerialExecutor

        key = result.inputs_digest + result.fingerprint
        if key not in self._checked:
            genesis, blocks = self._last_run
            serial = SerialExecutor()
            self.ref_records = []
            self.ref_makespan_us = 0.0
            for block in blocks:
                block_result = serial.execute_block(genesis, block.txs, block.env)
                serial.commit_block(genesis, block.number, block_result)
                self.ref_records.append(block_record(block_result))
                self.ref_makespan_us += block_result.makespan_us
            self.ref_fingerprint = genesis.fingerprint()
            self._checked[key] = super().check(result)
        return self._checked[key]


BY_NAME = {
    cls.name: cls
    for cls in (
        ReplayMainnet,
        ReplayContended,
        ValidateRoots,
        DurablePipeline,
        ServeIngress,
    )
}
