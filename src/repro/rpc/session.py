"""One serving session: the assembled stack and the event loop driving it.

``run_ingress`` (overload certification), the soak's loadgen mode (long-run
telemetry) and ``repro serve`` (the HTTP demo, which uses the stack without
the simulated loop) are thin callers of :class:`ServingSession`: each builds
its chain, passes its config values as plain arguments, and hooks its own
bookkeeping in through ``on_response`` / ``on_block``.
"""

from __future__ import annotations

import heapq
from contextlib import ExitStack

from ..concurrency.registry import make_executor
from ..mempool.pool import Mempool, MempoolConfig
from ..obs.lifecycle import (
    DEGRADATION_COUNTERS,
    FlightRecorder,
    LifecycleTracker,
    SloConfig,
    SloMonitor,
)
from ..obs.metrics import MetricsRegistry
from ..obs.streaming import SoakTelemetry, snapshot_sink
from ..service.chain_service import ChainService, SoakObserver
from ..workloads.clients import ClientSpec, build_fleet
from .dispatcher import RpcDispatcher
from .facade import RpcConfig, RpcFacade, ingress_backoff_policy
from .transport import SimTransport


class ServingSession:
    """The serving stack over one chain, observed through one registry:
    executor → :class:`ChainService` → mempool → :class:`RpcFacade` →
    dispatcher → :class:`SimTransport`, driven by :meth:`run`.

    ``durability`` / ``pipeline`` / ``fault_plan_factory`` are the built
    objects (or None) the execution path runs with.  ``lifecycle`` attaches
    per-tx tracing: a flight recorder, an SLO monitor whose alerts snapshot
    the recorder's ring (an alert is itself an incident, dumped at the close
    of the offending window so the dump carries the txs that burned the
    budget), and the tracker feeding both.
    """

    def __init__(
        self,
        chain,
        executor: str,
        threads: int,
        *,
        rpc: RpcConfig,
        mempool: MempoolConfig | None = None,
        metrics: MetricsRegistry,
        durability=None,
        pipeline=None,
        fault_plan_factory=None,
        lifecycle: bool = True,
        slo: SloConfig | None = None,
        trace: bool = False,
    ) -> None:
        self.chain = chain
        self.metrics = metrics
        observer = SoakObserver(metrics=metrics)
        self.service = ChainService(
            None,
            make_executor(
                executor, threads, observer=observer, durability=durability
            ),
            observer=observer,
            fault_plan_factory=fault_plan_factory,
            pipeline=pipeline,
            chain=chain,
        )
        self.mempool = Mempool(mempool or MempoolConfig(), chain.world, metrics=metrics)
        self.tracker = self.slo = self.recorder = None
        if lifecycle:
            recorder = self.recorder = FlightRecorder()
            slo_config = slo or SloConfig()
            self.slo = SloMonitor(
                slo_config,
                metrics=metrics,
                on_alert=lambda alert: recorder.trigger(
                    f"slo:{alert['objective']}",
                    (alert["window"] + 1) * slo_config.window_us,
                ),
            )
            self.tracker = LifecycleTracker(
                metrics=metrics,
                slo=self.slo,
                recorder=recorder,
                trace=trace,
            )
        self.facade = RpcFacade(
            self.service,
            self.mempool,
            config=rpc,
            metrics=metrics,
            lifecycle=self.tracker,
        )
        self.dispatcher = RpcDispatcher(self.facade, metrics=metrics)
        self.transport = SimTransport(self.dispatcher)
        self.fleet: list = []
        self.telemetry: SoakTelemetry | None = None

    def run(
        self,
        clients: ClientSpec,
        blocks: int,
        tick_interval_us: float,
        window_blocks: int,
        *,
        out=None,
        progress=None,
        waterfalls=None,
        db=None,
        on_response=None,
        on_block=None,
    ) -> None:
        """Serve ``clients`` for ``blocks`` production ticks.

        Windowed telemetry streams to ``out`` / ``progress`` as in
        :func:`~repro.obs.streaming.snapshot_sink`; ``waterfalls`` (path or
        file, lifecycle sessions only) receives one JSONL line per terminal
        transaction; ``db`` adds state-cache accounting to every window.
        ``on_response(request, response)`` sees every round trip and
        ``on_block(produced)`` every production tick (empty ones included)
        — the caller's bookkeeping.  A non-None ``on_block`` return is
        booked as the block's service-clock advance (a pipelined soak's
        throughput clock); otherwise the block's latency is.
        """
        tracker, recorder = self.tracker, self.recorder
        self.fleet = build_fleet(
            clients,
            self.chain.accounts,
            ingress_backoff_policy(),
            self.chain.env.chain_id,
        )
        telemetry = self.telemetry = SoakTelemetry(
            window_blocks=window_blocks,
            registry=self.metrics,
            db=db,
            lifecycle=tracker,
            slo=self.slo,
        )
        horizon_us = blocks * tick_interval_us

        # Heap entries are (time_us, seq, kind, payload); seq is the global
        # deterministic tie-break.
        events: list = []
        seq = 0

        def push(at_us: float, kind: str, payload) -> None:
            nonlocal seq
            heapq.heappush(events, (at_us, seq, kind, payload))
            seq += 1

        for client in self.fleet:
            push(client.next_arrival(0.0), "arrival", client)
        push(tick_interval_us, "tick", None)

        def serve(client, request, now_us, attempt, first_us) -> None:
            response = self.transport.request(request, now_us)
            if on_response is not None:
                on_response(request, response)
            if request["method"] != "send_transaction":
                return
            error = response.get("error")
            if error is None:
                tx_hash = response["result"]["tx_hash"]
                client.note_accepted(tx_hash)
                if tracker is not None and attempt > 0:
                    # The facade saw only the successful attempt; backdate
                    # the lifecycle to the first submission so the retry
                    # segment of the waterfall carries the backoff time.
                    tracker.note_submission(tx_hash, first_us, attempt + 1)
                return
            data = error.get("data") or {}
            if data.get("retryable"):
                delay = client.retry_delay_us(attempt, data.get("retry_after_us", 0.0))
                if delay is not None:
                    retry = (client, request, attempt + 1, first_us)
                    push(now_us + delay, "retry", retry)

        def tick(now_us: float, emit) -> None:
            produced = self.facade.produce_block(now_us)
            if recorder is not None:
                for name in DEGRADATION_COUNTERS:
                    total = self.metrics.sum_by_name(name)
                    if total > degradation_seen[name]:
                        recorder.trigger(f"degradation:{name}", now_us)
                    degradation_seen[name] = total
            advance_us = on_block(produced) if on_block is not None else None
            outcome = produced.outcome
            if outcome is None:
                return
            snapshot = telemetry.record_block(
                outcome.number,
                tx_count=outcome.tx_count,
                gas_used=outcome.gas_used,
                latency_us=outcome.latency_us,
                tx_latencies_us=[
                    now_us + outcome.latency_us - entry.admitted_at_us
                    for entry in produced.entries
                ],
                advance_us=advance_us,
            )
            if snapshot is not None:
                emit(snapshot)

        # Degradation watch: the resilience fallback counters, read as
        # per-tick deltas; any increase snapshots the flight ring.
        degradation_seen = {
            name: self.metrics.sum_by_name(name) for name in DEGRADATION_COUNTERS
        }
        with ExitStack() as stack:
            if tracker is not None and waterfalls is not None:
                if isinstance(waterfalls, str):
                    waterfalls = stack.enter_context(open(waterfalls, "w"))
                tracker.sink = waterfalls
            emit = stack.enter_context(snapshot_sink(out, progress))
            ticks = 0
            last_now = 0.0
            while events:
                now_us, _, kind, payload = heapq.heappop(events)
                last_now = max(last_now, now_us)
                if kind == "tick":
                    ticks += 1
                    tick(now_us, emit)
                    if ticks < blocks:
                        push(now_us + tick_interval_us, "tick", None)
                elif now_us >= horizon_us:
                    pass  # the fleet stops offering load at the horizon
                elif kind == "arrival":
                    client = payload
                    serve(client, client.make_request(now_us), now_us, 0, now_us)
                    nxt = client.next_arrival(now_us)
                    if nxt < horizon_us:
                        push(nxt, "arrival", client)
                else:  # retry
                    client, request, attempt, first_us = payload
                    serve(client, request, now_us, attempt, first_us)
                if ticks >= blocks:
                    break
            if self.slo is not None:
                self.slo.finalize(last_now)
            tail = telemetry.finish()
            if tail is not None:
                emit(tail)

    def report_sections(self) -> dict:
        """The report fields every serving harness shares, after :meth:`run`."""
        return {
            "summary": self.telemetry.summary(),
            "counters": self.metrics.counter_totals(),
            "lifecycle": (
                self.tracker.report().as_dict() if self.tracker is not None else None
            ),
            "slo": self.slo.summary() if self.slo is not None else None,
            "flight": self.recorder.as_dict() if self.recorder is not None else None,
        }
