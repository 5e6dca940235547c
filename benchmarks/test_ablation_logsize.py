"""Ablation: SSA-log compaction (constant folding) on vs off.

The paper attributes the log's small size (5% of instructions) to "cutting
down stack manipulation instructions and instructions independent of
storage slots" (§6.4).  This ablation disables the constant-folding rule —
every computational operation gets an entry, as a naive operation log
would — and measures how much larger the log (and its generation cost)
becomes.  The compaction is DESIGN.md's first called-out design choice.
"""

from __future__ import annotations

from repro.concurrency.base import run_speculative
from repro.core.ssa_log import LogEntry
from repro.core.tracer import SSATracer
from repro.sim.cost import DEFAULT_COST_MODEL
from repro.state.view import BlockOverlay
from repro.workloads import ChainSpec, MainnetConfig, MainnetWorkload, build_chain


class UnfoldedTracer(SSATracer):
    """SSATracer with constant folding disabled: every ALU op is logged."""

    def trace_alu(self, frame, opcode, operands, result, gas_cost, dynamic_gas):
        self.events += 1
        self.meter.tracking_us += self._event_us
        stack = self._stack
        n = len(operands)
        shadows = tuple(stack[-1 : -n - 1 : -1])
        del stack[-n:]
        entry = LogEntry(
            len(self.log.entries), opcode, operands, result, shadows, None, (),
            None, gas_cost, dynamic_gas,
        )
        stack.append(self._append(entry))


def measure_log_sizes(txs_per_block: int):
    chain = build_chain(ChainSpec(tokens=4, amm_pairs=2, accounts=200))
    block = MainnetWorkload(chain, MainnetConfig(txs_per_block=txs_per_block)).block(
        14_000_000
    )
    sizes = {"folded": 0, "unfolded": 0, "instructions": 0,
             "tracking_folded": 0.0, "tracking_unfolded": 0.0}
    for label, tracer_cls in (("folded", SSATracer), ("unfolded", UnfoldedTracer)):
        overlay = BlockOverlay()
        world = chain.fresh_world()
        for tx in block.txs:
            tracer = tracer_cls(cost_model=DEFAULT_COST_MODEL)
            result, meter = run_speculative(
                world, overlay, tx, block.env, DEFAULT_COST_MODEL, tracer=tracer
            )
            overlay.apply(result.write_set)
            sizes[label] += len(tracer.log)
            sizes[f"tracking_{label}"] += meter.tracking_us
            if label == "folded":
                # A fully naive log records one entry per executed
                # instruction (the paper's 2559-instruction baseline).
                sizes["instructions"] += result.ops_executed
    return sizes


def test_ablation_log_compaction(benchmark, scale, save_result):
    sizes = benchmark.pedantic(
        lambda: measure_log_sizes(scale["txs_per_block"]),
        rounds=1,
        iterations=1,
    )
    from repro.bench.experiments import ExperimentResult
    from repro.bench.report import render_table

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
    save_result(
        ExperimentResult(
            "ablation_logsize",
            dict(sizes, alu_ratio=alu_ratio, naive_ratio=naive_ratio),
            rendered,
        )
    )

    # Folding must shrink the log measurably, and the full compaction
    # (vs a one-entry-per-instruction log) substantially — the paper's
    # 2559 -> 127 (20x) story, scaled to our leaner contracts.
    assert alu_ratio > 1.1
    assert naive_ratio > 2.5
    assert sizes["tracking_unfolded"] > sizes["tracking_folded"]
