"""The sweep engine: one executor × site nest for every certifying sweep.

The crash sweep, the pipelined crash sweep, the reorg round trip and the
failover sweep all certify the same shape of claim — *for every executor
config, at every site, the system lands on the serial reference* — so
they share one loop (:func:`run_sweep`), one report base
(:class:`SweepReport`), one statement of the commit atomicity boundary
(:class:`CommitBoundary`) and one way to die at a named crash site
(:func:`crashing_at`).  A sweep supplies only what is its own: the
fixture and serial reference, a per-executor ``prepare``, and a per-site
``check`` that returns what went wrong (or None).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..concurrency import SerialExecutor
from ..durability import CrashInjector, SimulatedCrash, site_expected_state
from ..errors import DurabilityError, RecoveryError
from .certify import CertificationReport, Divergence

# Sites where a sweep upgrades the fingerprint check to a full MPT root
# comparison: the two states bracketing the atomicity boundary.
ROOT_CHECK_SITES = frozenset({"pre-commit", "post-commit"})


class _SiteFailed(Exception):
    """A site that could not be certified; the message says why."""


@dataclass(slots=True, kw_only=True)
class SweepReport:
    """What the crash, reorg and failover sweep reports share.

    One block swept across executor configs (× crash sites): which ran,
    what diverged, how many simulated process deaths and recoveries it
    took, and the plumbing — ``ok``, the :class:`CertificationReport`
    adapter the shrink/dump code consumes, the verdict tail of
    ``describe()``, the counters the chaos harness reports.
    """

    # Set per subclass: the ``"<kind>:<site>"`` prefix of its divergence
    # fields, and which counter it reports as injected faults (process
    # deaths, rollbacks, failovers).
    kind = "sweep"
    faults_counter = "crashes_injected"

    block_number: int
    tx_count: int
    executors: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    sites: list[str] = field(default_factory=list)
    crashes_injected: int = 0
    recoveries: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def certification(self) -> CertificationReport:
        """The sweep as a :class:`CertificationReport` (shared plumbing)."""
        return CertificationReport(
            block_number=self.block_number,
            tx_count=self.tx_count,
            executors=list(self.executors),
            divergences=list(self.divergences),
        )

    def counters(self) -> dict[str, float]:
        """The sweep's counters, as the chaos harness reports them."""
        return {
            "crash_sites": float(len(self.sites)),
            "crashes_injected": float(self.crashes_injected),
            "recoveries": float(self.recoveries),
        }

    def chaos_outcome(self) -> tuple[CertificationReport, dict[str, float], float]:
        """``(certification, counters, faults injected)`` for the chaos harness."""
        counters = self.counters()
        return self.certification, counters, counters[self.faults_counter]

    def _verdict(self, head: str, passed: str) -> str:
        if self.ok:
            return head + passed
        lines = [head + f"{len(self.divergences)} VIOLATIONS"]
        lines += ["  " + d.describe() for d in self.divergences]
        return "\n".join(lines)


def run_sweep(
    report: SweepReport,
    executors: Sequence[str],
    prepare: Callable[[str], object],
    check: Callable[[object, str | None], str | None],
    metrics,
    counted_as: tuple[str, str],
) -> SweepReport:
    """Certify every ``(executor, site)`` pair; record what diverged.

    The sites are ``report.sites``; a sweep that has none (the reorg round
    trip) is checked once per executor at the pseudo-site None.
    ``prepare(name)`` runs once per executor config and hands its result
    to ``check(prepared, site)``, which returns a problem string — or
    raises :class:`_SiteFailed` — when the pair cannot be certified, and
    None when it can.  Either way the sweep moves on to the next site.
    Problems land on ``report`` as ``Divergence(name, "<kind>:<site>", …)``
    with the report's ``kind`` (bare ``"<kind>"`` at the pseudo-site).
    ``counted_as`` names the ``(total, failed)`` counters bumped in
    ``metrics`` once per sweep.
    """
    sites = report.sites or [None]
    for name in executors:
        report.executors.append(name)
        prepared = prepare(name)
        for site in sites:
            try:
                problem = check(prepared, site)
            except _SiteFailed as failure:
                problem = str(failure)
            if problem is not None:
                kind = report.kind
                where = kind if site is None else f"{kind}:{site}"
                report.divergences.append(Divergence(name, where, problem))
    total, failed = counted_as
    metrics.counter(total).inc()
    if not report.ok:
        metrics.counter(failed).inc()
    return report


def apply_serially(world, *blocks):
    """``world`` after ``blocks`` in order under the serial reference executor."""
    serial = SerialExecutor()
    for block in blocks:
        world.apply(serial.execute_block(world, block.txs, block.env).writes)
    return world


def root_genesis(chain, check_roots: bool) -> None:
    """Take the genesis digests once, before a sweep's first ``fresh_world()``.

    Every world a sweep builds — the serial reference, each candidate, each
    ``recover(medium, chain.fresh_world)`` — is a clone of the genesis, and a
    clone inherits what its source remembers of its last fingerprint and its
    last root, so it re-terms and re-hashes only its own delta.  Not done
    inside ``Chain.fresh_world()``: the replays clone the genesis per block
    and take neither digest.  Both read through ``peek``, so the simulated
    clock (and every sweep's output) does not notice.
    """
    chain.world.fingerprint()
    if check_roots:
        chain.world.state_root()


def world_state(world, check_roots: bool) -> tuple[bytes, bytes | None]:
    """A world's fingerprint and, when roots are checked, its MPT root."""
    return world.fingerprint(), world.state_root() if check_roots else None


@dataclass(frozen=True, slots=True)
class CommitBoundary:
    """The two states a crashed commit may recover to — and no third.

    ``pre`` and ``post`` are :func:`world_state` pairs of the world before
    and after the block.  :meth:`at` is the atomicity criterion every
    crash sweep certifies: which of the two a crash at ``site`` must land
    on (:func:`repro.durability.site_expected_state`), upgraded to an MPT
    root comparison at the sites bracketing the COMMIT marker.
    """

    pre: tuple[bytes, bytes | None]
    post: tuple[bytes, bytes | None]

    def at(self, site: str) -> tuple[str, bytes, bytes | None]:
        """``(expected, fingerprint, root)`` for a crash at ``site``.

        ``expected`` is ``"pre"`` or ``"post"``; ``root`` is None wherever
        the fingerprint alone decides (away from the boundary, or when the
        sweep runs without root checks).
        """
        expected = site_expected_state(site)
        fingerprint, root = self.pre if expected == "pre" else self.post
        return expected, fingerprint, root if site in ROOT_CHECK_SITES else None


@contextmanager
def failing_as(what: str, *also: type[Exception]):
    """Turn a typed durability failure in the body into :class:`_SiteFailed`."""
    try:
        yield
    except (DurabilityError, RecoveryError, *also) as exc:
        raise _SiteFailed(f"{what} raised {exc}") from exc


@contextmanager
def crashing_at(site: str, report: SweepReport, what: str):
    """Run the body with a :class:`CrashInjector` armed on ``site``.

    The body wires the yielded injector into a commit path and commits;
    the simulated process death is swallowed here.  A site the commit
    never reached is a failure — the sweep would be certifying nothing
    there — as is any typed error other than the crash itself.
    """
    injector = CrashInjector(site)
    with failing_as(what):
        try:
            yield injector
        except SimulatedCrash:
            pass
    if not injector.fired:
        raise _SiteFailed("site never fired")
    report.crashes_injected += 1
