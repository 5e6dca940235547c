"""Zipf-distributed sampling for hot-spot workload generation.

Blockchain access skew is classically Zipf-like (the paper's Figure 3 plots
straight lines on log-log axes).  :class:`ZipfSampler` draws ranks from
P(rank=k) ∝ 1/k^s over a fixed population using inverse-CDF sampling with a
caller-supplied PRNG, so workloads are fully deterministic under a seed.
"""

from __future__ import annotations

import bisect
import random


class ZipfSampler:
    """Draws 0-based ranks with probability proportional to 1/(rank+1)^s."""

    def __init__(self, population: int, exponent: float = 1.1) -> None:
        if population <= 0:
            raise ValueError("population must be positive")
        weights = [1.0 / (k + 1) ** exponent for k in range(population)]
        total = sum(weights)
        self._cdf: list[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self, rng: random.Random) -> int:
        """One rank draw (0 is the hottest)."""
        return bisect.bisect_left(self._cdf, rng.random())


_EXACT_LIMIT = 100_000


def generalized_harmonic(n: int, s: float) -> float:
    """H(n, s) = sum_{k=1..n} 1/k^s, exact for small n, Euler-Maclaurin above.

    The tail from M to n is ∫ x^-s dx + boundary corrections:
    H(n) ≈ H(M) + (n^(1-s) - M^(1-s))/(1-s) + (n^-s - M^-s)/2, valid for any
    s > 0 (the s = 1 limit degenerates to ln(n/M)).  Error is O(M^(-s-1)),
    far below anything the Figure 3 statistics can resolve.
    """
    import math

    if n <= _EXACT_LIMIT:
        return sum(1.0 / k**s for k in range(1, n + 1))
    m = _EXACT_LIMIT
    base = sum(1.0 / k**s for k in range(1, m + 1))
    if abs(s - 1.0) < 1e-9:
        integral = math.log(n / m)
    else:
        integral = (n ** (1.0 - s) - m ** (1.0 - s)) / (1.0 - s)
    return base + integral + 0.5 * (n ** (-s) - m ** (-s))


def zipf_head_share(population: int, exponent: float, head_fraction: float) -> float:
    """Share of accesses hitting the hottest ``head_fraction`` of a Zipf law.

    Closed form, so it serves populations too large to materialise (the
    paper's 10M contracts and 200M storage slots).
    """
    head = max(1, int(population * head_fraction))
    return generalized_harmonic(head, exponent) / generalized_harmonic(
        population, exponent
    )
