"""Summary statistics of the benchmark: medians, tails, geometric means."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: samples a reported percentile needs beyond it
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0–100) of ``values`` (``inf`` allowed)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def tail(values: Sequence[float]) -> Dict[str, object]:
    """Median plus the highest percentile with ``MIN_BEYOND`` samples beyond it.

    Returns ``{"n", "p50", "tail_q", "tail"}``; ``tail_q`` is ``None`` when
    even the 75th percentile has fewer than ``MIN_BEYOND`` samples beyond it.
    Failed operations enter ``values`` as ``inf``, so each one counts as
    missing every percentile.
    """
    n = len(values)
    out: Dict[str, object] = {"n": n, "p50": percentile(values, 50.0) if n else None,
                              "tail_q": None, "tail": None}
    for q in TAIL_PERCENTILES:
        if n and n - _rank(n, q) >= MIN_BEYOND:
            out["tail_q"] = q
            out["tail"] = percentile(values, q)
            break
    return out


def named_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Percentile ``q`` if at least ``MIN_BEYOND`` samples lie beyond it, else ``None``."""
    if not values or len(values) - _rank(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 or math.isinf(v) for v in values):
        return math.inf
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Tally:
    """Per-class latency samples plus failure accounting.

    A failure (error reply, typed service error, client timeout, a
    non-optimal result or a checker rejection) is recorded with the reason
    and enters every latency distribution of its class as ``inf``.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.failures: List[Tuple[str, str]] = []

    def ok(self, cls: str, seconds: float) -> None:
        self.samples.setdefault(cls, []).append(seconds)

    def fail(self, cls: str, reason: str) -> None:
        self.samples.setdefault(cls, []).append(math.inf)
        self.failures.append((cls, reason))

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.samples.values())

    @property
    def failed(self) -> int:
        return len(self.failures)

    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
