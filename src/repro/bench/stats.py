"""Result containers for the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from ..sim import Tally

__all__ = ["LatencySummary", "RunResult", "summarize"]


@dataclass(frozen=True)
class LatencySummary:
    """Latency digest in microseconds."""

    count: int
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    max_us: float

    @classmethod
    def empty(cls) -> "LatencySummary":
        nan = math.nan
        return cls(0, nan, nan, nan, nan, nan)

    def __str__(self) -> str:
        if self.count == 0:
            return "n=0"
        return (f"mean={self.mean_us:.1f}us p50={self.p50_us:.1f} "
                f"p95={self.p95_us:.1f} p99={self.p99_us:.1f}")


def summarize(tally: Tally) -> LatencySummary:
    """Digest a nanosecond Tally into microseconds."""
    if tally.count == 0:
        return LatencySummary.empty()
    return LatencySummary(
        count=tally.count,
        mean_us=tally.mean / 1000.0,
        p50_us=tally.percentile(50) / 1000.0,
        p95_us=tally.percentile(95) / 1000.0,
        p99_us=tally.percentile(99) / 1000.0,
        max_us=tally.max / 1000.0,
    )


@dataclass
class RunResult:
    """One experiment run: throughput + per-op-type latency + extras."""

    name: str
    measured_ops: int
    duration_ns: int
    get_latency: LatencySummary = field(default_factory=LatencySummary.empty)
    update_latency: LatencySummary = field(
        default_factory=LatencySummary.empty)
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def throughput_mops(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        # ops per ns == Gops/s; x1000 -> Mops/s.
        return self.measured_ops / self.duration_ns * 1000.0
