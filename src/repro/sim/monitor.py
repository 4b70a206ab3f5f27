"""Measurement instruments: counters, tallies, and time-weighted gauges.

The bench harness samples these to produce the per-figure series.  All
instruments are cheap enough to leave enabled in every run.
"""

from __future__ import annotations

import math
from typing import Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

__all__ = ["Counter", "Tally", "TimeWeighted", "MetricSet", "ScopedMetrics",
           "kernel_snapshot"]


def kernel_snapshot(sim: "Simulator") -> dict[str, float]:
    """Kernel telemetry for one simulator: scheduling volume, calendar-tier
    hit mix, timer-pool reuse and peak calendar occupancy.

    The counters live as plain ints on the :class:`Simulator` hot paths,
    which deliberately under-count: pooled rearms skip ``k_scheduled``
    and now-queue hits have no counter at all, keeping the two hottest
    paths increment-free.  This derives the full picture (scheduled =
    ``k_scheduled + k_timer_rearms``; now hits = scheduled - wheel -
    heap) and flattens it for bench reports so a BENCH_simcore
    events/sec change is attributable to specific tiers.
    """
    scheduled = sim.k_scheduled + sim.k_timer_rearms
    now_hits = scheduled - sim.k_wheel_hits - sim.k_heap_hits
    rearms = sim.k_timer_rearms
    allocs = sim.k_timer_allocs
    timers = rearms + allocs
    return {
        "events_scheduled": scheduled,
        "events_dispatched": sim.k_dispatched,
        "now_hits": now_hits,
        "wheel_hits": sim.k_wheel_hits,
        "heap_hits": sim.k_heap_hits,
        "now_rate": now_hits / scheduled if scheduled else 0.0,
        "wheel_rate": sim.k_wheel_hits / scheduled if scheduled else 0.0,
        "heap_rate": sim.k_heap_hits / scheduled if scheduled else 0.0,
        "timer_rearms": rearms,
        "timer_allocs": allocs,
        "timer_reuse_rate": rearms / timers if timers else 0.0,
        "peak_calendar": sim.k_peak_pending,
    }


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Tally:
    """Collects scalar observations (e.g. per-request latency in ns).

    Keeps raw samples (bounded by ``max_samples`` with uniform reservoir
    subsampling) plus exact streaming moments, so means are exact while
    percentiles degrade gracefully on very long runs.
    """

    def __init__(self, name: str, max_samples: int = 200_000, seed: int = 0x5EED):
        self.name = name
        self.max_samples = max_samples
        self._samples: list[float] = []
        self._rng = np.random.default_rng(seed)
        self.count = 0
        self._sum = 0.0
        self._sumsq = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self._sum += value
        self._sumsq += value * value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
        else:
            # Vitter's algorithm R keeps the retained set uniform.
            j = int(self._rng.integers(0, self.count))
            if j < self.max_samples:
                self._samples[j] = value

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else math.nan

    @property
    def std(self) -> float:
        if self.count < 2:
            return math.nan
        var = (self._sumsq - self._sum * self._sum / self.count) / (self.count - 1)
        return math.sqrt(max(var, 0.0))

    @property
    def min(self) -> float:
        return self._min if self.count else math.nan

    @property
    def max(self) -> float:
        return self._max if self.count else math.nan

    def percentile(self, q: float) -> float:
        if not self._samples:
            return math.nan
        return float(np.percentile(np.asarray(self._samples), q))

    def reset(self) -> None:
        self._samples.clear()
        self.count = 0
        self._sum = self._sumsq = 0.0
        self._min = math.inf
        self._max = -math.inf

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tally({self.name}: n={self.count}, mean={self.mean:.1f})"


class TimeWeighted:
    """A gauge integrated over simulated time (e.g. CPU busy fraction).

    On top of the level :meth:`set` / :meth:`add` move, it carries at
    most one *hold*: a raise that ends at a known future instant with no
    event scheduled for it (:meth:`hold` / :meth:`release`).  The hold is
    folded into the integral by the updates and averages that follow its
    start, so a poller that spins for a fixed window and then sleeps is
    accounted exactly without a wake-up just to lower the gauge.
    """

    def __init__(self, name: str, sim: "Simulator", initial: float = 0.0):
        self.name = name
        self.sim = sim
        self._value = initial
        self._last_change = sim.now
        self._area = 0.0
        self._start = sim.now
        #: The open hold: the instant it ends (None = no hold) and what
        #: it adds to ``_value`` until then.
        self._hold_end: Optional[float] = None
        self._held = 0.0

    def _settle(self, now: int) -> None:
        """Integrate up to ``now`` or the end of the open hold, whichever
        is first; a hold that has ended is closed."""
        upto = min(now, self._hold_end)
        self._area += (self._value + self._held) * (upto - self._last_change)
        self._last_change = upto
        if self._hold_end <= now:
            self._hold_end = None

    @property
    def value(self) -> float:
        live = self._hold_end is not None and self.sim.now < self._hold_end
        return self._value + live * self._held

    def set(self, value: float) -> None:
        now = self.sim.now
        if self._hold_end is not None:
            self._settle(now)
        self._area += self._value * (now - self._last_change)
        self._value = value
        self._last_change = now

    def add(self, delta: float) -> None:
        self.set(self._value + delta)

    def hold(self, delta: float, until: float) -> None:
        """Add ``delta`` to the gauge from now until time ``until``
        (``math.inf``: until :meth:`release`), whatever :meth:`set` and
        :meth:`add` do to the level underneath meanwhile."""
        self.set(self._value)
        assert self._hold_end is None, "one hold at a time"
        self._hold_end = until
        self._held = delta

    def release(self, at: int) -> None:
        """End the open hold at time ``at`` (not before now) instead; a
        hold that has already ended by then is left as it was."""
        if self._hold_end is not None and at < self._hold_end:
            self._hold_end = at

    def time_average(self) -> float:
        now = self.sim.now
        if self._hold_end is not None:
            self._settle(now)
        elapsed = now - self._start
        if elapsed <= 0:
            return self.value
        area = self._area + self._value * (now - self._last_change)
        return area / elapsed

    def reset(self) -> None:
        self.set(self._value)
        self._area = 0.0
        self._start = self._last_change = self.sim.now


class MetricSet:
    """A named bundle of instruments with lazy creation.

    Components grab ``metrics.counter("rdma.read.ops")`` etc.; the harness
    walks the registry when reporting.
    """

    def __init__(self, sim: Optional["Simulator"] = None):
        self.sim = sim
        self.counters: dict[str, Counter] = {}
        self.tallies: dict[str, Tally] = {}
        self.gauges: dict[str, TimeWeighted] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def tally(self, name: str, max_samples: int = 200_000) -> Tally:
        t = self.tallies.get(name)
        if t is None:
            t = self.tallies[name] = Tally(name, max_samples=max_samples)
        return t

    def gauge(self, name: str) -> TimeWeighted:
        if self.sim is None:
            raise ValueError("MetricSet needs a Simulator for gauges")
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = TimeWeighted(name, self.sim)
        return g

    def reset(self) -> None:
        for c in self.counters.values():
            c.reset()
        for t in self.tallies.values():
            t.reset()
        for g in self.gauges.values():
            g.reset()

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, c in self.counters.items():
            out[name] = float(c.value)
        for name, t in self.tallies.items():
            out[f"{name}.mean"] = t.mean
            out[f"{name}.count"] = float(t.count)
        for name, g in self.gauges.items():
            out[f"{name}.avg"] = g.time_average()
        return out

    def scoped(self, prefix: str) -> "ScopedMetrics":
        """A view of this set with every instrument name prefixed.

        Used for per-tenant metric namespaces: a tenant handle grabs
        ``metrics.scoped("client.tenant.analytics")`` once and its
        ``counter("throttled")`` lands in the shared registry as
        ``client.tenant.analytics.throttled``.
        """
        return ScopedMetrics(self, prefix)


class ScopedMetrics:
    """A prefix-namespaced facade over a shared :class:`MetricSet`."""

    __slots__ = ("base", "prefix")

    def __init__(self, base: MetricSet, prefix: str):
        self.base = base
        self.prefix = prefix

    def counter(self, name: str) -> Counter:
        return self.base.counter(f"{self.prefix}.{name}")

    def tally(self, name: str, max_samples: int = 200_000) -> Tally:
        return self.base.tally(f"{self.prefix}.{name}",
                               max_samples=max_samples)

    def gauge(self, name: str) -> TimeWeighted:
        return self.base.gauge(f"{self.prefix}.{name}")
