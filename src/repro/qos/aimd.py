"""AIMD self-tuning of the in-flight window from observed RTT.

Classic additive-increase / multiplicative-decrease over a smoothed-RTT
congestion signal, in the spirit of the outstanding-request management
discussion in the RDMA hash-table literature: too small a window leaves
doorbell/batching throughput on the table, too large a window queues
requests in the connection buffer and inflates tail latency without
adding throughput.  The controller holds the window at the knee by
cutting multiplicatively when the smoothed RTT inflates past a multiple
of the best RTT seen (queueing delay = congestion) or on loss (attempt
timeout), and probing upward by +1 after every ``probe_interval`` clean
completions.

Pure arithmetic — no simulator dependency; the client feeds it
``on_ack(rtt_ns)`` / ``on_loss()`` and reads ``window``.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..config import QosConfig

__all__ = ["AimdController"]


class AimdController:
    """One AIMD-governed window (per connection; message or read path)."""

    __slots__ = ("min_window", "max_window", "rtt_smooth", "rtt_inflation",
                 "decrease", "probe_interval", "window", "srtt", "best_rtt",
                 "_good", "_cooldown", "losses", "cuts")

    def __init__(self, min_window: int = 1, max_window: int = 64,
                 rtt_smooth: float = 0.125, rtt_inflation: float = 3.0,
                 decrease: float = 0.5, probe_interval: int = 8,
                 initial: Optional[int] = None):
        if not (0 < rtt_smooth <= 1):
            raise ValueError("rtt_smooth must be in (0, 1]")
        if rtt_inflation <= 1:
            raise ValueError("rtt_inflation must exceed 1")
        if not (0 < decrease < 1):
            raise ValueError("decrease must be in (0, 1)")
        self.min_window = max(1, min_window)
        self.max_window = max(self.min_window, max_window)
        self.rtt_smooth = rtt_smooth
        self.rtt_inflation = rtt_inflation
        self.decrease = decrease
        self.probe_interval = max(1, probe_interval)
        start = self.min_window if initial is None else initial
        self.window = min(self.max_window, max(self.min_window, start))
        self.srtt = 0.0
        self.best_rtt = float("inf")
        self._good = 0
        #: Acks to ignore after a cut, so one congestion episode — whose
        #: queued requests all carry inflated RTTs — costs one cut, not a
        #: collapse to min_window.
        self._cooldown = 0
        self.losses = 0
        self.cuts = 0

    @classmethod
    def from_config(cls, qos: "QosConfig",
                    initial: Optional[int] = None) -> "AimdController":
        return cls(min_window=qos.aimd_min_window,
                   max_window=qos.aimd_max_window,
                   rtt_smooth=qos.aimd_rtt_smooth,
                   rtt_inflation=qos.aimd_rtt_inflation,
                   decrease=qos.aimd_decrease,
                   probe_interval=qos.aimd_probe_interval,
                   initial=initial)

    def on_ack(self, rtt_ns: int) -> None:
        """One completed request with the given round-trip time."""
        if rtt_ns < self.best_rtt:
            self.best_rtt = rtt_ns
        a = self.rtt_smooth
        self.srtt = rtt_ns if self.srtt == 0.0 else (
            (1.0 - a) * self.srtt + a * rtt_ns)
        if self._cooldown > 0:
            self._cooldown -= 1
            return
        if self.srtt > self.rtt_inflation * self.best_rtt:
            self._cut()
            return
        self._good += 1
        if self._good >= self.probe_interval:
            self._good = 0
            if self.window < self.max_window:
                self.window += 1

    def on_loss(self) -> None:
        """An attempt timed out (response presumed lost)."""
        self.losses += 1
        if self._cooldown == 0:
            self._cut()

    def _cut(self) -> None:
        self.cuts += 1
        self.window = max(self.min_window, int(self.window * self.decrease))
        self._good = 0
        self._cooldown = self.window

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AimdController(window={self.window}, "
                f"srtt={self.srtt:.0f}ns, best={self.best_rtt:.0f}ns)")
