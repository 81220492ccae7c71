"""Simulated network clock and message log for the middleware.

Every message send advances a virtual clock by the link's latency plus
the serialization time of the message's wire size (via the
:class:`~repro.workflow.data.DataTransferModel`).  The network keeps a
chronological log, so tests and examples can audit the full protocol
exchange — and the end-to-end campaign result can report how negligible
the control-plane overhead is next to the computation (seconds versus
weeks, which is why the paper never discusses it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import MiddlewareError
from repro.workflow.data import DataTransferModel

__all__ = ["MessageLogEntry", "SimulatedNetwork", "describe_log"]


@dataclass(frozen=True)
class MessageLogEntry:
    """One logged message hop."""

    sent_at: float
    received_at: float
    sender: str
    receiver: str
    kind: str
    nbytes: int

    @property
    def transit_seconds(self) -> float:
        """Simulated time the message spent in flight."""
        return self.received_at - self.sent_at


class SimulatedNetwork:
    """A virtual clock plus a message log.

    The model is sequential (one global clock): the protocol's fan-out
    steps are short control messages whose parallel transmission would
    save microseconds, and a single clock keeps the log totally ordered
    and trivially auditable.
    """

    def __init__(self, link: DataTransferModel | None = None) -> None:
        self.link = link if link is not None else DataTransferModel()
        self._now = 0.0
        self._log: list[MessageLogEntry] = []

    @property
    def now(self) -> float:
        """Current virtual time, seconds."""
        return self._now

    @property
    def log(self) -> tuple[MessageLogEntry, ...]:
        """All message hops so far, in chronological order."""
        return tuple(self._log)

    def advance(self, seconds: float) -> float:
        """Advance the clock by non-network work (e.g. SeD computation)."""
        if seconds < 0:
            raise MiddlewareError(f"cannot advance time by {seconds!r}s")
        self._now += seconds
        return self._now

    def send(self, sender: str, receiver: str, kind: str, nbytes: int) -> float:
        """Deliver one message; returns its arrival time."""
        if nbytes < 0:
            raise MiddlewareError(f"message size must be >= 0, got {nbytes!r}")
        sent = self._now
        arrival = sent + self.link.transfer_time(nbytes)
        self._log.append(
            MessageLogEntry(sent, arrival, sender, receiver, kind, nbytes)
        )
        self._now = arrival
        return arrival

    def control_plane_seconds(self) -> float:
        """Total simulated time spent in message transit."""
        return sum(entry.transit_seconds for entry in self._log)

    def describe(self) -> str:
        """Human-readable dump of the message log."""
        return describe_log(self._log, self._now)


def describe_log(log: Sequence[MessageLogEntry], now: float) -> str:
    """Human-readable dump of a message log, the clock reading ``now``."""
    lines = [f"{len(log)} messages, clock at {now:.4f}s:"]
    for e in log:
        lines.append(
            f"  t={e.sent_at:9.4f}s  {e.sender} -> {e.receiver}: "
            f"{e.kind} ({e.nbytes} B, {e.transit_seconds * 1000:.2f} ms)"
        )
    return "\n".join(lines)
