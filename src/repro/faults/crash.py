"""Crash injection: kill a streaming session at a scheduled tick.

The faults subpackage models failures of the *world* (readers, tags,
channel); this module models failure of the *harness itself* — the
process serving the session dying mid-run. :class:`CrashPoint` is the
deterministic stand-in for ``kill -9`` used by the recovery tests, the
CI crash-recovery smoke job and ``repro serve --kill-at``: when the
session loop passes the scheduled simulated time, the hook
raises :class:`SimulatedCrash` *without* draining the batcher or writing
a final checkpoint — exactly the state a hard kill leaves behind, so a
resume exercises the real write-ahead recovery path (the last committed
snapshot, not a polite shutdown snapshot).

Determinism: the crash fires at a tick boundary of the seeded service
clock, so two runs with the same seed crash at the same point with the
same checkpoint contents.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError, SimulationError

__all__ = ["CrashPoint", "SimulatedCrash"]


class SimulatedCrash(SimulationError):
    """Raised by a :class:`CrashPoint` when its scheduled time arrives.

    Deliberately *not* caught by the session's graceful-shutdown path:
    a simulated crash must leave exactly what a real crash would — a
    write-ahead checkpoint whose last snapshot is the recovery point.
    """


@dataclass(frozen=True)
class CrashPoint:
    """A scheduled hard kill of the session process.

    Parameters
    ----------
    at_s:
        Absolute simulated time (service clock) at which the session
        dies. The crash fires at the first live tick whose time is
        ``>= at_s``, after that tick's results were served (and WAL-
        logged) but before any further checkpointing.
    """

    at_s: float

    def __post_init__(self) -> None:
        if not self.at_s >= 0:
            raise ConfigurationError(
                f"at_s must be >= 0, got {self.at_s}"
            )

    def due(self, now_s: float) -> bool:
        """Whether the session should die at tick ``now_s``."""
        return now_s >= self.at_s

    def fire(self, now_s: float) -> None:
        """Raise :class:`SimulatedCrash` if the crash is due."""
        if self.due(now_s):
            raise SimulatedCrash(
                f"simulated crash at t={now_s:g}s "
                f"(scheduled at t={self.at_s:g}s)"
            )
