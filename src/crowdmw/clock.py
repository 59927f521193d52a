"""Clock abstraction shared by the simulated and UDP backends.

Timestamps are milliseconds.  Internally they are floats so the
simulator can model sub-millisecond transmission costs; anything
persisted or logged is formatted to fixed precision.  The virtual
clock only moves when something advances it, which is what makes
simulated runs reproducible.
"""

from __future__ import annotations

import time


class VirtualClock:
    """Manually advanced millisecond clock starting at zero."""

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now = float(start_ms)

    def now_ms(self) -> float:
        return self._now

    def advance_to(self, t_ms: float) -> None:
        # Time never runs backwards.
        if t_ms > self._now:
            self._now = float(t_ms)


class WallClock:
    """Monotonic wall clock, zeroed at construction."""

    def __init__(self) -> None:
        self._epoch = time.monotonic()

    def now_ms(self) -> float:
        return (time.monotonic() - self._epoch) * 1000.0
