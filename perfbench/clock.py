"""Host-speed-adjusted timing of the timed body.

The benchmark runs on a shared virtual machine whose speed drifts:
:func:`reference_loop` runs in about 4 ms in one spell and about 7.5 ms
in the next, and spells last from seconds to minutes.  A run's wall
time follows whichever spell it lands in, so ten runs of the same code
spread by as much as a quarter of their median.

An :class:`AdjustedClock` cuts the body into segments at the boundaries
of calls into the ``repro`` layers (see ``probe.py``), no shorter than
:data:`MIN_SEGMENT_S`.  Before each segment it times
:func:`reference_loop`, a fixed piece of Python that touches nothing in
``repro``, and scales the segment's wall time by
``(REFERENCE_S / loop time) ** EXPONENT``.  The loop's own time is left
out of both the raw and the adjusted total.

The exponent is below 1 because the body is less sensitive to the host's
spells than the loop: regressing log step time on log loop time over
four minutes of passes gave slopes of 0.27 (``paper-fast``) and 0.54
(``replay-contended``), and 0.28 on a sweep of ``run_geometry_family``.
A square root corrects most of the drift of each and over-corrects none
by much.

``REFERENCE_S`` only fixes the unit: an adjusted second is a second on a
host where the reference loop takes ``REFERENCE_S``.  The body's own
cost is not rescaled, so a change that makes ``repro`` twice as slow
reads twice as slow.
"""

from __future__ import annotations

import time

#: Iterations of the reference loop, about 7.5 ms on a 2.0 GHz Xeon vCPU.
REFERENCE_ITERATIONS = 20_000
#: Median time of the reference loop on that host; the unit of
#: adjusted seconds.  A constant: never re-measured by a run.
REFERENCE_S = 0.0075
#: Power of the host-speed ratio applied to each segment.
EXPONENT = 0.5
#: Segments shorter than this are merged into the next one, which
#: bounds the reference loop's overhead to a few percent of the body.
MIN_SEGMENT_S = 0.2


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """A fixed amount of interpreter work: integer hashing and dict
    updates, independent of ``repro``."""
    table: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        total += key
    return total


class AdjustedClock:
    """Raw and host-speed-adjusted seconds of one step of the body.

    Call :meth:`start`, then :meth:`checkpoint` at any point where the
    body may be cut (the probe calls it at every layer entry and exit),
    then :meth:`stop`.  ``samples`` keeps every reference-loop time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._running = False
        self._raw = self._adjusted = 0.0
        self._mark = self._factor = 0.0

    def start(self) -> None:
        self._raw = self._adjusted = 0.0
        self._running = True
        self._sample()

    def checkpoint(self) -> None:
        if not self._running:
            return
        now = time.perf_counter()
        if now - self._mark >= MIN_SEGMENT_S:
            self._close(now)
            self._sample()

    def stop(self) -> tuple[float, float]:
        """End the step; return its ``(raw, adjusted)`` seconds."""
        self._close(time.perf_counter())
        self._running = False
        return self._raw, self._adjusted

    def _close(self, now: float) -> None:
        elapsed = now - self._mark
        self._raw += elapsed
        self._adjusted += elapsed * self._factor

    def _sample(self) -> None:
        started = time.perf_counter()
        reference_loop()
        self._mark = time.perf_counter()
        loop_s = self._mark - started
        self.samples.append(loop_s)
        self._factor = (REFERENCE_S / loop_s) ** EXPONENT
