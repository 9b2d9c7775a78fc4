"""The discrete-event simulation kernel.

One binary heap of ``[time, seq, fn, args]`` entries.  The sequence
number is unique and grows with every schedule call, so the heap orders
events by ``(time, schedule order)`` and list comparison never reaches
the callback.  The seed's heap engine is kept as the differential-testing
oracle in ``tests/sim/heap_engine.py``; ``tests/sim/test_engine_differential.py``
proves both dispatch the same events in the same order.

- **No handle on the plain path.**  ``at``/``after`` return ``None``: a
  handle allocation per event was the largest schedule-path cost, and
  almost no caller cancels.  The ``*_cancellable`` variants return an
  :class:`EventHandle` that holds the heap entry itself.
- **Tombstone cancellation.**  ``cancel()`` swaps the entry's callback
  for a no-op and drops its arguments; the run loop discards the
  tombstone when it reaches the top of the heap.
- Each schedule method pushes its own entry and none calls another, so
  a wrapper around any one of them (``perfbench/probes.py`` wraps all
  four) sees each scheduled callback exactly once.
- Callbacks receive their pre-bound arguments; there is no per-event
  dictionary or keyword packing on the hot path.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, List, Optional

__all__ = ["Engine", "EventHandle", "SimulationError"]

# Scheduling happens once per event; a module-global alias skips the
# module-then-builtins dict probes of `heapq.heappush` on every call.
_heappush = heapq.heappush
_heappop = heapq.heappop

#: Sentinel bound: every real timestamp/count is below it, so the run
#: loop compares against an int constant instead of testing
#: `is not None` twice per event (int/int compares stay in C).
_NO_BOUND = sys.maxsize


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


def _noop(*_args: Any) -> None:
    return None


class EventHandle:
    """A cancellable scheduled callback.

    Returned by :meth:`Engine.at_cancellable` /
    :meth:`Engine.after_cancellable`.  The plain :meth:`Engine.at` /
    :meth:`Engine.after` return ``None``.
    """

    __slots__ = ("time", "cancelled", "_entry")

    def __init__(self, entry: list):
        self.time: int = entry[0]
        self.cancelled = False
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent; safe after firing."""
        if self.cancelled:
            return
        self.cancelled = True
        # Tombstone the entry in place: the run loop recognizes the no-op
        # by identity and discards it.  Dropping the arguments eagerly
        # unpins them while the tombstone waits in the heap.
        entry = self._entry
        entry[2] = _noop
        entry[3] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} {state}>"


class Engine:
    """Event loop with integer-nanosecond virtual time.

    Typical use::

        eng = Engine()
        eng.after(100, my_callback, arg1, arg2)
        eng.run(until=1_000_000)

    The engine never advances past ``until``; events scheduled exactly at
    ``until`` do fire (closed interval), which lets warm-up and measurement
    windows abut without gaps.
    """

    __slots__ = (
        "_now",
        "_seq",
        "_heap",
        "_running",
        "_stopped",
        "_events_executed",
        "_tombstones_discarded",
        "_count_live",
    )

    def __init__(self, start_time: int = 0):
        if start_time < 0:
            raise SimulationError(f"start time must be >= 0, got {start_time}")
        self._now: int = start_time
        self._seq: int = 0
        #: min-heap of [time, seq, fn, args]; seq is unique, so ordering
        #: never compares callbacks.
        self._heap: List[list] = []
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._tombstones_discarded = 0
        self._count_live = False

    # ------------------------------------------------------------------
    # time & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks fired so far (for microbenchmarks/tests).

        By default this is only refreshed when :meth:`run` returns; call
        :meth:`enable_live_event_count` first if you need it accurate
        *inside* a callback (telemetry does).
        """
        return self._events_executed

    def enable_live_event_count(self) -> None:
        """Refresh :attr:`events_executed` after every callback.

        Off by default: the per-event attribute store costs a few percent
        of pure dispatch throughput, so only observers that sample
        mid-run (e.g. :class:`repro.obs.telemetry.RunTelemetry`) should
        turn it on.  Irreversible for the engine's lifetime; cheap anyway
        once any instrumentation is attached.
        """
        self._count_live = True

    @property
    def pending(self) -> int:
        """Number of scheduled entries, *including* cancelled tombstones.

        Read from inside a callback, only entries later than :attr:`now`
        count: events still due at the current time are not pending.  The
        telemetry heartbeat samples this as
        ``sim.engine.heap_depth_events``.  The scan is O(n) but runs only
        when an observer asks.
        """
        if self._running:
            now = self._now
            return sum(1 for entry in self._heap if entry[0] > now)
        return len(self._heap)

    @property
    def tombstones_discarded(self) -> int:
        """Cancelled entries surfaced and thrown away so far.

        The tombstone *ratio* (discarded / (discarded + executed)) is the
        health number: near 1.0 means most scheduling traffic is
        cancellation garbage and the scheduling pattern deserves a look.

        Known fault: :meth:`run` adds its discards only when it returns,
        so a read from inside a callback (the telemetry heartbeat's
        ``sim.engine.tombstones_total``) misses those of the current run.
        The perfbench reference digests record this behaviour.
        """
        return self._tombstones_discarded

    @property
    def tombstone_ratio(self) -> float:
        """discarded / (discarded + executed).

        Known fault: refreshed only when :meth:`run` returns (see
        :attr:`tombstones_discarded`), so the heartbeat gauge
        ``sim.engine.tombstone_ratio`` reads 0.0 for the whole of a
        single-run simulation.
        """
        total = self._tombstones_discarded + self._events_executed
        return self._tombstones_discarded / total if total else 0.0

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if nothing is pending.

        Tombstones at the top of the heap are discarded (and counted) here.
        """
        heap = self._heap
        while heap and heap[0][2] is _noop:
            _heappop(heap)
            self._tombstones_discarded += 1
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        Returns ``None``; use :meth:`at_cancellable` if the event may
        need to be revoked.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self._now}"
            )
        self._seq = seq = self._seq + 1
        _heappush(self._heap, [time, seq, fn, args])

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds from now.

        Open-coded rather than delegating to :meth:`at`: most hot-path
        callers reschedule relative to now, and ``delay >= 0`` already
        guarantees the not-in-the-past invariant.  Returns ``None``; use
        :meth:`after_cancellable` if the event may need revoking.
        """
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self._seq = seq = self._seq + 1
        _heappush(self._heap, [self._now + delay, seq, fn, args])

    def at_cancellable(
        self, time: int, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at ``time``; returns a cancellable handle."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self._now}"
            )
        self._seq = seq = self._seq + 1
        entry = [time, seq, fn, args]
        _heappush(self._heap, entry)
        return EventHandle(entry)

    def after_cancellable(
        self, delay: int, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` ns; returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self._seq = seq = self._seq + 1
        entry = [self._now + delay, seq, fn, args]
        _heappush(self._heap, entry)
        return EventHandle(entry)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events in timestamp order.

        Stops when nothing is pending, when the next event lies beyond
        ``until``, after ``max_events`` callbacks, or when :meth:`stop` is
        called from inside a callback.  Returns the number of callbacks
        executed by *this* call.

        When stopping because of ``until``, the clock is advanced to
        ``until`` so back-to-back ``run(until=...)`` calls observe
        contiguous time.
        """
        if self._running:
            raise SimulationError("engine is not reentrant: run() called from a callback")
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")

        heap = self._heap
        pop = _heappop
        base = self._events_executed
        until_bound = _NO_BOUND if until is None else until
        limit = _NO_BOUND if max_events is None else max_events
        # With _count_live set, the public counter is refreshed after
        # every callback so observers sampling *inside* the loop (the
        # telemetry heartbeat's events/sec probe) see a moving count;
        # otherwise the loop keeps the cheaper local counter and the
        # attribute is refreshed once on the way out.
        live = self._count_live
        tombstones = 0
        executed = 0
        self._running = True
        self._stopped = False
        try:
            while heap:
                entry = heap[0]
                fn = entry[2]
                if fn is _noop:
                    # Discarded before the until/limit checks, as the
                    # oracle does, even when the next live event lies
                    # beyond the window.
                    pop(heap)
                    tombstones += 1
                    continue
                time = entry[0]
                if time > until_bound or executed >= limit:
                    break
                pop(heap)
                self._now = time
                fn(*entry[3])
                executed += 1
                if live:
                    self._events_executed = base + executed
                # `_stopped` is written by stop() from inside the
                # callback we just ran, so it must be re-read after
                # every dispatch; a pre-loop hoist would be a semantic
                # change.
                if self._stopped:  # simlint: allow-hot-attr-reload
                    break
        finally:
            self._running = False
            self._events_executed = base + executed
            self._tombstones_discarded += tombstones
        if until is not None and not self._stopped and (
            max_events is None or executed < max_events
        ):
            if until > self._now:
                self._now = until
        return executed

    def run_all(self, max_events: int = 50_000_000) -> int:
        """Run until nothing is pending (bounded by ``max_events``)."""
        return self.run(max_events=max_events)

    def stop(self) -> None:
        """Request the current :meth:`run` call to return after this callback."""
        self._stopped = True
