"""Samples how fast the host runs while a simulation runs.

The benchmark's box is shared: the same work takes up to twice as long in
a busy phase as in a quiet one, the phases change within seconds, and the
process's CPU time moves with its wall time, so neither clock removes
them.  Each of the box's CPUs has its own phases, so a probe on the other
CPU, or one taken before the simulation, misses the phases the simulation
ran through.

:class:`Sampler` therefore interleaves a small fixed piece of pure-Python
work with the simulation: every ``INTERVAL_S`` of wall time a timer signal
runs one piece on the simulation's own thread and times it.  The time the
pieces took is taken out of the simulation's time, and the pieces' mean
speed relative to ``REFERENCE_PIECE_S`` scales what is left.  A time so
scaled reads as seconds on the box at the speed where one piece takes
``REFERENCE_PIECE_S``.

The piece imports nothing from the simulator, so a change to the simulator
cannot move it.  It mixes the two kinds of work a simulation does: a tight
loop over a few small objects (a heap, deques, a small dict) and
earliest-deadline picks over a few hundred queues keyed through a flow
table.  A busy phase slows the first kind more than the second; a piece of
only one kind over- or under-corrects the simulation's time.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from collections import deque
from typing import List, Tuple

__all__ = ["INTERVAL_S", "REFERENCE_PIECE_S", "Sampler"]

#: Seconds one piece takes at the reference host speed: about its median
#: inside a simulation on the reference box (2-CPU Xeon at 2.0 GHz, Python
#: 3.11.7) in a quiet phase.  It only sets the scale of the scaled times;
#: changing it changes every scaled time by the same factor.
REFERENCE_PIECE_S = 0.0032
#: Wall time between the starts of two pieces.
INTERVAL_S = 0.05

#: What one piece must compute; a piece that does not is not the fixed work.
_EXPECTED = (1744, 400)

_clock = time.perf_counter


class _Node:
    __slots__ = ("key", "queue", "served")

    def __init__(self, key: int) -> None:
        self.key = key
        self.queue: deque = deque()
        self.served = 0


class _Item:
    __slots__ = ("uid", "size", "deadline")

    def __init__(self, uid: int, size: int, deadline: int) -> None:
        self.uid = uid
        self.size = size
        self.deadline = deadline


class _Port:
    __slots__ = ("queues", "sent")

    def __init__(self, count: int) -> None:
        self.queues = [deque() for _ in range(count)]
        self.sent = 0

    def pick(self):
        """Pop the earliest-deadline head over the port's queues."""
        best = None
        best_queue = None
        for queue in self.queues:
            if queue:
                head = queue[0]
                if best is None or head.deadline < best.deadline:
                    best = head
                    best_queue = queue
        if best_queue is not None:
            best_queue.popleft()
            self.sent += 1
        return best


def _tight(rounds: int) -> int:
    """Heap and deque traffic over 64 nodes and a 4096-entry table."""
    nodes = [_Node(i) for i in range(64)]
    table = {}
    heap: list = []
    now = 0
    x = 12345
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        node = nodes[x & 63]
        node.queue.append((now, x))
        table[x & 4095] = node.key
        heapq.heappush(heap, (now + ((x >> 8) & 1023), i, node))
        if len(heap) > 256:
            now, _, node = heapq.heappop(heap)
            if node.queue:
                node.queue.popleft()
                node.served += 1
    return sum(n.served for n in nodes) + len(table)


def _scattered(events: int, ports: int, flows: int, backlog: int) -> int:
    """Earliest-deadline picks over ``ports`` ports of 8 queues, keyed
    through a ``flows``-entry flow table, with ``backlog`` events pending."""
    port_list = [_Port(8) for _ in range(ports)]
    table = {f: [f % ports, 0] for f in range(flows)}
    heap: list = []
    now = 0
    x = 987654321
    picked = 0
    for uid in range(events):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        flow = table[x % flows]
        flow[1] += 1
        port = port_list[(flow[0] + (x >> 20)) % ports]
        port.queues[(x >> 4) & 7].append(_Item(uid, 64 + (x & 1023), now + ((x >> 10) & 4095)))
        heapq.heappush(heap, (now + ((x >> 12) & 255), uid, port))
        while len(heap) > backlog:
            now, _, port = heapq.heappop(heap)
            if port.pick() is not None:
                picked += 1
    return picked


def _piece() -> Tuple[int, int]:
    return _tight(1000), _scattered(600, 64, 2000, 200)


class Sampler:
    """Runs and times a piece every ``INTERVAL_S`` between :meth:`start` and
    :meth:`stop`, on the thread that called :meth:`start`.

    A piece runs with the garbage collector paused, so that a collection of
    the simulation's objects that the piece's allocations trigger runs in
    the simulation's time, as it would have without the sampler.
    """

    def __init__(self) -> None:
        #: (start, seconds) of every piece run.
        self.pieces: List[Tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = _clock()
        outputs = _piece()
        self.pieces.append((started, _clock() - started))
        if collecting:
            gc.enable()
        if outputs != _EXPECTED:
            raise RuntimeError(f"calibration piece computed {outputs}, not {_EXPECTED}")

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def within(self, begin: float, end: float) -> List[float]:
        """Seconds of the pieces that started in ``[begin, end)``."""
        return [seconds for started, seconds in self.pieces if begin <= started < end]

    def speed(self, begin: float, end: float) -> float:
        """Mean host speed over ``[begin, end)`` relative to the reference
        (above 1 is faster): the mean of ``REFERENCE_PIECE_S`` over each
        piece's time.  The pieces start at even wall-time steps, so this is
        the speed averaged over wall time."""
        pieces = self.within(begin, end)
        if not pieces:
            raise RuntimeError("no calibration piece ran in the window")
        return sum(REFERENCE_PIECE_S / seconds for seconds in pieces) / len(pieces)
