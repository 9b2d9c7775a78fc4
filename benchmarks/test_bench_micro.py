"""Microbenchmarks of the hot substrate components.

Not a paper artifact -- these time the pieces every experiment is built
from, so simulator-performance regressions are visible in isolation:

- event kernel dispatch rate (the production kernel vs. the seed heap
  oracle ``HeapEngine``, with interleaved A/B ratio gates),
- tombstone-heavy cancel/reschedule and mixed near/far-horizon
  workloads,
- push/pop throughput of the three buffer structures (the FIFO-vs-heap
  cost gap is the paper's implementability argument in microseconds),
- deadline stamping rate,
- up*/down* route enumeration over the paper-size MIN.

The engine A/B gates use the discipline from
``test_bench_obs_overhead.py``: both arms alternate in one process,
min-of-N per arm, and only the *ratio* is asserted -- absolute
wall-clock on a noisy runner swings +/-30%, but the interleaved ratio
is stable to a few percent.
"""

from __future__ import annotations

import random
import time

from repro.core.deadline import RateBasedStamper
from repro.core.queues import EDFHeapQueue, FifoQueue, TakeOverQueue
from repro.network.routing import RoutingTable
from repro.network.topology import paper_topology
from repro.network.packet import Packet
from repro.sim.engine import Engine
from tests.sim.heap_engine import HeapEngine


def mkpkt(deadline: int, *, size: int = 256) -> Packet:
    return Packet(
        flow_id=1, seq=0, src=0, dst=1, size=size, vc=0,
        tclass="bench", deadline=deadline,
    )

N_EVENTS = 50_000
N_PACKETS = 20_000


def _chain_dispatch(engine_cls, n=N_EVENTS):
    """Serial event chain: one event in flight at all times (the
    dominant shape of link/host timer traffic)."""
    engine = engine_cls()

    def chain(remaining):
        if remaining:
            engine.after(1, chain, remaining - 1)

    engine.at(0, chain, n)
    engine.run_all()
    return engine.events_executed


def _tombstone_churn(engine_cls, n=N_PACKETS):
    """Cancel/reschedule churn: every step arms two cancellable timers
    and cancels one before it fires -- the EDF wakeup-rearm pattern that
    made the old heap drag tombstones through every sift."""
    engine = engine_cls()
    state = {"remaining": n, "doomed": None}

    def crash():  # pragma: no cover - fires only on a cancellation bug
        raise AssertionError("cancelled event fired")

    def step():
        if state["doomed"] is not None:
            state["doomed"].cancel()
        if state["remaining"]:
            state["remaining"] -= 1
            state["doomed"] = engine.after_cancellable(5, crash)
            engine.after(1, step)

    engine.after(0, step)
    engine.run_all()
    return engine.events_executed


def _mixed_horizon(engine_cls, n=N_PACKETS):
    """Near-now chain interleaved with far-future timers: every eighth
    step also schedules an event ~12 us ahead, so the pending set mixes
    near and far timestamps."""
    far = 12_288
    engine = engine_cls()
    state = {"remaining": n}

    def far_noop():
        pass

    def near(i):
        if state["remaining"]:
            state["remaining"] -= 1
            engine.after((i * 7) % 1000, near, i + 1)
            if i % 8 == 0:
                engine.after(far + (i % 97), far_noop)

    engine.after(0, near, 1)
    engine.run_all()
    return engine.events_executed


def _ab_ratio(workload, rounds=5):
    """oracle/engine wall-time ratio, interleaved min-of-N (>1 == the
    production kernel is faster than the ``HeapEngine`` oracle)."""
    engine = oracle = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()  # simlint: allow-wallclock
        workload(Engine)
        engine = min(engine, time.perf_counter() - t0)  # simlint: allow-wallclock
        t0 = time.perf_counter()  # simlint: allow-wallclock
        workload(HeapEngine)
        oracle = min(oracle, time.perf_counter() - t0)  # simlint: allow-wallclock
    return oracle / engine


def test_bench_engine_dispatch(benchmark):
    executed = benchmark(_chain_dispatch, Engine)
    assert executed == N_EVENTS + 1


def test_bench_engine_dispatch_heap_reference(benchmark):
    """The pre-overhaul kernel, timed for history: the dispatch-speedup
    denominators in BENCH_engine.json come from this same workload."""
    executed = benchmark(_chain_dispatch, HeapEngine)
    assert executed == N_EVENTS + 1


def test_bench_engine_tombstone_churn(benchmark):
    assert benchmark(_tombstone_churn, Engine) == N_PACKETS + 1


def test_bench_engine_mixed_horizon(benchmark):
    executed = benchmark(_mixed_horizon, Engine)
    assert executed == N_PACKETS + N_PACKETS // 8 + 1


def test_engine_dispatch_speedup_guard():
    """The production kernel must never dispatch the serial chain slower
    than the heap oracle (measured 1.06-2.53x over 20 runs, median 1.63x:
    no per-event handle object; the margin absorbs runner noise)."""
    ratio = _ab_ratio(_chain_dispatch)
    assert ratio >= 1.0, (
        f"engine dispatch speedup degraded to {ratio:.2f}x the heap "
        "oracle (budget: >= 1.0x)"
    )


def test_engine_tombstone_speedup_guard():
    """Cancel/reschedule churn must never be slower than the oracle
    (measured 1.07-1.92x over 20 runs, median 1.35x)."""
    ratio = _ab_ratio(_tombstone_churn)
    assert ratio >= 1.0, (
        f"engine tombstone churn fell to {ratio:.2f}x the heap oracle"
    )


def test_engine_mixed_horizon_bounded_regression_guard():
    """Near/far mixed horizons must never be slower than the oracle
    (measured 1.27-1.75x over 20 runs, median 1.35x)."""
    ratio = _ab_ratio(_mixed_horizon)
    assert ratio >= 1.0, (
        f"engine mixed-horizon throughput fell to {ratio:.2f}x the heap "
        "oracle (budget: >= 1.0x)"
    )


def _queue_workload(queue_cls):
    rng = random.Random(42)
    packets = [mkpkt(rng.randrange(1_000_000)) for _ in range(N_PACKETS)]

    def run():
        queue = queue_cls()
        out = 0
        for i, pkt in enumerate(packets):
            queue.push(pkt)
            if i % 3 == 2:  # interleave drains: realistic switch pattern
                queue.pop()
                out += 1
        while queue:
            queue.pop()
            out += 1
        return out

    return run


def test_bench_queue_fifo(benchmark):
    assert benchmark(_queue_workload(FifoQueue)) == N_PACKETS


def test_bench_queue_takeover(benchmark):
    assert benchmark(_queue_workload(TakeOverQueue)) == N_PACKETS


def test_bench_queue_edf_heap(benchmark):
    assert benchmark(_queue_workload(EDFHeapQueue)) == N_PACKETS


def test_bench_deadline_stamping(benchmark):
    def stamp_many():
        stamper = RateBasedStamper(0.25)
        now = 0
        for i in range(N_PACKETS):
            now += 100
            stamper.stamp(now, 2048)
        return stamper.last_deadline

    assert benchmark(stamp_many) > 0


def test_bench_routing_paper_topology(benchmark):
    """Enumerate all candidate paths from one host to every other host of
    the 128-endpoint network (what admission does per flow setup)."""
    topo = paper_topology()

    def enumerate_paths():
        table = RoutingTable(topo)
        count = 0
        for dst in range(1, topo.n_hosts):
            count += len(table.candidates(0, dst))
        return count

    count = benchmark(enumerate_paths)
    # 7 same-leaf destinations with 1 path, 120 cross-leaf with 8 paths.
    assert count == 7 * 1 + 120 * 8
