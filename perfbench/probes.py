"""Outside-in layer probes for the traced benchmark run.

The probes wrap methods of the simulator's classes from this file, so no
module under ``src/`` changes.  :func:`install` must run before the fabric
is built: ``Link.__init__`` pre-binds ``engine.after`` and its three
completion callbacks, and ``Host.__init__`` pre-binds its eligible-release
wake, so a wrapper installed later would never fire.  It patches classes
process-wide, so it belongs in a process that makes no timed run.

Two kinds of wrapper:

- *spans* time a call and charge it to a layer.  Spans nest on one stack;
  a layer's self time is its spans' duration minus the time of the spans
  nested inside them.
- *counters* only count calls.  They are for the tiny per-packet calls
  (queue ``head``/``push``/``pop``, metric updates), where a timer would
  cost more than the call; their time stays in the calling layer.

Every callback the engine dispatches is wrapped in a ``dispatch`` span, so
the engine's self time is ``Engine.run`` minus the callbacks it runs, and
callback time that no layer span covers shows up as unattributed instead
of being hidden in the engine's number.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Dict, List

__all__ = ["Probes", "install"]

_clock = time.perf_counter

#: Layers that carry a span: one [self seconds, calls] cell each.
SPAN_LAYERS = (
    "setup.fabric",
    "setup.traffic",
    "engine",
    "dispatch",
    "traffic",
    "open_flow",
    "routing",
    "admission",
    "host.submit",
    "host.rx",
    "switch",
    "arbiter",
    "link",
    "stats",
    "obs.tracer",
)

#: Count-only probes.
COUNTERS = (
    "queues.built",
    "queues.head",
    "queues.push",
    "queues.pop",
    "arbiter.heads",  # queue heads read inside a pick
    "traffic.messages",
    "routing.paths_computed",
    "admission.paths_scored",
    "link.transmits",
    "link.credits_returned",
    "switch.accepted",
    "obs.metric_updates",
)


class Probes:
    """Span stack plus per-layer cells for one traced run."""

    def __init__(self) -> None:
        #: Child-time accumulators of the open spans; index 0 is the root.
        self.stack: List[float] = [0.0]
        self.spans: Dict[str, List[float]] = {name: [0.0, 0] for name in SPAN_LAYERS}
        self.counts: Dict[str, List[int]] = {name: [0] for name in COUNTERS}
        #: Total (not self) seconds of the last span per layer.
        self.last_span_s: Dict[str, float] = {}
        #: Set-up counts, taken just before the run phase zeroes the cells.
        self.setup_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def span(self, layer: str, fn: Callable) -> Callable:
        cell = self.spans[layer]
        stack = self.stack
        clock = _clock

        def wrapper(*args, **kwargs):
            started = clock()
            stack.append(0.0)
            result = fn(*args, **kwargs)
            elapsed = clock() - started
            cell[0] += elapsed - stack.pop()
            cell[1] += 1
            stack[-1] += elapsed
            return result

        return wrapper

    def outer_span(self, layer: str, fn: Callable) -> Callable:
        """A span that also remembers its total duration (set-up steps)."""
        inner = self.span(layer, fn)
        last = self.last_span_s

        def wrapper(*args, **kwargs):
            started = _clock()
            result = inner(*args, **kwargs)
            last[layer] = _clock() - started
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def picker(self, fn: Callable) -> Callable:
        """Arbiter span that also counts the queue heads read per pick."""
        timed = self.span("arbiter", fn)
        heads = self.counts["queues.head"]
        in_pick = self.counts["arbiter.heads"]

        def wrapper(*args):
            before = heads[0]
            result = timed(*args)
            in_pick[0] += heads[0] - before
            return result

        return wrapper

    def dispatcher(self) -> Callable:
        """The wrapper the engine runs in place of each scheduled callback."""
        cell = self.spans["dispatch"]
        stack = self.stack
        clock = _clock

        def dispatch(fn, args):
            started = clock()
            stack.append(0.0)
            fn(*args)
            elapsed = clock() - started
            cell[0] += elapsed - stack.pop()
            cell[1] += 1
            stack[-1] += elapsed

        return dispatch

    def reset_run_phase(self) -> None:
        """Zero every cell; called as the run phase starts, so the run
        metrics exclude set-up work such as opening the video flows."""
        for cell in self.spans.values():
            cell[0] = 0.0
            cell[1] = 0
        for cell in self.counts.values():
            cell[0] = 0

    def self_s(self, layer: str) -> float:
        return self.spans[layer][0]

    def calls(self, layer: str) -> int:
        return self.spans[layer][1]

    def count(self, name: str) -> int:
        return self.counts[name][0]


def _patch(owner, name: str, wrap: Callable[[Callable], Callable]) -> None:
    setattr(owner, name, wrap(owner.__dict__[name]))


def install() -> Probes:
    """Wrap the simulator's layer boundaries; returns the shared probes.

    The set-up figures survive the reset at ``TrafficMix.start``: span
    totals in ``last_span_s`` and the queue count in ``setup_counts``.
    """
    from repro.core import admission, arbiter
    from repro.core.queues import base, fifo, heap, pipelined_heap, takeover
    from repro.experiments import runner
    from repro.network import fabric, host, link, routing, switch
    from repro.obs import metrics, tracing
    from repro.sim import engine
    from repro.stats import collectors
    from repro.traffic import base as traffic_base
    from repro.traffic import mix

    probes = Probes()
    span, counter = probes.span, probes.counter

    # Set-up: fabric construction and the traffic mix.
    _patch(fabric.Fabric, "__init__", partial(probes.outer_span, "setup.fabric"))
    runner.build_mix = probes.outer_span("setup.traffic", runner.build_mix)
    _patch(base.PacketQueue, "__init__", partial(counter, "queues.built"))

    def start_run_phase(fn):
        def wrapper(self):
            probes.setup_counts["queues.built"] = probes.count("queues.built")
            probes.reset_run_phase()
            return fn(self)

        return wrapper

    _patch(mix.TrafficMix, "start", start_run_phase)

    # Event kernel: every scheduled callback runs inside a dispatch span.
    dispatch = probes.dispatcher()
    Engine = engine.Engine
    for name in ("at", "after", "at_cancellable", "after_cancellable"):
        original = Engine.__dict__[name]

        def schedule(self, when, fn, *args, _original=original):
            return _original(self, when, dispatch, fn, args)

        setattr(Engine, name, schedule)
    _patch(Engine, "run", partial(probes.outer_span, "engine"))

    # Control plane.
    _patch(fabric.Fabric, "open_flow", partial(span, "open_flow"))
    _patch(routing.RoutingTable, "candidates", partial(span, "routing"))
    routing.compute_updown_paths = counter(
        "routing.paths_computed", routing.compute_updown_paths
    )
    for name in ("reserve", "assign_path"):
        _patch(admission.AdmissionController, name, partial(span, "admission"))
    _patch(
        admission.AdmissionController,
        "_path_profile",
        partial(counter, "admission.paths_scored"),
    )

    # Traffic generation.
    _patch(traffic_base.TrafficSource, "_tick", partial(span, "traffic"))
    _patch(fabric.Fabric, "submit", partial(counter, "traffic.messages"))

    # Host NIC.
    _patch(host.Host, "submit_message", partial(span, "host.submit"))
    for name in ("accept", "pull", "_release_eligible"):
        _patch(host.Host, name, partial(span, "host.rx"))

    # Switch, arbiter, queues.
    for name in ("accept", "pull"):
        _patch(switch.Switch, name, partial(span, "switch"))
    _patch(switch.Switch, "accept", partial(counter, "switch.accepted"))
    for cls in (arbiter.EDFPicker, arbiter.RoundRobinPicker):
        _patch(cls, "pick", probes.picker)
    for cls in (
        fifo.FifoQueue,
        heap.EDFHeapQueue,
        pipelined_heap.PipelinedHeapQueue,
        takeover.TakeOverQueue,
    ):
        for name in ("head", "push", "pop"):
            _patch(cls, name, partial(counter, f"queues.{name}"))

    # Links and credits.
    for name in ("transmit", "return_credit", "_tx_done", "_deliver", "_credit_arrived"):
        _patch(link.Link, name, partial(span, "link"))
    _patch(link.Link, "transmit", partial(counter, "link.transmits"))
    _patch(link.Link, "return_credit", partial(counter, "link.credits_returned"))

    # Statistics.
    for name in ("on_delivery", "finalize"):
        _patch(collectors.MetricsCollector, name, partial(span, "stats"))

    # Observability: span tracer hooks are timed, metric updates counted.
    for name in ("begin", "event", "arrive", "finish"):
        _patch(tracing.PacketTracer, name, partial(span, "obs.tracer"))
    for cls, name in (
        (metrics.Counter, "inc"),
        (metrics.Gauge, "set"),
        (metrics.Histogram, "observe"),
    ):
        _patch(cls, name, partial(counter, "obs.metric_updates"))
    return probes
