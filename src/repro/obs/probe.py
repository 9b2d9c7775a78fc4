"""The one observation path through the NIC and the switch.

A fabric builds at most one :class:`Probe`, from the three observation
channels a run may ask for:

- ``metrics`` -- a :class:`~repro.obs.metrics.MetricsRegistry`; the probe
  owns every per-packet instrument of the hosts and switches (and the
  arbiter counters :class:`~repro.core.arbiter.MeteredPicker` bumps);
- ``tracer`` -- a :class:`~repro.obs.tracing.PacketTracer` for span
  tracing;
- ``trace`` -- a :class:`~repro.sim.monitor.Trace` of structured records
  (exported as JSONL).

When none of them is enabled :func:`build_probe` returns ``None`` and
every ``Host`` and ``Switch`` holds ``probe = None``.  Each lifecycle site
then reads ``if probe is not None:`` -- one attribute load and one branch
on a bare run, whatever mix of channels an observed run enables.  Each
probe method updates metrics inline, then calls the span tracer, then
records to the trace, skipping whichever is not attached.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.arbiter import MeteredPicker, Picker
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    SLACK_BUCKETS_NS,
    WAIT_BUCKETS_NS,
    Counter,
    class_counter,
)

__all__ = ["Probe", "build_probe"]


class Probe:
    """Metric instruments, span tracer and trace behind one guard per site."""

    def __init__(self, *, metrics, tracer, trace, n_vcs: int):
        self.metrics = metrics
        self.metrics_on = metrics.enabled
        self.tracer = tracer if tracer.enabled else None
        self.trace = trace if trace.enabled else None
        # Instruments are created once per fabric; names are formatted
        # here, never on the packet path.  A disabled registry hands out
        # inert singletons that ``metrics_on`` keeps from ever being hit.
        vcs = range(n_vcs)
        self._slack = [
            metrics.histogram(f"network.host.vc{vc}.delivery_slack_ns", SLACK_BUCKETS_NS, unit="ns")
            for vc in vcs
        ]
        self._miss = [
            metrics.counter(f"network.host.vc{vc}.deadline_miss_total", unit="packets")
            for vc in vcs
        ]
        self._miss_by_class: Dict[str, Counter] = {}
        self._stalls = metrics.counter("network.host.eligible_stalls_total", unit="packets")
        self._enqueue = [
            metrics.counter(f"network.switch.vc{vc}.enqueue_packets_total", unit="packets")
            for vc in vcs
        ]
        self._dequeue = [
            metrics.counter(f"network.switch.vc{vc}.dequeue_packets_total", unit="packets")
            for vc in vcs
        ]
        self._order_errors = [
            metrics.counter(f"network.switch.vc{vc}.order_errors_total", unit="packets")
            for vc in vcs
        ]
        self._depth = metrics.histogram("network.switch.queue_depth_packets", DEPTH_BUCKETS, unit="packets")
        self._wait = metrics.histogram("network.switch.arbitration_wait_ns", WAIT_BUCKETS_NS, unit="ns")
        self._picks = metrics.counter("core.arbiter.picks_total", unit="picks")
        self._grants = metrics.counter("core.arbiter.grants_total", unit="grants")

    def meter(self, picker: Picker) -> Picker:
        """An output port's picker, counting picks and grants if metrics are on."""
        if not self.metrics_on:
            return picker
        return MeteredPicker(picker, self._picks, self._grants)

    # ------------------------------------------------------------------
    # host sites
    # ------------------------------------------------------------------
    def submit(self, pkt: Any, node: str, now: int, held: bool) -> None:
        """A packet was minted at its source NIC; ``held`` if it must wait
        for its eligible time.  The tracer draws its sampling decision."""
        if held and self.metrics_on:
            self._stalls.inc()
        if self.tracer is not None:
            self.tracer.begin(pkt, now, node)

    def eligible(self, pkt: Any, now: int) -> None:
        """The eligible-time regulator released a held packet."""
        if self.tracer is not None and pkt.traced:
            self.tracer.event(pkt, "eligible", now)

    def inject(self, pkt: Any, node: str, now: int) -> None:
        """The NIC put the packet on its output link."""
        if self.tracer is not None and pkt.traced:
            self.tracer.event(pkt, "inject", now)
        if self.trace is not None:
            self.trace.record(now, "host.inject", node, pkt.uid, pkt.vc)

    def deliver(self, pkt: Any, node: str, link: Any, now: int, slack_ns: int) -> None:
        """The destination NIC consumed the packet; ``slack_ns`` is on its
        local clock (negative: the deadline was missed)."""
        if self.metrics_on:
            self._slack[pkt.vc].observe(slack_ns)
            if slack_ns < 0:
                self._miss[pkt.vc].inc()
                # First miss per class mints (and caches) its counter;
                # every later miss is one dict probe, no formatting.
                class_counter(
                    self.metrics,
                    self._miss_by_class,
                    pkt.tclass,
                    "network.host.class.{tclass}.deadline_miss_total",
                ).inc()
        if self.tracer is not None and pkt.traced:
            self.tracer.finish(pkt, now, node=node, link=link, slack_ns=slack_ns)
        if self.trace is not None:
            self.trace.record(now, "host.deliver", node, pkt.uid, pkt.vc)

    # ------------------------------------------------------------------
    # switch sites
    # ------------------------------------------------------------------
    def enqueue(self, pkt: Any, node: str, link: Any, out_port: int, queue: Any, now: int) -> None:
        """The packet arrived over ``link`` and joined ``queue``, the VOQ
        towards ``out_port``."""
        if self.metrics_on:
            pkt.hop_arrival = now
            self._enqueue[pkt.vc].inc()
            self._depth.observe(len(queue))
        if self.tracer is not None and pkt.traced:
            # ``link`` is the wire the packet just crossed: its occupancy
            # splits the segment into transmit + propagate exactly.
            self.tracer.arrive(pkt, now, node, link)
        if self.trace is not None:
            self.trace.record(now, "switch.enqueue", node, link.dst_port, out_port, pkt.uid)

    def dequeue(self, pkt: Any, queue: Any, now: int) -> None:
        """The packet won arbitration and left ``queue``.

        Counts dequeues, the arbitration wait, and head-of-line order
        errors: the departing packet leaves behind a *smaller*-deadline
        packet in the same VOQ -- exactly the inversion the take-over
        structure exists to prevent.
        """
        if not self.metrics_on:
            return
        self._dequeue[pkt.vc].inc()
        if pkt.hop_arrival is not None:
            self._wait.observe(now - pkt.hop_arrival)
            pkt.hop_arrival = None
        head = queue.head()
        if head is not None and head.deadline < pkt.deadline:
            self._order_errors[pkt.vc].inc()

    def forward(self, pkt: Any, node: str, in_port: int, out_port: int, now: int) -> None:
        """The switch starts sending the packet on ``out_port``."""
        if self.tracer is not None and pkt.traced:
            self.tracer.event(pkt, "forward", now, node)
        if self.trace is not None:
            self.trace.record(now, "switch.forward", node, in_port, out_port, pkt.uid)


def build_probe(*, metrics, tracer, trace, n_vcs: int) -> Optional[Probe]:
    """The fabric's probe, or ``None`` when no channel is enabled."""
    if not (metrics.enabled or tracer.enabled or trace.enabled):
        return None
    return Probe(metrics=metrics, tracer=tracer, trace=trace, n_vcs=n_vcs)
