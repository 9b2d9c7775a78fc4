"""The switch model (Section 4.1).

A combined input/output-queued switch with virtual output queuing: every
input port keeps, per output port and per VC, a queue whose *structure*
is the architecture under study (FIFO, EDF heap, or ordered+take-over
pair).  The crossbar is modelled implicitly: each output port runs an
independent arbiter over the heads of the VOQs destined to it, which for
a crossbar with per-output arbitration is exact.

Scheduling at an output port:

1. VC0 (regulated) has absolute priority over VC1 (best-effort); with
   more VCs (the Section 6 counterfactual), lower index = higher priority.
2. Within a VC, the architecture's picker chooses among queue heads --
   EDF (min deadline) or round-robin.
3. Credit discipline: for the EDF architectures, *only* the chosen
   minimum-deadline candidate is checked for downstream credits (the
   appendix's no-reordering proof needs this); if it does not fit, VC0
   yields the cycle rather than sending a larger-deadline packet.  The
   traditional architecture instead masks credit-less candidates before
   arbitrating, as conventional switches do.
4. If VC0 cannot send (empty or blocked on credits), VC1 may use the
   link -- regulated traffic loses nothing because its own buffer space
   downstream is what it is waiting for.

Input-buffer space is freed (and the upstream credit returned) when the
packet *starts* draining onto the output link; docs/ARCHITECTURE.md
section 4 discusses why (credit RTT parity with hardware) and the
bounded transient over-occupancy it implies.

Switches keep **no per-flow state**: everything here indexes on header
fields (deadline, source route) only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.architectures import Architecture
from repro.core.invariants import invariant
from repro.core.queues import PacketQueue
from repro.network.link import Link
from repro.network.packet import N_VCS, Packet
from repro.sim.engine import Engine

if TYPE_CHECKING:
    from repro.obs.probe import Probe

__all__ = ["Switch"]


class Switch:
    """One switch node.  Wire links via :meth:`attach_in` / :meth:`attach_out`."""

    __slots__ = (
        "engine",
        "node_id",
        "n_ports",
        "n_vcs",
        "architecture",
        "probe",
        "in_links",
        "out_links",
        "_voq",
        "_candidates",
        "_pickers",
        "packets_forwarded",
        "bytes_forwarded",
    )

    def __init__(
        self,
        engine: Engine,
        node_id: str,
        n_ports: int,
        architecture: Architecture,
        *,
        n_vcs: int = N_VCS,
        probe: Optional["Probe"] = None,
    ):
        if n_ports < 1:
            raise ValueError(f"switch needs >= 1 port, got {n_ports}")
        if n_vcs < 1:
            raise ValueError(f"switch needs >= 1 VC, got {n_vcs}")
        self.engine = engine
        self.node_id = node_id
        self.n_ports = n_ports
        self.n_vcs = n_vcs
        self.architecture = architecture
        #: The fabric's observation path; ``None`` on a run without obs.
        self.probe = probe
        self.in_links: List[Optional[Link]] = [None] * n_ports
        self.out_links: List[Optional[Link]] = [None] * n_ports
        # _voq[in_port][out_port][vc]; byte capacity is enforced upstream by
        # the credit loop (per input port and VC), so queues are unbounded.
        self._voq: List[List[List[PacketQueue]]] = [
            [
                [architecture.make_queue(None) for _vc in range(n_vcs)]
                for _out in range(n_ports)
            ]
            for _in in range(n_ports)
        ]
        # Per-(output, vc) candidate list: index == input port.
        self._candidates: List[List[List[PacketQueue]]] = [
            [
                [self._voq[i][out][vc] for i in range(n_ports)]
                for vc in range(n_vcs)
            ]
            for out in range(n_ports)
        ]
        self._pickers = [
            [architecture.make_picker() for _vc in range(n_vcs)]
            for _out in range(n_ports)
        ]
        if probe is not None:
            self._pickers = [[probe.meter(p) for p in per_out] for per_out in self._pickers]
        # Clock-aware buffer structures (the pipelined heap) need the
        # switch's local cycle counter to model their settle window.
        for per_in in self._voq:
            for per_out in per_in:
                for queue in per_out:
                    if hasattr(queue, "now_fn"):
                        queue.now_fn = self._clock
        self.packets_forwarded = 0
        self.bytes_forwarded = 0

    def _clock(self) -> int:
        return self.engine.now

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_in(self, port: int, link: Link) -> None:
        if self.in_links[port] is not None:
            raise ValueError(f"{self.node_id} input port {port} already wired")
        self.in_links[port] = link
        link.receiver = self

    def attach_out(self, port: int, link: Link) -> None:
        if self.out_links[port] is not None:
            raise ValueError(f"{self.node_id} output port {port} already wired")
        self.out_links[port] = link
        link.sender = self

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def accept(self, pkt: Packet, link: Link) -> None:
        """A packet has fully arrived at one of our input ports."""
        in_port = link.dst_port
        out_port = pkt.path[pkt.hop]
        pkt.hop += 1
        if not 0 <= out_port < self.n_ports:
            raise ValueError(
                f"{self.node_id}: source route names output port {out_port} "
                f"but switch has {self.n_ports} ports"
            )
        queue = self._voq[in_port][out_port][pkt.vc]
        queue.push(pkt)
        probe = self.probe
        if probe is not None:
            probe.enqueue(pkt, self.node_id, link, out_port, queue, self.engine.now)
        out_link = self.out_links[out_port]
        if out_link is not None and not out_link.busy:
            self._try_output(out_port)

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def pull(self, link: Link) -> None:
        """Output link freed or received credits: re-arbitrate that port."""
        self._try_output(link.src_port)

    def _try_output(self, out_port: int) -> None:
        out_link = self.out_links[out_port]
        if out_link is None or out_link.busy:
            return
        masking = self.architecture.credit_masking
        channel = out_link.channel
        for vc in range(self.n_vcs):  # ascending index = descending priority
            queues = self._candidates[out_port][vc]
            picker = self._pickers[out_port][vc]
            if masking:
                # The closure must capture this iteration's (channel, vc):
                # hoisting it would freeze the VC and caching predicates
                # per port would couple the arbiter to link rewiring.
                # Masking architectures only; the common path never pays.
                index = picker.pick(queues, lambda head: channel.can_send(vc, head.size))  # simlint: allow-hot-loop-allocation
            else:
                index = picker.pick(queues)
                if index is not None:
                    head = queues[index].head()
                    if not channel.can_send(vc, head.size):
                        # The appendix's rule: the chosen candidate (and only
                        # it) is checked for credits; nothing else on this VC
                        # may overtake it.
                        index = None
            if index is None:
                continue
            pkt = queues[index].pop()
            picker.granted(index)
            probe = self.probe
            if probe is not None:
                # Before transmit: the forward timestamp is the instant the
                # packet won arbitration.
                now = self.engine.now
                probe.dequeue(pkt, queues[index], now)
                probe.forward(pkt, self.node_id, index, out_port, now)
            out_link.transmit(pkt)
            self.packets_forwarded += 1
            self.bytes_forwarded += pkt.size
            # Input buffer space frees as the packet drains through the
            # crossbar; the credit goes back when draining *starts* (the
            # upstream cannot land a new packet here in less than one
            # serialization anyway, so transient over-occupancy is bounded
            # by one MTU -- see the credit-conservation tests).
            in_link = self.in_links[index]
            invariant(in_link is not None, "packet came from an unwired input port")
            in_link.return_credit(pkt.vc, pkt.size)
            return

    # ------------------------------------------------------------------
    # introspection (tests, metrics)
    # ------------------------------------------------------------------
    def queued_packets(self) -> int:
        return sum(
            len(self._voq[i][o][vc])
            for i in range(self.n_ports)
            for o in range(self.n_ports)
            for vc in range(self.n_vcs)
        )

    def queued_bytes(self, in_port: int, vc: int) -> int:
        """Occupancy of one input port's VC buffer (across all VOQs)."""
        return sum(self._voq[in_port][o][vc].used_bytes for o in range(self.n_ports))

    def voq(self, in_port: int, out_port: int, vc: int) -> PacketQueue:
        return self._voq[in_port][out_port][vc]

    def takeover_hits(self) -> int:
        """Arrivals that landed in a take-over (U) queue, summed over all
        VOQs.  Zero for architectures without take-over queues."""
        return sum(
            getattr(queue, "takeover_hits", 0)
            for per_in in self._voq
            for per_out in per_in
            for queue in per_out
        )
