"""Tests for the packet header model."""

import pytest

from repro.network.packet import Packet, PacketFactory, VC_BEST_EFFORT, VC_REGULATED
from tests.helpers import mkpkt


class TestConstruction:
    def test_uids_are_globally_unique_and_increasing(self):
        a, b, c = mkpkt(1), mkpkt(1), mkpkt(1)
        assert a.uid < b.uid < c.uid

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            mkpkt(1, size=0)

    def test_invalid_vc(self):
        with pytest.raises(ValueError):
            mkpkt(1, vc=-1)
        mkpkt(1, vc=3)  # multi-VC fabrics allow higher indices

    def test_vc_constants(self):
        assert VC_REGULATED == 0
        assert VC_BEST_EFFORT == 1

    def test_defaults(self):
        pkt = mkpkt(42)
        assert pkt.hop == 0
        assert pkt.inject is None
        assert pkt.deliver is None
        assert pkt.msg_parts == 1


def _mint(factory, **overrides):
    fields = dict(
        flow_id=1, seq=0, tclass="control", vc=0, src=0, dst=1,
        size=64, deadline=100, path=(0,),
    )
    fields.update(overrides)
    return factory.mint(**fields)


class TestPacketFactory:
    def test_uids_start_at_one_per_factory(self):
        # Per-factory minting is what makes uid streams reproducible:
        # the old module-global counter leaked across runs in a process.
        a = PacketFactory()
        b = PacketFactory()
        assert [_mint(a).uid, _mint(a).uid] == [1, 2]
        assert _mint(b).uid == 1

    def test_explicit_uid_bypasses_global_counter(self):
        pkt = mkpkt(1)
        explicit = Packet(
            uid=99, flow_id=1, seq=0, tclass="control", vc=0, src=0, dst=1,
            size=64, deadline=100, path=(0,),
        )
        assert explicit.uid == 99
        # The module-global fallback stream is untouched by explicit uids.
        assert mkpkt(1).uid == pkt.uid + 1


class TestSourceRouting:
    def test_next_output_port_follows_path(self):
        pkt = mkpkt(1, path=(4, 2, 7))
        assert pkt.next_output_port() == 4
        pkt.hop = 1
        assert pkt.next_output_port() == 2
        pkt.hop = 2
        assert pkt.next_output_port() == 7

    def test_exhausted_path_raises(self):
        pkt = mkpkt(1, path=(4,))
        pkt.hop = 1
        with pytest.raises(IndexError):
            pkt.next_output_port()
