"""Trace buffer behaviour: topic filtering and the two drop policies."""

import pytest

from repro.sim.monitor import NullTrace, Trace


class TestTopicsAndSubscribers:
    def test_topic_filtering(self):
        t = Trace(topics={"switch.forward"})
        t.record(1, "switch.forward", "p1")
        t.record(2, "link.busy", "ignored")
        assert [r.topic for r in t.records] == ["switch.forward"]

    def test_unfiltered_records_everything(self):
        t = Trace()
        t.record(1, "a", 1)
        t.record(2, "b", 2)
        assert len(t.records) == 2

    def test_by_topic(self):
        t = Trace()
        t.record(1, "a", 1)
        t.record(2, "b", 2)
        t.record(3, "a", 3)
        assert [r.time for r in t.by_topic("a")] == [1, 3]


class TestDropPolicies:
    def test_default_keeps_oldest(self):
        t = Trace(capacity=2)
        for i in range(4):
            t.record(i, "a", i)
        assert [r.time for r in t.records] == [0, 1]
        assert t.dropped == 2
        assert t.snapshot()["policy"] == "keep-oldest"

    def test_ring_keeps_newest(self):
        t = Trace(capacity=2, ring=True)
        for i in range(4):
            t.record(i, "a", i)
        assert [r.time for r in t.records] == [2, 3]
        assert t.dropped == 2
        assert t.snapshot()["policy"] == "ring-keep-newest"

    def test_ring_requires_capacity(self):
        with pytest.raises(ValueError):
            Trace(ring=True)

    def test_clear_resets_buffer_and_drop_count(self):
        t = Trace(capacity=1)
        t.record(0, "a")
        t.record(1, "a")
        assert t.dropped == 1
        t.clear()
        assert list(t.records) == [] and t.dropped == 0

    def test_snapshot_shape(self):
        t = Trace(topics={"b", "a"}, capacity=8, ring=True)
        t.record(0, "a")
        assert t.snapshot() == {
            "retained": 1,
            "dropped": 0,
            "capacity": 8,
            "policy": "ring-keep-newest",
            "topics": ["a", "b"],
        }

    def test_snapshot_unbounded(self):
        snap = Trace().snapshot()
        assert snap["capacity"] is None and snap["topics"] is None
        assert snap["policy"] == "keep-oldest"


class TestNullTrace:
    def test_disabled_and_inert(self):
        n = NullTrace()
        assert n.enabled is False
        n.record(0, "a", "payload")  # no-op
