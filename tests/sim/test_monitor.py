"""Tests for the tracing facility."""

from repro.sim.monitor import NullTrace, Trace


class TestTrace:
    def test_records_everything_by_default(self):
        trace = Trace()
        trace.record(1, "a", "x")
        trace.record(2, "b")
        assert [(r.time, r.topic) for r in trace.records] == [(1, "a"), (2, "b")]

    def test_topic_filter(self):
        trace = Trace(topics={"keep"})
        trace.record(1, "keep", 1)
        trace.record(2, "drop", 2)
        assert len(trace.records) == 1
        assert trace.records[0].topic == "keep"

    def test_capacity_drops_and_counts(self):
        trace = Trace(capacity=2)
        for i in range(5):
            trace.record(i, "t")
        assert len(trace.records) == 2
        assert trace.dropped == 3

    def test_by_topic(self):
        trace = Trace()
        trace.record(1, "a")
        trace.record(2, "b")
        trace.record(3, "a")
        assert [r.time for r in trace.by_topic("a")] == [1, 3]

    def test_clear(self):
        trace = Trace(capacity=1)
        trace.record(1, "a")
        trace.record(2, "a")
        trace.clear()
        assert trace.records == []
        assert trace.dropped == 0


class TestNullTrace:
    def test_is_disabled_and_silent(self):
        null = NullTrace()
        assert null.enabled is False
        null.record(1, "anything", "payload")  # no-op, no error
