"""Differential proof: the production engine == the binary-heap reference.

The production kernel (`repro.sim.engine.Engine`) must stay byte-for-bit
equivalent to the reference heap engine (`HeapEngine` in
`heap_engine.py` next to this file, the seed kernel kept verbatim).  Two
layers of evidence:

1. A Hypothesis property drives both engines through the *same* random
   interleaving of schedule / cancellable-schedule / cancel /
   ``run(until)`` / ``run(max_events)`` operations -- including
   callbacks that schedule more work, zero delays, and delays of up to
   12,288 ns -- and requires identical execution logs
   ``(time, tag)``, clocks, and counters at every observation point.

2. The three figure-style experiment configs (fig2 control / fig3
   video / fig4 best-effort shapes) run end-to-end under both engines
   and must produce **byte-identical** ``RunSummary`` JSON and
   span-trace JSONL output.
"""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.summary import summarize_run
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.runner import run_experiment
from repro.obs.tracing import PacketTracer, write_spans_jsonl
from repro.sim import units
from repro.sim.engine import Engine
from tests.sim.heap_engine import HeapEngine

# Delays span near-now link timers and far-future events alike.
_MAX_DELAY = 12_288


class _Driver:
    """Apply one op sequence to an engine, logging every dispatch."""

    def __init__(self, engine):
        self.engine = engine
        self.log = []
        self.handles = []
        self.target = 0
        self._tag = 0

    def _fire(self, tag, respawn_delay):
        self.log.append((self.engine.now, tag))
        if respawn_delay is not None:
            # Callback-scheduled follow-up, often at the current time.
            self.engine.after(respawn_delay, self._fire, tag + 1_000_000, None)

    def apply(self, op):
        kind = op[0]
        if kind == "at":
            _, delay, cancellable, respawn = op
            self._tag += 1
            respawn_delay = delay % 7 if respawn else None
            if cancellable:
                self.handles.append(
                    self.engine.after_cancellable(
                        delay, self._fire, self._tag, respawn_delay
                    )
                )
            else:
                self.engine.after(delay, self._fire, self._tag, respawn_delay)
        elif kind == "cancel":
            if self.handles:
                self.handles.pop(op[1] % len(self.handles)).cancel()
        elif kind == "run_until":
            self.target = max(self.target, self.engine.now) + op[1]
            self.log.append(("ran", self.engine.run(until=self.target)))
        elif kind == "run_max":
            self.log.append(("ran", self.engine.run(max_events=op[1])))
        self.observe()

    def observe(self):
        self.log.append(("obs", self.engine.now, self.engine.pending))

    def finish(self):
        self.log.append(("final", self.engine.run_all()))
        self.observe()
        assert self.engine.peek_time() is None
        return self.log


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("at"),
            st.integers(min_value=0, max_value=_MAX_DELAY),
            st.booleans(),
            st.booleans(),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=31)),
        st.tuples(st.just("run_until"), st.integers(min_value=0, max_value=_MAX_DELAY)),
        st.tuples(st.just("run_max"), st.integers(min_value=0, max_value=6)),
    ),
    max_size=40,
)


class TestEngineEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_random_interleavings_execute_identically(self, ops):
        kernel = _Driver(Engine())
        heap = _Driver(HeapEngine())
        for op in ops:
            kernel.apply(op)
            heap.apply(op)
        assert kernel.finish() == heap.finish()
        assert kernel.engine.events_executed == heap.engine.events_executed


# ----------------------------------------------------------------------
# end-to-end: figure-style configs, byte-identical artifacts
# ----------------------------------------------------------------------
def _figure_configs():
    short = dict(
        topology="tiny",
        warmup_ns=50 * units.US,
        measure_ns=150 * units.US,
    )
    return {
        "fig2-control": ExperimentConfig(
            architecture="traditional-2vc", load=0.8, seed=11, **short
        ),
        "fig3-video": ExperimentConfig(
            architecture="advanced-2vc",
            load=0.7,
            seed=12,
            mix=scaled_video_mix(0.7, time_scale=0.02),
            **short,
        ),
        "fig4-best-effort": ExperimentConfig(
            architecture="simple-2vc", load=1.0, seed=13, **short
        ),
    }


def _run_artifacts(config, engine_factory):
    tracer = PacketTracer(policy="head", rate=1.0, capacity=1 << 14, seed=7)
    result = run_experiment(config, tracer=tracer, engine_factory=engine_factory)
    doc = summarize_run(result).to_dict()
    # Wall-clock is the one legitimately nondeterministic field.
    doc.pop("wall_seconds")
    summary_bytes = json.dumps(doc, sort_keys=True).encode()
    spans = io.StringIO()
    write_spans_jsonl(tracer, spans)
    return summary_bytes, spans.getvalue().encode()


class TestFigureConfigDigests:
    def test_figure_configs_byte_identical_across_engines(self):
        for name, config in _figure_configs().items():
            summary, spans = _run_artifacts(config, None)
            heap_summary, heap_spans = _run_artifacts(config, HeapEngine)
            assert summary == heap_summary, f"{name}: RunSummary diverged"
            assert spans == heap_spans, f"{name}: span traces diverged"
            assert b'"events_executed"' in summary
