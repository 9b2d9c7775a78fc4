"""Overhead guard for the observability layer.

The contract (ARCHITECTURE.md section 8): a run that does not ask for
metrics pays one attribute load and branch per instrumented site,
nothing more.  Every site is a ``probe is not None`` test on the one
:class:`repro.obs.probe.Probe` a fabric builds only when a channel is
enabled.  Three lines of defence:

- ``test_disabled_path_is_inert`` proves it *structurally*: every null
  instrument and every ``Probe`` method is booby-trapped and a full
  experiment still runs, so the disabled hot path provably never
  records and never enters the probe.
- ``test_bench_run_disabled`` / ``test_bench_run_enabled`` time the two
  paths under pytest-benchmark so regressions against the seed numbers
  show up in CI history (the <3% budget is judged on the disabled one).
- ``test_enabled_overhead_is_bounded`` sanity-checks in-process that a
  fully instrumented run (registry + heartbeat + ring trace) stays
  within a loose multiple of the disabled run -- a tripwire for
  accidentally quadratic instrumentation, not a precise budget.

The span tracer (ISSUE 8) extends the same contract:

- ``test_tracing_disabled_path_is_inert`` booby-traps every
  ``NullPacketTracer`` hook and every ``Probe`` method -- the structural
  proof that a run without ``tracer=`` never executes a tracing
  instruction beyond the ``probe is not None`` branch.
- ``test_tracing_disabled_ab_overhead`` is the interleaved A/B gate:
  bare (default) vs explicit ``NULL_TRACER`` whole runs, alternated
  min-of-N, ratio < 1.01 (+2 ms epsilon for timer noise).  Honest
  caveat: both arms execute byte-identical Python (the null-object
  default *is* the bare path), so this gate mostly proves the harness
  itself is quiet -- the booby-trap above is the real proof that the
  disabled path does nothing.
- ``test_bench_run_traced_head_1pct`` records (but does not gate) the
  tracing-enabled cost at the documented 1% head-sampling operating
  point, so pytest-benchmark history tracks it.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.runner import run_experiment
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    _NullCounter,
    _NullGauge,
    _NullHistogram,
)
from repro.obs.probe import Probe
from repro.obs.tracing import NULL_TRACER, NullPacketTracer, PacketTracer
from repro.sim import units
from repro.sim.monitor import Trace

TIME_SCALE = 0.02
WARMUP_NS = 50 * units.US
MEASURE_NS = 200 * units.US


def _config(seed: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        architecture="advanced-2vc",
        load=1.0,
        seed=seed,
        topology="tiny",
        warmup_ns=WARMUP_NS,
        measure_ns=MEASURE_NS,
        mix=scaled_video_mix(1.0, TIME_SCALE),
    )


def _booby_trap(monkeypatch, cls, method):
    def boom(self, *args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError(
            f"{cls.__name__}.{method} called on the disabled path"
        )

    monkeypatch.setattr(cls, method, boom)


def _booby_trap_probe(monkeypatch):
    """Trap every method :class:`Probe` defines, its constructor included."""
    methods = [name for name, value in vars(Probe).items() if callable(value)]
    assert {"__init__", "submit", "deliver", "enqueue", "forward"} <= set(methods)
    for method in methods:
        _booby_trap(monkeypatch, Probe, method)


def test_disabled_path_is_inert(monkeypatch):
    """With NULL_METRICS (the default), no instrument method ever fires
    and the fabric never builds or enters a probe.

    The hot path must be gated so the null singletons never see an
    ``inc``/``set``/``observe``.
    """
    _booby_trap(monkeypatch, _NullCounter, "inc")
    _booby_trap(monkeypatch, _NullGauge, "set")
    _booby_trap(monkeypatch, _NullHistogram, "observe")
    _booby_trap_probe(monkeypatch)
    result = run_experiment(_config())
    assert result.metrics is None
    assert result.fabric.probe is None
    assert result.events_executed > 10_000


def test_probe_traps_fire_on_an_observed_run(monkeypatch):
    """Control for the traps above: an observed run does enter the probe,
    so the disabled-path tests would notice a probe built by mistake."""
    _booby_trap(monkeypatch, Probe, "deliver")
    with pytest.raises(AssertionError, match="Probe.deliver"):
        run_experiment(_config(), metrics=MetricsRegistry())


def test_disabled_registry_allocates_nothing():
    run_experiment(_config())
    assert NULL_METRICS.snapshot() == {}


def test_bench_run_disabled(benchmark):
    result = benchmark(lambda: run_experiment(_config()))
    assert result.events_executed > 10_000


def test_bench_run_enabled(benchmark):
    def run():
        return run_experiment(
            _config(),
            metrics=MetricsRegistry(),
            trace=Trace(capacity=10_000, ring=True),
            heartbeat_ns=50 * units.US,
        )

    result = benchmark(run)
    assert result.metrics is not None
    assert len(result.metrics) > 10


@pytest.mark.benchmark(disable_gc=False)
def test_enabled_overhead_is_bounded():
    """Full instrumentation must stay within a loose multiple of the
    disabled path.  Deliberately generous (noise-proof): it exists to
    catch pathological instrumentation, not to police the 3% budget --
    pytest-benchmark history does that.
    """

    def wall(run):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()  # simlint: allow-wallclock
            run()
            best = min(best, time.perf_counter() - t0)  # simlint: allow-wallclock
        return best

    disabled = wall(lambda: run_experiment(_config()))
    enabled = wall(
        lambda: run_experiment(
            _config(),
            metrics=MetricsRegistry(),
            trace=Trace(capacity=10_000, ring=True),
            heartbeat_ns=50 * units.US,
        )
    )
    assert enabled < disabled * 2.5, (
        f"instrumented run {enabled:.3f}s vs disabled {disabled:.3f}s "
        f"(ratio {enabled / disabled:.2f}) -- instrumentation cost blew up"
    )


# ----------------------------------------------------------------------
# span tracing (ISSUE 8)
# ----------------------------------------------------------------------
def test_tracing_disabled_path_is_inert(monkeypatch):
    """With NULL_TRACER (the default), no tracer hook ever fires.

    This is the structural <1% proof: a fabric without an enabled
    channel builds no probe and every site is guarded by
    ``probe is not None``, so a run without a tracer executes one
    attribute load + branch per site and *no* tracing code.
    """
    for method in ("begin", "event", "arrive", "finish"):
        _booby_trap(monkeypatch, NullPacketTracer, method)
    _booby_trap_probe(monkeypatch)
    result = run_experiment(_config())
    assert result.tracer is None
    assert result.fabric.probe is None
    assert result.events_executed > 10_000


def test_tracing_disabled_ab_overhead():
    """Interleaved A/B gate: whole runs with the implicit default vs an
    explicitly passed NULL_TRACER, alternated to decorrelate machine
    drift, min-of-N per arm.  Both arms run byte-identical code (that is
    the point of the null-object default), so the ratio gate is < 1.01
    with a small absolute epsilon against timer noise; the booby-trap
    test above is the proof that the disabled path does nothing, this
    one proves the *whole-run* cost picture stayed flat.
    """
    rounds = 4
    bare = float("inf")
    nulled = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()  # simlint: allow-wallclock
        run_experiment(_config())
        bare = min(bare, time.perf_counter() - t0)  # simlint: allow-wallclock
        t0 = time.perf_counter()  # simlint: allow-wallclock
        run_experiment(_config(), tracer=NULL_TRACER)
        nulled = min(nulled, time.perf_counter() - t0)  # simlint: allow-wallclock
    epsilon = 0.002  # 2 ms: scheduler/timer jitter floor on a ~0.2 s run
    assert nulled < bare * 1.01 + epsilon, (
        f"tracing-disabled run {nulled:.4f}s vs bare {bare:.4f}s "
        f"(ratio {nulled / bare:.3f}) -- the disabled tracer is not free"
    )


def test_bench_run_traced_head_1pct(benchmark):
    """Recorded, not gated: tracing enabled at the documented 1%
    head-sampling operating point.  pytest-benchmark history is the
    regression tripwire for the enabled path."""

    def run():
        return run_experiment(
            _config(),
            tracer=PacketTracer(policy="head", rate=0.01, capacity=4096, seed=1),
        )

    result = benchmark(run)
    assert result.tracer is not None
    assert result.tracer.sampled > 0
    assert result.tracer.completed > 0
