"""Shared configuration for the benchmark harness.

Run with::

    pytest benchmarks/ --benchmark-only

Every file regenerates one artifact of the paper's evaluation (a figure,
a headline claim, or an ablation) and prints the same rows/series the
paper plots, while pytest-benchmark times the representative simulation.

Scale: benchmarks default to the ``tiny`` 16-host network (the paper's
128-endpoint run is ~50x more event traffic -- pass ``--bench-topology
paper`` and expect minutes per data point).  Video time is compressed
50x (``time_scale=0.02``); DESIGN.md explains why that preserves every
deadline relationship.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The engine oracle (tests/sim/heap_engine.py) lives with the tests; make
# the repository root importable however pytest was launched.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.sim import units


def pytest_addoption(parser):
    parser.addoption(
        "--bench-topology",
        default="tiny",
        help="topology preset for benchmark sweeps (tiny/small/medium/paper)",
    )
    parser.addoption(
        "--bench-seed", type=int, default=1, help="root RNG seed for benchmark sweeps"
    )


@pytest.fixture(scope="session")
def bench_topology(request):
    return request.config.getoption("--bench-topology")


@pytest.fixture(scope="session")
def bench_seed(request):
    return request.config.getoption("--bench-seed")


#: Timing windows shared by the figure sweeps: warm-up covers the video
#: ramp (one frame period + one target at time_scale 0.02).
TIME_SCALE = 0.02
WARMUP_NS = 1_100 * units.US
MEASURE_NS = 1_600 * units.US
LOADS = (0.3, 0.6, 1.0)


@pytest.fixture(scope="session")
def standard_sweep(bench_topology, bench_seed):
    """One (architecture x load) sweep shared by the fig2/fig3/fig4 benches
    -- they are three views of the same Table 1 runs, as in the paper."""
    from repro.experiments.config import scaled_video_mix
    from repro.experiments.figures import DEFAULT_ARCHS, sweep

    return sweep(
        DEFAULT_ARCHS,
        LOADS,
        topology=bench_topology,
        seed=bench_seed,
        warmup_ns=WARMUP_NS,
        measure_ns=MEASURE_NS,
        mix_factory=lambda load: scaled_video_mix(load, TIME_SCALE),
    )
