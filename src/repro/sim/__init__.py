"""Discrete-event simulation substrate.

This package implements the event-driven simulation kernel that the rest
of the library runs on.  The paper's evaluation is simulation-only, so the
kernel's semantics (integer-nanosecond timestamps, deterministic FIFO
tie-breaking, explicit random-number streams) are the foundation of every
reproduced figure.

Public surface:

- :class:`~repro.sim.engine.Engine` -- the event loop (one binary heap).
- :class:`~repro.sim.engine.EventHandle` -- cancellable scheduled callback.
- :class:`~repro.sim.process.Process` / :func:`~repro.sim.process.process`
  -- optional coroutine-style processes layered on top of the engine.
- :class:`~repro.sim.rng.RandomStreams` -- named, reproducible RNG streams.
- :mod:`~repro.sim.units` -- time and bandwidth unit helpers.
- :class:`~repro.sim.monitor.Trace` -- structured event tracing.
"""

from repro.sim.engine import Engine, EventHandle, SimulationError
from repro.sim.monitor import NullTrace, Trace, TraceRecord
from repro.sim.process import Delay, Process, Signal, process
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim import units

__all__ = [
    "Delay",
    "Engine",
    "EventHandle",
    "NullTrace",
    "Process",
    "RandomStreams",
    "Signal",
    "SimulationError",
    "Trace",
    "TraceRecord",
    "derive_seed",
    "process",
    "units",
]
