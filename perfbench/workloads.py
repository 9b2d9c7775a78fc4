"""The benchmark's workloads and the digest of their simulated outputs.

Every workload is Table 1's four-class mix at load 1.0 with video time
compressed by ``scaled_video_mix(1.0, 0.02)``; the seed is a simulation
seed that ``run.sim_seed`` derives from the benchmark's ``--seed``.
README.md says why each one exists and which layers it stresses.  The
windows are sized so that one run takes a few seconds of host time, which
lets a benchmark run take the median of several cold runs.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from typing import Any, Dict

from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.sim import units

__all__ = ["WORKLOADS", "Workload", "digest", "export_obs", "observers", "simulated_obs"]

#: Host-time values that obs records next to simulated ones; the digest
#: leaves them out.
_HOST_TIME_KEYS = ("sim.engine.events_per_sec",)
#: Telemetry heartbeat of the observed workload, in simulated microseconds.
HEARTBEAT_US = 50.0


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str
    architecture: str
    warmup_us: float
    measure_us: float
    #: Attach a metrics registry, a tail-sampled span tracer and a heartbeat.
    observed: bool = False

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            architecture=self.architecture,
            load=1.0,
            seed=seed,
            topology=self.topology,
            warmup_ns=units.us(self.warmup_us),
            measure_ns=units.us(self.measure_us),
            mix=scaled_video_mix(1.0, 0.02),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("small-steady", "small", "advanced-2vc", 200.0, 500.0),
        Workload("small-observed", "small", "advanced-2vc", 200.0, 500.0, observed=True),
        Workload("paper-cold", "paper", "advanced-2vc", 20.0, 40.0),
        Workload("scale512-traditional", "scale512", "traditional-2vc", 2.0, 4.0),
    )
}


def observers(workload: Workload, seed: int) -> Dict[str, Any]:
    """``run_experiment`` keyword arguments for the workload's obs layer
    (what ``run --metrics-out --trace-spans --heartbeat-us`` attaches)."""
    if not workload.observed:
        return {}
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import PacketTracer

    metrics = MetricsRegistry()
    return {
        "metrics": metrics,
        "tracer": PacketTracer(policy="tail", seed=seed, metrics=metrics),
        "heartbeat_ns": units.us(HEARTBEAT_US),
    }


def export_obs(result) -> Dict[str, Any]:
    """Export the run's snapshot and span JSONL, as the CLI does, in memory."""
    from repro.obs.snapshot import run_snapshot
    from repro.obs.tracing import write_spans_jsonl

    snapshot = run_snapshot(
        result.metrics,
        engine=result.fabric.engine,
        telemetry=result.telemetry,
        tracer=result.tracer,
    )
    spans = io.StringIO()
    write_spans_jsonl(result.tracer, spans)
    return {"snapshot": snapshot, "spans_jsonl": spans.getvalue()}


def simulated_obs(exported: Dict[str, Any]) -> Dict[str, Any]:
    """The simulated sections of an exported snapshot (host time removed)."""
    doc = json.loads(json.dumps(exported["snapshot"], sort_keys=True))
    for key in _HOST_TIME_KEYS:
        doc["metrics"].pop(key, None)
        for row in doc.get("timeseries", {}).get("samples", []):
            row["values"].pop(key, None)
    doc["spans_jsonl_sha256"] = hashlib.sha256(
        exported["spans_jsonl"].encode()
    ).hexdigest()
    return doc


def digest(summary: Dict[str, Any], obs: Dict[str, Any] | None) -> str:
    """SHA-256 of a run's simulated outputs: ``RunSummary.to_dict()`` without
    ``wall_seconds``, plus the simulated obs sections when obs was on."""
    doc = {key: value for key, value in summary.items() if key != "wall_seconds"}
    if obs is not None:
        doc["obs_simulated"] = obs
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
