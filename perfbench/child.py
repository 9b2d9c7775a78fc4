"""One workload run in a fresh process; prints one JSON line.

    python3 perfbench/child.py <workload> <simulation seed> <traced 0|1>

Run by ``run.py``, one process per run, so that ``ru_maxrss`` is the peak of
exactly one run and every run pays cold flow set-up as a user's run does.
With ``traced`` 1 the layer probes are installed before anything is built.
With ``traced`` 0 the process first times extra set-ups, each in a process
forked before anything was built, so that ``setup_s`` (tens of ms on the
small workloads) has many cold samples per benchmark run.  Then it runs its
own simulation under a ``calibrate.Sampler``, and reports the host's speed
during the run next to set-up and run times from which the sampler's
pieces are taken out.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

# Imported before the clock starts, so that no timed step pays for an
# import: Fabric.__init__ imports the switch module lazily, and the obs
# export imports the snapshot and tracing modules.
import repro.network.switch  # noqa: E402,F401
import repro.obs.snapshot  # noqa: E402,F401
import repro.obs.tracing  # noqa: E402,F401
from repro.exec.summary import summarize_run  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.sim import units  # noqa: E402

import calibrate  # noqa: E402
import probes as probe_module  # noqa: E402
import workloads  # noqa: E402

#: Host time an untraced run spends on extra set-up samples before its own
#: run; it takes at least one.
SETUP_SAMPLE_S = 0.3


def class_results(summary) -> dict:
    """The per-class simulated results a human reads next to the digest."""
    control = summary.classes.get("control")
    video = summary.classes.get("multimedia")
    return {
        "control_mean_us": units.ns_to_us(control.message_latency.mean) if control else None,
        "control_p99_us": (
            units.ns_to_us(control.message_cdf().quantile(0.99))
            if control and control.message_samples
            else None
        ),
        "video_frames": video.messages if video else 0,
        "video_frame_mean_us": (
            units.ns_to_us(video.message_latency.mean) if video and video.messages else None
        ),
        "best_effort_bytes_per_ns": summary.throughput("best-effort"),
    }


def layer_values(probes, result, export_s: float) -> dict:
    """Raw per-layer numbers of a traced run (ratios that need the untraced
    run time are finished by ``run.py``)."""
    fabric = result.fabric
    engine = fabric.engine
    picks = probes.calls("arbiter")
    routing_calls = probes.calls("routing")
    forwarded = sum(sw.packets_forwarded for sw in fabric.switches.values())
    engine_total = probes.last_span_s["engine"]
    return {
        "fabric.build_s": probes.last_span_s["setup.fabric"],
        "fabric.queues_built": probes.setup_counts["queues.built"],
        "traffic.build_s": probes.last_span_s["setup.traffic"],
        "fabric.flows_opened": probes.calls("open_flow"),
        "fabric.open_flow_self_s": probes.self_s("open_flow"),
        "routing.calls": routing_calls,
        "routing.paths_computed": probes.count("routing.paths_computed"),
        "routing.hit_ratio": (
            1.0 - probes.count("routing.paths_computed") / routing_calls
            if routing_calls
            else 0.0
        ),
        "routing.self_s": probes.self_s("routing"),
        "admission.calls": probes.calls("admission"),
        "admission.paths_scored": probes.count("admission.paths_scored"),
        "admission.self_s": probes.self_s("admission"),
        "traffic.messages": probes.count("traffic.messages"),
        "traffic.self_s": probes.self_s("traffic"),
        "host.packets_submitted": sum(h.packets_submitted for h in fabric.hosts),
        "host.submit_self_s": probes.self_s("host.submit"),
        "host.rx_self_s": probes.self_s("host.rx"),
        "switch.packets_accepted": probes.count("switch.accepted"),
        "switch.self_s": probes.self_s("switch"),
        "arbiter.picks": picks,
        "arbiter.grant_ratio": forwarded / picks if picks else 0.0,
        "arbiter.heads_per_pick": probes.count("arbiter.heads") / picks if picks else 0.0,
        "arbiter.self_s": probes.self_s("arbiter"),
        "queues.ops": sum(probes.count(f"queues.{op}") for op in ("head", "push", "pop")),
        "link.transmits": probes.count("link.transmits"),
        "link.credits_returned": probes.count("link.credits_returned"),
        "link.self_s": probes.self_s("link"),
        "engine.events": engine.events_executed,
        "engine.run_s": engine_total,
        "engine.self_s": probes.self_s("engine"),
        "engine.tombstone_ratio": engine.tombstone_ratio,
        "stats.deliveries": sum(h.packets_received for h in fabric.hosts),
        "stats.self_s": probes.self_s("stats"),
        "obs.tracer_calls": probes.calls("obs.tracer"),
        "obs.tracer_self_s": probes.self_s("obs.tracer"),
        "obs.metric_updates": probes.count("obs.metric_updates"),
        "obs.export_s": export_s,
        "trace.unattributed_share": (
            probes.self_s("dispatch") / engine_total if engine_total else 0.0
        ),
    }


def setup_samples(workload, seed: int) -> list:
    """Set-up times of ``run_experiment``, each in a process forked from this
    one, which has built nothing yet, so each set-up is as cold as a new
    process's.  Set-up does not depend on the simulated window, so the
    forked runs simulate 1 ns."""
    config = workload.config(seed).with_(warmup_ns=0, measure_ns=1)
    samples = []
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < SETUP_SAMPLE_S:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                begun = time.perf_counter()
                result = run_experiment(config, **workloads.observers(workload, seed))
                setup_s = time.perf_counter() - begun - result.wall_seconds
                os.write(write_fd, repr(setup_s).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            text = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError(f"set-up sample exited with status {status}")
        samples.append(float(text))
    return samples


def main(argv) -> int:
    name, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    workload = workloads.WORKLOADS[name]
    probes = probe_module.install() if traced else None
    samples = [] if traced else setup_samples(workload, seed)
    config = workload.config(seed)
    extras = workloads.observers(workload, seed)

    sampler = None if traced else calibrate.Sampler()
    if sampler is not None:
        sampler.start()
    started = time.perf_counter()
    result = run_experiment(config, **extras)
    ended = time.perf_counter()
    if sampler is not None:
        sampler.stop()
    run_begun = ended - result.wall_seconds
    setup_s = run_begun - started
    run_s = result.wall_seconds
    speed = None
    if sampler is not None:
        setup_s -= sum(sampler.within(started, run_begun))
        run_s -= sum(sampler.within(run_begun, ended))
        speed = sampler.speed(run_begun, ended)

    obs = None
    export_s = 0.0
    if workload.observed:
        export_started = time.perf_counter()
        exported = workloads.export_obs(result)
        export_s = time.perf_counter() - export_started
        obs = workloads.simulated_obs(exported)
    summary = summarize_run(result)
    out = {
        "setup_s": setup_s,
        "setup_samples": samples,
        "run_s": run_s,
        "speed": speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": workloads.digest(summary.to_dict(), obs),
        "sim": class_results(summary),
    }
    if probes is not None:
        out["layers"] = layer_values(probes, result, export_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
