#!/usr/bin/env python
"""Microbenchmark: event kernel vs the frozen pre-refactor engine.

Replays identical scenarios through :class:`repro.sim.SimulationEngine`
(the event kernel) and :class:`repro.sim.legacy.LegacySimulationEngine`
(the pre-refactor loop kept verbatim), measured in the same process
with ``time.perf_counter``, and writes a machine-readable report to
``BENCH_engine.json`` at the repository root.

Scenarios scale from 200 to 5000 batches; the large scenario pushes
5000 batches through a parallelized multi-GPU graph of 25 elements.
Each scenario also times a *reused* session (the kernel's second-run
path, where per-deployment invariants are already cached) and checks
report parity between the two engines before trusting the timings.

A batch-count sweep (``scaling``) times the large deployment's kernel
at 1k/2k/4k/8k batches, saturated (``measure_capacity``) and at 0.7x
its capacity: the median of 5 repeats with min/max per point, the
timeline's work counters, and a fitted log-log slope per regime (1.0
is linear in the batch count, 2.0 quadratic).

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--out P]

``--quick`` runs only the small scenario and the 1k/2k points of the
sweep (CI smoke, prints the slopes); the full run is what produces the
committed ``BENCH_engine.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.orchestrator import SFCOrchestrator  # noqa: E402
from repro.elements.offload import OffloadableElement  # noqa: E402
from repro.faults import empty_timeline, single_crash  # noqa: E402
from repro.hw import DEFAULT_HOST_DEVICE  # noqa: E402
from repro.hw.costs import CostModel  # noqa: E402
from repro.hw.platform import PlatformSpec  # noqa: E402
from repro.nf.base import ServiceFunctionChain  # noqa: E402
from repro.nf.catalog import make_nf  # noqa: E402
from repro.obs import Trace  # noqa: E402
from repro.sim.engine import BranchProfile, SimulationEngine  # noqa: E402
from repro.sim.legacy import LegacySimulationEngine  # noqa: E402
from repro.sim.mapping import Deployment, Mapping, Placement  # noqa: E402
from repro.sim.tracing import EventRecorder  # noqa: E402
from repro.traffic.distributions import FixedSize  # noqa: E402
from repro.traffic.generator import TrafficSpec  # noqa: E402

REL_TOLERANCE = 1e-9


def _multi_gpu_mapping(graph, ratio=0.7, cores=6, gpus=2):
    placements = {}
    core_index = 0
    gpu_index = 0
    for node in graph.topological_order():
        element = graph.element(node)
        core = f"cpu{core_index % cores}"
        core_index += 1
        if isinstance(element, OffloadableElement) and element.offloadable:
            placements[node] = Placement.split(
                core, f"gpu{gpu_index % gpus}", ratio
            )
            gpu_index += 1
        else:
            placements[node] = Placement.split(core)
    return Mapping(placements)


def small_scenario():
    spec = TrafficSpec(size_law=FixedSize(128), offered_gbps=80.0,
                       seed=13)
    graph = ServiceFunctionChain(
        [make_nf(t) for t in ("firewall", "ids")]
    ).concatenated_graph()
    mapping = Mapping.fixed_ratio(graph, 0.5,
                                  cores=[DEFAULT_HOST_DEVICE, "cpu1", "cpu2"],
                                  gpus=["gpu0"])
    deployment = Deployment(graph, mapping, persistent_kernel=True,
                            name="bench-small")
    return deployment, spec, 32, 200


def medium_scenario():
    spec = TrafficSpec(size_law=FixedSize(192), offered_gbps=80.0,
                       seed=17)
    sfc = ServiceFunctionChain(
        [make_nf(t) for t in ("firewall", "ids", "nat")]
    )
    _plan, graph = SFCOrchestrator().parallelize(sfc)
    deployment = Deployment(graph, _multi_gpu_mapping(graph, ratio=0.6),
                            persistent_kernel=True, name="bench-medium")
    return deployment, spec, 64, 1000


def large_scenario():
    spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=120.0,
                       seed=19)
    sfc = ServiceFunctionChain(
        [make_nf(t) for t in ("firewall", "ids", "nat", "ipsec", "dpi")]
    )
    _plan, graph = SFCOrchestrator().parallelize(sfc)
    deployment = Deployment(graph, _multi_gpu_mapping(graph, ratio=0.7),
                            persistent_kernel=True, name="bench-large")
    node_count = len(graph.topological_order())
    assert node_count >= 12, f"large graph too small: {node_count} nodes"
    return deployment, spec, 64, 5000


SCENARIOS = [
    ("small", small_scenario),
    ("medium", medium_scenario),
    ("large", large_scenario),
]


def _parity_ok(new, old):
    def close(a, b):
        return abs(a - b) <= REL_TOLERANCE * max(abs(a), abs(b), 1e-30)

    if not close(new.throughput_gbps, old.throughput_gbps):
        return False
    if not close(new.latency.mean, old.latency.mean):
        return False
    if not close(new.makespan_seconds, old.makespan_seconds):
        return False
    if set(new.processor_busy_seconds) != set(old.processor_busy_seconds):
        return False
    return all(
        close(new.processor_busy_seconds[r], busy)
        for r, busy in old.processor_busy_seconds.items()
    )


def run_scenario(name, factory):
    deployment, spec, batch_size, batch_count = factory()
    profile = BranchProfile.measure(
        deployment.graph.clone(), spec, sample_packets=256,
        batch_size=batch_size,
    )
    kwargs = dict(batch_size=batch_size, batch_count=batch_count,
                  branch_profile=profile)

    legacy = LegacySimulationEngine()
    kernel = SimulationEngine()

    # Warm both code paths (imports, first-call allocations) on a
    # shortened run so the timed runs compare steady-state cost.
    warm = dict(kwargs, batch_count=min(50, batch_count))
    legacy.run(deployment, spec, **warm)
    kernel.run(deployment, spec, **warm)

    t0 = time.perf_counter()
    old_report = legacy.run(deployment, spec, **kwargs)
    legacy_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    new_report = kernel.run(deployment, spec, **kwargs)
    kernel_seconds = time.perf_counter() - t0

    # Second-run path: per-deployment invariants already cached.
    session = kernel.session(deployment)
    session.run(spec, **dict(kwargs, batch_count=min(50, batch_count)))
    t0 = time.perf_counter()
    session.run(spec, **kwargs)
    reuse_seconds = time.perf_counter() - t0

    # Observability overhead: the same cached-session run with a live
    # Trace attached.  Stage-granularity spans mean the delta should be
    # noise; the number is recorded (and printed by CI) but not gated
    # here — single runs on shared machines jitter more than the
    # effect being measured.
    trace = Trace(name=f"bench:{name}")
    t0 = time.perf_counter()
    session.run(spec, **kwargs, trace=trace)
    traced_seconds = time.perf_counter() - t0
    obs_overhead_pct = (
        100.0 * (traced_seconds - reuse_seconds) / reuse_seconds
    )

    recorder = EventRecorder()
    session.run(spec, **kwargs, recorder=recorder)
    events = len(recorder.node_events)
    tasks = sum(session.last_timeline.task_counts.values())

    node_count = len(deployment.graph.topological_order())
    row = {
        "scenario": name,
        "nodes": node_count,
        "batch_size": batch_size,
        "batch_count": batch_count,
        "node_events": events,
        "scheduled_tasks": tasks,
        "legacy_seconds": round(legacy_seconds, 6),
        "kernel_seconds": round(kernel_seconds, 6),
        "session_reuse_seconds": round(reuse_seconds, 6),
        "traced_seconds": round(traced_seconds, 6),
        "obs_overhead_pct": round(obs_overhead_pct, 2),
        "trace_spans": len(trace.spans),
        "speedup": round(legacy_seconds / kernel_seconds, 3),
        "reuse_speedup": round(legacy_seconds / reuse_seconds, 3),
        "parity_ok": _parity_ok(new_report, old_report),
    }
    print(f"{name:8s} nodes={node_count:3d} batches={batch_count:5d} "
          f"legacy={legacy_seconds:8.3f}s kernel={kernel_seconds:8.3f}s "
          f"speedup={row['speedup']:6.2f}x "
          f"obs={obs_overhead_pct:+5.1f}% parity={row['parity_ok']}")
    return row


#: Batch counts of the scaling sweep; ``--quick`` runs the first two.
SWEEP_BATCHES = (1000, 2000, 4000, 8000)
#: Offered load of the unsaturated sweep, as a fraction of capacity.
SWEEP_LOAD = 0.7
#: Timed repeats per sweep point (the median is reported).
SWEEP_REPEATS = 5


def _loglog_slope(batch_counts, seconds):
    """Least-squares slope of log(seconds) over log(batch count)."""
    xs = [math.log(n) for n in batch_counts]
    ys = [math.log(t) for t in seconds]
    x_mean = statistics.fmean(xs)
    y_mean = statistics.fmean(ys)
    return (sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
            / sum((x - x_mean) ** 2 for x in xs))


def scaling_sweep(batch_counts=SWEEP_BATCHES, repeats=SWEEP_REPEATS):
    """Kernel time against batch count on the large deployment.

    Two regimes share one cached session: ``saturated`` is
    ``measure_capacity`` (offered load far above capacity, the regime
    every capacity race runs in) and ``load_0.7`` offers 0.7x the
    capacity measured at the smallest batch count.  Each point is the
    median of ``repeats`` timed runs (garbage collected before each),
    with min/max and the timeline's work counters, which repeat
    exactly.
    """
    deployment, spec, batch_size, _batches = large_scenario()
    profile = BranchProfile.measure(
        deployment.graph.clone(), spec, sample_packets=256,
        batch_size=batch_size,
    )
    session = SimulationEngine().session(deployment)
    kwargs = dict(batch_size=batch_size, branch_profile=profile)
    capacity = session.measure_capacity(spec, batch_count=batch_counts[0],
                                        **kwargs)
    light = dataclasses.replace(spec, offered_gbps=SWEEP_LOAD * capacity)
    regimes = {
        "saturated": lambda n: session.measure_capacity(
            spec, batch_count=n, **kwargs),
        f"load_{SWEEP_LOAD}": lambda n: session.run(
            light, batch_count=n, **kwargs),
    }
    rows = []
    for regime, run in regimes.items():
        samples = {batches: [] for batches in batch_counts}
        work = {}
        # Repeats go round-robin over the batch counts, so a host
        # speed change lands on every point rather than on one.
        for _ in range(repeats):
            for batches in batch_counts:
                gc.collect()
                t0 = time.perf_counter()
                run(batches)
                samples[batches].append(time.perf_counter() - t0)
                work[batches] = session.last_timeline.work_counters()
        points = []
        for batches in batch_counts:
            times = samples[batches]
            counters = work[batches]
            out_of_order = counters["placements"] - counters["tail_hits"]
            points.append({
                "batch_count": batches,
                "median_seconds": round(statistics.median(times), 6),
                "min_seconds": round(min(times), 6),
                "max_seconds": round(max(times), 6),
                **counters,
                "slots_per_out_of_order": round(
                    counters["slots_visited"] / out_of_order, 3)
                if out_of_order else 0.0,
            })
        slope = _loglog_slope(
            batch_counts, [p["median_seconds"] for p in points])
        rows.append({"regime": regime, "repeats": repeats,
                     "capacity_gbps": round(capacity, 6),
                     "loglog_slope": round(slope, 3), "points": points})
        medians = " ".join(f"{p['batch_count']}:{p['median_seconds']:.3f}s"
                           for p in points)
        print(f"scaling  {regime:9s} {medians} slope={slope:.2f}")
    return rows


def device_scaling_row(device_count):
    """Kernel cost of an N-device placement (non-gating, recorded).

    2 devices is the paper's CPU+GPU pair; 3 adds the data-defined
    SmartNIC, exercising the share-vector service path (extra offload
    leg + ``nicdma`` DMA lanes per offloaded node).  Only the event
    kernel runs here — the frozen legacy engine is binary-only.
    """
    spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=80.0,
                       seed=23)
    platform = PlatformSpec.small()
    if device_count >= 3:
        platform = platform.with_smartnic()
    engine = SimulationEngine(platform, CostModel(platform))
    graph = ServiceFunctionChain(
        [make_nf(t) for t in ("firewall", "ids", "ipsec", "dpi")]
    ).concatenated_graph()
    placements = {}
    core_index = 0
    for node in graph.topological_order():
        element = graph.element(node)
        core = f"cpu{core_index % 4}"
        core_index += 1
        if isinstance(element, OffloadableElement) and element.offloadable:
            if device_count >= 3:
                shares = {core: 0.4, "gpu0": 0.4, "nic0": 0.2}
            else:
                shares = {core: 0.4, "gpu0": 0.6}
            placements[node] = Placement(shares=shares, host=core)
        else:
            placements[node] = Placement.split(core)
    deployment = Deployment(graph, Mapping(placements),
                            persistent_kernel=True,
                            name=f"bench-devices-{device_count}")
    profile = BranchProfile.measure(graph.clone(), spec,
                                    sample_packets=256, batch_size=64)
    kwargs = dict(batch_size=64, batch_count=1000,
                  branch_profile=profile)
    session = engine.session(deployment)
    session.run(spec, **dict(kwargs, batch_count=50))  # warm
    t0 = time.perf_counter()
    report = session.run(spec, **kwargs)
    seconds = time.perf_counter() - t0
    row = {
        "devices": device_count,
        "nodes": len(deployment.graph.topological_order()),
        "batch_count": kwargs["batch_count"],
        "kernel_seconds": round(seconds, 6),
        "throughput_gbps": round(report.throughput_gbps, 4),
        "resources": len(report.processor_busy_seconds),
    }
    print(f"devices={device_count} nodes={row['nodes']:3d} "
          f"kernel={seconds:8.3f}s "
          f"throughput={row['throughput_gbps']:7.3f} Gbps "
          f"resources={row['resources']}")
    return row


def fault_overhead_row():
    """Fault-path kernel overhead (non-gating, recorded).

    Times the same cached session three ways: without the ``faults``
    kwarg, with an empty timeline (must ride the identical zero-cost
    path), and with a live crash schedule that re-queues every
    offload batch onto its host core.  The empty-vs-none delta is the
    cost of threading the feature; the crash delta is the cost of the
    re-queue machinery when it actually fires.
    """
    deployment, spec, batch_size, batch_count = small_scenario()
    batch_count *= 5
    profile = BranchProfile.measure(
        deployment.graph.clone(), spec, sample_packets=256,
        batch_size=batch_size,
    )
    kwargs = dict(batch_size=batch_size, batch_count=batch_count,
                  branch_profile=profile)
    session = SimulationEngine().session(deployment)
    session.run(spec, **dict(kwargs, batch_count=50))  # warm

    t0 = time.perf_counter()
    session.run(spec, **kwargs)
    none_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    session.run(spec, **kwargs, faults=empty_timeline())
    empty_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    session.run(spec, **kwargs, faults=single_crash("gpu0", 0.0))
    crash_seconds = time.perf_counter() - t0
    requeued = session.last_fault_stats["requeued_batches"]

    row = {
        "batch_count": batch_count,
        "none_seconds": round(none_seconds, 6),
        "empty_timeline_seconds": round(empty_seconds, 6),
        "crash_seconds": round(crash_seconds, 6),
        "requeued_batches": requeued,
        "empty_overhead_pct": round(
            100.0 * (empty_seconds - none_seconds) / none_seconds, 2),
        "crash_overhead_pct": round(
            100.0 * (crash_seconds - none_seconds) / none_seconds, 2),
    }
    print(f"faults   batches={batch_count:5d} none={none_seconds:8.3f}s "
          f"empty={row['empty_overhead_pct']:+5.1f}% "
          f"crash={row['crash_overhead_pct']:+5.1f}% "
          f"requeued={requeued}")
    return row


def arrival_overhead_row():
    """Arrival-process kernel overhead (non-gating, recorded).

    Times the same cached session under the default uniform clock, an
    explicit :class:`ConstantRate` (must ride the identical path), and
    a sampled :class:`MMPP` schedule.  The explicit-vs-default delta
    is the cost of threading the pluggable clock; the MMPP delta adds
    the sampler plus the queueing the bursts actually cause.
    """
    from repro.traffic.arrivals import MMPP, ConstantRate

    deployment, spec, batch_size, batch_count = small_scenario()
    batch_count *= 5
    profile = BranchProfile.measure(
        deployment.graph.clone(), spec, sample_packets=256,
        batch_size=batch_size,
    )
    kwargs = dict(batch_size=batch_size, batch_count=batch_count,
                  branch_profile=profile)
    session = SimulationEngine().session(deployment)
    session.run(spec, **dict(kwargs, batch_count=50))  # warm

    t0 = time.perf_counter()
    session.run(spec, **kwargs)
    default_seconds = time.perf_counter() - t0

    explicit = dataclasses.replace(spec, arrivals=ConstantRate())
    t0 = time.perf_counter()
    session.run(explicit, **kwargs)
    constant_seconds = time.perf_counter() - t0

    bursty = dataclasses.replace(spec, arrivals=MMPP(seed=31))
    t0 = time.perf_counter()
    report = session.run(bursty, **kwargs)
    bursty_seconds = time.perf_counter() - t0
    peak = (session.last_traffic_stats or {}).get("peak_rate_gbps", 0.0)

    row = {
        "batch_count": batch_count,
        "default_seconds": round(default_seconds, 6),
        "constant_rate_seconds": round(constant_seconds, 6),
        "mmpp_seconds": round(bursty_seconds, 6),
        "constant_overhead_pct": round(
            100.0 * (constant_seconds - default_seconds)
            / default_seconds, 2),
        "mmpp_overhead_pct": round(
            100.0 * (bursty_seconds - default_seconds)
            / default_seconds, 2),
        "mmpp_peak_rate_gbps": round(peak, 3),
        "mmpp_p99_ms": round(report.p99 * 1e3, 6),
        "mmpp_max_queue_depth": max(report.max_queue_depth.values(),
                                    default=0),
    }
    print(f"arrivals batches={batch_count:5d} "
          f"default={default_seconds:8.3f}s "
          f"constant={row['constant_overhead_pct']:+5.1f}% "
          f"mmpp={row['mmpp_overhead_pct']:+5.1f}% "
          f"peak={row['mmpp_peak_rate_gbps']:7.2f} Gbps")
    return row


def overload_overhead_row():
    """Overload-protection kernel overhead (non-gating, recorded).

    Times the same cached session three ways: without the ``overload``
    kwarg, with a huge queue limit plus a breaker and retry budget that
    never fire (the cost of threading the ledgers — must be ≈0), and
    with a tight queue limit under bursty arrivals so the drop
    machinery actually runs.  The idle-vs-none delta is the feature's
    tax on unprotected workloads; the active delta is what shedding
    load costs when it happens.
    """
    from repro.overload import (
        CircuitBreaker,
        OverloadConfig,
        RetryPolicy,
    )
    from repro.traffic.arrivals import MMPP

    deployment, spec, batch_size, batch_count = small_scenario()
    batch_count *= 5
    profile = BranchProfile.measure(
        deployment.graph.clone(), spec, sample_packets=256,
        batch_size=batch_size,
    )
    kwargs = dict(batch_size=batch_size, batch_count=batch_count,
                  branch_profile=profile)
    session = SimulationEngine().session(deployment)
    session.run(spec, **dict(kwargs, batch_count=50))  # warm

    t0 = time.perf_counter()
    session.run(spec, **kwargs)
    none_seconds = time.perf_counter() - t0

    idle = OverloadConfig(queue_limit=10**9,
                          breaker=CircuitBreaker(),
                          retry=RetryPolicy())
    t0 = time.perf_counter()
    session.run(spec, **kwargs, overload=idle)
    idle_seconds = time.perf_counter() - t0
    idle_stats = session.last_overload_stats
    assert idle_stats["queue_dropped_packets"] == 0.0
    assert idle_stats["breaker_trips"] == 0

    bursty = dataclasses.replace(spec, arrivals=MMPP(seed=31))
    tight = OverloadConfig(queue_limit=4, slo_ms=2.0)
    t0 = time.perf_counter()
    session.run(bursty, **kwargs, overload=tight)
    active_seconds = time.perf_counter() - t0
    dropped = session.last_overload_stats["queue_dropped_batches"]

    row = {
        "batch_count": batch_count,
        "none_seconds": round(none_seconds, 6),
        "idle_protection_seconds": round(idle_seconds, 6),
        "active_protection_seconds": round(active_seconds, 6),
        "idle_overhead_pct": round(
            100.0 * (idle_seconds - none_seconds) / none_seconds, 2),
        "active_overhead_pct": round(
            100.0 * (active_seconds - none_seconds) / none_seconds, 2),
        "active_dropped_batches": dropped,
    }
    print(f"overload batches={batch_count:5d} none={none_seconds:8.3f}s "
          f"idle={row['idle_overhead_pct']:+5.1f}% "
          f"active={row['active_overhead_pct']:+5.1f}% "
          f"dropped={dropped}")
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run only the small scenario (CI smoke)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_engine.json",
                        help="output path for the JSON report")
    args = parser.parse_args(argv)

    scenarios = SCENARIOS[:1] if args.quick else SCENARIOS
    rows = [run_scenario(name, factory) for name, factory in scenarios]
    device_rows = [device_scaling_row(2), device_scaling_row(3)]

    sweep_batches = SWEEP_BATCHES[:2] if args.quick else SWEEP_BATCHES
    report = {
        "benchmark": "engine kernel vs legacy loop",
        "python": sys.version.split()[0],
        "quick": args.quick,
        "scenarios": rows,
        #: Non-gating: kernel time vs batch count on the large
        #: deployment, saturated and at 0.7x capacity, with log-log
        #: slopes (1.0 = linear).
        "scaling": scaling_sweep(sweep_batches),
        #: Non-gating: share-vector placement cost at 2 vs 3 devices.
        "device_scaling": device_rows,
        #: Non-gating: fault-threading cost (empty timeline) and
        #: re-queue cost (live crash) vs the faultless run.
        "fault_overhead": fault_overhead_row(),
        #: Non-gating: pluggable-clock threading cost (explicit
        #: ConstantRate) and bursty-schedule cost (MMPP) vs the
        #: default uniform clock.
        "arrival_overhead": arrival_overhead_row(),
        #: Non-gating: overload-protection threading cost (huge queue
        #: limit + idle breaker, must be ≈0) and active shedding cost
        #: (tight queue limit under MMPP bursts) vs the bare run.
        "overload_overhead": overload_overhead_row(),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if any(not row["parity_ok"] for row in rows):
        print("PARITY FAILURE: kernel and legacy reports diverge",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
