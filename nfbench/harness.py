"""Measurement loop, metrics and the result line.

One process, one caller, closed loop: each op starts when the
previous one has returned and its outputs have been checked.  A run
executes whole rounds of the workload's seeded op list, as many as
take the requested seconds at the workload's nominal round time, so
every run of a seed does the same work.  Op times are scaled to a
fixed host speed by :mod:`hostspeed`; the raw times are kept beside
them.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.obs import Trace

import checks
from hostspeed import SpeedMeter
from layers import LAYERS, LayerTracer

#: Fewest samples a tail percentile must leave beyond it.
TAIL_SAMPLES_BEYOND = 10
#: A run starts no new round once it has taken this many times its
#: planned seconds (a host much slower than the reference).
LIMIT_FACTOR = 2.0

#: Unit of every metric the benchmark reports.
UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
    "op_ms_tail": "ms", "peak_rss_mb": "MB", "sim_goodput_gbps": "Gbps",
    "sim_p99_ms": "ms", "sim_delivered_share": "ratio", "sim_loss": "ratio",
    "sim.engine.profile.calls": "count",
    "sim.engine.profile.busy_ms": "ms",
    "sim.engine.profile.packets": "count",
    "sim.engine.profile.calls_per_op": "1/op",
    "sim.engine.profile.distinct_ratio": "ratio",
    "sim.engine.profile.leaked_packets": "count",
    "sim.conservation_gap_packets": "count",
    "core.allocator.self_ms": "ms", "core.partition.calls": "count",
    "core.partition.busy_ms": "ms", "core.orchestrator.busy_ms": "ms",
    "core.synthesizer.busy_ms": "ms",
    "sim.kernel.runs": "count", "sim.kernel.busy_ms": "ms",
    "sim.kernel.batches": "count", "sim.kernel.tasks": "count",
    "sim.kernel.tasks_per_ms": "1/ms",
    "sim.kernel.batch_scaling_slope": "log2",
    "sim.timeline.queue_wait_ms": "ms",
    "sim.timeline.max_queue_depth": "count",
    "overload.sheds": "count", "overload.queue_drops": "count",
    "overload.breaker_trips": "count", "overload.retry_attempts": "count",
    "faults.requeued_batches": "count", "faults.replans": "count",
    "traffic.arrivals.busy_ms": "ms", "obs.trace_overhead_pct": "%",
}
UNITS.update({f"{layer}.self_pct": "%"
              for layer in LAYERS + ("unattributed",)})


@dataclass
class OpRecord:
    index: int
    round: int
    #: Host time of the op, scaled to the reference host speed.
    seconds: float
    problems: List[str]
    raw_seconds: float = 0.0
    #: ``raw_seconds`` with the host speed probes taken inside the op.
    wall_seconds: float = 0.0
    digest: str = ""
    offered: float = 0.0
    delivered: float = 0.0
    good_bits: float = 0.0
    makespan: float = 0.0
    latencies: List[float] = field(default_factory=list)
    gap: float = 0.0
    leaked: int = 0


@dataclass
class Phase:
    records: List[OpRecord] = field(default_factory=list)
    rounds: int = 0
    layer_rounds: List[dict] = field(default_factory=list)
    #: Time spent preparing ops (outside their timed region).
    prepare_seconds: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.problems)


def _summarize(index, round_no, span, outcome) -> OpRecord:
    report = outcome.report
    record = OpRecord(index=index, round=round_no, seconds=span.scaled,
                      raw_seconds=span.raw, wall_seconds=span.wall,
                      problems=checks.check_outcome(outcome))
    record.digest = checks.sim_digest(report)
    record.offered = report.offered_packets
    record.delivered = report.delivered_packets
    record.good_bits = report.goodput_gbps * 1e9 * report.makespan_seconds
    record.makespan = report.makespan_seconds
    record.latencies = list(report.latency_samples)
    record.gap = checks.conservation_gap(report)
    record.leaked = checks.leaked_packets(outcome.deployed_graph)
    return record


def run_op(op, index, round_no, trace, meter: SpeedMeter) -> OpRecord:
    """Time one op at the reference host speed; check its outputs
    after the clock stops.

    Garbage left by earlier ops is collected before the clock starts,
    so the collections inside an op are the op's own, not whichever
    op happens to cross the collector's threshold (a full collection
    took about 0.1 s, half of a typical ``deploy-mix`` op).
    """
    gc.collect()
    try:
        with meter.interval() as span:
            outcome = op.call(trace)
    except Exception:  # an op that raises is a failed op, not a crash
        return OpRecord(index=index, round=round_no, seconds=span.scaled,
                        raw_seconds=span.raw, wall_seconds=span.wall,
                        problems=[traceback.format_exc(limit=4)])
    return _summarize(index, round_no, span, outcome)


def _run_listed(workload, index, round_no, phase, meter,
                tracer=None) -> None:
    """Prepare and run op ``index`` into ``phase``; with ``tracer``,
    the program gets a live trace and every layer is wrapped."""
    op = workload.ops[index]
    trace = Trace(name=op.label) if tracer is not None else None
    with tracer if tracer is not None else contextlib.nullcontext():
        if op.prepare is not None:
            start = time.perf_counter()
            op.prepare(trace)
            phase.prepare_seconds += time.perf_counter() - start
        phase.records.append(run_op(op, index, round_no, trace, meter))


def planned_rounds(workload, seconds: float) -> int:
    """Rounds that take about ``seconds`` at the nominal round time.

    The count depends on ``seconds`` only, not on the host's speed at
    the moment, so every run of a given length does the same work and
    reports percentiles over the same number of ops.
    """
    return max(1, round(seconds / workload.round_seconds))


def _rounds(count: int, limit_seconds: float):
    """Round numbers up to ``count``; none starts after the limit."""
    began = time.perf_counter()
    for round_no in range(count):
        if round_no and time.perf_counter() - began > limit_seconds:
            return
        yield round_no


def measure(workload, seconds: float, meter: SpeedMeter) -> Phase:
    """Untraced whole rounds of the op list for about ``seconds``."""
    phase = Phase()
    for round_no in _rounds(planned_rounds(workload, seconds),
                            LIMIT_FACTOR * seconds):
        for index in range(len(workload.ops)):
            _run_listed(workload, index, round_no, phase, meter)
        phase.rounds += 1
    return phase


def measure_traced(workload, seconds: float, tracer: LayerTracer,
                   meter: SpeedMeter) -> Tuple[Phase, Phase]:
    """Untraced and traced runs of the same ops, interleaved.

    Each group of ops (one op, or a cycle of epochs that share state)
    runs twice in a row, once each way, the order alternating from
    group to group, so drift and warm-up fall on both sides.  It plans
    half as many rounds as :func:`measure` for ``seconds``, and at
    least one whole round runs both ways.
    """
    plain, traced = Phase(), Phase()
    size = workload.group_size
    # Every op runs twice per round.
    for round_no in _rounds(planned_rounds(workload, seconds / 2),
                            LIMIT_FACTOR * seconds):
        tracer.reset()
        for group, first in enumerate(range(0, len(workload.ops), size)):
            order = (None, tracer) if (group + round_no) % 2 == 0 \
                else (tracer, None)
            for side in order:
                for index in range(first, first + size):
                    _run_listed(workload, index, round_no,
                                plain if side is None else traced, meter,
                                side)
        done = [r for r in traced.records if r.round == round_no]
        traced.layer_rounds.append(_layer_snapshot(
            tracer, sum(r.seconds for r in done)
            / sum(r.raw_seconds for r in done)))
        traced.rounds += 1
        plain.rounds += 1
    return plain, traced


def first_round(records: List[OpRecord]) -> List[OpRecord]:
    """The records of the earliest round in ``records``."""
    earliest = min(r.round for r in records)
    return [r for r in records if r.round == earliest]


def _layer_snapshot(tracer: LayerTracer, scale: float) -> dict:
    """The round's layer figures; ``scale`` (scaled over raw time of
    the round's traced ops) brings its raw layer times to the
    reference host speed."""
    return {"scale": scale,
            "calls": dict(tracer.calls), "busy": dict(tracer.busy),
            "self": dict(tracer.self_time),
            "counters": dict(tracer.counters),
            "distinct_profiles": len(tracer.profile_keys)}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], fraction: float) -> float:
    """Linear interpolation between order statistics."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight


def tail_fraction(count: int) -> float:
    """The highest percentile with at least 10 samples beyond it."""
    if count <= TAIL_SAMPLES_BEYOND:
        return 0.5
    return 1.0 - TAIL_SAMPLES_BEYOND / count


def sim_metrics(records: List[OpRecord]) -> Dict[str, float]:
    """Simulated figures over the first round (identical every round).

    Goodput is summed bits over summed makespan, never a mean of
    per-op rates, so zero-throughput ops need no special case; the
    delivered share is taken from delivered and offered only, because
    ``dropped_packets`` over-counts on plans with a Tee.  It stands for
    the loss (its complement) end to end, because the loss of
    ``capacity-large`` is exactly 0.
    """
    first = [r for r in first_round(records) if not r.problems]
    offered = sum(r.offered for r in first)
    delivered = sum(r.delivered for r in first)
    makespan = sum(r.makespan for r in first)
    latencies = [x for r in first for x in r.latencies]
    return {
        "sim_goodput_gbps": (sum(r.good_bits for r in first) / makespan
                             / 1e9) if makespan > 0 else 0.0,
        "sim_p99_ms": percentile(latencies, 0.99) * 1e3 if latencies
        else 0.0,
        "sim_delivered_share": delivered / offered if offered > 0
        else 0.0,
    }


def determinism_problems(records: List[OpRecord]) -> List[str]:
    """Every round must reproduce the first round's simulated stats."""
    first = {r.index: r.digest for r in first_round(records)}
    return [f"round {r.round} op {r.index} differs from the first round"
            for r in records
            if r.digest and first.get(r.index)
            and r.digest != first[r.index]]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def host_times(times: List[float]) -> Dict[str, float]:
    """Throughput, median and tail of op times in seconds."""
    tail = tail_fraction(len(times))
    return {"ops_per_s": len(times) / sum(times),
            "op_ms_p50": statistics.median(times) * 1e3,
            "op_ms_tail": percentile(times, tail) * 1e3}


def end_to_end(phase: Phase, setup_s: float,
               meter: SpeedMeter) -> Dict[str, float]:
    """Host figures of the checked ops, and the simulated figures."""
    checked = [r for r in phase.records if not r.problems]
    metrics = {"setup_s": setup_s, "ops_per_s": 0.0, "op_ms_p50": 0.0,
               "op_ms_tail": 0.0, "peak_rss_mb": peak_rss_mb()}
    if checked:  # with no checked op the result reports failure
        metrics.update(host_times([r.seconds for r in checked]))
        raw = host_times([r.raw_seconds for r in checked])
        print(f"# op_ms_tail is p{100 * tail_fraction(len(checked)):.1f} "
              f"of {len(checked)} ops over {phase.rounds} round(s)")
        print("# raw (unscaled) host times: " + ", ".join(
            f"{name} {value:.4g}" for name, value in raw.items()))
    probes = sorted(meter.probes)
    print(f"# {len(probes)} host speed probes: min {probes[0] * 1e3:.3f} "
          f"ms, median {statistics.median(probes) * 1e3:.3f} ms, max "
          f"{probes[-1] * 1e3:.3f} ms")
    metrics.update(sim_metrics(phase.records))
    return metrics


def per_layer(workload, untraced: Phase, traced: Phase,
              slope: float) -> Dict[str, float]:
    """Per-layer figures, per round of the op list."""
    def mean(kind, key):
        return statistics.fmean(r[kind][key] for r in traced.layer_rounds)

    def scaled_ms(kind, key):
        return statistics.fmean(r[kind][key] * r["scale"]
                                for r in traced.layer_rounds) * 1e3

    def busy_ms(layer):
        return scaled_ms("busy", layer)

    profile_calls = mean("calls", "sim.engine.profile")
    kernel_ms = busy_ms("sim.kernel")
    tasks = mean("counters", "kernel_tasks")
    first = first_round(traced.records)
    metrics = {
        "sim.engine.profile.calls": profile_calls,
        "sim.engine.profile.busy_ms": busy_ms("sim.engine.profile"),
        "sim.engine.profile.packets": mean("counters", "profile_packets"),
        "sim.engine.profile.calls_per_op": profile_calls / len(workload.ops),
        "sim.engine.profile.distinct_ratio": statistics.fmean(
            r["distinct_profiles"] / max(1, r["calls"]["sim.engine.profile"])
            for r in traced.layer_rounds),
        "sim.engine.profile.leaked_packets":
            float(sum(r.leaked for r in first)),
        "sim.conservation_gap_packets": float(sum(r.gap for r in first)),
        "sim_loss": 1.0 - sim_metrics(traced.records)["sim_delivered_share"],
        "core.allocator.self_ms": scaled_ms("self", "core.allocator"),
        "core.partition.calls": mean("calls", "core.partition"),
        "core.partition.busy_ms": busy_ms("core.partition"),
        "core.orchestrator.busy_ms": busy_ms("core.orchestrator"),
        "core.synthesizer.busy_ms": busy_ms("core.synthesizer"),
        "sim.kernel.runs": mean("calls", "sim.kernel"),
        "sim.kernel.busy_ms": kernel_ms,
        "sim.kernel.batches": mean("counters", "kernel_batches"),
        "sim.kernel.tasks": tasks,
        "sim.kernel.tasks_per_ms": tasks / kernel_ms if kernel_ms else 0.0,
        "sim.kernel.batch_scaling_slope": slope,
        "sim.timeline.queue_wait_ms": mean("counters", "queue_wait_s") * 1e3,
        "sim.timeline.max_queue_depth": mean("counters", "max_queue_depth"),
        "overload.sheds": mean("counters", "sheds"),
        "overload.queue_drops": mean("counters", "queue_drops"),
        "overload.breaker_trips": mean("counters", "breaker_trips"),
        "overload.retry_attempts": mean("counters", "retry_attempts"),
        "faults.requeued_batches": mean("counters", "requeued_batches"),
        "faults.replans": mean("counters", "replans"),
        "traffic.arrivals.busy_ms": busy_ms("traffic.arrivals"),
        "obs.trace_overhead_pct": trace_overhead_pct(untraced, traced),
    }
    metrics.update(self_shares(traced))
    return metrics


def self_shares(traced: Phase) -> Dict[str, float]:
    """Each layer's self time as a share of traced op time (with the
    ops' preparation, where layers run too), all raw wall times: the
    host speed probes inside an op count towards the layer they
    interrupt."""
    op_seconds = (sum(r.wall_seconds for r in traced.records)
                  + traced.prepare_seconds) / traced.rounds
    shares = {}
    covered = 0.0
    for layer in LAYERS:
        own = statistics.fmean(r["self"][layer] for r in traced.layer_rounds)
        covered += own
        shares[f"{layer}.self_pct"] = 100.0 * own / op_seconds
    shares["unattributed.self_pct"] = 100.0 * (1.0 - covered / op_seconds)
    return shares


def trace_overhead_pct(untraced: Phase, traced: Phase) -> float:
    """Traced over untraced time, op by op (medians per op index)."""
    def per_index(phase):
        times: Dict[int, List[float]] = {}
        for r in phase.records:
            times.setdefault(r.index, []).append(r.seconds)
        return {i: statistics.median(t) for i, t in times.items()}

    plain, traced_times = per_index(untraced), per_index(traced)
    common = sorted(set(plain) & set(traced_times))
    base = sum(plain[i] for i in common)
    return 100.0 * (sum(traced_times[i] for i in common) / base - 1.0)


def scaling_slope(workload, meter: SpeedMeter, repeats: int = 5,
                  budget_seconds: float = 1.0) -> float:
    """log2 of kernel time at 2N over N batches.

    Each size repeats up to ``repeats`` times, stopping once it has
    used ``budget_seconds``; the medians of the scaled times are
    compared.
    """
    timings = []
    for batches in (workload.probe_batches, 2 * workload.probe_batches):
        run = workload.kernel_probe(batches)
        samples = []
        while len(samples) < repeats and sum(samples) < budget_seconds:
            gc.collect()
            with meter.interval() as span:
                run()
            samples.append(span.scaled)
        timings.append(statistics.median(samples))
    return math.log2(timings[1] / timings[0])
