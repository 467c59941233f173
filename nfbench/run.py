#!/usr/bin/env python3
"""NFCompass benchmark: run one workload for one seed, print one result.

Usage (from the repository root)::

    python3 nfbench/run.py --workload deploy-mix --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` splits the time between an untraced and a traced run and
reports the per-layer metrics, the tracing overhead among them.  The
last line of standard output is the JSON result; lines before it that
start with ``#`` explain it.  Host times are scaled to a fixed host
speed (``nfbench/hostspeed.py``); the raw ones are among the ``#``
lines.  See ``nfbench/NOTES.md``.
"""

import argparse
import gc
import importlib
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: ``capacity-large`` reuses the scenario of ``bench_engine.py``.
BENCHMARKS = os.path.join(ROOT, "benchmarks")

#: Set-up (the program's imports and the workload's inputs) is
#: repeated and its median reported, so one slow set-up does not move
#: ``setup_s``.
SETUP_REPEATS = 3
#: Share of ``--seconds`` a traced run spends on interleaved untraced
#: and traced ops; the rest is left for the kernel scaling probe.
TRACE_MEASURE_SHARE = 0.85


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def replay(workload, records, meter):
    """Re-run one seeded op on fresh objects; stats must be bit-equal."""
    import harness

    index = workload.seed % len(workload.ops)
    original = next(r for r in harness.first_round(records)
                    if r.index == index)
    again = harness.run_op(workload.fresh_op(index), index, 0, None, meter)
    problems = list(again.problems)
    if not problems and original.digest \
            and again.digest != original.digest:
        problems.append(f"replay of op {index} on fresh objects differs")
    return problems


def forget_program_modules() -> None:
    """Drop the modules of this checkout (the program, ``bench_engine``
    and the benchmark's own, but the host speed meter) from the import
    cache, so the next import runs them again.  Third-party modules
    stay imported."""
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None) or ""
        if path.startswith(ROOT + os.sep) and name not in ("__main__",
                                                          "hostspeed"):
            del sys.modules[name]


def setup(name, seed, meter):
    """Import the program and build the workload ``SETUP_REPEATS``
    times; the workload of the last time and the median scaled time.

    An untimed first import brings in the third-party modules, so
    every timed set-up does the same work.  The set-up's objects are
    then moved out of the collector's sight (``gc.freeze``), so
    collections during the ops scan only what the ops make."""
    times = []
    for _ in range(SETUP_REPEATS):
        forget_program_modules()
        gc.collect()
        with meter.interval() as span:
            importlib.import_module("harness")
            workload = importlib.import_module("workloads").WORKLOADS[
                name](seed)
        times.append(span.scaled)
    gc.collect()
    gc.freeze()
    return workload, statistics.median(times)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"nfbench: no program sources at {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCHMARKS, HERE]
    import hostspeed

    importlib.import_module("harness")
    known = sorted(importlib.import_module("workloads").WORKLOADS)
    if args.workload not in known:
        print(f"nfbench: unknown workload {args.workload!r}; known: "
              f"{known}", file=sys.stderr)
        return 2
    meter = hostspeed.SpeedMeter()
    workload, setup_s = setup(args.workload, args.seed, meter)
    import harness
    from layers import LayerTracer

    if args.trace:
        tracer = LayerTracer()
        untraced, traced = harness.measure_traced(
            workload, TRACE_MEASURE_SHARE * args.seconds, tracer, meter)
        slope = harness.scaling_slope(workload, meter)
        phases = [untraced, traced]
        metrics = harness.per_layer(workload, untraced, traced, slope)
        for layer_metric, value in metrics.items():
            if layer_metric.endswith(".self_pct"):
                print(f"# self-time share {layer_metric[:-9]}: {value:.1f}%")
    else:
        measured = harness.measure(workload, args.seconds, meter)
        phases = [measured]
        metrics = harness.end_to_end(measured, setup_s, meter)

    problems = []
    for phase in phases:
        problems += harness.determinism_problems(phase.records)
    replay_problems = replay(workload, phases[0].records, meter)
    failed_ops = sum(phase.failed for phase in phases)
    attempted = sum(len(phase.records) for phase in phases) + 1
    failed = failed_ops + len(problems) + (1 if replay_problems else 0)
    for record in (r for phase in phases for r in phase.records):
        for problem in record.problems:
            harness.log(f"op {record.index} round {record.round}: {problem}")
    for problem in problems + replay_problems:
        harness.log(problem)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": harness.UNITS[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
