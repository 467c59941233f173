#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Run from the repository root (takes about three minutes)::

    python3 nfbench/selftest.py

1. An injected bad report (delivered > offered) is caught by the
   output checks and raises the failed count.
2. Every metric declared in ``BENCHMARK.json`` is emitted, with its
   unit, by every workload in both modes, and nothing else is.
3. ``SECOND_SEED``, a seed not used while the benchmark was written,
   runs clean on every workload (the untraced runs of test 2 use it).
4. One op's simulated statistics are bit-identical across processes
   with different ``PYTHONHASHSEED`` values.
5. The drawn chains of ``deploy-mix`` use every catalog NF once.
6. The host speed meter scales a run of reference passes to about
   their count times ``REFERENCE_SECONDS``, and leaves the reference
   passes it takes inside an interval out of its raw time.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: The program, ``bench_engine.py`` (``capacity-large`` reuses its
#: scenario) and the benchmark's own modules.
PATH = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"), HERE]
sys.path[:0] = PATH

import checks  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

SECOND_SEED = 48611
_DIGEST_SCRIPT = """
import sys
sys.path[:0] = {path!r}
import checks, workloads
op = workloads._deploy_op(("firewall", "ids", "nat"), "512", 5)
print(checks.sim_digest(op.call(None).report))
"""


def test_bad_report_is_caught():
    good = workloads._deploy_op(("nat",), "64", 3)
    outcome = good.call(None)
    assert not checks.check_outcome(outcome), checks.check_outcome(outcome)
    bad_report = dataclasses.replace(
        outcome.report, delivered_packets=outcome.report.offered_packets + 64)
    bad = workloads.Op(label="injected", call=lambda trace: dataclasses.replace(
        outcome, report=bad_report))
    meter = hostspeed.SpeedMeter()
    record = harness.run_op(bad, 0, 0, None, meter)
    assert any("exceeds offered" in p for p in record.problems), \
        record.problems
    phase = harness.Phase(records=[harness.run_op(good, 0, 0, None, meter),
                                   record],
                          rounds=1)
    assert phase.failed == 1, phase.failed


def _run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_in_both_modes():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    for entry in declared["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            seed = SECOND_SEED if trace == 0 else 1
            result = _run(entry["name"], seed, trace)
            assert result["correct"] and result["failed"] == 0, \
                (entry["name"], trace, result)
            units = {m["name"]: m["unit"] for m in declared[key]}
            emitted = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            assert emitted == units, (entry["name"], trace,
                                      set(emitted) ^ set(units))
            print(f"ok {entry['name']} trace={trace} seed={seed}: "
                  f"{len(emitted)} metrics, {result['attempted']} ops")


def test_digest_across_hash_seeds():
    script = _DIGEST_SCRIPT.format(path=PATH)
    digests = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=180,
                              check=True)
        digests.add(done.stdout.strip())
    assert len(digests) == 1, digests


def test_mix_covers_catalog():
    from repro.nf.catalog import NF_CATALOG

    drawn = [nf for chain in workloads.MIX_CHAINS[1:] for nf in chain]
    assert sorted(drawn) == sorted(NF_CATALOG), drawn
    assert workloads.MIX_CHAINS[0] == workloads.PAPER_CHAIN


def test_meter_scales_the_reference():
    meter = hostspeed.SpeedMeter()
    passes = 400  # about 1 s, so the meter samples inside the interval
    start = time.perf_counter()
    with meter.interval() as span:
        for _ in range(passes):
            hostspeed.reference()
    wall = time.perf_counter() - start
    assert span.raw < wall, (span.raw, wall)
    expected = passes * hostspeed.REFERENCE_SECONDS
    # The reference host's fast state sets REFERENCE_SECONDS; a pass of
    # the interval and the probes next to it run at the same speed.
    assert 0.67 * expected < span.scaled < 1.5 * expected, \
        (span.scaled, expected)


def main() -> int:
    tests = [test_meter_scales_the_reference, test_mix_covers_catalog,
             test_bad_report_is_caught,
             test_digest_across_hash_seeds, test_every_metric_in_both_modes]
    for test in tests:
        test()
        print(f"passed {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
