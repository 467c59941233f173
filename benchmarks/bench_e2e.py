#!/usr/bin/env python
"""End-to-end benchmark: ``NFCompass.run`` wall time and its stages.

Times one full deploy-and-simulate call (re-organize, synthesize,
profile, allocate, capacity race, simulate) on the prefixes of the
paper chain ``firewall,ids,nat,ipsec,dpi`` (lengths 1-5, the scaling
curve in chain length) and on ``ipv4,ipsec,ipv6`` (the FIB-trie-heavy
chain), and writes a machine-readable report to ``BENCH_e2e.json`` at
the repository root.

Every chain runs at 40 Gbps offered IMIX traffic (the generator's
default payloads), 64-packet batches and 200 simulated batches, on a
fresh chain and a fresh :class:`~repro.core.compass.NFCompass` per
repeat (built outside the timed region).  Each row is the median of 5
repeats with min/max; repeats go round-robin over the chains, so a
host speed change lands on every row rather than on one.  Every
repeat is traced, and each row carries the per-stage wall and self
time (``repro.obs.stage_summary``, median over the repeats) and the
stage call counts, e.g. how many ``profile`` spans one run records.

Usage::

    PYTHONPATH=src python benchmarks/bench_e2e.py [--quick] [--out P]

``--quick`` runs the two shortest prefixes with 3 repeats (CI smoke);
the full run is what produces the committed ``BENCH_e2e.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.compass import NFCompass  # noqa: E402
from repro.nf.base import ServiceFunctionChain  # noqa: E402
from repro.nf.catalog import make_nf  # noqa: E402
from repro.obs import Trace, stage_summary  # noqa: E402
from repro.traffic.distributions import IMIXSize  # noqa: E402
from repro.traffic.generator import TrafficSpec  # noqa: E402

PAPER_CHAIN = ("firewall", "ids", "nat", "ipsec", "dpi")
CHAINS = [PAPER_CHAIN[:length] for length in range(1, 6)] \
    + [("ipv4", "ipsec", "ipv6")]
REPEATS = 5
BATCH_SIZE = 64
BATCH_COUNT = 200
OFFERED_GBPS = 40.0


def _spec() -> TrafficSpec:
    return TrafficSpec(size_law=IMIXSize(), offered_gbps=OFFERED_GBPS,
                       seed=1)


def time_run(nf_types):
    """One traced ``NFCompass.run``: (seconds, report, trace)."""
    sfc = ServiceFunctionChain([make_nf(t) for t in nf_types],
                               name=",".join(nf_types))
    compass = NFCompass()
    spec = _spec()
    trace = Trace(name=sfc.name)
    gc.collect()
    t0 = time.perf_counter()
    result = compass.run(sfc, spec, batch_size=BATCH_SIZE,
                         batch_count=BATCH_COUNT, trace=trace)
    return time.perf_counter() - t0, result.report, trace


def _median_ms(values):
    return round(statistics.median(values) * 1e3, 3)


def run_chains(chains, repeats):
    samples = {chain: [] for chain in chains}
    for _ in range(repeats):
        for chain in chains:
            samples[chain].append(time_run(chain))
    rows = []
    for chain in chains:
        seconds = [s for s, _report, _trace in samples[chain]]
        report = samples[chain][0][1]
        summaries = [{row.name: row for row in stage_summary(trace)}
                     for _s, _report, trace in samples[chain]]
        stages = []
        for name, first in summaries[0].items():
            stages.append({
                "name": name,
                "calls": first.calls,
                "wall_ms": _median_ms(
                    [s[name].wall_seconds for s in summaries]),
                "self_ms": _median_ms(
                    [s[name].self_seconds for s in summaries]),
            })
        counters = samples[chain][0][2].metrics.snapshot()["counters"]
        row = {
            "chain": ",".join(chain),
            "length": len(chain),
            "median_seconds": round(statistics.median(seconds), 6),
            "min_seconds": round(min(seconds), 6),
            "max_seconds": round(max(seconds), 6),
            "candidates": int(counters["compass.candidates_evaluated"]),
            "throughput_gbps": round(report.throughput_gbps, 6),
            "stages": stages,
        }
        rows.append(row)
        by_name = {stage["name"]: stage for stage in stages}
        profile = by_name.get("profile", {"calls": 0, "wall_ms": 0.0})
        print(f"{row['chain']:28s} median {row['median_seconds']:.3f}s "
              f"[{row['min_seconds']:.3f}, {row['max_seconds']:.3f}]  "
              f"profile {profile['calls']}x {profile['wall_ms']:.0f} ms")
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="two shortest chains, 3 repeats (CI smoke)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_e2e.json",
                        help="output path for the JSON report")
    args = parser.parse_args(argv)

    chains = CHAINS[:2] if args.quick else CHAINS
    repeats = 3 if args.quick else REPEATS
    report = {
        "benchmark": "NFCompass.run end to end",
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "quick": args.quick,
        "repeats": repeats,
        "traffic": {"size_law": "imix", "offered_gbps": OFFERED_GBPS,
                    "batch_size": BATCH_SIZE,
                    "batch_count": BATCH_COUNT},
        "rows": run_chains(chains, repeats),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
