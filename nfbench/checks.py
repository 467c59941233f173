"""Output checks run on every op, outside the timed region.

A check returns a list of problems; an op with any problem counts as
failed.  Two known model defects are *measured* here but not gated:
the conservation gap of Tee plans (``dropped_packets`` over-counts)
and profiling traffic left on deployed elements.
"""

from __future__ import annotations

import hashlib
import math
from typing import List

from repro.validate import verify_timeline

#: Packet counts are float sums over fractional tokens.
_REL_TOLERANCE = 1e-9


def check_report(report) -> List[str]:
    """``0 <= delivered <= offered <= delivered + dropped`` and sane
    latencies: no packet vanishes, none is invented."""
    problems = []
    offered = report.offered_packets
    delivered = report.delivered_packets
    dropped = report.dropped_packets
    slack = _REL_TOLERANCE * max(1.0, offered)
    if not offered > 0:
        problems.append(f"offered {offered} is not positive")
    if delivered < -slack:
        problems.append(f"delivered {delivered} is negative")
    if delivered > offered + slack:
        problems.append(f"delivered {delivered} exceeds offered {offered}")
    if delivered + dropped < offered - slack:
        problems.append(f"{offered - delivered - dropped} packets vanished "
                        f"(offered {offered}, delivered {delivered}, "
                        f"dropped {dropped})")
    latencies = list(report.latency_samples)
    latencies += [report.latency.p99, report.latency.mean,
                  report.makespan_seconds]
    bad = [x for x in latencies if not (math.isfinite(x) and x >= 0.0)]
    if bad:
        problems.append(f"{len(bad)} latencies not finite and >= 0, "
                        f"e.g. {bad[0]}")
    return problems


def check_outcome(outcome) -> List[str]:
    problems = check_report(outcome.report)
    problems += [f"timeline: {p}" for p in verify_timeline(outcome.timeline)]
    try:
        outcome.deployment.validate()
    except ValueError as exc:
        problems.append(f"deployment: {exc}")
    return problems


def conservation_gap(report) -> float:
    """Packets counted twice: ``delivered + dropped - offered``."""
    return report.delivered_packets + report.dropped_packets \
        - report.offered_packets


def leaked_packets(graph) -> int:
    """Profiling traffic left on the deployed graph's elements."""
    if graph is None:
        return 0
    return sum(graph.element(node).packets_processed for node in graph.nodes)


def sim_digest(report) -> str:
    """Hash of every simulated statistic an op reports (bit-exact)."""
    fields = (report.offered_packets, report.delivered_packets,
              report.dropped_packets, report.delivered_bytes,
              report.shed_packets, report.slo_delivered_bytes,
              report.makespan_seconds, tuple(report.latency_samples),
              tuple(sorted(report.processor_busy_seconds.items())))
    return hashlib.sha256(repr(fields).encode()).hexdigest()
