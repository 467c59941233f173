"""The gap-indexed lane, its work counters, and the per-run cost memo.

The placement contract is bit-identity with the legacy linear scanner
(``repro.sim.legacy._LinearResources``); the randomized differential
lives in ``tests/properties/test_timeline_properties.py``.  This file
pins the deterministic cases that matter most for the block index —
gaps a skip test could misjudge by one ulp, block splits — plus the
work counters, their trace emission, a count-based complexity
regression on the saturated ``bench_engine`` large scenario, and the
cost memo's per-run scope.
"""

import importlib.util
import math
import random
from pathlib import Path

import pytest

from repro.hw import DEFAULT_HOST_DEVICE
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.obs import Trace
from repro.sim.engine import BranchProfile, SimulationEngine
from repro.sim.kernel import _BLOCK, ResourceTimeline, _Lane
from repro.sim.legacy import LegacySimulationEngine, _LinearResources
from repro.sim.mapping import Deployment, Mapping
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

BENCH_ENGINE = Path(__file__).resolve().parents[2] / "benchmarks" \
    / "bench_engine.py"


def _nudge(value, steps):
    direction = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, direction)
    return value


def _disagreeing_gap(a, add_fits):
    """A gap end ``b`` and duration ``d`` where ``a + d <= b`` is
    ``add_fits`` and ``b - a >= d`` says the opposite."""
    rng = random.Random(0)
    for _ in range(100_000):
        d = rng.uniform(1e-7, 1.0)
        for steps in (-2, -1, 0, 1, 2):
            b = _nudge(a + d, steps)
            if (a + d <= b) == add_fits and (b - a >= d) != add_fits:
                return b, d
    raise AssertionError(f"no disagreeing gap found after {a}")


def _parity_schedule(tasks):
    timeline = ResourceTimeline()
    legacy = _LinearResources()
    slots = []
    for ready, duration in tasks:
        slot = timeline.schedule("r", ready, duration)
        assert slot == legacy.schedule("r", ready, duration)
        slots.append(slot)
    assert timeline.intervals("r") == legacy.intervals["r"]
    return timeline, slots


class TestUlpBoundaryGaps:
    """A gap whose width and fit test disagree, two blocks past the
    bisect point, so only the block skip stands between the probe and
    the gap."""

    # Where ``b - a`` is exact (``b <= 2a``, Sterbenz) only the fit test
    # can round, so "the width fits, the test does not" needs a gap
    # wider than its left end.
    @pytest.mark.parametrize("origin,add_fits", [
        (0.0, True), (0.0, False), (1000.0, True),
    ])
    def test_probe_matches_exact_fit_test(self, origin, add_fits):
        width = 1e-3
        tasks = []
        end = origin
        for _ in range(2 * _BLOCK):
            tasks.append((end, width))
            end = end + width
        gap_end, duration = _disagreeing_gap(end, add_fits)
        resume = gap_end
        for _ in range(_BLOCK):
            tasks.append((resume, width))
            resume = resume + width
        tasks.append((origin, duration))
        _timeline, slots = _parity_schedule(tasks)
        probe_start, _probe_end = slots[-1]
        # The exact test decides: the probe takes the gap exactly when
        # ``a + d <= b``, otherwise it runs past every slot.
        assert probe_start == (end if add_fits else resume)


class TestBlockSplits:
    def test_filling_holes_splits_blocks_with_legacy_parity(
            self, monkeypatch):
        splits = []
        split = _Lane._split
        monkeypatch.setattr(_Lane, "_split", lambda lane, block: (
            splits.append(block), split(lane, block)))
        rng = random.Random(11)
        durations = (0.0, 0.5, 1.25, 3.0)
        stride = 12.0
        tasks = [(index * stride, rng.choice(durations[1:]))
                 for index in range(_BLOCK)]
        for _ in range(4 * _BLOCK):
            if rng.random() < 0.2:
                ready = rng.choice(tasks)[0]  # on a seam
            else:
                ready = rng.uniform(0.0, _BLOCK * stride)
            tasks.append((ready, rng.choice(durations)))
        timeline, _slots = _parity_schedule(tasks)
        lane = timeline._lanes["r"]
        sizes = [len(block) for block in lane.starts]
        assert len(splits) >= 2
        assert all(0 < size <= 2 * _BLOCK for size in sizes)
        assert lane.last_ends == [block[-1] for block in lane.ends]


class TestWorkCounters:
    def test_counts_tail_hits_and_walked_slots(self):
        timeline = ResourceTimeline()
        for ready in (0.0, 1.0, 5.0):
            timeline.schedule("r", ready, 1.0)
        # Ready at 0: compares the slots at 0, 1 and 5, fits before 5.
        assert timeline.schedule("r", 0.0, 1.0) == (2.0, 3.0)
        assert timeline.work_counters() == {
            "placements": 4, "tail_hits": 3, "slots_visited": 3,
        }
        assert timeline.task_counts == {"r": 4}

    def test_run_emits_counters_to_a_live_trace(self):
        graph = ServiceFunctionChain(
            [make_nf(t) for t in ("firewall", "ids")]
        ).concatenated_graph()
        mapping = Mapping.fixed_ratio(
            graph, 0.5, cores=[DEFAULT_HOST_DEVICE, "cpu1", "cpu2"],
            gpus=["gpu0"])
        session = SimulationEngine().session(
            Deployment(graph, mapping, name="counters"))
        spec = TrafficSpec(size_law=FixedSize(128), offered_gbps=80.0,
                           seed=7)
        trace = Trace(name="counters")
        session.run(spec, batch_size=32, batch_count=40, trace=trace)
        counters = trace.metrics.snapshot()["counters"]
        work = session.last_timeline.work_counters()
        for name, value in work.items():
            assert counters[f"sim.timeline.{name}"] == value
        assert work["placements"] == \
            sum(session.last_timeline.task_counts.values())
        assert work["tail_hits"] < work["placements"]


def _load_bench_engine():
    spec = importlib.util.spec_from_file_location("bench_engine",
                                                  BENCH_ENGINE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSaturatedWalkCost:
    """Count-based, so it cannot flake on host speed: at saturation
    the legacy forward walk visited ~235 slots per out-of-order
    placement at 2000 batches (115 at 1000) and grew linearly."""

    def test_slots_visited_per_placement_stays_flat(self):
        bench = _load_bench_engine()
        deployment, spec, batch_size, _batches = bench.large_scenario()
        profile = BranchProfile.measure(deployment.graph.clone(), spec,
                                        batch_size=batch_size)
        session = SimulationEngine().session(deployment)
        per_placement = {}
        for batches in (1000, 2000):
            session.measure_capacity(spec, batch_size=batch_size,
                                     batch_count=batches,
                                     branch_profile=profile)
            work = session.last_timeline.work_counters()
            out_of_order = work["placements"] - work["tail_hits"]
            assert out_of_order > work["placements"] // 2
            per_placement[batches] = work["slots_visited"] / out_of_order
        assert per_placement[2000] <= 16
        assert per_placement[2000] <= 1.5 * per_placement[1000]


class TestCostMemo:
    def _session_and_spec(self):
        graph = ServiceFunctionChain(
            [make_nf(t) for t in ("firewall", "ids", "ipsec")]
        ).concatenated_graph()
        mapping = Mapping.fixed_ratio(
            graph, 0.6, cores=[DEFAULT_HOST_DEVICE, "cpu1", "cpu2"],
            gpus=["gpu0"])
        deployment = Deployment(graph, mapping, persistent_kernel=True,
                                name="memo")
        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=80.0,
                           seed=3)
        return SimulationEngine().session(deployment), spec

    def test_cost_model_runs_once_per_key_per_run(self, monkeypatch):
        session, spec = self._session_and_spec()
        cost = session.cost
        calls = {"cpu": 0, "device": 0}
        cpu_batch_seconds = cost.cpu_batch_seconds
        device_batch_timing = cost.device_batch_timing

        def counting_cpu(*args, **kwargs):
            calls["cpu"] += 1
            return cpu_batch_seconds(*args, **kwargs)

        def counting_device(*args, **kwargs):
            calls["device"] += 1
            return device_batch_timing(*args, **kwargs)

        monkeypatch.setattr(cost, "cpu_batch_seconds", counting_cpu)
        monkeypatch.setattr(cost, "device_batch_timing", counting_device)
        first = session.run(spec, batch_size=32, batch_count=60)
        per_run = dict(calls)
        tasks = sum(session.last_timeline.task_counts.values())
        assert 0 < per_run["cpu"] + per_run["device"] < tasks // 10
        # Cleared between runs: the second run asks the model again.
        second = session.run(spec, batch_size=32, batch_count=60)
        assert calls == {name: 2 * count
                         for name, count in per_run.items()}
        assert first.processor_busy_seconds == \
            second.processor_busy_seconds

    def test_memoized_run_matches_legacy_engine_exactly(self):
        session, spec = self._session_and_spec()
        profile = BranchProfile.measure(session.deployment.graph.clone(),
                                        spec, sample_packets=256,
                                        batch_size=32)
        kwargs = dict(batch_size=32, batch_count=60,
                      branch_profile=profile, cpu_time_inflation=1.3,
                      co_run_pressure_bytes=2e6, gpu_corun_kernels=2)
        new = session.run(spec, **kwargs)
        old = LegacySimulationEngine().run(session.deployment, spec,
                                           **kwargs)
        assert new.processor_busy_seconds == old.processor_busy_seconds
        assert new.latency.samples == old.latency.samples
        assert new.makespan_seconds == old.makespan_seconds
