"""The three benchmark workloads and the inputs they are made from.

Every workload is built from ``--seed`` alone: building it is the
set-up a user pays once, and each :class:`Op` of its list is one timed
call into the program that returns an :class:`Outcome` for the output
checks.  What an op needs that is not part of the call (a fresh
runtime for a new cycle of epochs) is made by its ``prepare`` hook,
outside the timed region.

- ``deploy-mix``: ``NFCompass.run`` over seeded (chain, packet size)
  pairs.  Most of an op is branch profiling through the pure-Python
  packet path.
- ``capacity-large``: ``SimulationSession.measure_capacity`` on the
  25-node parallelized multi-GPU paper-chain deployment of
  ``benchmarks/bench_engine.py``, profiled once in set-up.  Most of
  an op is timeline placement at saturation.
- ``resilient-epochs``: ``ResilientRuntime.step`` epochs of a 3-NF
  chain under MMPP arrivals at 0.7-1.3x capacity with full overload
  protection and one ``gpu0`` crash window per cycle of epochs.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.compass import NFCompass, ProfileConfig
from repro.faults import FaultSpec, FaultTimeline, ResilientRuntime
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.overload import (CircuitBreaker, OverloadConfig, RetryPolicy,
                            SLOFeedbackAdmission)
from repro.sim.engine import BranchProfile, SimulationEngine
from repro.sim.kernel import SimulationSession
from repro.sim.mapping import Deployment
from repro.traffic.arrivals import MMPP, Poisson
from repro.traffic.distributions import FixedSize, IMIXSize
from repro.traffic.generator import TrafficSpec

from bench_engine import large_scenario

PAPER_CHAIN = ("firewall", "ids", "nat", "ipsec", "dpi")
PACKET_SIZES = ("64", "512", "1500", "imix")
BATCH_SIZE = 64


def size_law(name: str):
    return IMIXSize() if name == "imix" else FixedSize(int(name))


def traffic(seed: int, size: str, offered_gbps: float) -> TrafficSpec:
    """A seeded spec with the generator's default payloads: the seed
    makes the flows, the packet contents and the Poisson arrival times
    (with default payloads nothing else the simulation sees depends on
    the seed)."""
    return TrafficSpec(offered_gbps=offered_gbps, size_law=size_law(size),
                       seed=seed, arrivals=Poisson(seed=seed))


def make_chain(nf_types) -> ServiceFunctionChain:
    return ServiceFunctionChain([make_nf(t) for t in nf_types])


@dataclass
class Outcome:
    """What one op produced, for the checks and the sim metrics."""

    report: Any
    timeline: Any
    deployment: Deployment
    #: The graph the caller deployed, checked for profiling traffic
    #: left on its elements (``None`` where profiling is done on a
    #: clone by the benchmark itself).
    deployed_graph: Any = None


@dataclass
class Op:
    label: str
    call: Callable[[Any], Outcome]
    #: Called before the op, outside the timed region, with the trace.
    prepare: Optional[Callable[[Any], None]] = None


@dataclass
class Workload:
    """One prepared workload: the op list of a round, and its probes."""

    name: str
    seed: int
    ops: List[Op]
    #: Sizes runs: a run of ``--seconds`` executes ``--seconds`` over
    #: this many whole rounds, rounded to the nearest count and at least
    #: one.  It is about the wall time of a round on a 2-CPU container
    #: (Python 3.11) in its slower speed state, so a run takes about
    #: ``--seconds`` there and less when the host is faster.  Nothing is
    #: scaled by it.
    round_seconds: float
    #: Builds the same op on fresh objects, for the replay check.
    fresh_op: Callable[[int], Op] = None
    #: A kernel call at a given batch count, for the scaling slope.
    kernel_probe: Callable[[int], Callable[[], Any]] = None
    probe_batches: int = 0
    #: Ops per group that can run again right away with the same
    #: results (a cycle of epochs shares state; other ops stand alone).
    group_size: int = 1


# ----------------------------------------------------------------------
# deploy-mix
# ----------------------------------------------------------------------
#: The paper chain and five chains that together use every catalog NF
#: once, drawn from the catalog by cost tier (heavy NFs walk payloads
#: or a large LPM trie per packet) so each drawn chain of length >= 2
#: holds at least one heavy NF.  The set is the same for every seed:
#: seeded chain draws moved the median op time by a third between
#: seeds, far beyond any usable bound.  ``ipsec-term`` alone delivers
#: nothing (the traffic is not ESP): a valid zero-throughput op.
MIX_CHAINS = (
    PAPER_CHAIN,
    ("ipsec-term",),
    ("stateful-ids", "lb"),
    ("probe", "dpi", "wanopt"),
    ("ipv4", "ipsec", "ipv6"),
    ("firewall", "ids", "proxy", "nat"),
)
MIX_OFFERED_GBPS = 40.0


def deploy_mix_pairs(seed: int):
    """The seeded (chain, packet size, traffic seed) list of one round:
    every chain at every packet size, in a seeded order, each with its
    own seeded traffic."""
    rng = random.Random(seed)
    pairs = [(chain, size) for chain in MIX_CHAINS for size in PACKET_SIZES]
    rng.shuffle(pairs)
    return [(chain, size, rng.randrange(1 << 30)) for chain, size in pairs]


def _deploy_op(chain, size, traffic_seed) -> Op:
    spec = traffic(traffic_seed, size, MIX_OFFERED_GBPS)

    def call(trace) -> Outcome:
        sfc = make_chain(chain)
        result = NFCompass().run(sfc, spec, batch_size=BATCH_SIZE,
                                 trace=trace)
        return Outcome(report=result.report,
                       timeline=result.session.last_timeline,
                       deployment=result.plan.deployment,
                       deployed_graph=result.plan.deployment.graph)

    return Op(label=f"{','.join(chain)}@{size}", call=call)


def deploy_mix(seed: int) -> Workload:
    pairs = deploy_mix_pairs(seed)
    ops = [_deploy_op(*pair) for pair in pairs]
    paper_index = next(i for i, (chain, _size, _s) in enumerate(pairs)
                       if chain == PAPER_CHAIN)

    def kernel_probe(batch_count: int):
        chain, size, traffic_seed = pairs[paper_index]
        spec = traffic(traffic_seed, size, MIX_OFFERED_GBPS)
        plan = NFCompass().deploy(make_chain(chain), spec,
                                  batch_size=BATCH_SIZE)
        profile = plan.profile(spec, ProfileConfig.run_time(BATCH_SIZE))
        session = plan.session or SimulationEngine().session(
            plan.deployment)

        def run():
            return session.run(spec, batch_size=BATCH_SIZE,
                               batch_count=batch_count,
                               branch_profile=profile)
        return run

    return Workload(name="deploy-mix", seed=seed, ops=ops,
                    round_seconds=15.0,
                    fresh_op=lambda i: _deploy_op(*pairs[i]),
                    kernel_probe=kernel_probe, probe_batches=200)


# ----------------------------------------------------------------------
# capacity-large
# ----------------------------------------------------------------------
#: ``large_scenario`` asks for 5000 batches; at 1000 an op takes about
#: a second, so a run holds enough ops for a tail percentile.
LARGE_BATCHES = 1000


class _CapturingSession(SimulationSession):
    """A session that keeps its last report (``measure_capacity``
    returns only the capacity, the checks need the whole report)."""

    last_report = None

    def run(self, *args, **kwargs):
        self.last_report = super().run(*args, **kwargs)
        return self.last_report


def large_deployment(seed: int):
    """``bench_engine.large_scenario`` (the parallelized paper chain on
    6 cores and 2 GPUs) with the seed's traffic, profiled."""
    deployment, spec, batch_size, _batches = large_scenario()
    spec = dataclasses.replace(spec, seed=seed, arrivals=Poisson(seed=seed))
    profile = BranchProfile.measure(deployment.graph.clone(), spec,
                                    batch_size=batch_size)
    session = _CapturingSession(SimulationEngine(), deployment)
    return spec, deployment, profile, session


def _capacity_op(spec, deployment, profile, session,
                 batch_count=LARGE_BATCHES) -> Op:
    def call(trace) -> Outcome:
        session.measure_capacity(spec, batch_size=BATCH_SIZE,
                                 batch_count=batch_count,
                                 branch_profile=profile, trace=trace)
        return Outcome(report=session.last_report,
                       timeline=session.last_timeline,
                       deployment=deployment)

    return Op(label=f"measure_capacity@{batch_count}", call=call)


def capacity_large(seed: int) -> Workload:
    inputs = large_deployment(seed)

    def kernel_probe(batch_count: int):
        op = _capacity_op(*inputs, batch_count=batch_count)
        return lambda: op.call(None)

    return Workload(
        name="capacity-large", seed=seed,
        ops=[_capacity_op(*inputs)], round_seconds=1.2,
        fresh_op=lambda i: _capacity_op(*large_deployment(seed)),
        kernel_probe=kernel_probe, probe_batches=LARGE_BATCHES)


# ----------------------------------------------------------------------
# resilient-epochs
# ----------------------------------------------------------------------
RESILIENT_CHAIN = ("firewall", "ids", "nat")
RESILIENT_PACKET = "256"
CYCLES_PER_ROUND = 8
EPOCHS_PER_CYCLE = 8
EPOCH_BATCHES = 300
LOAD_BAND = (0.7, 1.3)
#: SLO as a multiple of the p99 of an epoch at half capacity.
SLO_FACTOR = 40.0
QUEUE_LIMIT = 32
SCENARIO_SEED = 2018


@dataclass
class _Cycle:
    """The inputs of one cycle of epochs (one crash window)."""

    epoch_specs: List[TrafficSpec]
    faults: FaultTimeline
    mmpp_seed: int


@dataclass
class _Inputs:
    initial_spec: TrafficSpec
    slo_ms: float
    cycles: List[_Cycle]


def resilient_inputs(seed: int) -> _Inputs:
    """Epoch loads, crash windows and the SLO of one round.

    Every cycle offers the same grid of loads across the band, in a
    fixed order, and has one gpu0 crash.  The crash starts just after
    the boundary into the cycle's crash epoch: the runtime fences gpu0
    from that epoch on, while the epoch before, offered the top of the
    band, may still have batches in flight that meet the crash
    (breaker trips, retries, requeues).

    The scenario is the same for every seed, because the epoch loop
    amplifies any change into a different breaker and drop history
    (seeded MMPP draws in every epoch moved ``sim_loss`` by a third).
    The seed makes the flows, the packet contents and the MMPP arrivals
    of each cycle's last epoch.
    """
    scenario = random.Random(SCENARIO_SEED)
    arrival_seeds = random.Random(seed)
    # The runtime's MMPP is the arrival process; a spec-carried one
    # would override it.
    spec = dataclasses.replace(traffic(seed, RESILIENT_PACKET, 10.0),
                               arrivals=None)
    compass = NFCompass(platform=PlatformSpec())
    plan = compass.deploy(make_chain(RESILIENT_CHAIN), spec,
                          batch_size=BATCH_SIZE)
    profile = plan.profile(spec, ProfileConfig.deploy_time(BATCH_SIZE))
    session = plan.session or compass.engine.session(plan.deployment)
    capacity = session.measure_capacity(spec, batch_size=BATCH_SIZE,
                                        batch_count=200,
                                        branch_profile=profile)
    half_load = session.run(
        dataclasses.replace(spec, offered_gbps=0.5 * capacity),
        batch_size=BATCH_SIZE, batch_count=EPOCH_BATCHES,
        branch_profile=profile)
    low, high = LOAD_BAND
    grid = [low + (high - low) * i / (EPOCHS_PER_CYCLE - 1)
            for i in range(EPOCHS_PER_CYCLE)]
    cycles = []
    for _cycle in range(CYCLES_PER_ROUND):
        loads = scenario.sample(grid, len(grid))
        crash = scenario.randrange(2, EPOCHS_PER_CYCLE - 3)
        peak = loads.index(max(grid))
        loads[peak], loads[crash - 1] = loads[crash - 1], loads[peak]
        epoch_specs = [dataclasses.replace(spec,
                                           offered_gbps=load * capacity)
                       for load in loads]
        # The last epoch's arrivals come from the seed; its state is
        # not inherited by any later epoch.
        last_arrivals = _mmpp(arrival_seeds.randrange(1 << 30))
        epoch_specs[-1] = dataclasses.replace(epoch_specs[-1],
                                              arrivals=last_arrivals)
        # Epoch boundaries on the runtime's clock, summed in its order.
        boundaries = [0.0]
        for epoch_spec in epoch_specs:
            boundaries.append(boundaries[-1] + EPOCH_BATCHES * BATCH_SIZE
                              * epoch_spec.mean_packet_interval())
        start = boundaries[crash] * (1.0 + 1e-9)
        length = scenario.uniform(0.5, 1.0) * (boundaries[crash + 1]
                                               - boundaries[crash])
        faults = FaultTimeline([FaultSpec(device_id="gpu0", kind="crash",
                                          start=start, end=start + length)])
        cycles.append(_Cycle(epoch_specs=epoch_specs, faults=faults,
                             mmpp_seed=scenario.randrange(1 << 30)))
    return _Inputs(initial_spec=spec, cycles=cycles,
                   slo_ms=SLO_FACTOR * half_load.p99 * 1e3)


def _overload(slo_ms: float) -> OverloadConfig:
    return OverloadConfig(queue_limit=QUEUE_LIMIT,
                          admission=SLOFeedbackAdmission(p99_ms=slo_ms),
                          breaker=CircuitBreaker(), retry=RetryPolicy(),
                          slo_ms=slo_ms)


def _mmpp(seed: int) -> MMPP:
    return MMPP(burst_factor=3.0, duty_cycle=0.25, cycle_batches=160.0,
                seed=seed)


def _new_runtime(inputs: _Inputs, cycle: _Cycle,
                 trace=None) -> ResilientRuntime:
    return ResilientRuntime(make_chain(RESILIENT_CHAIN), inputs.initial_spec,
                            cycle.faults, platform=PlatformSpec(),
                            batch_size=BATCH_SIZE,
                            arrivals=_mmpp(cycle.mmpp_seed),
                            overload=_overload(inputs.slo_ms), trace=trace)


def _cycle_ops(inputs: _Inputs, number: int) -> List[Op]:
    """One op per epoch; a fresh runtime (built outside the timed
    region) carries clock, exclusions, breaker and admission state
    from epoch to epoch within the cycle."""
    cycle = inputs.cycles[number]
    holder: Dict[str, ResilientRuntime] = {}

    def start(trace) -> None:
        holder["runtime"] = _new_runtime(inputs, cycle, trace)

    def epoch_op(index: int) -> Op:
        def call(trace) -> Outcome:
            runtime = holder["runtime"]
            result = runtime.step(cycle.epoch_specs[index],
                                  batch_count=EPOCH_BATCHES)
            return Outcome(report=result.report,
                           timeline=runtime.session.last_timeline,
                           deployment=runtime.plan.deployment)

        return Op(label=f"cycle{number}/epoch{index}", call=call,
                  prepare=start if index == 0 else None)

    return [epoch_op(i) for i in range(len(cycle.epoch_specs))]


def resilient_epochs(seed: int) -> Workload:
    inputs = resilient_inputs(seed)
    ops = [op for number in range(len(inputs.cycles))
           for op in _cycle_ops(inputs, number)]

    def fresh_op(index: int) -> Op:
        # An epoch depends on the epochs of its cycle before it.
        number, epoch = divmod(index, EPOCHS_PER_CYCLE)
        cycle_ops = _cycle_ops(resilient_inputs(seed), number)[:epoch + 1]

        def call(trace) -> Outcome:
            cycle_ops[0].prepare(None)
            for op in cycle_ops[:-1]:
                op.call(None)
            return cycle_ops[-1].call(trace)

        return Op(label=f"replay-{cycle_ops[-1].label}", call=call)

    def kernel_probe(batch_count: int):
        cycle = inputs.cycles[0]
        runtime = _new_runtime(inputs, cycle)
        spec = dataclasses.replace(cycle.epoch_specs[0],
                                   arrivals=_mmpp(cycle.mmpp_seed))
        profile = runtime.plan.profile(spec,
                                       ProfileConfig.deploy_time(BATCH_SIZE))

        def run():
            return runtime.session.run(
                spec, batch_size=BATCH_SIZE, batch_count=batch_count,
                branch_profile=profile,
                overload=_overload(inputs.slo_ms))
        return run

    return Workload(name="resilient-epochs", seed=seed, ops=ops,
                    round_seconds=15.0,
                    fresh_op=fresh_op, kernel_probe=kernel_probe,
                    probe_batches=EPOCH_BATCHES,
                    group_size=EPOCHS_PER_CYCLE)


WORKLOADS = {
    "deploy-mix": deploy_mix,
    "capacity-large": capacity_large,
    "resilient-epochs": resilient_epochs,
}
