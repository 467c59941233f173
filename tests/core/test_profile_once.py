"""Runtime profiling runs once per deploy candidate, on a clone.

NFCompass measures each candidate graph's branch profile exactly once
and reuses it for allocation, the capacity race and the simulation
(``CompassPlan.branch_profile``).  Profiling traffic must never reach
a deployed graph: stateful NFs would start warm, and every later
profile would blend two samples.
"""

import pytest

from repro import AdaptiveRuntime, MultiTenantScheduler, ResilientRuntime
from repro.core.allocator import GraphTaskAllocator
from repro.core.compass import NFCompass, ProfileConfig
from repro.faults import single_crash
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.obs import Trace
from repro.sim.engine import BranchProfile
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

PAPER_CHAIN = ("firewall", "ids", "nat", "ipsec", "dpi")
LEAK_CHAINS = [PAPER_CHAIN, ("stateful-ids", "lb"),
               ("firewall", "ids", "nat")]


def make_sfc(nf_types):
    return ServiceFunctionChain([make_nf(t) for t in nf_types],
                                name=",".join(nf_types))


@pytest.fixture
def spec():
    return TrafficSpec(size_law=FixedSize(256), offered_gbps=20.0, seed=7)


@pytest.fixture
def measured(monkeypatch):
    """Records the graph of every ``BranchProfile.measure`` call."""
    graphs = []
    original = BranchProfile.measure

    def counting(cls, graph, *args, **kwargs):
        graphs.append(graph)
        return original(graph, *args, **kwargs)

    monkeypatch.setattr(BranchProfile, "measure", classmethod(counting))
    return graphs


def assert_pristine(graph):
    for node_id in graph.nodes:
        element = graph.element(node_id)
        assert element.packets_processed == 0, node_id
        assert not any(element.port_packet_counts.values()), node_id


class TestNoProfilingLeak:
    @pytest.mark.parametrize("nf_types", LEAK_CHAINS,
                             ids=lambda c: ",".join(c))
    def test_deploy_leaves_deployed_graph_pristine(self, nf_types, spec):
        plan = NFCompass().deploy(make_sfc(nf_types), spec,
                                  batch_size=32)
        assert_pristine(plan.graph)

    @pytest.mark.parametrize("nf_types", LEAK_CHAINS,
                             ids=lambda c: ",".join(c))
    def test_run_leaves_deployed_graph_pristine(self, nf_types, spec):
        result = NFCompass().run(make_sfc(nf_types), spec, batch_size=32,
                                 batch_count=10)
        assert result.report.offered_packets > 0
        assert_pristine(result.plan.graph)

    def test_allocate_without_profile_profiles_a_clone(self, spec,
                                                       measured):
        graph = make_sfc(("firewall", "ids", "nat")).concatenated_graph()
        GraphTaskAllocator().allocate(graph, spec, batch_size=32)
        assert len(measured) == 1
        assert measured[0] is not graph
        assert_pristine(graph)

    def test_allocate_without_profile_sizes_sample_by_config(self, spec):
        graph = make_sfc(("firewall", "nat")).concatenated_graph()
        trace = Trace(name="allocate")
        GraphTaskAllocator().allocate(graph, spec, batch_size=128,
                                      trace=trace)
        (span,) = trace.spans_named("profile")
        assert span.attrs["sample_packets"] == \
            ProfileConfig.run_time(128).resolved_sample_packets

    def test_multi_tenant_graphs_stay_pristine(self, spec, measured):
        scheduler = MultiTenantScheduler()
        tenants = scheduler.deploy([
            ("ids", make_sfc(("stateful-ids", "lb")), spec),
            ("fw", make_sfc(("firewall", "ids", "nat")), spec),
        ], batch_size=32)
        for tenant in tenants:
            assert_pristine(tenant.plan.graph)
            assert tenant.profile is tenant.plan.branch_profile
        assert all(graph is not tenant.plan.graph
                   for graph in measured for tenant in tenants)


class TestProfileOncePerCandidate:
    def test_run_profiles_once_per_candidate(self, spec, measured):
        trace = Trace(name="run")
        NFCompass().run(make_sfc(PAPER_CHAIN), spec, batch_size=32,
                        batch_count=10, trace=trace)
        candidates = trace.metrics.snapshot()["counters"][
            "compass.candidates_evaluated"]
        assert candidates == 2
        assert len(trace.spans_named("profile")) == candidates
        assert len(measured) == candidates

    def test_single_nf_chain_profiles_once(self, spec, measured):
        trace = Trace(name="run")
        NFCompass().run(make_sfc(("nat",)), spec, batch_size=32,
                        batch_count=10, trace=trace)
        assert trace.metrics.snapshot()["counters"][
            "compass.candidates_evaluated"] == 1
        assert len(trace.spans_named("profile")) == 1
        assert len(measured) == 1

    def test_plan_profile_is_the_run_time_profile_of_a_clone(self, spec):
        sfc = make_sfc(("firewall", "ids", "nat"))
        plan = NFCompass().deploy(sfc, spec, batch_size=32)
        assert plan.branch_profile is not None
        assert plan.branch_profile == BranchProfile.measure(
            plan.graph.clone(), spec,
            sample_packets=ProfileConfig.run_time(32)
            .resolved_sample_packets,
            batch_size=32,
        )

    def test_resilient_replan_profiles_once_per_candidate(self, spec,
                                                          measured):
        trace = Trace(name="resilient")
        runtime = ResilientRuntime(make_sfc(("firewall", "ids", "nat")),
                                   spec, single_crash("gpu0", 0.0),
                                   trace=trace)
        counters = trace.metrics.snapshot()["counters"]
        candidates = counters["compass.candidates_evaluated"]
        assert len(measured) == candidates
        result = runtime.step(spec, batch_count=20)
        assert result.replanned
        counters = trace.metrics.snapshot()["counters"]
        assert len(measured) == counters["compass.candidates_evaluated"]
        assert len(measured) == 2 * candidates
        assert_pristine(runtime.plan.graph)

    def test_adaptive_replan_profiles_once_per_candidate(self, spec,
                                                         measured):
        trace = Trace(name="adaptive")
        runtime = AdaptiveRuntime(NFCompass(),
                                  make_sfc(("firewall", "nat")), spec,
                                  drift_threshold=0.1, trace=trace)
        drifted = TrafficSpec(size_law=FixedSize(1400), offered_gbps=20.0,
                              seed=7)
        result = runtime.run_epoch(drifted, batch_count=10)
        assert result.replanned
        counters = trace.metrics.snapshot()["counters"]
        assert len(measured) == counters["compass.candidates_evaluated"]
        assert_pristine(runtime.plan.graph)
