"""Profiling (Section IV.C.2).

NFCompass combines two information sources when weighting the
partition graph:

- **offline profiling**: processing rates of every element on CPU and
  GPU over a grid of packet sizes and batch sizes, stored in a
  dictionary indexed by element kind and operating point (the paper's
  "dictionary ... indexed by vertex ID and edge ID");
- **runtime profiling**: the traffic distribution over the current
  graph — which fraction of packets traverses each edge and how much
  each element drops — measured by sampling real packets
  (:class:`~repro.sim.engine.BranchProfile`).

In the reproduction the offline rates come from evaluating the
platform cost model (exactly what profiling a simulator means), and
runtime statistics come from functional execution of sample traffic.
:class:`ProfileConfig` fixes the runtime sample's size and measures it
on a clone, so the profiled graph never carries the sample's traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.elements.element import Element
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement
from repro.hw.costs import BatchStats, CostModel
from repro.obs import resolve_trace
from repro.sim.engine import BranchProfile
from repro.traffic.dpi_profiles import MatchProfile
from repro.traffic.generator import TrafficSpec

#: Default offline profiling grid.
DEFAULT_PACKET_SIZES: Tuple[int, ...] = (64, 128, 256, 512, 1024, 1500)
DEFAULT_BATCH_SIZES: Tuple[int, ...] = (32, 64, 128, 256, 512)


@dataclass(frozen=True)
class ProfileConfig:
    """How to measure a :class:`~repro.sim.engine.BranchProfile`.

    The single source of truth for runtime-profiling sample sizes.
    ``sample_packets`` wins when set; otherwise the sample size is
    ``max(min_sample_packets, batch_size * sample_batches)``.

    NFCompass profiles each deploy candidate exactly once, with
    :meth:`run_time`, and reuses that profile for allocation, the
    capacity race and the simulation (``CompassPlan.branch_profile``).
    :meth:`deploy_time` and the defaults (a smaller sample) are kept
    for callers; compass does not use them.
    """

    batch_size: int = 64
    sample_packets: Optional[int] = None
    min_sample_packets: int = 128
    sample_batches: int = 2

    @classmethod
    def deploy_time(cls, batch_size: int) -> "ProfileConfig":
        """The smaller ``max(128, 2 x batch)`` sample."""
        return cls(batch_size=batch_size)

    @classmethod
    def run_time(cls, batch_size: int) -> "ProfileConfig":
        """The ``max(256, 4 x batch)`` sample every deploy candidate is
        profiled with."""
        return cls(batch_size=batch_size, min_sample_packets=256,
                   sample_batches=4)

    @property
    def resolved_sample_packets(self) -> int:
        if self.sample_packets is not None:
            return self.sample_packets
        return max(self.min_sample_packets,
                   self.batch_size * self.sample_batches)

    def measure(self, graph: ElementGraph, spec: TrafficSpec,
                trace=None) -> BranchProfile:
        """Profile a :meth:`~repro.elements.graph.ElementGraph.clone`
        of ``graph`` under ``spec``, as one ``profile`` span.

        ``graph`` itself is left untouched: node ids match, so the
        profile applies to it directly, and its elements never carry
        warmed-up profiling traffic into a simulated run or a
        golden-model comparison.
        """
        trace = resolve_trace(trace)
        sample_packets = self.resolved_sample_packets
        with trace.span("profile", graph=graph.name,
                        sample_packets=sample_packets,
                        batch_size=self.batch_size):
            return BranchProfile.measure(
                graph.clone(), spec, sample_packets=sample_packets,
                batch_size=self.batch_size,
            )


@dataclass(frozen=True)
class OperatingPoint:
    """One cell of the offline profiling grid."""

    packet_bytes: int
    batch_size: int
    match_profile: MatchProfile = MatchProfile.PARTIAL_MATCH


@dataclass
class RateEntry:
    """Measured rates of one element at one operating point."""

    cpu_seconds_per_batch: float
    gpu_seconds_per_batch: Optional[float]
    gpu_transfer_seconds: Optional[float]

    @property
    def cpu_pps(self) -> float:
        return 0.0 if self.cpu_seconds_per_batch <= 0 else (
            1.0 / self.cpu_seconds_per_batch
        )


class ProfileStore:
    """The profiling dictionary, indexed by element uid and point."""

    def __init__(self):
        self._entries: Dict[Tuple[int, OperatingPoint], RateEntry] = {}

    def put(self, element: Element, point: OperatingPoint,
            entry: RateEntry) -> None:
        self._entries[(element.uid, point)] = entry

    def get(self, element: Element,
            point: OperatingPoint) -> Optional[RateEntry]:
        return self._entries.get((element.uid, point))

    def lookup_nearest(self, element: Element, packet_bytes: float,
                       batch_size: int,
                       match_profile: MatchProfile
                       = MatchProfile.PARTIAL_MATCH) -> Optional[RateEntry]:
        """Nearest-grid-point lookup (how the runtime consumes it)."""
        best = None
        best_distance = None
        for (uid, point), entry in self._entries.items():
            if uid != element.uid or point.match_profile != match_profile:
                continue
            distance = (abs(point.packet_bytes - packet_bytes)
                        / max(1.0, packet_bytes)
                        + abs(point.batch_size - batch_size)
                        / max(1, batch_size))
            if best_distance is None or distance < best_distance:
                best = entry
                best_distance = distance
        return best

    def __len__(self) -> int:
        return len(self._entries)


class OfflineProfiler:
    """Builds :class:`ProfileStore` tables from the platform model."""

    def __init__(self, cost_model: CostModel):
        self.cost = cost_model

    def profile_element(self, element: Element,
                        packet_sizes: Iterable[int] = DEFAULT_PACKET_SIZES,
                        batch_sizes: Iterable[int] = DEFAULT_BATCH_SIZES,
                        match_profiles: Iterable[MatchProfile] = (
                            MatchProfile.PARTIAL_MATCH,
                        ),
                        store: Optional[ProfileStore] = None) -> ProfileStore:
        if store is None:  # note: an empty store is falsy (__len__)
            store = ProfileStore()
        offloadable = (isinstance(element, OffloadableElement)
                       and element.offloadable)
        for profile in match_profiles:
            for packet_bytes in packet_sizes:
                for batch_size in batch_sizes:
                    stats = BatchStats(
                        batch_size=batch_size,
                        mean_packet_bytes=float(packet_bytes),
                        match_profile=profile,
                    )
                    cpu = self.cost.cpu_batch_seconds(element, stats)
                    gpu = transfer = None
                    if offloadable:
                        timing = self.cost.gpu_batch_timing(
                            element, stats, persistent_kernel=True
                        )
                        gpu = timing.launch + timing.kernel
                        transfer = timing.transfer
                    store.put(
                        element,
                        OperatingPoint(packet_bytes, batch_size, profile),
                        RateEntry(cpu, gpu, transfer),
                    )
        return store

    def profile_graph(self, graph: ElementGraph,
                      **kwargs) -> ProfileStore:
        store = ProfileStore()
        for node_id in graph.nodes:
            self.profile_element(graph.element(node_id), store=store,
                                 **kwargs)
        return store


def node_traffic_shares(graph: ElementGraph,
                        profile: BranchProfile) -> Dict[str, float]:
    """Fraction of offered traffic reaching each node.

    Propagates shares from the sources through the measured port
    fractions and drop fractions — the "time-dependent traffic
    intensities on each edge" of the paper's runtime profiling.
    """
    shares: Dict[str, float] = {node: 0.0 for node in graph.nodes}
    for source in graph.sources():
        shares[source] = 1.0
    for node_id in graph.topological_order():
        inflow = shares[node_id]
        if inflow <= 0:
            continue
        survivors = inflow * (1.0 - profile.drop_for(node_id))
        fractions = profile.fractions_for(graph, node_id)
        for port, fraction in fractions.items():
            for edge in graph.out_edges(node_id, port=port):
                shares[edge.dst] += survivors * fraction
    return shares


def edge_traffic_shares(graph: ElementGraph,
                        profile: BranchProfile) -> Dict[object, float]:
    """Fraction of offered traffic crossing each edge."""
    node_shares = node_traffic_shares(graph, profile)
    edge_shares: Dict[object, float] = {}
    for node_id in graph.nodes:
        survivors = node_shares[node_id] * (
            1.0 - profile.drop_for(node_id)
        )
        fractions = profile.fractions_for(graph, node_id)
        for port, fraction in fractions.items():
            for edge in graph.out_edges(node_id, port=port):
                edge_shares[edge] = survivors * fraction
    return edge_shares
