"""Per-layer tracing for the traced run, from the benchmark's side.

:class:`LayerTracer` wraps public entry points of each layer for the
duration of a ``with`` block and restores them on exit; nothing under
``src/`` changes.  Each wrapped call is a span: its duration counts
towards the layer's busy time, minus the time of wrapped calls nested
inside it towards its self time.  A call into a layer that is already
on the span stack (a layer calling itself) is not a new span.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.core import allocator as allocator_module
from repro.core.allocator import GraphTaskAllocator
from repro.core.compass import NFCompass
from repro.core.orchestrator import SFCOrchestrator
from repro.core.synthesizer import NFSynthesizer
from repro.faults.runtime import ResilientRuntime
from repro.sim.engine import BranchProfile
from repro.sim.kernel import SimulationSession
from repro.traffic import arrivals as arrivals_module
from repro.traffic.generator import TrafficGenerator

#: Every layer that gets a self-time share, in report order.
LAYERS = ("core.compass", "core.orchestrator", "core.synthesizer",
          "core.allocator", "core.partition", "sim.engine.profile",
          "traffic.generator", "sim.kernel", "traffic.arrivals", "faults")

_PARTITION_FUNCTIONS = ("kernighan_lin_partition", "agglomerative_partition",
                        "multiway_kl_partition",
                        "multiway_agglomerative_partition")

#: Counters a round accumulates, besides per-layer calls and times.
COUNTERS = ("profile_packets", "kernel_batches", "kernel_tasks",
            "queue_wait_s", "max_queue_depth", "sheds", "queue_drops",
            "breaker_trips", "retry_attempts", "requeued_batches",
            "replans")


def _graph_structure(graph) -> Tuple:
    nodes = tuple(sorted((node, graph.element(node).kind)
                         for node in graph.nodes))
    edges = tuple(sorted((e.src, e.src_port, e.dst)
                         for node in graph.nodes
                         for e in graph.out_edges(node)))
    return nodes, edges


def _spec_key(spec) -> Tuple:
    # Profiles depend on packet contents, not on the offered rate.
    return (spec.seed, spec.size_law.mean(), spec.protocol,
            spec.ip_version, spec.flow_count, id(spec.payload_maker))


class LayerTracer:
    """Wraps layer entry points; accumulates per-layer calls and time."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []
        self._stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.busy: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.self_time: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counters: Dict[str, float] = {name: 0 for name in COUNTERS}
        self.profile_keys = set()

    # -- span bookkeeping ----------------------------------------------
    def _timed(self, layer, fn, args, kwargs):
        if any(frame[0] == layer for frame in self._stack):
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.calls[layer] += 1
            self.busy[layer] += elapsed
            self.self_time[layer] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def _patch(self, owner, name, wrapper_factory) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        if isinstance(original, classmethod):
            setattr(owner, name,
                    classmethod(wrapper_factory(original.__func__)))
        else:
            setattr(owner, name, wrapper_factory(original))

    def _span(self, layer, after=None):
        tracer = self

        def factory(original):
            def wrapper(*args, **kwargs):
                result = tracer._timed(layer, original, args, kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            return wrapper
        return factory

    # -- per-layer counters --------------------------------------------
    def _after_profile(self, result, args, kwargs) -> None:
        graph, spec = args[1], args[2]
        sample = kwargs.get("sample_packets", 512)
        batch_size = kwargs.get("batch_size", 64)
        self.counters["profile_packets"] += \
            max(1, sample // batch_size) * batch_size
        self.profile_keys.add((_graph_structure(graph), _spec_key(spec),
                               sample, batch_size))

    def _after_kernel(self, report, args, kwargs) -> None:
        session = args[0]
        counters = self.counters
        counters["kernel_batches"] += kwargs.get("batch_count", 200)
        counters["kernel_tasks"] += sum(
            session.last_timeline.task_counts.values())
        counters["queue_wait_s"] += report.total_queue_wait_seconds
        counters["max_queue_depth"] = max(
            [counters["max_queue_depth"]]
            + list(report.max_queue_depth.values()))
        fault_stats = session.last_fault_stats or {}
        counters["requeued_batches"] += fault_stats.get(
            "requeued_batches", 0)
        overload_stats = session.last_overload_stats or {}
        counters["sheds"] += overload_stats.get("shed_batches", 0)
        counters["queue_drops"] += overload_stats.get(
            "queue_dropped_batches", 0)
        counters["breaker_trips"] += overload_stats.get("breaker_trips", 0)
        counters["retry_attempts"] += overload_stats.get(
            "retry_attempts", 0)

    # -- install / remove ----------------------------------------------
    def __enter__(self) -> "LayerTracer":
        def faults_factory(original):
            def step(runtime, *args, **kwargs):
                before = runtime.replans
                try:
                    return self._timed("faults", original,
                                       (runtime,) + args, kwargs)
                finally:
                    self.counters["replans"] += runtime.replans - before
            return step

        self._patch(NFCompass, "run", self._span("core.compass"))
        self._patch(NFCompass, "deploy", self._span("core.compass"))
        self._patch(SFCOrchestrator, "parallelize",
                    self._span("core.orchestrator"))
        self._patch(NFSynthesizer, "synthesize",
                    self._span("core.synthesizer"))
        self._patch(GraphTaskAllocator, "allocate",
                    self._span("core.allocator"))
        for name in _PARTITION_FUNCTIONS:
            self._patch(allocator_module, name,
                        self._span("core.partition"))
        self._patch(BranchProfile, "measure",
                    self._span("sim.engine.profile", self._after_profile))
        self._patch(TrafficGenerator, "next_batch",
                    self._span("traffic.generator"))
        self._patch(SimulationSession, "run",
                    self._span("sim.kernel", self._after_kernel))
        for cls in vars(arrivals_module).values():
            if (isinstance(cls, type)
                    and issubclass(cls, arrivals_module.ArrivalProcess)
                    and "batch_arrivals" in cls.__dict__):
                self._patch(cls, "batch_arrivals",
                            self._span("traffic.arrivals"))
        self._patch(ResilientRuntime, "step", faults_factory)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
