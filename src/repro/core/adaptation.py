"""Dynamic task adaptation.

The paper's runtime collects time-dependent traffic statistics and
notes that the lightweight partitioning "may result in unbalanced
throughput on different processing units.  We still need to apply the
dynamic task adaption."  This module supplies that loop: an
:class:`AdaptiveRuntime` runs a deployment epoch by epoch, watches the
traffic descriptor (packet sizes, DPI match profile, measured branch
fractions) for drift, and re-runs the NFCompass pipeline when the
current plan was built for meaningfully different traffic.

Hysteresis (a cooldown of epochs after each re-plan) prevents
thrashing under oscillating traffic — the failure mode the paper
ascribes to prior schedulers that "adapt very slowly when the input
data stream varies" or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.compass import CompassPlan, NFCompass
from repro.core.runtime import EpochResult
from repro.nf.base import ServiceFunctionChain
from repro.obs import resolve_trace
from repro.sim.engine import BranchProfile
from repro.sim.kernel import SimulationSession
from repro.traffic.arrivals import ArrivalProcess, attach_arrivals
from repro.traffic.generator import TrafficSpec


@dataclass(frozen=True)
class TrafficDescriptor:
    """The features the drift detector compares between epochs."""

    mean_packet_bytes: float
    match_profile: str
    port_fractions: Dict[str, Dict[int, float]] = field(default_factory=dict)

    @classmethod
    def of(cls, spec: TrafficSpec,
           profile: Optional[BranchProfile] = None) -> "TrafficDescriptor":
        return cls(
            mean_packet_bytes=spec.size_law.mean(),
            match_profile=spec.match_profile.value,
            port_fractions=dict(profile.port_fractions) if profile else {},
        )

    def drift_from(self, other: "TrafficDescriptor") -> float:
        """A dimensionless drift score versus ``other``.

        Components: relative mean-packet-size change, a fixed charge
        for a match-profile switch, and the mean L1 distance of
        measured per-node port fractions.
        """
        size_drift = abs(self.mean_packet_bytes - other.mean_packet_bytes) \
            / max(1.0, other.mean_packet_bytes)
        profile_drift = 0.0 if self.match_profile == other.match_profile \
            else 1.0
        fraction_drift = 0.0
        common = set(self.port_fractions) & set(other.port_fractions)
        if common:
            total = 0.0
            for node in common:
                mine = self.port_fractions[node]
                theirs = other.port_fractions[node]
                ports = set(mine) | set(theirs)
                total += sum(abs(mine.get(p, 0.0) - theirs.get(p, 0.0))
                             for p in ports) / 2.0
            fraction_drift = total / len(common)
        return size_drift + profile_drift + fraction_drift


class AdaptiveRuntime:
    """Epoch-driven re-planning loop around NFCompass."""

    def __init__(self, compass: NFCompass, sfc: ServiceFunctionChain,
                 initial_spec: TrafficSpec,
                 batch_size: int = 64,
                 drift_threshold: float = 0.25,
                 cooldown_epochs: int = 1,
                 arrivals: Optional[ArrivalProcess] = None,
                 overload=None,
                 trace=None):
        if drift_threshold <= 0:
            raise ValueError("drift threshold must be positive")
        if cooldown_epochs < 0:
            raise ValueError("cooldown must be non-negative")
        self.compass = compass
        self.sfc = sfc
        self.batch_size = batch_size
        #: Runtime-level arrival process: applied (decorrelated per
        #: epoch) to every epoch spec that has no process of its own.
        self.arrivals = arrivals
        #: Optional :class:`~repro.overload.OverloadConfig` applied to
        #: every epoch; its stateful parts (admission controller,
        #: circuit breaker) persist across epochs, and the admission
        #: controller observes each epoch's report so SLO feedback
        #: closes the loop.
        self.overload = overload
        self.drift_threshold = drift_threshold
        self.cooldown_epochs = cooldown_epochs
        self.trace = resolve_trace(trace)
        self._cooldown = 0
        self._epoch = 0
        self.history: List[EpochResult] = []
        self.replans = 0
        self.plan: CompassPlan = compass.deploy(
            sfc, initial_spec, batch_size=batch_size, trace=self.trace
        )
        self.session: SimulationSession = self._session_for(self.plan)
        self._descriptor = TrafficDescriptor.of(initial_spec,
                                                self.plan.branch_profile)

    # ------------------------------------------------------------------
    def _session_for(self, plan: CompassPlan) -> SimulationSession:
        """Reuse the deploy-time session when the capacity race built
        one; every epoch of this plan then hits its cached invariants."""
        if plan.session is None:
            plan.session = self.compass.engine.session(plan.deployment)
        return plan.session

    def observe_drift(self, spec: TrafficSpec) -> float:
        """Drift of ``spec`` relative to the plan's traffic."""
        incoming = TrafficDescriptor.of(spec)
        return incoming.drift_from(self._descriptor)

    def run_epoch(self, spec: TrafficSpec,
                  batch_count: int = 80) -> EpochResult:
        """Process one traffic epoch, re-planning first if needed.

        When the runtime was built with an ``arrivals`` process and
        the epoch's spec carries none, the epoch runs under that
        process decorrelated for this epoch — bursty offered load
        varies from epoch to epoch while the mean rate stays put.
        """
        self._epoch += 1
        spec = attach_arrivals(spec, self.arrivals, self._epoch)
        drift = self.observe_drift(spec)
        replanned = False
        if drift > self.drift_threshold and self._cooldown == 0:
            self.plan = self.compass.deploy(self.sfc, spec,
                                            batch_size=self.batch_size,
                                            trace=self.trace)
            self.session = self._session_for(self.plan)
            self._descriptor = TrafficDescriptor.of(
                spec, self.plan.branch_profile
            )
            self._cooldown = self.cooldown_epochs
            self.replans += 1
            replanned = True
        elif self._cooldown > 0:
            self._cooldown -= 1
        report = self.session.run(
            spec,
            batch_size=self.batch_size, batch_count=batch_count,
            branch_profile=self.plan.branch_profile,
            trace=self.trace,
            overload=self.overload,
        )
        if (self.overload is not None
                and self.overload.admission is not None):
            self.overload.admission.observe(report)
        result = EpochResult(epoch=self._epoch, report=report,
                             drift=drift, replanned=replanned)
        self.history.append(result)
        return result

    def step(self, spec: TrafficSpec,
             batch_count: int = 80) -> EpochResult:
        """The :class:`~repro.core.runtime.Runtime` protocol entry
        point; alias of :meth:`run_epoch`."""
        return self.run_epoch(spec, batch_count=batch_count)

    def run(self, epochs: List[TrafficSpec],
            batch_count: int = 80) -> List[EpochResult]:
        """Run a sequence of traffic epochs."""
        return [self.run_epoch(spec, batch_count=batch_count)
                for spec in epochs]
