"""Degradation-aware re-deployment.

:class:`ResilientRuntime` runs a chain epoch by epoch against a
:class:`~repro.faults.spec.FaultTimeline`.  Each epoch it derives
health signals for every offload device (a crash window intersecting
the epoch means "down"), shrinks the healthy device set, and re-runs
the NFCompass pipeline — multiway partitioner included — over the
surviving inventory: crashed GPUs leave the allocator's ``gpus`` list,
crashed extra devices leave the platform inventory entirely.  With
every offload device down the replan degrades to a valid host-only
deployment (the allocator's trivial partition path).

Re-admission is hysteretic: a device must stay healthy for
``readmit_epochs`` consecutive epochs before a replan brings it back,
so a flapping link does not thrash the partitioner.  Replans run
inside a ``replan`` span and emit ``fault.replans`` /
``fault.device_down`` / ``fault.device_up`` counters through
:mod:`repro.obs`; the epoch simulation itself consumes the timeline
re-based to the epoch clock, so in-flight batches on a device that
dies mid-epoch are re-queued to the host by the event kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.compass import CompassPlan, NFCompass
from repro.core.runtime import EpochResult
from repro.faults.spec import FaultTimeline
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.obs import resolve_trace
from repro.sim.kernel import SimulationSession
from repro.traffic.arrivals import ArrivalProcess, attach_arrivals
from repro.traffic.generator import TrafficSpec


class ResilientRuntime:
    """Fault-aware epoch loop around NFCompass.

    Implements the :class:`~repro.core.runtime.Runtime` protocol
    (``step``/``plan``/``session``).  ``compass_kwargs`` are forwarded
    to every :class:`~repro.core.compass.NFCompass` the runtime builds
    (initial deploy and each replan), e.g. ``algorithm=`` or
    ``persistent_kernel=``.
    """

    def __init__(self, sfc: ServiceFunctionChain,
                 initial_spec: TrafficSpec,
                 faults: FaultTimeline,
                 platform: Optional[PlatformSpec] = None,
                 batch_size: int = 64,
                 readmit_epochs: int = 1,
                 arrivals: Optional[ArrivalProcess] = None,
                 overload=None,
                 trace=None,
                 **compass_kwargs):
        if readmit_epochs < 0:
            raise ValueError("readmit_epochs must be non-negative")
        self.platform = platform or PlatformSpec()
        faults.validate_against(self.platform)
        self.sfc = sfc
        self.faults = faults
        self.batch_size = batch_size
        #: Runtime-level arrival process: applied (decorrelated per
        #: epoch) to every epoch spec that has no process of its own.
        self.arrivals = arrivals
        #: Optional :class:`~repro.overload.OverloadConfig` applied to
        #: every epoch.  Its circuit breaker spans epochs — a device
        #: tripped by one epoch's crash window stays fenced into the
        #: next until its cooldown elapses — and its admission
        #: controller observes every epoch report.
        self.overload = overload
        self.readmit_epochs = readmit_epochs
        self.trace = resolve_trace(trace)
        self.compass_kwargs = compass_kwargs
        #: Simulated seconds already consumed by completed epochs; the
        #: absolute fault timeline is re-based against this clock.
        self.clock = 0.0
        self._epoch = 0
        self.replans = 0
        self.history: List[EpochResult] = []
        #: Offload devices currently excluded from planning.
        self.excluded: Set[str] = set()
        #: Consecutive healthy epochs per excluded device (hysteresis).
        self._healthy_streak: Dict[str, int] = {}
        self._extra_ids = {d.device_id
                           for d in self.platform.extra_devices}
        self.compass: NFCompass = self._build_compass()
        self.plan: CompassPlan = self.compass.deploy(
            sfc, initial_spec, batch_size=batch_size, trace=self.trace
        )
        self.session: SimulationSession = self._session_for(self.plan)

    # ------------------------------------------------------------------
    def offload_device_ids(self) -> List[str]:
        """Every offload-capable processor in the full inventory."""
        return (self.platform.gpu_processor_ids()
                + sorted(self._extra_ids))

    def healthy_devices(self) -> List[str]:
        """Offload devices currently admitted to planning."""
        return [d for d in self.offload_device_ids()
                if d not in self.excluded]

    # ------------------------------------------------------------------
    def _build_compass(self) -> NFCompass:
        gpus = [g for g in self.platform.gpu_processor_ids()
                if g not in self.excluded]
        crashed_extras = self.excluded & self._extra_ids
        platform = self.platform
        if crashed_extras:
            platform = platform.without_devices(*crashed_extras)
        return NFCompass(platform=platform, gpus=gpus,
                         **self.compass_kwargs)

    def _session_for(self, plan: CompassPlan) -> SimulationSession:
        if plan.session is None:
            plan.session = self.compass.engine.session(plan.deployment)
        return plan.session

    # ------------------------------------------------------------------
    def _epoch_health(self, t0: float, t1: float) -> Dict[str, bool]:
        """Device id -> healthy over the whole epoch window."""
        return {
            device_id: not self.faults.crashed_during(device_id, t0, t1)
            for device_id in self.offload_device_ids()
        }

    def _update_exclusions(self, health: Dict[str, bool]
                           ) -> Tuple[Set[str], Set[str]]:
        """Apply health signals; returns (newly down, re-admitted)."""
        went_down: Set[str] = set()
        came_back: Set[str] = set()
        for device_id, healthy in health.items():
            if not healthy:
                self._healthy_streak[device_id] = 0
                if device_id not in self.excluded:
                    self.excluded.add(device_id)
                    went_down.add(device_id)
            elif device_id in self.excluded:
                streak = self._healthy_streak.get(device_id, 0) + 1
                self._healthy_streak[device_id] = streak
                if streak > self.readmit_epochs:
                    self.excluded.discard(device_id)
                    came_back.add(device_id)
        return went_down, came_back

    def _replan(self, spec: TrafficSpec, went_down: Set[str],
                came_back: Set[str]) -> None:
        with self.trace.span("replan",
                             excluded=sorted(self.excluded),
                             down=sorted(went_down),
                             readmitted=sorted(came_back)):
            self.compass = self._build_compass()
            self.plan = self.compass.deploy(
                self.sfc, spec, batch_size=self.batch_size,
                trace=self.trace,
            )
            self.session = self._session_for(self.plan)
        self.replans += 1
        self.trace.count("fault.replans")
        self.trace.count("fault.device_down", len(went_down))
        self.trace.count("fault.device_up", len(came_back))

    # ------------------------------------------------------------------
    def step(self, spec: TrafficSpec,
             batch_count: int = 80) -> EpochResult:
        """Process one traffic epoch under the fault schedule.

        The epoch covers ``batch_count`` batches of the runtime's
        batch size at the spec's arrival rate; devices whose crash
        windows intersect it are excluded before planning, and the
        epoch's simulation sees the fault timeline re-based to its
        local clock.
        """
        self._epoch += 1
        spec = attach_arrivals(spec, self.arrivals, self._epoch)
        # The health window is the *mean-rate* span of the epoch; a
        # bursty process redistributes arrivals inside it but leaves
        # the long-run rate (and so the wall-clock budget) unchanged.
        window = batch_count * self.batch_size \
            * spec.mean_packet_interval()
        t0, t1 = self.clock, self.clock + window
        went_down, came_back = self._update_exclusions(
            self._epoch_health(t0, t1)
        )
        replanned = bool(went_down or came_back)
        if replanned:
            self._replan(spec, went_down, came_back)
        epoch_faults = self.faults.shifted(-t0)
        report = self.session.run(
            spec,
            batch_size=self.batch_size, batch_count=batch_count,
            branch_profile=self.plan.branch_profile,
            trace=self.trace,
            faults=epoch_faults,
            overload=self.overload,
        )
        if (self.overload is not None
                and self.overload.admission is not None):
            self.overload.admission.observe(report)
        self.clock = t1
        result = EpochResult(epoch=self._epoch, report=report,
                             drift=0.0, replanned=replanned)
        self.history.append(result)
        return result

    def run(self, epochs: List[TrafficSpec],
            batch_count: int = 80) -> List[EpochResult]:
        """Run a sequence of traffic epochs."""
        return [self.step(spec, batch_count=batch_count)
                for spec in epochs]


__all__ = ["ResilientRuntime"]
