"""The fault-campaign driver: timed actions + continuous invariants.

A :class:`ChaosCampaign` binds :class:`~repro.chaos.actions.ChaosAction`
instances to a timeline against one running
:class:`~repro.core.system.PingmeshSystem`, advances the system phase by
phase (a phase boundary at every action start/end, plus an optional regular
cadence), and evaluates the invariant catalogue at each boundary — or after
*every* event-queue step in ``check_mode="step"``.

Everything is deterministic: the same system seed and the same timeline
produce the same report, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.actions import ChaosAction
from repro.chaos.invariants import InvariantChecker, Violation

__all__ = ["ScheduledAction", "PhaseReport", "CampaignReport", "ChaosCampaign"]


@dataclass
class ScheduledAction:
    """One action bound to a [start_t, end_t) window (campaign-relative)."""

    action: ChaosAction
    start_t: float
    end_t: float | None
    started: bool = False
    ended: bool = False

    def __post_init__(self) -> None:
        if self.start_t < 0:
            raise ValueError(f"start must be >= 0: {self.start_t}")
        if self.end_t is not None and self.end_t <= self.start_t:
            raise ValueError(
                f"end must be after start: [{self.start_t}, {self.end_t})"
            )


@dataclass(frozen=True)
class PhaseReport:
    """System vitals at one phase boundary."""

    t: float
    label: str
    events_run: int
    total_probes_sent: int
    fail_closed_agents: int
    terminated_agents: int
    records_stored: int
    new_violations: int
    # Agents probing a cached pinglist (degraded, not dead): the STALE
    # plateau of a controller brownout is visible here.
    stale_agents: int = 0
    # Pinglist-download telemetry (answered requests and the cheap-304
    # share of them): a refresh stampede or a kill-switch 404 storm is
    # visible at each phase boundary.
    pinglist_requests: int = 0
    pinglist_304s: int = 0


@dataclass
class CampaignReport:
    """What one campaign run observed."""

    name: str
    started_t: float = 0.0
    finished_t: float = 0.0
    phases: list[PhaseReport] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    probes_observed: int = 0
    events_run: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"campaign {self.name!r}: "
            f"[{self.started_t:.0f}s, {self.finished_t:.0f}s] "
            f"{len(self.phases)} phases, {self.events_run} events, "
            f"{self.probes_observed} probes checked",
        ]
        for phase in self.phases:
            lines.append(
                f"  t={phase.t:7.1f}s  {phase.label:34s} "
                f"probes={phase.total_probes_sent:6d} "
                f"fail_closed={phase.fail_closed_agents:2d} "
                f"killed={phase.terminated_agents:2d} "
                f"violations=+{phase.new_violations}"
            )
        if self.violations:
            lines.append(f"  {len(self.violations)} INVARIANT VIOLATION(S):")
            lines.extend(f"    {violation}" for violation in self.violations)
        else:
            lines.append("  all invariants held")
        return "\n".join(lines)


class ChaosCampaign:
    """Composes timed fault actions against one running system."""

    def __init__(
        self,
        system,
        name: str = "campaign",
        checker: InvariantChecker | None = None,
        check_mode: str = "phase",
    ) -> None:
        if check_mode not in ("phase", "step"):
            raise ValueError(f"check_mode must be 'phase' or 'step': {check_mode!r}")
        self.system = system
        self.name = name
        self.checker = checker or InvariantChecker(system)
        self.check_mode = check_mode
        self.scheduled: list[ScheduledAction] = []

    def add(
        self, action: ChaosAction, start_t: float, end_t: float | None = None
    ) -> ScheduledAction:
        """Bind an action to [start_t, end_t) relative to campaign start."""
        scheduled = ScheduledAction(action=action, start_t=start_t, end_t=end_t)
        self.scheduled.append(scheduled)
        return scheduled

    # -- execution -----------------------------------------------------------

    def run(self, duration_s: float, phase_s: float | None = None) -> CampaignReport:
        """Run the campaign for ``duration_s`` simulated seconds.

        Phase boundaries fall on every action start/end inside the window,
        on every multiple of ``phase_s`` (if given), and at the end.  The
        full invariant catalogue runs at each boundary; in step mode the
        cheap per-step checks additionally run after every event.
        """
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        system = self.system
        if not system._started:
            system.start()
        queue = system.queue
        t0 = system.clock.now
        report = CampaignReport(name=self.name, started_t=t0)
        events_before = queue.events_run

        self.checker.attach()
        try:
            labels = self._schedule_actions(t0, duration_s)
            boundaries = self._boundaries(duration_s, phase_s)
            previous = 0.0
            for boundary in boundaries:
                self._advance(boundary - previous)
                new = self.checker.check_phase()
                report.phases.append(
                    self._phase_report(
                        labels.get(boundary, "checkpoint"),
                        len(new),
                        queue.events_run - events_before,
                    )
                )
                previous = boundary
        finally:
            self.checker.detach()

        system.env.repair_service.process_queue(system.clock.now)
        report.finished_t = system.clock.now
        report.violations = list(self.checker.violations)
        report.probes_observed = self.checker.probes_observed
        report.events_run = queue.events_run - events_before
        return report

    def _schedule_actions(
        self, t0: float, duration_s: float
    ) -> dict[float, str]:
        """Queue every action start/end; returns boundary labels."""
        labels: dict[float, str] = {}
        for scheduled in self.scheduled:
            if scheduled.start_t > duration_s:
                raise ValueError(
                    f"{scheduled.action.name} starts at {scheduled.start_t}s, "
                    f"after the campaign ends ({duration_s}s)"
                )
            self.system.queue.schedule_at(
                t0 + scheduled.start_t,
                lambda s=scheduled: self._start_action(s),
                name=f"chaos-start:{scheduled.action.name}",
            )
            labels[scheduled.start_t] = f"+ {scheduled.action.name}"
            if scheduled.end_t is not None:
                if scheduled.end_t > duration_s:
                    raise ValueError(
                        f"{scheduled.action.name} ends at {scheduled.end_t}s, "
                        f"after the campaign ends ({duration_s}s)"
                    )
                self.system.queue.schedule_at(
                    t0 + scheduled.end_t,
                    lambda s=scheduled: self._end_action(s),
                    name=f"chaos-end:{scheduled.action.name}",
                )
                labels[scheduled.end_t] = f"- {scheduled.action.name}"
        labels[duration_s] = "campaign end"
        return labels

    def _boundaries(self, duration_s: float, phase_s: float | None) -> list[float]:
        boundaries = {duration_s}
        for scheduled in self.scheduled:
            boundaries.add(scheduled.start_t)
            if scheduled.end_t is not None:
                boundaries.add(scheduled.end_t)
        if phase_s is not None:
            if phase_s <= 0:
                raise ValueError(f"phase_s must be positive: {phase_s}")
            tick = phase_s
            while tick < duration_s:
                boundaries.add(tick)
                tick += phase_s
        return sorted(b for b in boundaries if 0.0 < b <= duration_s)

    def _start_action(self, scheduled: ScheduledAction) -> None:
        t = self.system.clock.now
        scheduled.action.start(self.system, t)
        scheduled.started = True
        self.checker.note_fault_started()
        self.checker.note_ground_truth(
            scheduled.action.ground_truth_devices(self.system)
        )
        if scheduled.action.expected_watchdog is not None:
            self.checker.expect_watchdog_error(
                scheduled.action.expected_watchdog,
                t,
                scheduled.action.watchdog_within_s,
            )

    def _end_action(self, scheduled: ScheduledAction) -> None:
        if scheduled.started and not scheduled.ended:
            scheduled.action.end(self.system, self.system.clock.now)
            scheduled.ended = True

    def _advance(self, delta_s: float) -> None:
        if delta_s <= 0:
            return
        if self.check_mode == "phase":
            self.system.run_for(delta_s)
            return
        # Step mode: one event at a time, cheap checks after each.
        queue = self.system.queue
        horizon = self.system.clock.now + delta_s
        while True:
            deadline = queue.peek_deadline()
            if deadline is None or deadline > horizon:
                break
            queue.run_next()
            self.checker.after_step()
        if horizon > self.system.clock.now:
            self.system.clock.advance_to(horizon)

    def _phase_report(
        self, label: str, new_violations: int, events_run: int
    ) -> PhaseReport:
        system = self.system
        agents = system.agents.values()
        downloads = system.controller.download_stats()
        return PhaseReport(
            t=system.clock.now,
            label=label,
            events_run=events_run,
            total_probes_sent=system.total_probes_sent(),
            fail_closed_agents=sum(
                1 for agent in agents if agent.safety.fail_closed
            ),
            stale_agents=system.stale_agents,
            terminated_agents=sum(
                1 for agent in agents if agent.terminated_reason is not None
            ),
            records_stored=(
                system.store.stream("pingmesh/latency").record_count
                if system.store.has_stream("pingmesh/latency")
                else 0
            ),
            new_violations=new_violations,
            pinglist_requests=downloads["requests"],
            pinglist_304s=downloads["responses_304"],
        )
