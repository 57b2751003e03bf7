"""Simulated attack campaigns — the Figure 7 methodology.

Per the paper (§6): each server program is attacked 100 times,
independently.  Every attack tampers one randomly selected memory word
at the program's vulnerability point — a live *stack* slot for buffer
overflows, an arbitrary data address (globals included) for format
strings.  For each attack we record whether the tampering changed the
program's control flow at all, and whether the IPDS detected it.

Attack recipe (two deterministic runs per attack):

1. **clean run** — capture the reference branch trace and how many
   inputs the session consumes;
2. **attack run** — same inputs plus the tampering, monitored by the
   IPDS.  The target word is drawn *at the trigger moment* from the
   live attack surface there (the attacker casing the binary, as the
   paper assumes).  Up to the trigger the attack run replays the
   clean execution, so the draw sees the program's real state there.

Zero false positives is *asserted*, not just measured: the clean run is
also monitored, and any alarm there fails the campaign loudly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..interp.interpreter import DeferredTamper, Interpreter, RunStatus
from ..interp.state import MemoryMap
from ..ir.function import IRModule
from ..lang.errors import ReproError
from ..observability.metrics import MetricsRegistry
from ..pipeline import ProtectedProgram, monitored_run
from ..runtime.flight_recorder import DEFAULT_DEPTH, FlightRecorder
from ..workloads.registry import Workload

#: Values an attacker plausibly writes: flag flips, sign flips, and the
#: large garbage real overflow payloads leave behind (0x41414141 is the
#: classic "AAAA" fill) — single-word memory-corruption payloads.
TAMPER_VALUES = (0, 1, -1, 2, 7, 4242, -999, 65536, 0x41414141)


def attack_seed(seed_prefix: str, workload_name: str, index: int) -> str:
    """The seed string of attack ``index`` against one workload.

    Every random choice an attack makes (inputs, trigger, target word,
    payload) flows from this one string, which depends only on the
    campaign's ``seed_prefix``, the workload, and the attack index —
    never on execution order, process identity, or module-level RNG
    state.  That purity is what lets the sharded engine in
    :mod:`repro.parallel.engine` split a campaign across processes and
    still merge outcomes identical to the serial run.
    """
    return f"{seed_prefix}{workload_name}:{index}"


def attack_rng(
    seed_prefix: str, workload_name: str, index: int
) -> random.Random:
    """An explicit, reproducible RNG for one attack."""
    return random.Random(attack_seed(seed_prefix, workload_name, index))


class TargetDraw:
    """Draws an attack's target word and payload at the trigger moment.

    The :class:`~repro.interp.interpreter.DeferredTamper` chooser of
    the attack run.  Candidates are the live stack words, plus every
    global word when the attack is ``wide`` (a format string or a
    co-resident process reaches any data address), falling back to the
    globals when the stack offers nothing.  From them it draws
    ``rng.choice(candidates)`` and then ``rng.choice(TAMPER_VALUES)``.
    A trigger that never fires (the run ended first) draws the same
    way from the globals alone, through :meth:`chosen`.
    """

    def __init__(self, rng: random.Random, wide: bool):
        self._rng = rng
        self._wide = wide
        self._choice: Optional[Tuple[int, str, str, int]] = None

    def __call__(self, interpreter: Interpreter) -> Tuple[int, int]:
        memory = interpreter.memory
        candidates = memory.live_stack_slots(interpreter.live_activations())
        if self._wide:
            candidates.extend(memory.global_slots())
        if not candidates:
            candidates = memory.global_slots()
        return self._draw(candidates)

    def _draw(self, candidates: List[Tuple[int, str, str]]) -> Tuple[int, int]:
        address, owner, var_name = self._rng.choice(candidates)
        value = self._rng.choice(TAMPER_VALUES)
        self._choice = (address, owner, var_name, value)
        return address, value

    def chosen(self, module: IRModule) -> Tuple[int, str, str, int]:
        """``(address, owner, variable, value)`` of the drawn target,
        drawn from ``module``'s globals if the trigger never fired."""
        if self._choice is None:
            self._draw(MemoryMap(module).global_slots())
        return self._choice


class CampaignError(ReproError):
    """A campaign-level invariant broke (e.g. a false positive)."""


@dataclass(frozen=True)
class AttackOutcome:
    """One attack's classification."""

    index: int
    trigger_read: int
    address: int
    target_label: str  # "<fn>.<var>" or "<global>.<var>"
    value: int
    fired: bool
    control_flow_changed: bool
    detected: bool
    clean_status: RunStatus
    attack_status: RunStatus
    #: Forensic causal chains for the detected alarms — populated only
    #: when the campaign runs with ``forensics=True``; empty otherwise,
    #: so forensics-off campaigns stay byte-identical to before.
    explanations: Tuple[str, ...] = ()
    #: Rendered alarm strings from the attack run's IPDS, in raise
    #: order.  Purely observational (derived from state the run already
    #: produced), so recording them never perturbs an outcome — the
    #: timing-equivalence goldens pin these byte-for-byte.
    alarms: Tuple[str, ...] = ()
    #: Modeled cycle count of the monitored attack run — populated only
    #: when the campaign runs with a ``timing_mode``; None otherwise, so
    #: timing-off campaigns stay byte-identical to before.
    cycles: Optional[int] = None
    #: Per-alarm compile-time proof reasons ("subsumption", "kill",
    #: "interproc", "feasible-path", ... or "unexplained" when the
    #: forensics join degraded) — one entry per alarm report, in raise
    #: order.  Populated only on forensics campaigns; the observatory
    #: (``repro obs``) aggregates these into Figure-7-style
    #: explained-correlation histograms.
    proof_reasons: Tuple[str, ...] = ()
    #: Frame stack at the tamper moment, outer→inner ``(function,
    #: block, resume index, frame base)`` — the static detectability
    #: prover's program points.  ``None`` when the tamper never fired.
    #: Carried on the dataclass (so sharded merges keep it) but not
    #: serialized by default: see ``to_record``.
    tamper_site: Optional[Tuple[Tuple[str, str, int, int], ...]] = None

    def to_record(self, workload: str, include_site: bool = False) -> dict:
        """The outcome as a plain JSON-ready record.

        The one shape every sink shares — campaign ``--trace-out``
        JSONL logs and the daemon's per-session result events — so
        outcome logs are byte-comparable across front ends.
        """
        record = {
            "workload": workload,
            "index": self.index,
            "trigger_read": self.trigger_read,
            "address": self.address,
            "target": self.target_label,
            "value": self.value,
            "fired": self.fired,
            "control_flow_changed": self.control_flow_changed,
            "detected": self.detected,
            "clean_status": self.clean_status.value,
            "attack_status": self.attack_status.value,
        }
        # Keys appear only on forensics / timed campaigns, so logs
        # from campaigns without them stay byte-identical to before.
        if self.explanations:
            record["explanations"] = list(self.explanations)
        if self.proof_reasons:
            record["proof_reasons"] = list(self.proof_reasons)
        if self.cycles is not None:
            record["cycles"] = self.cycles
        # Opt-in for the same reason: the detectability validator asks
        # for the site explicitly; every other sink's logs stay
        # byte-identical with the field present on the dataclass.
        if include_site and self.tamper_site is not None:
            record["tamper_site"] = [list(frame) for frame in self.tamper_site]
        return record


@dataclass
class WorkloadResult:
    """Aggregated Figure-7 numbers for one workload."""

    workload: str
    vuln_kind: str
    attacks: List[AttackOutcome] = field(default_factory=list)
    #: Timing mode the campaign ran its attack runs under (None = no
    #: timing model attached).  Shard merges refuse to mix modes: a
    #: cycle column whose rows came from different approximations would
    #: be silently meaningless.
    timing_mode: Optional[str] = None

    @property
    def total(self) -> int:
        return len(self.attacks)

    @property
    def changed(self) -> int:
        return sum(1 for a in self.attacks if a.control_flow_changed)

    @property
    def detected(self) -> int:
        return sum(1 for a in self.attacks if a.detected)

    @property
    def pct_changed(self) -> float:
        """Share of tamperings that changed control flow (Fig. 7, left bar)."""
        return 100.0 * self.changed / self.total if self.total else 0.0

    @property
    def pct_detected(self) -> float:
        """Share of all tamperings detected (Fig. 7, right bar)."""
        return 100.0 * self.detected / self.total if self.total else 0.0

    @property
    def pct_detected_of_changed(self) -> float:
        """Detection rate among control-flow-changing tamperings."""
        return 100.0 * self.detected / self.changed if self.changed else 0.0


@dataclass
class CampaignSummary:
    """All workloads' results plus the paper's headline averages."""

    results: List[WorkloadResult]

    @property
    def avg_pct_changed(self) -> float:
        values = [r.pct_changed for r in self.results]
        return sum(values) / len(values) if values else 0.0

    @property
    def avg_pct_detected(self) -> float:
        values = [r.pct_detected for r in self.results]
        return sum(values) / len(values) if values else 0.0

    @property
    def avg_pct_detected_of_changed(self) -> float:
        if not self.avg_pct_changed:
            return 0.0
        return 100.0 * self.avg_pct_detected / self.avg_pct_changed


@dataclass(frozen=True)
class RunSpec:
    """How every attack of a campaign runs (picklable).

    The fields are :func:`run_attack_detailed`'s per-attack knobs plus
    the ``opt_level`` the workload's tables are compiled at; a campaign
    ships one spec to every shard, so they are spelled out exactly once.
    """

    seed_prefix: str = ""
    step_limit: int = 500_000
    attack_model: str = "input"
    opt_level: int = 0
    forensics: bool = False
    flight_recorder_depth: int = DEFAULT_DEPTH
    timing_mode: Optional[str] = None


@dataclass
class AttackExecution:
    """Every artifact of one attack-recipe execution.

    Campaigns keep only the :class:`AttackOutcome`; session-scoped
    callers (the detection daemon's
    :class:`~repro.service.engine.DetectionSession`) need the live
    objects too — the monitored IPDS, the flight recorder, the typed
    forensics reports — so the daemon can stream alarms and quarantine
    traces without re-running anything.
    """

    outcome: AttackOutcome
    clean: "RunResult"
    attacked: "RunResult"
    ipds: "IPDS"
    flight_recorder: Optional[FlightRecorder] = None
    #: Typed forensics reports (populated when ``forensics`` was on and
    #: the attack was detected; the outcome's ``explanations`` are the
    #: rendered causal chains of exactly these reports).
    reports: List[object] = field(default_factory=list)


def run_attack_detailed(
    program: ProtectedProgram,
    workload: Workload,
    index: int,
    *,
    seed_prefix: str = "",
    step_limit: int = 500_000,
    attack_model: str = "input",
    rng: Optional[random.Random] = None,
    metrics: Optional[MetricsRegistry] = None,
    forensics: bool = False,
    flight_recorder_depth: int = DEFAULT_DEPTH,
    timing_mode: Optional[str] = None,
    extra_observers: Sequence[object] = (),
    alarm_sink=None,
) -> AttackExecution:
    """Run one independent attack (clean + attack runs), returning
    every artifact (see :class:`AttackExecution`).

    ``attack_model`` selects the paper's §3 threat models:

    * ``"input"`` (model 1, the Figure 7 default) — tampering fires
      when a malicious *input* is consumed, and targets what that
      vulnerability class reaches (live stack for overflows, any data
      address for format strings);
    * ``"process"`` (model 2) — a malicious co-resident process snoops
      and tampers the victim's memory at an *arbitrary moment*
      (step-count trigger) and an arbitrary data address.

    ``rng`` defaults to :func:`attack_rng` — an explicit per-attack
    generator, so results never depend on shared RNG state.

    ``metrics`` (optional) accumulates telemetry counters — event and
    step volumes, outcome tallies — without touching the outcome
    itself, so metrics-on and metrics-off campaigns stay bit-identical.

    ``timing_mode`` (optional, ``"exact"`` or ``"segment"``) attaches a
    timing model to the monitored attack run and records its cycle
    count on the outcome.  The timing model is a passive bus consumer:
    detection results are identical with it on or off.

    Two knobs exist for session-scoped callers and never perturb the
    outcome:

    * ``extra_observers`` ride the monitored attack run's bus behind
      the IPDS and any timing model (trace recorders, progress hooks);
    * ``alarm_sink`` is invoked with each alarm as the IPDS raises it —
      the online policy hook.  A sink that raises aborts the attack run
      (the kill-session policy); the exception propagates to the
      caller.
    """
    if attack_model not in ("input", "process"):
        raise ValueError(f"unknown attack model {attack_model!r}")
    if timing_mode not in (None, "exact", "segment"):
        raise ValueError(f"unknown timing mode {timing_mode!r}")
    if rng is None:
        rng = attack_rng(seed_prefix, workload.name, index)
    inputs = workload.make_inputs(rng)

    # 1. Clean monitored run: reference trace + zero-FP assertion.
    clean, clean_ipds = monitored_run(
        program, inputs=inputs, step_limit=step_limit
    )
    if clean_ipds.detected:
        raise CampaignError(
            f"false positive on clean run of {workload.name}: "
            f"{clean_ipds.alarms[0]}"
        )

    # 2. Choose the trigger; the attack run draws its target there.
    if attack_model == "process":
        trigger_kind = "step"
        trigger = rng.randint(1, max(2, clean.steps - 1))
    else:
        trigger_kind = "read"
        max_trigger = max(clean.reads_consumed, workload.min_trigger_read)
        trigger = rng.randint(
            workload.min_trigger_read,
            max(workload.min_trigger_read, max_trigger),
        )
    draw = TargetDraw(
        rng, wide=attack_model == "process" or workload.vuln_kind == "fmt"
    )

    # 3. The attack run (flight-recorded when forensics is on, timed
    # when a timing mode is selected).
    tamper = DeferredTamper(trigger_kind, trigger, draw)
    recorder = FlightRecorder(flight_recorder_depth) if forensics else None
    timing_model = None
    if timing_mode is not None:
        from ..cpu.ipds_hw import IPDSHardwareModel
        from ..cpu.pipeline import TimingModel
        from ..cpu.simulator import TimingObserver

        timing_model = TimingModel(
            ipds=IPDSHardwareModel(program.tables), mode=timing_mode
        )
        observers = (TimingObserver(timing_model), *extra_observers)
    else:
        observers = tuple(extra_observers)
    attack_started = time.perf_counter()
    attacked, ipds = monitored_run(
        program,
        inputs=inputs,
        tamper=tamper,
        step_limit=step_limit,
        flight_recorder=recorder,
        observers=observers,
        alarm_sink=alarm_sink,
    )
    attack_seconds = time.perf_counter() - attack_started
    address, owner, var_name, value = draw.chosen(program.module)
    reports: List[object] = []
    explanations: Tuple[str, ...] = ()
    proof_reasons: Tuple[str, ...] = ()
    if forensics and ipds.detected:
        from ..forensics import explain_ipds

        reports = explain_ipds(ipds)
        explanations = tuple(report.causal_chain() for report in reports)
        proof_reasons = tuple(
            report.provenance.reason
            if report.provenance is not None
            else "unexplained"
            for report in reports
        )

    changed = (
        attacked.branch_trace != clean.branch_trace
        or attacked.status is not clean.status
    )
    if metrics is not None:
        metrics.increment("campaign.attacks")
        metrics.increment("campaign.executions", 2)  # clean + attack
        metrics.increment("interp.steps", clean.steps + attacked.steps)
        metrics.increment(
            "ipds.events", clean_ipds.stats.events + ipds.stats.events
        )
        metrics.increment(
            "ipds.checks", clean_ipds.stats.checks + ipds.stats.checks
        )
        metrics.increment("campaign.tamper_fired", int(attacked.tamper_fired))
        metrics.increment("campaign.control_flow_changed", int(changed))
        metrics.increment("campaign.detected", int(ipds.detected))
        metrics.observe_histogram("attack.wall_seconds", attack_seconds)
        if attack_seconds > 0:
            metrics.observe_histogram(
                "attack.steps_per_sec", attacked.steps / attack_seconds
            )
    outcome = AttackOutcome(
        index=index,
        trigger_read=trigger,
        address=address,
        target_label=f"{owner}.{var_name}",
        value=value,
        fired=attacked.tamper_fired,
        control_flow_changed=changed,
        detected=ipds.detected,
        clean_status=clean.status,
        attack_status=attacked.status,
        explanations=explanations,
        alarms=tuple(str(alarm) for alarm in ipds.alarms),
        cycles=timing_model.stats.cycles if timing_model is not None else None,
        proof_reasons=proof_reasons,
        tamper_site=attacked.tamper_site,
    )
    return AttackExecution(
        outcome=outcome,
        clean=clean,
        attacked=attacked,
        ipds=ipds,
        flight_recorder=recorder,
        reports=reports,
    )
