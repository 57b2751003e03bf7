"""Differential test: the two-run attack recipe against the three-run one.

``run_attack_detailed`` runs a clean execution and an attack execution
whose tamper draws its target at the trigger moment.  The recipe it
replaced ran a separate probe execution to the trigger first, recorded
the live attack surface there, drew the target, and only then ran the
attack.  That recipe is kept below as the oracle — probe included,
rebuilt on the interpreter's ``_read_input``/``_step`` hooks — and
every :class:`AttackOutcome` field must agree between the two: the RNG
stream, the candidate list, the trigger moment and the fallback to the
globals when the trigger never fires.
"""

import dataclasses

import pytest

from repro.attacks.campaign import (
    TAMPER_VALUES,
    AttackOutcome,
    attack_rng,
    run_attack_detailed,
)
from repro.interp import DeferredTamper, Interpreter, TamperSpec
from repro.pipeline import compile_program, compile_program_cached, monitored_run
from repro.runtime.flight_recorder import DEFAULT_DEPTH, FlightRecorder
from repro.workloads import Workload, all_workloads

WORKLOADS = list(all_workloads())


class _ProbeInterpreter(Interpreter):
    """An untampered run that records the live stack words at the
    trigger moment: the same ``>=`` check, after the same read or step,
    as a tamper with that trigger."""

    def __init__(self, module, probe, **kwargs):
        super().__init__(module, **kwargs)
        self._probe_kind, self._probe_at = probe
        self._probe_steps = 0
        self.probe_slots = []
        self._probe_fired = False

    def _check_probe(self, kind, count):
        if (
            not self._probe_fired
            and kind == self._probe_kind
            and count >= self._probe_at
        ):
            self.probe_slots = self.memory.live_stack_slots(
                self.live_activations()
            )
            self._probe_fired = True

    def _read_input(self):
        value = super()._read_input()
        self._check_probe("read", self._input_cursor)
        return value

    def _step(self, activation, instruction):
        touched = super()._step(activation, instruction)
        self._probe_steps += 1
        self._check_probe("step", self._probe_steps)
        return touched


def three_run_recipe(
    program,
    workload,
    index,
    *,
    seed_prefix="",
    step_limit=500_000,
    attack_model="input",
    forensics=False,
    flight_recorder_depth=DEFAULT_DEPTH,
    timing_mode=None,
):
    """The clean + probe + attack recipe, as the campaign ran it."""
    rng = attack_rng(seed_prefix, workload.name, index)
    inputs = workload.make_inputs(rng)
    clean, clean_ipds = monitored_run(
        program, inputs=inputs, step_limit=step_limit
    )
    assert not clean_ipds.detected
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
    probe = _ProbeInterpreter(
        program.module,
        (trigger_kind, trigger),
        inputs=inputs,
        step_limit=step_limit,
    )
    probe.run()
    candidates = list(probe.probe_slots)
    if attack_model == "process" or workload.vuln_kind == "fmt":
        candidates.extend(probe.memory.global_slots())
    if not candidates:
        candidates = probe.memory.global_slots()
    address, owner, var_name = rng.choice(candidates)
    value = rng.choice(TAMPER_VALUES)

    tamper = TamperSpec(trigger_kind, trigger, address, value)
    recorder = FlightRecorder(flight_recorder_depth) if forensics else None
    timing_model = None
    observers = ()
    if timing_mode is not None:
        from repro.cpu.ipds_hw import IPDSHardwareModel
        from repro.cpu.pipeline import TimingModel
        from repro.cpu.simulator import TimingObserver

        timing_model = TimingModel(
            ipds=IPDSHardwareModel(program.tables), mode=timing_mode
        )
        observers = (TimingObserver(timing_model),)
    attacked, ipds = monitored_run(
        program,
        inputs=inputs,
        tamper=tamper,
        step_limit=step_limit,
        flight_recorder=recorder,
        observers=observers,
    )
    explanations = proof_reasons = ()
    if forensics and ipds.detected:
        from repro.forensics import explain_ipds

        reports = explain_ipds(ipds)
        explanations = tuple(report.causal_chain() for report in reports)
        proof_reasons = tuple(
            report.provenance.reason
            if report.provenance is not None
            else "unexplained"
            for report in reports
        )
    return AttackOutcome(
        index=index,
        trigger_read=trigger,
        address=address,
        target_label=f"{owner}.{var_name}",
        value=value,
        fired=attacked.tamper_fired,
        control_flow_changed=(
            attacked.branch_trace != clean.branch_trace
            or attacked.status is not clean.status
        ),
        detected=ipds.detected,
        clean_status=clean.status,
        attack_status=attacked.status,
        explanations=explanations,
        alarms=tuple(str(alarm) for alarm in ipds.alarms),
        cycles=timing_model.stats.cycles if timing_model is not None else None,
        proof_reasons=proof_reasons,
        tamper_site=attacked.tamper_site,
    )


def assert_same_outcome(program, workload, index, **options):
    expected = three_run_recipe(program, workload, index, **options)
    found = run_attack_detailed(program, workload, index, **options).outcome
    for field in dataclasses.fields(AttackOutcome):
        assert getattr(found, field.name) == getattr(expected, field.name), (
            workload.name,
            index,
            options,
            field.name,
        )
    return found


@pytest.mark.parametrize("model", ["input", "process"])
@pytest.mark.parametrize("opt", [0, 3])
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_two_runs_match_three_runs(workload, opt, model):
    program = compile_program_cached(workload.source, workload.name, opt)
    for index in range(4):
        assert_same_outcome(program, workload, index, attack_model=model)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_forensics_and_exact_timing_match(workload):
    program = compile_program_cached(workload.source, workload.name, 0)
    for index, model in ((0, "input"), (1, "input"), (2, "process")):
        outcome = assert_same_outcome(
            program,
            workload,
            index,
            attack_model=model,
            forensics=True,
            timing_mode="exact",
        )
        assert outcome.cycles is not None


def _tiny_workload(name, source, inputs, min_trigger_read=2):
    return Workload(
        name=name,
        vuln_kind="bof",
        source=source,
        make_inputs=lambda rng: list(inputs),
        description="recipe edge-case fixture",
        min_trigger_read=min_trigger_read,
    )


def test_read_trigger_past_the_last_read_never_fires():
    workload = _tiny_workload(
        "one-read",
        """
        int g;
        int h[2];
        void main() {
          int x = read_int();
          if (x == 1) { emit(1); }
        }
        """,
        inputs=[1],
        min_trigger_read=3,
    )
    program = compile_program(workload.source, workload.name)
    for index in range(6):
        outcome = assert_same_outcome(program, workload, index)
        assert not outcome.fired
        assert outcome.trigger_read == 3
        assert outcome.target_label.startswith("<global>.")


def test_empty_stack_at_the_trigger_falls_back_to_globals():
    # ``main`` has no frame words, so a stack-only (``bof``) attack
    # firing there must draw from the globals instead.
    workload = _tiny_workload(
        "no-locals",
        """
        int g;
        int h[3];
        void main() {
          g = read_int();
          if (g == 1) { emit(1); } else { emit(2); }
        }
        """,
        inputs=[1],
        min_trigger_read=1,
    )
    program = compile_program(workload.source, workload.name)
    outcomes = [
        assert_same_outcome(program, workload, index) for index in range(8)
    ]
    assert all(outcome.fired for outcome in outcomes)
    assert len({outcome.address for outcome in outcomes}) > 1
    assert all(o.target_label.startswith("<global>.") for o in outcomes)


def test_step_trigger_past_the_end_of_the_run_never_fires():
    # ``main`` runs one step, so the process model's trigger is drawn
    # from [1, 2]: 1 fires after the final return, 2 never fires.
    workload = _tiny_workload("one-step", "int g; void main() { }", [])
    program = compile_program(workload.source, workload.name)
    outcomes = [
        assert_same_outcome(program, workload, index, attack_model="process")
        for index in range(12)
    ]
    assert {o.trigger_read for o in outcomes} == {1, 2}
    for outcome in outcomes:
        assert outcome.fired == (outcome.trigger_read == 1)
        assert outcome.target_label == "<global>.g"


def test_deferred_tamper_past_the_end_never_calls_its_chooser():
    program = compile_program("int g; void main() { emit(g); }")
    calls = []

    def choose(interpreter):
        calls.append(interpreter)
        return 0, 0

    for tamper in (
        DeferredTamper("step", 10_000, choose),
        DeferredTamper("read", 1, choose),
    ):
        result = Interpreter(program.module, tamper=tamper).run()
        assert not result.tamper_fired
        assert result.tamper_site is None
    assert calls == []
