"""Dynamic validation of the static branch analysis.

Two properties tie the compiler's claims to real executions of random
programs:

1. **Check soundness** — for every executed conditional branch with a
   check predicate, the actual direction equals the predicate applied
   to the value its terminal load produced (the affine-chain solving is
   exact).
2. **Inference soundness** — immediately after a branch commits, the
   memory value of each inference variable lies inside the interval the
   taken direction implies (the clean-gap rule really does guarantee
   the register still mirrors memory).

Together these are the dynamic counterpart of the zero-FP theorem: any
bug in chain solving, outcome sets, or gap checking shows up here.
"""

from hypothesis import HealthCheck, given, settings

from repro.analysis import (
    analyze_aliases,
    analyze_branches,
    analyze_definitions,
    analyze_purity,
)
from repro.interp import Interpreter
from repro.ir import CondBranch, Load, lower_program, verify_module
from repro.lang import parse_program
from repro.runtime import BranchEvent

from .test_zero_false_positives import INPUT_STREAMS, programs


def collect_facts(module):
    analyze_aliases(module)
    purity = analyze_purity(module)
    facts = {}
    for fn in module.functions:
        def_map, _ = analyze_definitions(fn, module, purity)
        for pc, branch_facts in analyze_branches(fn, def_map).items():
            facts[pc] = branch_facts
            if branch_facts.check is not None:
                block = fn.block(branch_facts.block_label)
                load = block.instructions[branch_facts.check.load_index]
                assert isinstance(load, Load)
                facts[pc] = (branch_facts, load)
            else:
                facts[pc] = (branch_facts, None)
    return facts


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs(), inputs=INPUT_STREAMS)
def test_check_predicates_match_execution(source, inputs):
    module = lower_program(parse_program(source))
    verify_module(module)
    facts = collect_facts(module)

    last_load_value = {}
    violations = []

    interpreter = Interpreter(module, inputs=inputs, step_limit=20_000)

    original_step = interpreter._step

    def instrumented(activation, instruction):
        if isinstance(instruction, Load):
            result = original_step(activation, instruction)
            last_load_value[id(instruction)] = activation.regs[
                instruction.dest.index
            ]
            return result
        if isinstance(instruction, CondBranch):
            entry = facts.get(instruction.address)
            if entry is not None:
                branch_facts, load = entry
                if load is not None and id(load) in last_load_value:
                    value = last_load_value[id(load)]
                    predicted = branch_facts.check.outcome_for_value(value)
                    lhs = activation.regs[instruction.lhs.index]
                    rhs = (
                        instruction.rhs
                        if isinstance(instruction.rhs, int)
                        else activation.regs[instruction.rhs.index]
                    )
                    actual = instruction.op.evaluate(lhs, rhs)
                    if predicted != actual:
                        violations.append(
                            (instruction.address, value, predicted, actual)
                        )
            return original_step(activation, instruction)
        return original_step(activation, instruction)

    interpreter._step = instrumented
    interpreter.run()
    assert not violations, (source, violations)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs(), inputs=INPUT_STREAMS)
def test_inference_ranges_hold_at_commit(source, inputs):
    module = lower_program(parse_program(source))
    verify_module(module)
    facts = collect_facts(module)
    violations = []

    def on_event(event):
        if not isinstance(event, BranchEvent):
            return
        entry = facts.get(event.pc)
        if entry is None:
            return
        branch_facts, _ = entry
        frame_base = (
            interpreter._stack[-1].frame_base if interpreter._stack else None
        )
        for inference in branch_facts.inferences:
            implied = inference.implied_set(event.taken)
            try:
                address = interpreter.memory.address_of(
                    inference.var, frame_base
                )
            except KeyError:
                continue
            value = interpreter.memory.read(address)
            if not implied.contains_value(value):
                violations.append(
                    (event.pc, inference.var.name, value, str(implied))
                )

    interpreter = Interpreter(
        module, inputs=inputs, step_limit=20_000, event_listeners=[on_event]
    )
    interpreter.run()
    assert not violations, (source, violations)
