"""Feasible-path value-range analysis — the ``--opt 3`` layer.

The Figure-5 construction correlates branches pairwise: one inference
access in the source block, one checked load in the target block.  That
misses everything the *paths between them* prove — a constant store on
the way, a clamp that pins a range, a re-check whose one direction the
dominating condition already decided.  This module recovers those facts
with the feasible-path MFP construction (Pathade & Khedker): for every
conditional edge ``E`` it seeds a forward range propagation with the
constraints ``E``'s direction implies, pushes abstract environments
through block bodies, and — the feasible-path part — **drops every
conditional edge whose direction contradicts the propagated ranges**
instead of merging over it.  Each dropped edge is recorded; the sorted
list is the *pruned-edge witness* that rides the resulting action's
provenance and is independently re-proved by the ``FP7xx`` audit pass
(:mod:`repro.staticcheck.feasaudit`).

At the fixpoint, any later branch whose checked load is confined to one
outcome set yields a forced outcome: a new ``SET_T``/``SET_NT`` BAT
action for ``E``, or a proof that an existing action survives its
region's stores (the MFP pushed every store on every feasible path, so
no separate kill is needed — the claim holds at *every* execution of
the target after ``E`` commits, not just the first).

The claim deliberately proves more than the auditor's COR205 obligation
demands: no liveness cuts at overwriting edges, and no interprocedural
call images (calls clobber to top).  The auditor — with cuts and call
summaries, i.e. strictly more precision against a strictly weaker
obligation — therefore re-proves every action emitted here.

Representation: the MFP runs once per conditional edge, hundreds of
times per workload, so its values are flat.  :func:`summarize_blocks`
resolves every :class:`~repro.ir.instructions.Variable` to a dense
per-function int *slot* once — in the transfer steps and in each
block's precompiled edge refinements — so environments are
``Dict[int, FeasRange]`` and no variable is hashed inside the fixpoint.
A :class:`FeasRange` is a plain ``(lo, hi, hole)`` tuple operated on by
the ``range_*`` module functions.

Builder/auditor separation: this is builder-side code.  It reasons from
:mod:`repro.analysis.branch_info` facts (the backward chain walk) and
its own forward block interpretation below; the auditor re-derives
everything from :mod:`repro.staticcheck.facts` (the forward symbolic
walk).  The shared trust base stays the may-write model
(:class:`~repro.analysis.defs.DefinitionMap`), as everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..ir.function import BasicBlock, IRFunction
from ..ir.instructions import (
    BinOp,
    Cmp,
    CondBranch,
    Const,
    Jump,
    Load,
    Reg,
    Store,
    UnOp,
    Variable,
)
from .branch_info import BranchFacts, OutcomeSet
from .defs import DefinitionMap
from .ranges import NEG_INF, POS_INF, Interval

#: Joins into one block before widening kicks in (matches the auditor's
#: MFP so honest witnesses re-prove under the same loop treatment).
WIDEN_AFTER = 8


# ----------------------------------------------------------------------
# The builder's range lattice: an interval minus at most one interior
# point.  Semantically the twin of the auditor's ValueSet
# (:mod:`repro.staticcheck.domain`), implemented independently so the
# two sides share no reasoning code.
# ----------------------------------------------------------------------


class FeasRange(NamedTuple):
    """``[lo, hi] \\ {hole}`` — all operations over-approximate.

    ``lo > hi`` is empty.  An empty range keeps the exact ``(lo, hi)``
    pair the operation that emptied it produced, rather than one
    canonical empty: environment equality decides convergence, so the
    representation must compare exactly as the interval pair always
    has.  Either end may be infinite (``NEG_INF`` / ``POS_INF``).
    """

    lo: float
    hi: float
    hole: Optional[int] = None

    def __str__(self) -> str:
        text = str(Interval(self.lo, self.hi))
        return text if self.hole is None else f"{text}\\{{{self.hole}}}"


TOP = FeasRange(NEG_INF, POS_INF, None)
_EMPTY = FeasRange(1, 0, None)


def _canonical(lo: float, hi: float, hole: Optional[int]) -> FeasRange:
    """Drop holes outside the interval; fold endpoint holes inward."""
    if lo > hi or hole is None or not lo <= hole <= hi:
        return FeasRange(lo, hi, None)
    if lo == hi:
        return _EMPTY
    if hole == lo:
        return FeasRange(lo + 1, hi, None)
    if hole == hi:
        return FeasRange(lo, hi - 1, None)
    return FeasRange(lo, hi, hole)


def range_of_outcome(outcome: OutcomeSet) -> FeasRange:
    """An outcome set as a range: its interval, or ℤ minus its hole."""
    if outcome.interval is not None:
        return FeasRange(outcome.interval.lo, outcome.interval.hi, None)
    return _canonical(NEG_INF, POS_INF, outcome.hole)


def range_contains(r: FeasRange, value: int) -> bool:
    return r[0] <= value <= r[1] and value != r[2]


def range_within(r: FeasRange, outcome: FeasRange) -> bool:
    """Every value of ``r`` lies in ``outcome`` (a
    :func:`range_of_outcome` value) — the forced-outcome test at a
    checked branch."""
    lo, hi, hole = r
    if lo > hi:
        return True
    out_lo, out_hi, out_hole = outcome
    if out_hole is None:  # an interval outcome, never empty
        return out_lo <= lo and hi <= out_hi
    return not lo <= out_hole <= hi or hole == out_hole


def range_intersect(r: FeasRange, outcome: FeasRange) -> FeasRange:
    """Refine ``r`` by an outcome range; keeps ``r``'s hole first."""
    lo, hi, hole = r
    out_lo, out_hi, out_hole = outcome
    hole = hole if hole is not None else out_hole
    return _canonical(max(lo, out_lo), min(hi, out_hi), hole)


def range_join(a: FeasRange, b: FeasRange) -> FeasRange:
    a_lo, a_hi, a_hole = a
    b_lo, b_hi, b_hole = b
    if a_lo > a_hi:
        return b
    if b_lo > b_hi:
        return a
    lo = min(a_lo, b_lo)
    hi = max(a_hi, b_hi)
    for candidate in (a_hole, b_hole):
        if candidate is None:
            continue
        if not range_contains(a, candidate) and not range_contains(b, candidate):
            return _canonical(lo, hi, candidate)
    return FeasRange(lo, hi, None)


def range_widen(old: FeasRange, newer: FeasRange) -> FeasRange:
    """Interval widening (a bound that moved outward jumps to
    infinity); the hole survives only when both sides agree on it."""
    old_lo, old_hi, old_hole = old
    new_lo, new_hi, new_hole = newer
    if old_lo > old_hi:
        lo, hi = new_lo, new_hi
    elif new_lo > new_hi:
        lo, hi = old_lo, old_hi
    else:
        lo = old_lo if new_lo >= old_lo else NEG_INF
        hi = old_hi if new_hi <= old_hi else POS_INF
    return _canonical(lo, hi, old_hole if old_hole == new_hole else None)


def range_affine(r: FeasRange, sign: int, offset: int) -> FeasRange:
    """The range of ``sign·v + offset`` for ``v`` in ``r``; an empty
    interval passes through with its ``(lo, hi)`` unchanged."""
    lo, hi, hole = r
    if lo <= hi:
        if sign == -1:
            lo, hi = -hi, -lo
        lo, hi = lo + offset, hi + offset
    return _canonical(lo, hi, None if hole is None else sign * hole + offset)


#: Abstract environment: variable slot -> range; missing means top.
FeasEnv = Dict[int, FeasRange]


def _env_set(env: FeasEnv, slot: int, value: FeasRange) -> None:
    if value == TOP:
        env.pop(slot, None)
    else:
        env[slot] = value


def _env_join(old: FeasEnv, new: FeasEnv) -> Optional[FeasEnv]:
    """``old ⊔ new``, or ``None`` when that equals ``old``."""
    joined: FeasEnv = {}
    changed = False
    for slot, left in old.items():
        right = new.get(slot)
        if right is None:
            changed = True
            continue
        if left != right:  # equal bindings pass: join(x, x) == x
            value = range_join(left, right)
            if value != left:
                changed = True
                if value == TOP:
                    continue
            left = value
        joined[slot] = left
    return joined if changed else None


def _env_widen(old: FeasEnv, new: FeasEnv) -> FeasEnv:
    widened: FeasEnv = {}
    for slot, left in old.items():
        right = new.get(slot)
        if right is not None:
            _env_set(widened, slot, range_widen(left, right))
    return widened


# ----------------------------------------------------------------------
# Per-block interval-transfer programs
# ----------------------------------------------------------------------

#: Transfer steps, all over variable slots:
#: ``(_LOAD, slot, load_index)`` snapshots the slot for that load;
#: ``(_SET, slot, range)`` stores a constant (a non-top point range);
#: ``(_AFFINE, slot, load_index, sign, offset)`` stores an affine image
#: of a load snapshot; ``(_KILL, slots)`` sends slots to top (unknown
#: stores, calls and indirect stores).  Calls and indirect stores become
#: plain kills — opt 3 deliberately claims *less* per transfer than the
#: auditor can prove, so every claim survives re-proof.
_Step = Tuple
_LOAD, _SET, _AFFINE, _KILL = range(4)

#: One direction's precompiled refinement: the checked load's
#: ``(load_index, outcome range)`` (or None) and the non-trivial
#: ``(slot, implied range)`` inferences, in fact order.
EdgeRefinement = Tuple[
    Optional[Tuple[int, FeasRange]], Tuple[Tuple[int, FeasRange], ...]
]


@dataclass
class BlockProgram:
    """One block reduced to its effect on variable ranges."""

    label: str
    steps: List[_Step]
    branch_pc: Optional[int] = None
    #: Outgoing edges in worklist order — a branch's taken then
    #: fall-through edge, a jump's one edge, none for a return — with
    #: the refinement each applies (``None``: the edge is always
    #: feasible).
    successors: List[Tuple[str, Optional[EdgeRefinement]]] = field(
        default_factory=list
    )
    #: ``(load_index, taken range, not-taken range)`` of the branch's
    #: checked load, for the forced-outcome scan.
    check: Optional[Tuple[int, FeasRange, FeasRange]] = None


def _resolve(env: Dict[Reg, Tuple], operand) -> Optional[Tuple]:
    """A tracked value: ("const", c) or ("affine", load_index, sign, off)."""
    if isinstance(operand, int):
        return ("const", operand)
    return env.get(operand)


def _fold(op: str, lhs: Optional[Tuple], rhs: Optional[Tuple]) -> Optional[Tuple]:
    if lhs is None or rhs is None:
        return None
    if lhs[0] == "const" and rhs[0] == "const":
        a, b = lhs[1], rhs[1]
        try:
            if op == "+":
                return ("const", a + b)
            if op == "-":
                return ("const", a - b)
            if op == "*":
                return ("const", a * b)
            if op == "/":
                return ("const", int(a / b)) if b else None
            if op == "%":
                return ("const", a - int(a / b) * b) if b else None
        except (OverflowError, ValueError):  # pragma: no cover - defensive
            return None
        return None
    if op not in ("+", "-"):
        return None
    if lhs[0] == "affine" and rhs[0] == "const":
        _, index, sign, offset = lhs
        delta = rhs[1] if op == "+" else -rhs[1]
        return ("affine", index, sign, offset + delta)
    if lhs[0] == "const" and rhs[0] == "affine":
        _, index, sign, offset = rhs
        if op == "-":
            sign, offset = -sign, -offset
        return ("affine", index, sign, offset + lhs[1])
    return None


class _Slots:
    """Dense per-function variable numbering — the one place the
    feasible-path analysis hashes a :class:`Variable`."""

    def __init__(self) -> None:
        self._of: Dict[Variable, int] = {}

    def __call__(self, var: Variable) -> int:
        return self._of.setdefault(var, len(self._of))


def summarize_blocks(
    fn: IRFunction,
    def_map: DefinitionMap,
    facts_by_pc: Dict[int, BranchFacts],
) -> Dict[str, BlockProgram]:
    """Reduce every block to a slot-resolved :class:`BlockProgram`,
    with its branch facts precompiled into edge refinements."""
    slot = _Slots()
    facts_of_label = {
        facts.block_label: facts for facts in facts_by_pc.values()
    }
    return {
        block.label: _block_program(
            block, def_map, facts_of_label.get(block.label), slot
        )
        for block in fn.blocks
    }


def _branch_edge(
    program: BlockProgram, taken: bool
) -> Tuple[str, Optional[EdgeRefinement]]:
    """A branch block's ``(target, refinement)`` in one direction."""
    return program.successors[0 if taken else 1]


def _compile_facts(
    program: BlockProgram, facts: Optional[BranchFacts], slot: _Slots
) -> List[Optional[EdgeRefinement]]:
    """The branch's ``[not-taken, taken]`` refinements (``None`` when a
    direction implies nothing); records its check on ``program``."""
    if facts is None:
        return [None, None]
    check = facts.check
    edges: List[Optional[EdgeRefinement]] = []
    for taken in (False, True):
        tested: Optional[Tuple[int, FeasRange]] = None
        if check is not None:
            tested = (
                check.load_index,
                range_of_outcome(check.outcome_set(taken)),
            )
        inferences: List[Tuple[int, FeasRange]] = []
        for inference in facts.inferences:
            implied = inference.implied_set(taken)
            if not implied.is_trivial:
                inferences.append(
                    (slot(inference.var), range_of_outcome(implied))
                )
        feasible_always = tested is None and not inferences
        edges.append(None if feasible_always else (tested, tuple(inferences)))
    if check is not None:
        program.check = (
            check.load_index,
            range_of_outcome(check.taken_set),
            range_of_outcome(check.nottaken_set),
        )
    return edges


def _block_program(
    block: BasicBlock,
    def_map: DefinitionMap,
    facts: Optional[BranchFacts],
    slot: _Slots,
) -> BlockProgram:
    program = BlockProgram(label=block.label, steps=[])
    env: Dict[Reg, Tuple] = {}
    for index, instruction in enumerate(block.instructions):
        if isinstance(instruction, Const):
            env[instruction.dest] = ("const", instruction.value)
        elif isinstance(instruction, BinOp):
            folded = _fold(
                instruction.op,
                _resolve(env, instruction.lhs),
                _resolve(env, instruction.rhs),
            )
            if folded is not None:
                env[instruction.dest] = folded
            else:
                env.pop(instruction.dest, None)
        elif isinstance(instruction, UnOp):
            src = _resolve(env, instruction.src)
            result: Optional[Tuple] = None
            if src is not None and instruction.op == "-":
                if src[0] == "const":
                    result = ("const", -src[1])
                else:
                    _, idx, sign, offset = src
                    result = ("affine", idx, -sign, -offset)
            elif instruction.op == "!" and src is not None and src[0] == "const":
                result = ("const", int(src[1] == 0))
            if result is not None:
                env[instruction.dest] = result
            else:
                env.pop(instruction.dest, None)
        elif isinstance(instruction, Cmp):
            # Materialized comparisons are untracked here (the auditor
            # tracks them; claiming less keeps claims re-provable).
            env.pop(instruction.dest, None)
        elif isinstance(instruction, Load):
            program.steps.append((_LOAD, slot(instruction.var), index))
            env[instruction.dest] = ("affine", index, 1, 0)
        elif isinstance(instruction, Store):
            value = _resolve(env, instruction.src)
            target = slot(instruction.var)
            step: _Step
            if value is None:
                step = (_KILL, (target,))
            elif value[0] == "const":
                step = (_SET, target, FeasRange(value[1], value[1], None))
            else:
                _, idx, sign, offset = value
                step = (_AFFINE, target, idx, sign, offset)
            program.steps.append(step)
            continue  # the store step covers the def site exactly
        elif isinstance(instruction, Jump):
            program.successors.append((instruction.target, None))
        elif isinstance(instruction, CondBranch):
            program.branch_pc = instruction.address
            not_taken, taken = _compile_facts(program, facts, slot)
            program.successors = [
                (instruction.taken, taken),
                (instruction.fallthrough, not_taken),
            ]
        else:
            dest = getattr(instruction, "dest", None)
            if isinstance(dest, Reg):
                env.pop(dest, None)
        sites = def_map.at(block.label, index)
        if sites:
            affected = sorted({s.var for s in sites}, key=lambda v: (v.name, v.uid))
            program.steps.append((_KILL, tuple(slot(var) for var in affected)))
    return program


def _transfer(
    program: BlockProgram, env_in: FeasEnv
) -> Tuple[FeasEnv, Dict[int, FeasRange]]:
    """Exit environment + per-load snapshots (keyed by load index)."""
    snapshots: Dict[int, FeasRange] = {}
    if not program.steps:  # environments are never mutated once built
        return env_in, snapshots
    env: FeasEnv = dict(env_in)
    for step in program.steps:
        kind = step[0]
        if kind == _LOAD:
            snapshots[step[2]] = env.get(step[1], TOP)
        elif kind == _SET:
            env[step[1]] = step[2]
        elif kind == _AFFINE:
            _, slot, idx, sign, offset = step
            _env_set(
                env, slot, range_affine(snapshots.get(idx, TOP), sign, offset)
            )
        else:  # _KILL
            for slot in step[1]:
                env.pop(slot, None)
    return env, snapshots


def _edge_env(
    refinement: Optional[EdgeRefinement],
    env_out: FeasEnv,
    snapshots: Dict[int, FeasRange],
) -> Optional[FeasEnv]:
    """The environment flowing along one conditional edge, refined by
    the direction's implications — ``None`` when the direction is
    infeasible from this abstract state (a pruned edge).  Environments
    are never mutated once built, so an unrefined edge shares
    ``env_out``."""
    if refinement is None:
        return env_out
    check, inferences = refinement
    if check is not None:
        # range_intersect(tested, outcome) is empty — without building it.
        load_index, (out_lo, out_hi, out_hole) = check
        lo, hi, hole = snapshots.get(load_index, TOP)
        if out_lo > lo:
            lo = out_lo
        if out_hi < hi:
            hi = out_hi
        if lo > hi or (
            lo == hi and (hole if hole is not None else out_hole) == lo
        ):
            return None
    if not inferences:
        return env_out
    env = dict(env_out)
    for slot, implied in inferences:
        refined = range_intersect(env.get(slot, TOP), implied)
        if refined[0] > refined[1]:
            return None
        _env_set(env, slot, refined)
    return env


# ----------------------------------------------------------------------
# The per-edge feasible-path MFP
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibleFinding:
    """One forced branch outcome proved from one conditional edge.

    ``forced`` is the direction the target branch must take on every
    feasible path after the source edge commits; ``implied`` renders the
    propagated value set at the checked load; ``witness`` lists the
    conditional edges (``"label:T"`` / ``"label:NT"``) pruned as
    infeasible at the fixpoint — the feasibility facts the ``FP7xx``
    audit re-proves."""

    source_pc: int
    taken: bool
    target_pc: int
    forced: bool
    implied: str
    witness: Tuple[str, ...]


@dataclass
class FeasibleAnalysis:
    """All findings of one function, keyed for the BAT construction."""

    #: (source_pc, direction) -> target_pc -> finding
    findings: Dict[Tuple[int, bool], Dict[int, FeasibleFinding]]

    def for_edge(self, source_pc: int, taken: bool) -> Dict[int, FeasibleFinding]:
        return self.findings.get((source_pc, taken), {})


def render_edge(label: str, taken: bool) -> str:
    """Canonical pruned-edge witness rendering (shared with the audit
    only as a *format*, not as reasoning)."""
    return f"{label}:{'T' if taken else 'NT'}"


class Propagation(NamedTuple):
    """One feasible-path MFP at its fixpoint."""

    #: Block-entry environment of every reached block.
    states: Dict[str, FeasEnv]
    #: Conditional edges infeasible at the fixpoint.
    pruned: Set[Tuple[str, bool]]
    #: Range of the checked load at every reached block with a check.
    tested: Dict[str, FeasRange]


def propagate_from_edge(
    programs: Dict[str, BlockProgram],
    source_label: str,
    taken: bool,
    prune: bool = True,
) -> Optional[Propagation]:
    """Feasible-path MFP seeded at one conditional edge.

    Returns the :class:`Propagation` at the fixpoint, or ``None`` when
    the source direction itself is statically infeasible.
    ``prune=False`` propagates infeasible edges *unrefined* instead of
    dropping them (the plain-MFP comparison the property tests
    exercise)."""
    source = programs[source_label]
    env_out, snapshots = _transfer(source, {})
    start, refinement = _branch_edge(source, taken)
    seed = _edge_env(refinement, env_out, snapshots)
    if seed is None:
        return None
    states: Dict[str, FeasEnv] = {start: seed}
    _iterate_states(programs, states, [start], prune)
    pruned, tested = _fixpoint_scan(programs, states, prune)
    return Propagation(states, pruned, tested)


def _iterate_states(
    programs: Dict[str, BlockProgram],
    states: Dict[str, FeasEnv],
    worklist: List[str],
    prune: bool,
) -> None:
    """Run the forward range worklist to a fixpoint, in place."""
    join_counts: Dict[str, int] = {}
    pop = worklist.pop
    push = worklist.append
    state_of = states.get
    while worklist:
        label = pop()
        program = programs[label]
        if not program.successors:
            continue
        env_out, snapshots = _transfer(program, states[label])
        for next_label, refinement in program.successors:
            env: Optional[FeasEnv] = env_out
            if refinement is not None:
                env = _edge_env(refinement, env_out, snapshots)
                if env is None:
                    if prune:
                        continue
                    env = env_out
            old = state_of(next_label)
            if old is None:
                states[next_label] = env
                push(next_label)
                continue
            joined = _env_join(old, env)
            if joined is None:
                continue
            count = join_counts.get(next_label, 0) + 1
            join_counts[next_label] = count
            if count > WIDEN_AFTER:
                joined = _env_widen(old, joined)
            if joined != old:
                states[next_label] = joined
                push(next_label)


def _fixpoint_scan(
    programs: Dict[str, BlockProgram],
    states: Dict[str, FeasEnv],
    prune: bool,
) -> Tuple[Set[Tuple[str, bool]], Dict[str, FeasRange]]:
    """One transfer per reached branch block: the conditional edges
    infeasible at the fixpoint, and each reached check's tested range.

    Pruned edges are decided at the *fixpoint*: an edge skipped early
    in the iteration may have become feasible once more state joined
    in, and only fixpoint-infeasible edges are honest witnesses.
    """
    pruned: Set[Tuple[str, bool]] = set()
    tested: Dict[str, FeasRange] = {}
    for label, env_in in states.items():
        program = programs[label]
        if program.branch_pc is None:
            continue
        env_out, snapshots = _transfer(program, env_in)
        if prune:
            for direction in (True, False):
                _, refinement = _branch_edge(program, direction)
                if _edge_env(refinement, env_out, snapshots) is None:
                    pruned.add((label, direction))
        if program.check is not None:
            tested[label] = snapshots.get(program.check[0], TOP)
    return pruned, tested


def entry_reachability(
    fn: IRFunction,
    def_map: DefinitionMap,
    facts_by_pc: Dict[int, BranchFacts],
) -> Tuple[Set[str], Set[Tuple[str, bool]]]:
    """Entry-seeded feasible propagation: which blocks any feasible
    execution can reach, and which conditional edges are pruned.

    Same machinery as :func:`propagate_from_edge`, but seeded at the
    function entry with everything unknown — the whole-function view.
    Returns ``(reached block labels, pruned conditional edges)``.
    Consumers: the opt-3 dead-branch lint (``DEAD405`` — blocks only
    reachable along pruned edges) and the detectability prover's
    clean-prefix BSV refinement (the must-state at a tamper point only
    needs to hold over *feasible* clean prefixes).
    """
    programs = summarize_blocks(fn, def_map, facts_by_pc)
    entry = fn.entry.label
    states: Dict[str, FeasEnv] = {entry: {}}
    _iterate_states(programs, states, [entry], prune=True)
    pruned, _ = _fixpoint_scan(programs, states, prune=True)
    return set(states), pruned


def analyze_feasible(
    fn: IRFunction,
    def_map: DefinitionMap,
    facts_by_pc: Dict[int, BranchFacts],
) -> FeasibleAnalysis:
    """Run the feasible-path MFP from every conditional edge."""
    programs = summarize_blocks(fn, def_map, facts_by_pc)
    findings: Dict[Tuple[int, bool], Dict[int, FeasibleFinding]] = {}
    for block in fn.blocks:
        if not block.ends_in_cond_branch():
            continue
        source_pc = block.terminator.address
        for taken in (True, False):
            result = propagate_from_edge(programs, block.label, taken)
            if result is None:
                continue
            witness = tuple(
                sorted(render_edge(label, d) for label, d in result.pruned)
            )
            per_target: Dict[int, FeasibleFinding] = {}
            for label, tested in result.tested.items():
                if tested[0] > tested[1]:
                    continue
                program = programs[label]
                assert program.check is not None
                _, taken_range, nottaken_range = program.check
                if range_within(tested, taken_range):
                    forced = True
                elif range_within(tested, nottaken_range):
                    forced = False
                else:
                    continue
                target_pc = program.branch_pc
                assert target_pc is not None
                per_target[target_pc] = FeasibleFinding(
                    source_pc=source_pc,
                    taken=taken,
                    target_pc=target_pc,
                    forced=forced,
                    implied=str(tested),
                    witness=witness,
                )
            if per_target:
                findings[(source_pc, taken)] = per_target
    return FeasibleAnalysis(findings=findings)
