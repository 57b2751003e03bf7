"""Range MFP solver over block summaries.

A small worklist engine (:func:`propagate`) shared by the correlation
auditor (seeded at one firing edge, with propagation cut at
overwriting edges), the dead-branch detector (seeded at the function
entry, no cuts) and the feasible-path auditor's witness-restricted
MFP (:mod:`repro.staticcheck.feasaudit`).  States
are abstract environments (variable -> :class:`ValueSet`); conditional
edges are refined by everything the branch direction implies and
dropped entirely when the direction contradicts the abstract state.
Widening after a bounded number of joins guarantees termination on
loops that keep growing a value.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .domain import Env, env_join, env_widen
from .facts import BlockSummary, edge_environment, transfer_block

#: Joins into one block before widening kicks in.
WIDEN_AFTER = 8

#: Hook deciding whether propagation stops at a conditional edge
#: (summary, direction) — the auditor cuts where the prediction is
#: overwritten.
CutHook = Callable[[BlockSummary, bool], bool]

#: Successor edges of one block from its entry state: (target, state).
EdgeFn = Callable[[BlockSummary, Env], List[Tuple[str, Env]]]


def solve_range_mfp(
    summaries: Dict[str, BlockSummary],
    seeds: Dict[str, Env],
    should_cut: Optional[CutHook] = None,
    transfers=None,
) -> Dict[str, Env]:
    """Propagate seed environments to a fixpoint; returns the state at
    each reached block's entry (unreached blocks are absent).

    ``transfers`` is forwarded to :func:`transfer_block`: with it, call
    steps apply interprocedural summary images instead of clobbering to
    top."""

    def out_edges(summary: BlockSummary, env: Env) -> List[Tuple[str, Env]]:
        env_out, snapshots = transfer_block(summary, env, transfers)
        if summary.jump_target is not None:
            return [(summary.jump_target, env_out)]
        edges: List[Tuple[str, Env]] = []
        for direction in (True, False):
            edge_env = edge_environment(summary, env_out, snapshots, direction)
            if edge_env is None:
                continue  # direction impossible from this abstract state
            if should_cut is not None and should_cut(summary, direction):
                continue
            edges.append((edge_target(summary, direction), edge_env))
        return edges

    return propagate(summaries, seeds, out_edges)


def edge_target(summary: BlockSummary, direction: bool) -> str:
    """The block a conditional edge of ``summary`` leads to."""
    target = summary.taken_target if direction else summary.fallthrough_target
    assert target is not None, summary.label
    return target


def propagate(
    summaries: Dict[str, BlockSummary],
    start: Dict[str, Env],
    out_edges: EdgeFn,
) -> Dict[str, Env]:
    """The worklist/join/widen engine behind every range MFP here.

    ``start`` holds the initial states — the seeds, or an earlier
    fixpoint to extend — and every block in it is queued.  States only
    ever grow, so the result covers ``start`` pointwise."""
    states: Dict[str, Env] = dict(start)
    join_counts: Dict[str, int] = {}
    worklist: List[str] = list(states)
    while worklist:
        label = worklist.pop()
        summary = summaries[label]
        if summary.is_return:
            continue
        for next_label, env in out_edges(summary, states[label]):
            if next_label not in states:
                states[next_label] = env
                worklist.append(next_label)
                continue
            joined = env_join(states[next_label], env)
            if joined == states[next_label]:
                continue
            count = join_counts.get(next_label, 0) + 1
            join_counts[next_label] = count
            if count > WIDEN_AFTER:
                joined = env_widen(states[next_label], joined)
            if joined != states[next_label]:
                states[next_label] = joined
                worklist.append(next_label)
    return states
