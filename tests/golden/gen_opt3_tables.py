"""Regenerate the opt-3 (feasible-path) output golden file.

The golden pins, for every workload compiled at ``--opt 3``:

* the sha256 of the §5.4 binary table image (``to_image()``);
* the sha256 of every function's action provenance records
  (``ActionProvenance.to_dict()``, sorted), which covers the
  ``feasible-path`` ``implied`` strings and pruned-edge witnesses;
* per function, the entry-seeded feasible propagation
  (``entry_reachability``) that feeds ``DEAD405`` and the
  detectability prover: its reached block labels and pruned edges.

``tests/test_opt3_golden.py`` recomputes everything and compares, so
any representation change inside :mod:`repro.analysis.feasible` must
leave opt-3 output byte-identical.

Only regenerate when the opt-3 analysis's *semantics* intentionally
change (a new lattice element, a different widening or pruning rule) —
never to cover a mismatch introduced by a performance refactor::

    PYTHONPATH=src python tests/golden/gen_opt3_tables.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.alias import analyze_aliases
from repro.analysis.branch_info import analyze_branches
from repro.analysis.defs import DefinitionMap
from repro.analysis.feasible import entry_reachability, render_edge
from repro.analysis.purity import analyze_purity
from repro.pipeline import compile_program
from repro.workloads import all_workloads

OPT_LEVEL = 3

GOLDEN_PATH = Path(__file__).resolve().parent / "opt3_tables.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def provenance_records(program) -> list:
    """Every function's provenance as canonical JSON lines, sorted."""
    return sorted(
        json.dumps({"function": name, **record.to_dict()}, sort_keys=True)
        for name, tables in program.tables.by_function.items()
        for record in tables.provenance
    )


def reachability(program) -> dict:
    """Per function: the entry-seeded feasible propagation's reached
    labels and pruned conditional edges."""
    module = program.module
    analyze_aliases(module)
    purity = analyze_purity(module)
    per_function = {}
    for fn in module.functions:
        if not fn.blocks:
            continue
        def_map = DefinitionMap(fn, module, purity)
        reached, pruned = entry_reachability(
            fn, def_map, analyze_branches(fn, def_map)
        )
        per_function[fn.name] = {
            "reached": sorted(reached),
            "pruned": sorted(render_edge(label, d) for label, d in pruned),
        }
    return per_function


def workload_entry(source: str, name: str) -> dict:
    program = compile_program(source, name, OPT_LEVEL)
    records = provenance_records(program)
    return {
        "image_sha256": _sha256(program.to_image()),
        "provenance_records": len(records),
        "provenance_sha256": _sha256("\n".join(records).encode()),
        "reachability": reachability(program),
    }


def collect() -> dict:
    return {
        "opt_level": OPT_LEVEL,
        "workloads": {
            workload.name: workload_entry(workload.source, workload.name)
            for workload in all_workloads()
        },
    }


def main() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(collect(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
