"""Opt-3 output is byte-identical to the pinned golden.

``tests/golden/opt3_tables.json`` pins, per workload, the opt-3 table
image digest, the digest of every action provenance record (including
the ``feasible-path`` ``implied`` strings and pruned-edge witnesses),
and each function's entry-seeded feasible reachability.  A change to
the representation of :mod:`repro.analysis.feasible` must reproduce
all of it exactly; see ``tests/golden/gen_opt3_tables.py`` before
regenerating.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.workloads import all_workloads, get_workload, workload_names

_GENERATOR = Path(__file__).resolve().parent / "golden" / "gen_opt3_tables.py"
_spec = importlib.util.spec_from_file_location("gen_opt3_tables", _GENERATOR)
gen_opt3_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_opt3_tables)

GOLDEN = json.loads(gen_opt3_tables.GOLDEN_PATH.read_text())


def test_golden_covers_every_workload():
    assert GOLDEN["opt_level"] == 3
    assert set(GOLDEN["workloads"]) == {w.name for w in all_workloads()}


@pytest.mark.parametrize("name", workload_names())
def test_opt3_tables_match_golden(name):
    workload = get_workload(name)
    recomputed = gen_opt3_tables.workload_entry(workload.source, workload.name)
    assert recomputed == GOLDEN["workloads"][name]
