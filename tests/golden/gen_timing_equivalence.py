"""Regenerate the timing-equivalence golden file.

The goldens pin, for every workload at opt 0/1/2:

* exact-model cycle counts (baseline and IPDS-attached) plus the
  Figure-9 normalized-performance inputs from one deterministic
  execution, and
* the full outcome of two deterministic attacks — including the IPDS
  alarm strings — run through the standard campaign recipe.

They were captured from the pre-batching per-instruction delivery path
and must stay byte-identical under the batched event path, the
ring-buffer RUU/LSQ rewrite, and any future timing-stack optimisation:
``tests/test_timing_equivalence.py`` recomputes everything and compares.

Only regenerate when the timing model's *semantics* intentionally
change (a parameter change, a new Table 1 configuration) — never to
paper over a mismatch introduced by a performance refactor::

    PYTHONPATH=src python tests/golden/gen_timing_equivalence.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.attacks.campaign import run_attack_detailed
from repro.cpu.simulator import normalized_performance
from repro.pipeline import compile_program
from repro.workloads import all_workloads

#: Input-session scale for the timing execution (small: the goldens run
#: inside the test suite; equivalence is exact at any scale).
SCALE = 6
#: Attacks pinned per (workload, opt) cell.
ATTACKS = 3
#: Seed namespace; distinct from campaign/bench seeds on purpose.
SEED_PREFIX = "golden:"
OPT_LEVELS = (0, 1, 2)

GOLDEN_PATH = Path(__file__).resolve().parent / "timing_equivalence.json"


def timing_inputs(workload) -> list:
    return workload.make_inputs(
        random.Random(f"{SEED_PREFIX}{workload.name}"), SCALE
    )


def collect() -> dict:
    data: dict = {
        "scale": SCALE,
        "attacks": ATTACKS,
        "seed_prefix": SEED_PREFIX,
        "workloads": {},
    }
    for workload in all_workloads():
        per_opt = {}
        for opt in OPT_LEVELS:
            program = compile_program(workload.source, workload.name, opt)
            comparison = normalized_performance(
                program, timing_inputs(workload), workload.name
            )
            outcomes = []
            for index in range(ATTACKS):
                outcome = run_attack_detailed(
                    program, workload, index, seed_prefix=SEED_PREFIX
                ).outcome
                outcomes.append(
                    {
                        "index": outcome.index,
                        "trigger_read": outcome.trigger_read,
                        "address": outcome.address,
                        "target_label": outcome.target_label,
                        "value": outcome.value,
                        "fired": outcome.fired,
                        "control_flow_changed": outcome.control_flow_changed,
                        "detected": outcome.detected,
                        "clean_status": outcome.clean_status.value,
                        "attack_status": outcome.attack_status.value,
                        "alarms": list(outcome.alarms),
                    }
                )
            per_opt[f"opt{opt}"] = {
                "timing": {
                    "baseline_cycles": comparison.baseline_cycles,
                    "ipds_cycles": comparison.ipds_cycles,
                    "instructions": comparison.instructions,
                    # repr() keeps the float exact through JSON.
                    "avg_check_latency": repr(comparison.avg_check_latency),
                    "commit_stalls": comparison.commit_stalls,
                    "normalized_performance": repr(
                        comparison.normalized_performance
                    ),
                },
                "attacks": outcomes,
            }
        data["workloads"][workload.name] = per_opt
    return data


def main() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(collect(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
