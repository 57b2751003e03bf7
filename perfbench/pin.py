"""Recompute the digests in ``pins.json`` from the program as it is.

Run from the root of a checkout after a change that is *meant* to alter
the pinned outputs (the Fig-7 outcome log of each server, the opt-0 and
opt-3 table images, the predict diagnostics of the opt-0 tables)::

    python3 perfbench/pin.py

Every later run of the benchmark then counts a difference from these
digests as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from repro.pipeline import compile_program  # noqa: E402
from repro.staticcheck import PREDICT_PASSES, run_passes  # noqa: E402

import fig7  # noqa: E402
from common import PINS_PATH, Result  # noqa: E402
from layers import diagnostics_digest, image_digest  # noqa: E402


def main() -> int:
    result = Result()
    servers = fig7.setup()
    # The digests do not depend on the order, so any seed will do.
    order = fig7.attack_order(0, fig7.ATTACKS_PER_SERVER, list(servers))
    pins = {"fig7": fig7.digests(fig7.campaign(servers, order, result)[1]), "tables": {}}
    for name, (workload, program) in servers.items():
        pins["tables"][f"{name}/opt0"] = image_digest(program)
        pins["tables"][f"{name}/predict_opt0"] = diagnostics_digest(
            run_passes(program, names=PREDICT_PASSES))
        pins["tables"][f"{name}/opt3"] = image_digest(
            compile_program(workload.source, name, 3))
    if result.failed:
        print("\n".join(result.problems), file=sys.stderr)
        return 1
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
