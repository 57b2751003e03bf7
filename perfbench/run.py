"""Run one benchmark workload and print its result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {fig7,serve} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics, each layer's
share of the traced time, the unattributed share and the tracing
overhead, and writes
a Chrome trace (loadable in Perfetto) under ``perfbench/out/``.  A
human-readable report precedes the last line of standard output, which
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Every workload prints the same metrics (``common.END_TO_END``,
``layers.PER_LAYER``); a run that would print others exits 3 instead.
The program under test is the ``src/`` tree of the same checkout; the
run exits 2 without a result line when it is missing.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOADS = ("fig7", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    # Turn SIGTERM into an exception so every ``finally`` (the serve
    # daemon's shutdown above all) runs before the process exits.
    raise SystemExit(128 + signum)


def report(workload: str, args, result) -> None:
    """The human-readable report, and a JSON copy under ``out/``."""
    from common import OUT_DIR

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in result.metrics.items():
        samples = result.samples.get(name)
        suffix = f"  (n={samples})" if samples else ""
        print(f"  {name:42s} {value:14.4f} {unit}{suffix}")
    for key, value in result.info.items():
        print(f"  [{key}] {json.dumps(value, sort_keys=True)}")
    print(f"  attempted {result.attempted}  failed {result.failed}")
    for problem in result.problems:
        print(f"  FAILED: {problem}")
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if result.spans is not None:
        path = OUT_DIR / f"{stem}.chrome.json"
        count = result.spans.write_chrome_trace(path)
        print(f"  chrome trace: {count} spans -> {path.relative_to(BENCH_DIR.parent)}")
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({**result.line(), "samples": result.samples, "info": result.info,
                   "problems": result.problems}, handle, indent=2, sort_keys=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC_DIR}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    # Every compile is a real one: no disk compile cache, in this
    # process or in the daemon it starts.
    os.environ.pop("REPRO_COMPILE_CACHE", None)
    # The build step: byte-compile once, so imports timed in set-up
    # never include compiling the sources.
    if not compileall.compile_dir(str(SRC_DIR), quiet=1):
        print("perfbench: byte-compiling the sources failed", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC_DIR)]
    module = importlib.import_module(args.workload)
    result = module.run(args.seed, args.seconds, bool(args.trace))
    report(args.workload, args, result)
    from common import END_TO_END
    from layers import PER_LAYER

    expected = PER_LAYER if args.trace else END_TO_END
    if sorted(result.metrics) != sorted(expected):
        missing = sorted(set(expected) - set(result.metrics))
        extra = sorted(set(result.metrics) - set(expected))
        print(f"perfbench: metrics missing {missing}, unexpected {extra}", file=sys.stderr)
        return 3
    print(json.dumps(result.line()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
