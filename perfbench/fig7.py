"""The ``fig7`` workload: the paper's Figure-7 attack campaign.

Every server x ``ATTACKS_PER_SERVER`` attack indices through
``attacks.campaign.run_attack_detailed`` on opt-0 tables, with no
timing model and no forensics: the campaign that
``repro campaign all`` runs by default (seed prefix ``""``).  The seed
shuffles the order of the 1000 attacks.  It does not pick the seed
prefix, because a prefix's 1000 attacks hold zero to three that run to
the 500k-step limit, each costing as much as ~130 others, so attacks/s
would follow the prefix rather than the program.  Almost all of the
time is in ``interp`` and ``runtime.ipds`` (three executions per
attack); ``analysis`` and ``correlation`` do no work once the tables
are built in set-up.

A measured run splits the attacks into ``SLICE``-attack slices and
runs each in a fresh interpreter, one after another, as pyperf does:
a process's speed can depend on its hash seed and memory layout, so
the run averages over several processes instead of one draw.  Each
worker's set-up (start to the ten opt-0 tables compiled) is one set-up
sample.  The traced run also re-proves the opt-0 tables with the audit
passes and predicts their detectability (the provers' only workload).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.attacks.campaign import attack_rng, run_attack_detailed
from repro.observability.metrics import MetricsRegistry
from repro.pipeline import ProtectedProgram, compile_program
from repro.workloads.registry import Workload, all_workloads

from common import (
    BENCH_DIR,
    ROOT,
    SRC_DIR,
    Result,
    Spans,
    cpu_clock,
    load_pins,
    median,
    peak_rss_mib,
    put_ops,
    sha256_json,
    subprocess_env,
)
from layers import compile_set, probe_runs, prove, put_compile, put_runs, put_summary

ATTACKS_PER_SERVER = 100
#: Attacks each worker process measures (a pass is two slices).
SLICE = 500
#: Attacks a worker runs untimed before its slice.
WARM_UP = 20
#: Seconds a worker may take before it is killed and its slice failed.
WORKER_TIMEOUT = 120.0
#: The seed prefix of ``repro campaign`` and of the Figure-7 report.
SEED_PREFIX = ""
Servers = Dict[str, Tuple[Workload, ProtectedProgram]]
Records = Dict[str, Dict[int, object]]


def setup() -> Servers:
    """Everything before the first attack: the ten opt-0 compiles."""
    return {w.name: (w, compile_program(w.source, w.name, 0)) for w in all_workloads()}


def attack_order(seed: int, attacks: int, names: Sequence[str]) -> List[Tuple[str, int]]:
    """The campaign's (server, attack index) pairs in the seed's order."""
    order = [(name, index) for name in names for index in range(attacks)]
    random.Random(seed).shuffle(order)
    return order


def campaign(
    servers: Servers,
    order: List[Tuple[str, int]],
    result: Result,
    metrics: Optional[MetricsRegistry] = None,
    spans: Optional[Spans] = None,
    counts: Optional[Counter] = None,
) -> Tuple[List[float], Records, List[object], List[float]]:
    """One campaign pass over ``order``: per-attack CPU times, each
    server's outcome records by attack index, the outcomes, and
    (traced) the untraced times of the same attacks.

    Every attack is checked: the clean run must raise no alarm (the
    campaign's own zero-false-positive raise) and detected => changed
    => fired must hold.  With ``spans`` (and ``counts``) each attack
    runs untraced, then traced, then as a bare and a monitored probe
    run on the same inputs, so the traced/untraced pairs share the
    machine's state.
    """
    latencies: List[float] = []
    untraced: List[float] = []
    records: Records = {name: {} for name in servers}
    outcomes: List[object] = []
    for name, index in order:
        workload, program = servers[name]
        attack = partial(run_attack_detailed, program, workload, index, seed_prefix=SEED_PREFIX)
        try:
            if spans is not None:
                # The untraced twin: a span of its own layer, so it is
                # neither a layer's time nor the benchmark's.
                with spans.span("attacks.run_attack_detailed.untraced", "untraced"):
                    started = cpu_clock()
                    attack()
                    untraced.append(cpu_clock() - started)
            traced = (nullcontext() if spans is None else
                      spans.span("attacks.run_attack_detailed", "attacks",
                                 server=name, index=index))
            started = cpu_clock()
            with traced:
                execution = attack(metrics=metrics)
            latencies.append(cpu_clock() - started)
        except Exception as error:  # a false positive or a crash: one failed attack
            result.check(False, f"{name}#{index}: {type(error).__name__}: {error}")
            records[name][index] = None
            continue
        outcome = execution.outcome
        result.check(
            (not outcome.detected or outcome.control_flow_changed)
            and (not outcome.control_flow_changed or outcome.fired),
            f"{name}#{index}: detected => changed => fired does not hold",
        )
        records[name][index] = outcome.to_record(name)
        outcomes.append(outcome)
        if spans is not None:
            inputs = workload.make_inputs(attack_rng(SEED_PREFIX, name, index))
            result.check(probe_runs(spans, program, inputs, counts),
                         f"{name}#{index}: the monitored probe run raised an alarm")
    return latencies, records, outcomes, untraced


def digests(records: Records) -> Dict[str, str]:
    """The sha256 of each server's outcome records in index order."""
    return {name: sha256_json([by_index[i] for i in sorted(by_index)])
            for name, by_index in records.items()}


def check_digests(result: Result, found: Dict[str, str],
                  expected: Optional[Dict[str, str]], what: str) -> None:
    """Each server's outcome-log comparison is one checked operation."""
    if expected is None:
        return
    for name, digest in found.items():
        result.check(expected.get(name) == digest,
                     f"{name}: outcome digest differs from {what}")


def worker() -> None:
    """A worker process: read a slice of the order from standard input,
    set up, warm up, measure the slice and print what it measured as
    one JSON line."""
    order = [tuple(pair) for pair in json.load(sys.stdin)]
    servers = setup()
    setup_s = cpu_clock()
    result = Result()
    campaign(servers, order[:WARM_UP], result)
    latencies, records, _, _ = campaign(servers, order, result)
    print(json.dumps({
        "setup_s": setup_s, "latencies": latencies, "peak_rss_mb": peak_rss_mib(),
        "records": [[name, index, record] for name, by_index in records.items()
                    for index, record in by_index.items()],
        "attempted": result.attempted, "failed": result.failed, "problems": result.problems,
    }))


def run_worker(result: Result, order: List[Tuple[str, int]], measured: Dict[str, list],
               records: Records) -> None:
    """Measure ``order`` in a fresh worker process and fold what it
    measured into ``result``, ``measured`` and ``records``.  A worker
    that fails fails every attack of its slice."""
    code = ("import sys; sys.path[:0] = [{bench!r}, {src!r}]; import fig7; fig7.worker()"
            .format(bench=str(BENCH_DIR), src=str(SRC_DIR)))
    child = subprocess.Popen([sys.executable, "-c", code], cwd=str(ROOT), env=subprocess_env(),
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    try:
        out, err = child.communicate(json.dumps(order), timeout=WORKER_TIMEOUT)
        report = json.loads(out.splitlines()[-1]) if child.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError, IndexError) as error:
        report, err = None, f"{type(error).__name__}: {error}"
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    if report is None:
        for name, index in order:
            result.check(False, f"{name}#{index}: worker failed: {err.strip()[-300:]}")
        return
    result.attempted += report["attempted"]
    result.failed += report["failed"]
    result.problems += report["problems"][:20 - len(result.problems)]
    for key in ("setup_s", "peak_rss_mb"):
        measured[key].append(report[key])
    measured["latencies"] += report["latencies"]
    for name, index, record in report["records"]:
        records.setdefault(name, {})[index] = record


def run(seed: int, seconds: float, trace: bool,
        attacks: int = ATTACKS_PER_SERVER,
        pins: Optional[Dict[str, Optional[Dict[str, str]]]] = None,
        names: Optional[Sequence[str]] = None) -> Result:
    """Measure ``SLICE``-attack slices of the seed's order, cycling
    through it, each in a fresh worker process, until one whole pass is
    done (its outcome logs checked) and ``seconds`` of CPU time have
    passed.  The traced run makes one traced pass in this process.
    ``pins`` replaces ``pins.json``, whose outcome digests hold for the
    full-size campaign only; ``names`` restricts the servers (tests)."""
    result = Result()
    names = list(names or [w.name for w in all_workloads()])
    order = attack_order(seed, attacks, names)
    if pins is None:
        pins = load_pins()
        if attacks != ATTACKS_PER_SERVER:
            pins = dict(pins, fig7=None)
    if trace:
        servers = {name: entry for name, entry in setup().items() if name in names}
        return traced(result, servers, order, pins["fig7"], pins["tables"])

    measured: Dict[str, list] = {"setup_s": [], "peak_rss_mb": [], "latencies": []}
    records: Records = {}
    done = 0
    while done < len(order) or sum(measured["latencies"]) < seconds:
        piece = [order[(done + k) % len(order)] for k in range(min(SLICE, len(order)))]
        run_worker(result, piece, measured, records if done < len(order) else {})
        done += len(piece)
        if done >= len(order) and not measured["latencies"]:
            break
    check_digests(result, digests(records), pins["fig7"], "the pinned digest")
    result.info["attacks_measured"] = len(measured["latencies"])
    if measured["setup_s"]:
        result.put("setup_s", median(measured["setup_s"]), "s", len(measured["setup_s"]))
    put_ops(result, measured["latencies"])
    if measured["peak_rss_mb"]:
        result.put("peak_rss_mb", max(measured["peak_rss_mb"]), "MiB")
    return result


def traced(result: Result, servers: Servers, order: List[Tuple[str, int]],
           expected: Optional[Dict[str, str]], tables: Dict[str, str]) -> Result:
    """The per-layer run: the set-up's opt-0 set compile stage by stage,
    one traced campaign pass with its probe runs, then the provers over
    the staged tables."""
    registry = MetricsRegistry()
    spans = Spans()
    counts: Counter = Counter()
    programs = compile_set(result, spans, [w for w, _ in servers.values()], 0, tables, counts)
    with spans.span("fig7.campaign", "bench"):
        lat, records, outcomes, untraced = campaign(servers, order, result, registry,
                                                    spans, counts)
    check_digests(result, digests(records), expected, "the pinned digest")
    prove(result, spans, programs, tables, counts)
    put_compile(result, spans, sets=1, table_opt=0)
    put_runs(result, spans, counts)
    counts["attacks.executions_per_attack"] = (registry.value("campaign.executions")
                                               / max(len(lat), 1))
    counts["attacks.fired"] = sum(o.fired for o in outcomes)
    counts["attacks.changed"] = sum(o.control_flow_changed for o in outcomes)
    counts["attacks.detected"] = sum(o.detected for o in outcomes)
    overhead = 0.0
    if untraced:
        result.info["untraced"] = {"ops_per_s": len(untraced) / sum(untraced),
                                   "op_p50_ms": median(untraced) * 1e3}
        result.info["traced"] = {"ops_per_s": len(lat) / sum(lat),
                                 "op_p50_ms": median(lat) * 1e3}
        overhead = 100.0 * (sum(lat) / sum(untraced) - 1.0)
    put_summary(result, spans, counts, overhead)
    return result
