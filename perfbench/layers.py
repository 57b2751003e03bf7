"""The per-layer metrics every traced run reports, and the traced
probes the workloads share.

Every workload's traced run prints the same per-layer metrics
(:data:`PER_LAYER`).  Three groups of them are measured by every
workload, because every workload does that work:

* the compile stages, through :func:`compile_set`: each traced run
  compiles its own table set stage by stage (``fig7`` at opt 0,
  ``serve`` at opt 3) and requires each image to equal
  ``compile_program``'s pinned image;
* the interpreter and the monitor, through :func:`probe_runs`: a bare
  and a monitored run on the inputs of every attack the run makes;
* each spanned layer's share of the traced time (``self.<layer>_pct``).

The rest are counts and shares of work only one workload does: the
provers (:func:`prove`, over ``fig7``'s tables) and the sessions, timing
and forensics of ``serve``.  The other workload reports them as 0
because none of that work happened: the counts come from a
:class:`collections.Counter` of what ran and the shares from the spans
that were recorded.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, Optional, Sequence

from repro.analysis.alias import analyze_aliases
from repro.analysis.purity import analyze_purity
from repro.correlation.bat_builder import build_program_tables
from repro.ir.builder import lower_program
from repro.lang.parser import parse_program
from repro.opt import optimize_module
from repro.pipeline import ProtectedProgram, monitored_run, unmonitored_run
from repro.staticcheck import AUDIT_PASSES, PREDICT_PASSES, pass_by_name
from repro.staticcheck.diagnostics import errors_in
from repro.staticcheck.irverify import verify_module_diagnostics
from repro.workloads.registry import Workload

from common import Result, Spans, sha256_json

#: The campaign's own step budget (``run_attack_detailed``'s default).
STEP_LIMIT = 500_000

#: Seconds per whole-set compile of the workload's table set.
COMPILE_TIMES = ("lang.parse_s", "ir.lower_s", "ir.verify_s", "correlation.tables_s",
                 "correlation.image_s")
#: Milliseconds per probe run.
RUN_TIMES = ("interp.bare_ms_per_run", "runtime.ipds_ms_per_run")
#: Counts of work done, and outcomes that must never move.
COUNTS = (
    "ir.instructions", "opt.instructions_after", "correlation.hash_trials",
    "correlation.set_entries", "correlation.feasible_sets",
    "interp.steps_per_run", "runtime.ipds_events_per_run", "runtime.ipds_checks_per_run",
    "attacks.executions_per_attack", "attacks.fired", "attacks.changed", "attacks.detected",
    "cpu.cycles", "staticcheck.diagnostics.DET801", "staticcheck.diagnostics.DET802",
    "staticcheck.diagnostics.DET803", "staticcheck.diagnostics.audit_error",
    "staticcheck.diagnostics.audit_warning", "staticcheck.diagnostics.audit_note",
    "service.events_per_session", "parallel.cache_hits",
)
#: The layers (``src/repro`` modules) some workload records spans of,
#: reported as their share of the traced time; ``cpu``, ``forensics``
#: and ``parallel`` are measured through their session shares and cache
#: hits instead.
SPANNED = ("lang", "ir", "opt", "analysis", "correlation", "staticcheck", "interp",
           "runtime", "attacks", "service")
#: Prover passes, reported as their share of the traced time.
PROVER_SPANS = tuple(f"staticcheck.{name}" for name in AUDIT_PASSES + PREDICT_PASSES)
#: Shares of a served session (``serve`` measures them; see serve.py).
SESSION_SHARES = ("service.queue_wait_pct", "service.overhead_pct", "cpu.timing_pct",
                  "forensics.explain_pct")
SUMMARY = ("trace.unattributed_pct", "trace.overhead_pct")

PER_LAYER = (COMPILE_TIMES + RUN_TIMES + COUNTS
             + tuple(f"{name}_pct" for name in PROVER_SPANS)
             + tuple(f"self.{layer}_pct" for layer in SPANNED)
             + SESSION_SHARES + SUMMARY)


def unit_of(name: str) -> str:
    if name.endswith("_ms_per_run"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


# -- compile stages --------------------------------------------------------


def image_digest(program: ProtectedProgram) -> str:
    return hashlib.sha256(program.to_image()).hexdigest()


def diagnostics_digest(diagnostics) -> str:
    return sha256_json([d.to_dict() for d in diagnostics])


def staged_compile(spans: Spans, workload: Workload, opt: int) -> tuple:
    """``compile_program``'s stages, each in its layer's span; returns
    the program, its image sha256 and its IR instruction counts after
    lowering and after opt."""
    with spans.span("lang.parse_program", "lang"):
        ast = parse_program(workload.source, workload.name)
    with spans.span("ir.lower_program", "ir"):
        module = lower_program(ast)
    lowered = sum(len(list(fn.instructions())) for fn in module.functions)
    with spans.span("ir.verify_module", "ir"):
        errors = errors_in(verify_module_diagnostics(module))
    if opt > 0:
        with spans.span("opt.optimize_module", "opt"):
            optimize_module(module)
        with spans.span("ir.verify_module", "ir"):
            errors += errors_in(verify_module_diagnostics(module))
    if errors:
        raise RuntimeError(f"IR verification failed: {errors[0]}")
    optimized = sum(len(list(fn.instructions())) for fn in module.functions)
    with spans.span(f"correlation.build_program_tables.opt{opt}", "correlation"):
        tables, stats = build_program_tables(module, interproc=opt >= 2, feasible=opt >= 3)
    program = ProtectedProgram(module=module, tables=tables, build_stats=stats,
                               source_name=workload.name, opt_level=opt)
    with spans.span("correlation.to_image", "correlation"):
        image = program.to_image()
    return program, hashlib.sha256(image).hexdigest(), lowered, optimized


def compile_set(result: Result, spans: Spans, workloads: Sequence[Workload], opt: int,
                pins: Dict[str, str], counts: Optional[Counter] = None
                ) -> Dict[str, ProtectedProgram]:
    """One traced whole-set compile at ``opt``.  Each compile is one
    operation, failed when it raises or its image differs from
    ``compile_program``'s pinned image.  With ``counts`` the IR sizes
    and the tables' build statistics are added to it."""
    programs = {}
    with spans.span(f"compile_set.opt{opt}", "bench"):
        for workload in workloads:
            try:
                program, digest, lowered, optimized = staged_compile(spans, workload, opt)
            except Exception as error:  # one failed compile
                result.check(False, f"{workload.name} opt{opt}: {type(error).__name__}: {error}")
                continue
            if not result.check(digest == pins.get(f"{workload.name}/opt{opt}"),
                                f"{workload.name} opt{opt}: staged image differs "
                                "from compile_program's pinned image"):
                continue
            programs[workload.name] = program
            if counts is not None:
                counts["ir.instructions"] += lowered
                counts["opt.instructions_after"] += optimized
                for stats in program.build_stats:
                    counts["correlation.hash_trials"] += stats.hash_trials
                    counts["correlation.set_entries"] += stats.set_entries
                    counts["correlation.feasible_sets"] += stats.feasible_sets
    return programs


def put_compile(result: Result, spans: Spans, sets: int, table_opt: int,
                table_sets: int = 1) -> None:
    """Stage seconds per whole-set compile over the ``sets`` traced set
    compiles; tables at ``table_opt``, the workload's table level, over
    its ``table_sets`` set compiles."""
    result.put("lang.parse_s", spans.total("lang.parse_program") / sets, "s", sets)
    result.put("ir.lower_s", spans.total("ir.lower_program") / sets, "s", sets)
    result.put("ir.verify_s", spans.total("ir.verify_module") / sets, "s", sets)
    result.put("correlation.tables_s",
               spans.total(f"correlation.build_program_tables.opt{table_opt}") / table_sets,
               "s", table_sets)
    result.put("correlation.image_s", spans.total("correlation.to_image") / sets, "s", sets)


# -- interpreter and monitor -----------------------------------------------


def probe_runs(spans: Spans, program: ProtectedProgram, inputs: Sequence[int],
               counts: Counter) -> bool:
    """A bare and a monitored run of ``program`` on ``inputs``, each in
    its layer's span; returns whether the monitored run raised no alarm."""
    with spans.span("interp.unmonitored_run", "interp"):
        bare = unmonitored_run(program, inputs, step_limit=STEP_LIMIT)
    with spans.span("runtime.monitored_run", "runtime"):
        _, ipds = monitored_run(program, inputs, step_limit=STEP_LIMIT)
    counts["probe.runs"] += 1
    counts["interp.steps"] += bare.steps
    counts["runtime.ipds_events"] += ipds.stats.events
    counts["runtime.ipds_checks"] += ipds.stats.checks
    return not ipds.alarms


def put_runs(result: Result, spans: Spans, counts: Counter) -> None:
    runs = counts["probe.runs"]
    done = max(runs, 1)
    bare = spans.total("interp.unmonitored_run")
    monitored = spans.total("runtime.monitored_run")
    result.put("interp.bare_ms_per_run", bare / done * 1e3, "ms", runs)
    result.put("runtime.ipds_ms_per_run", (monitored - bare) / done * 1e3, "ms", runs)
    counts["interp.steps_per_run"] = counts["interp.steps"] / done
    counts["runtime.ipds_events_per_run"] = counts["runtime.ipds_events"] / done
    counts["runtime.ipds_checks_per_run"] = counts["runtime.ipds_checks"] / done


# -- summary ---------------------------------------------------------------


def put_summary(result: Result, spans: Spans, counts: Counter, overhead_pct: float,
                session_shares: Optional[Dict[str, float]] = None) -> None:
    """The counts, the prover and layer shares of the traced time, the
    session shares, the unattributed share and the tracing overhead.
    A count or share of work the workload did not do is 0."""
    for name in COUNTS:
        result.put(name, counts.get(name, 0), "count")
    for name in PROVER_SPANS:
        result.put(f"{name}_pct", spans.share_pct(spans.total(name)), "%")
    selfs = spans.self_by_layer()
    for layer in SPANNED:
        result.put(f"self.{layer}_pct", spans.share_pct(selfs.get(layer, 0.0)), "%")
    for name in SESSION_SHARES:
        result.put(name, (session_shares or {}).get(name, 0.0), "%")
    result.put("trace.unattributed_pct", spans.unattributed_pct(), "%")
    result.put("trace.overhead_pct", overhead_pct, "%")
    result.spans = spans


def prove(result: Result, spans: Spans, programs: Dict[str, ProtectedProgram],
          pins: Dict[str, str], counts: Counter) -> None:
    """The audit passes and the detectability pass over ``programs``,
    each through ``pass_by_name(name).runner`` in its own span.  Each
    program is one operation for the audit, failed on an error-severity
    diagnostic, and one for predict, failed when its diagnostics differ
    from the pinned digest."""
    with spans.span("provers", "bench"):
        for name, program in programs.items():
            opt = program.opt_level
            try:
                with spans.span("analysis.alias_purity", "analysis", program=name):
                    analyze_aliases(program.module)
                    purity = analyze_purity(program.module)
                audit = []
                for pass_name in AUDIT_PASSES:
                    with spans.span(f"staticcheck.{pass_name}", "staticcheck", program=name):
                        audit += pass_by_name(pass_name).runner(program, purity)
                with spans.span("staticcheck.detectability", "staticcheck", program=name):
                    predict = pass_by_name("detectability").runner(program, purity)
            except Exception as error:  # one failed audit and predict
                result.check(False, f"{name} passes: {type(error).__name__}: {error}")
                continue
            errors = errors_in(audit)
            result.check(not errors, f"{name} opt{opt}: audit reports {len(errors)} error(s)"
                         + (f", first: {errors[0]}" if errors else ""))
            predict = sorted(predict, key=lambda d: d.sort_key())
            result.check(diagnostics_digest(predict) == pins.get(f"{name}/predict_opt{opt}"),
                         f"{name} opt{opt}: predict diagnostics differ from the pinned digest")
            for diagnostic in audit:
                counts[f"staticcheck.diagnostics.audit_{diagnostic.severity.value}"] += 1
            for diagnostic in predict:
                counts[f"staticcheck.diagnostics.{diagnostic.code}"] += 1
