"""The campaign engine: one entry point, one attack loop.

The Figure-7 methodology runs ``attacks`` independent attacks per
workload; every attack already derives its RNG from a pure function of
``(seed_prefix, workload name, attack index)`` (see
:func:`repro.attacks.campaign.attack_rng`), so attacks can execute in
any order, on any process, and still reproduce the serial campaign
bit-for-bit.  This engine exploits that: :func:`run_campaign` slices
each workload's index range into contiguous shards, runs every shard
through :func:`_run_shard` — inline at ``jobs=1``, on a
:class:`~concurrent.futures.ProcessPoolExecutor` otherwise — and merges
outcomes back into index order.  The merged result is identical at any
job count because both schedules run the same tasks through the same
loop.

Tasks carry only primitives (a workload *name*, attack indices and a
frozen :class:`~repro.attacks.campaign.RunSpec`) — each shard resolves
the workload from the registry and compiles it through the
content-addressed compile cache, so a workload's
:class:`ProtectedProgram` is built at most once per process regardless
of how many shards land there.

Zero false positives stays a *global* assertion: any clean-run alarm
raises :class:`~repro.attacks.campaign.CampaignError` inside the
shard, which propagates out of :func:`run_campaign` after cancelling
the remaining shards.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..attacks.campaign import (
    AttackOutcome,
    CampaignError,
    CampaignSummary,
    RunSpec,
    WorkloadResult,
    attack_rng,
    run_attack_detailed,
)
from ..observability.metrics import MetricsRegistry
from ..observability.tracing import TraceContext, Tracer, phase
from ..pipeline import monitored_run
from ..workloads.registry import Workload, get_workload, resolve_workloads
from .cache import cached_compile

#: Hard ceiling on worker processes, mirroring how many shards a
#: campaign meaningfully splits into.
MAX_JOBS = 64


@dataclass(frozen=True)
class ShardTask:
    """One shard's slice of a workload campaign (picklable)."""

    workload: str
    indices: Tuple[int, ...]
    spec: RunSpec
    collect_metrics: bool = False
    #: Trace linkage for the shard's spans (two short strings — the
    #: only tracing state that crosses the pickle boundary).  None means
    #: tracing is off and the shard records no spans.
    trace_context: Optional[TraceContext] = None


@dataclass
class ShardResult:
    """One shard's outcomes plus its worker-side metrics snapshot.

    The snapshot crosses the process boundary as plain primitives; the
    parent folds it into its own registry at the merge point.
    """

    outcomes: List[AttackOutcome] = field(default_factory=list)
    metrics: Optional[Dict[str, Any]] = None
    #: Timing mode the shard's attack runs used (None = timing off).
    #: Merges refuse shards with differing modes — see
    #: :func:`merge_shard_results`.
    timing_mode: Optional[str] = None
    #: Worker-side span records (plain dicts), parented under the
    #: campaign root via the task's ``trace_context``; the parent tracer
    #: adopts them at the merge point.
    spans: List[Dict[str, Any]] = field(default_factory=list)


@dataclass(frozen=True)
class CleanTask:
    """One worker's slice of a clean-run sweep (picklable)."""

    workload: str
    sessions: Tuple[int, ...]
    seed_prefix: str
    step_limit: int
    opt_level: int


def shard_indices(count: int, shards: int) -> List[Tuple[int, ...]]:
    """Slice ``range(count)`` into at most ``shards`` contiguous blocks.

    Deterministic, order-preserving, and never emits an empty block;
    concatenating the blocks always reproduces ``range(count)``.
    """
    if count <= 0:
        return []
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    blocks: List[Tuple[int, ...]] = []
    start = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def _normalize_jobs(jobs: int) -> int:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, MAX_JOBS)


_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


def _run_tasks(
    run: Callable[[_Task], _Result],
    tasks: Sequence[_Task],
    jobs: int,
    workloads: Sequence[Workload],
    opt_level: int,
) -> List[_Result]:
    """Run ``run`` over ``tasks``, returning results in task order.

    One task (or ``jobs=1``) runs inline; otherwise the tasks fan out
    over a process pool, after the parent warms its compile cache with
    ``workloads`` so fork-based workers inherit the compiled programs
    (spawn-based workers compile through their own cache once).
    """
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [run(task) for task in tasks]
    for workload in workloads:
        cached_compile(workload.source, workload.name, opt_level)
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        try:
            futures = [executor.submit(run, task) for task in tasks]
            return [future.result() for future in futures]
        except BaseException:
            # Ctrl-C (KeyboardInterrupt) and shard failures alike:
            # cancel queued tasks and return immediately rather than
            # draining the pool; the CLI maps the interrupt to exit 130.
            executor.shutdown(wait=False, cancel_futures=True)
            raise


def _run_shard(task: ShardTask) -> ShardResult:
    """One shard of one workload's campaign — the only attack loop."""
    workload = get_workload(task.workload)
    spec = task.spec
    tracer = (
        Tracer(context=task.trace_context)
        if task.trace_context is not None
        else None
    )
    registry = MetricsRegistry() if task.collect_metrics else None
    with phase(
        "shard",
        tracer,
        workload=task.workload,
        attacks=len(task.indices),
        first_index=task.indices[0] if task.indices else -1,
    ) as shard:
        with phase("shard.compile", tracer, workload=task.workload):
            program = cached_compile(
                workload.source, workload.name, spec.opt_level
            )
        outcomes = [
            run_attack_detailed(
                program,
                workload,
                index,
                seed_prefix=spec.seed_prefix,
                step_limit=spec.step_limit,
                attack_model=spec.attack_model,
                metrics=registry,
                forensics=spec.forensics,
                flight_recorder_depth=spec.flight_recorder_depth,
                timing_mode=spec.timing_mode,
            ).outcome
            for index in task.indices
        ]
    if registry is not None:
        registry.observe_histogram(
            f"workload.{task.workload}_seconds", shard.seconds
        )
    return ShardResult(
        outcomes=outcomes,
        metrics=registry.snapshot() if registry is not None else None,
        timing_mode=spec.timing_mode,
        spans=tracer.span_dicts() if tracer is not None else [],
    )


def _run_clean_shard(task: CleanTask) -> List[str]:
    """Monitored clean sessions of one workload; returns the alarms."""
    workload = get_workload(task.workload)
    program = cached_compile(workload.source, workload.name, task.opt_level)
    alarms: List[str] = []
    for session in task.sessions:
        rng = attack_rng(task.seed_prefix, workload.name, session)
        inputs = workload.make_inputs(rng)
        _, ipds = monitored_run(
            program, inputs=inputs, step_limit=task.step_limit
        )
        if ipds.detected:
            alarms.append(
                f"{workload.name}[session {session}, opt {task.opt_level}]: "
                f"{ipds.alarms[0]}"
            )
    return alarms


def merge_outcomes(
    workload: Workload, attacks: int, shards: Sequence[Sequence[AttackOutcome]]
) -> WorkloadResult:
    """Merge shard outcomes back into the serial campaign's order.

    Validates completeness: the merged list must cover exactly
    ``range(attacks)`` — a shard that silently dropped work is a
    campaign-integrity failure, not a statistic.
    """
    merged = sorted(
        (outcome for shard in shards for outcome in shard),
        key=lambda outcome: outcome.index,
    )
    indices = [outcome.index for outcome in merged]
    if indices != list(range(attacks)):
        raise CampaignError(
            f"sharded campaign for {workload.name} lost outcomes: "
            f"expected {attacks} indices, merged {indices[:10]}..."
        )
    result = WorkloadResult(workload=workload.name, vuln_kind=workload.vuln_kind)
    result.attacks = merged
    return result


def merge_shard_results(
    workload: Workload, attacks: int, shards: Sequence[ShardResult]
) -> WorkloadResult:
    """Merge :class:`ShardResult` objects into one workload result.

    Beyond :func:`merge_outcomes`'s completeness check, this validates
    that every shard ran under the *same* timing mode: outcomes whose
    ``cycles`` column came from different approximations (or from a mix
    of timed and untimed shards) must never be silently averaged into
    one table.
    """
    modes = {shard.timing_mode for shard in shards}
    if len(modes) > 1:
        rendered = ", ".join(sorted(str(mode) for mode in modes))
        raise CampaignError(
            f"sharded campaign for {workload.name} mixed timing modes "
            f"across shards ({rendered}); all shards must run with the "
            f"same --timing-mode"
        )
    result = merge_outcomes(
        workload, attacks, [shard.outcomes for shard in shards]
    )
    result.timing_mode = modes.pop() if modes else None
    return result


def run_campaign(
    workloads: Optional[Sequence[Union[Workload, str]]] = None,
    attacks: int = 100,
    spec: RunSpec = RunSpec(),
    *,
    jobs: int = 1,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> CampaignSummary:
    """The Figure-7 experiment: ``attacks`` attacks per workload.

    ``workloads`` are registered workloads (instances or names; None
    means the whole registry), resolved in the parent so an unknown
    name fails before any attack runs.  Every attack runs as ``spec``
    says.  Merged outcomes — and therefore rendered reports — are
    identical at any ``jobs`` value.

    ``metrics`` accumulates telemetry: the counters every attack
    records plus a ``workload.<name>_seconds`` histogram of shard wall
    time (one sample per shard).  Each shard collects
    into its own registry and returns a picklable snapshot that is
    folded in here, so the counters are job-count-independent except
    ``campaign.jobs`` and ``campaign.shards``, which describe the
    schedule.

    ``tracer`` (optional) records one ``campaign`` root span with every
    shard's ``shard`` / ``shard.compile`` spans linked under it via the
    :class:`TraceContext` shipped in each :class:`ShardTask`.
    """
    jobs = _normalize_jobs(jobs)
    chosen = resolve_workloads(workloads)
    if metrics is not None:
        metrics.increment("campaign.workloads", len(chosen))
        metrics.increment("campaign.jobs", jobs)
    with phase(
        "campaign",
        tracer,
        workloads=len(chosen),
        attacks=attacks,
        jobs=jobs,
        attack_model=spec.attack_model,
        opt_level=spec.opt_level,
    ):
        trace_context = (
            tracer.current_context() if tracer is not None else None
        )
        blocks = shard_indices(attacks, jobs)
        tasks = [
            ShardTask(
                workload=workload.name,
                indices=block,
                spec=spec,
                collect_metrics=metrics is not None,
                trace_context=trace_context,
            )
            for workload in chosen
            for block in blocks
        ]
        shard_results = iter(
            _run_tasks(_run_shard, tasks, jobs, chosen, spec.opt_level)
        )
        results = []
        for workload in chosen:
            shards = [next(shard_results) for _ in blocks]
            results.append(merge_shard_results(workload, attacks, shards))
            for shard in shards:
                if metrics is not None:
                    metrics.merge_snapshot(shard.metrics)
                if tracer is not None:
                    tracer.adopt(shard.spans)
            if metrics is not None:
                metrics.increment("campaign.shards", len(shards))
    return CampaignSummary(results)


def run_clean_sweep(
    workloads: Optional[Sequence[Union[Workload, str]]] = None,
    sessions: int = 3,
    *,
    seed_prefix: str = "clean:",
    step_limit: int = 500_000,
    opt_level: int = 0,
    jobs: int = 1,
) -> int:
    """Monitored clean runs for every workload — the zero-FP sweep.

    Returns the number of clean sessions executed; raises
    :class:`CampaignError` listing every alarm if any session alarmed.
    """
    jobs = _normalize_jobs(jobs)
    chosen = resolve_workloads(workloads)
    tasks = [
        CleanTask(
            workload=workload.name,
            sessions=block,
            seed_prefix=seed_prefix,
            step_limit=step_limit,
            opt_level=opt_level,
        )
        for workload in chosen
        for block in shard_indices(sessions, jobs)
    ]
    alarms = [
        alarm
        for shard_alarms in _run_tasks(
            _run_clean_shard, tasks, jobs, chosen, opt_level
        )
        for alarm in shard_alarms
    ]
    if alarms:
        raise CampaignError(
            f"{len(alarms)} false positive(s) on clean runs: "
            + "; ".join(alarms[:5])
        )
    return len(chosen) * sessions
