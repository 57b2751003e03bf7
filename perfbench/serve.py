"""The ``serve`` workload: the detection daemon under closed-loop load.

``repro serve`` runs as its own process on a unix socket in a private
directory, with one worker thread (sessions are bound by the
interpreter lock, so more workers add no throughput).  This process
drives it over one connection in a closed loop that keeps
``IN_FLIGHT`` sessions outstanding, so the second session measures the
daemon's queue.  Each session is an indexed campaign attack on opt-3
tables with the exact timing model, forensics and the log policy: the
first attacks of the Figure-7 campaign on every server, in an order the
seed shuffles.

Set-up is the daemon's spawn up to ``hello`` plus one warm session per
server, so every opt-3 table is compiled before the measured window; a
measured run sets up ``SETUPS`` daemons one after another and keeps the
last for the window.
Times are read on the daemon's CPU clock (see ``common``), which the
closed loop keeps busy.  Every session must end ``completed`` or
``alarmed`` within ``SESSION_TIMEOUT``; the sessions on one seeded
server are re-run in this process and must match (all sessions in the
traced run).  An operation is one session.

The traced run also compiles the sessions' opt-3 tables stage by stage
and runs each traced session's inputs bare and monitored in this
process, like every workload's traced run (see ``layers``).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.attacks.campaign import attack_rng, run_attack_detailed
from repro.observability.metrics import MetricsRegistry
from repro.pipeline import compile_program_cached
from repro.service.engine import DetectionSession
from repro.service.protocol import spec_from_payload
from repro.workloads.registry import get_workload, workload_names

from common import (
    OUT_DIR,
    Result,
    Spans,
    cpu_clock,
    load_pins,
    median,
    peak_rss_mib,
    put_ops,
    subprocess_env,
    task_cpu_seconds,
)
from layers import compile_set, probe_runs, put_compile, put_runs, put_summary

#: Sessions measured first in a run (the traced run measures half of
#: them untraced and the same half again traced).
SESSIONS = 600
#: Sessions measured at a time after the first ``SESSIONS`` while the
#: run has time left.
TOP_UP = 100
IN_FLIGHT = 2
#: Daemon set-ups per measured run; ``setup_s`` is their median.
SETUPS = 3
#: Seconds from submit to result before a session counts as failed.
SESSION_TIMEOUT = 30.0
#: Every ``MARGINAL_EVERY``-th checked session of the traced run is
#: also re-run without timing and without forensics.
MARGINAL_EVERY = 3
OPT_LEVEL = 3
TIMING_MODE = "exact"
#: The sessions are attacks of the Figure-7 campaign (see fig7.py for
#: why the seed orders them instead of choosing the seed prefix).
SEED_PREFIX = ""


def session_spec(name: str, index: int) -> Dict[str, Any]:
    """Attack ``index`` of the Figure-7 campaign on server ``name``."""
    return {
        "mode": "attack",
        "workload": name,
        "attack_index": index,
        "opt_level": OPT_LEVEL,
        "timing_mode": TIMING_MODE,
        "forensics": True,
        "seed_prefix": SEED_PREFIX,
    }


def session_specs(seed: int, sessions: int, names: Sequence[str]) -> List[Dict[str, Any]]:
    """The first ``sessions // len(names)`` campaign attacks of every
    server, in the seed's order."""
    specs = [session_spec(name, index)
             for index in range(sessions // len(names)) for name in names]
    random.Random(seed).shuffle(specs)
    return specs


class Daemon:
    """``repro serve`` as a child process; :meth:`stop` always ends it
    and removes its directory, socket included."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="daemon-", dir=OUT_DIR)
        path = os.path.join(self.directory, "daemon.sock")
        # A unix socket path is limited to ~107 bytes.
        self.socket_path = path if len(path) < 100 else os.path.relpath(path)
        self.log_path = os.path.join(self.directory, "daemon.log")
        try:
            with open(self.log_path, "wb") as log:
                self.process = subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "serve", "--socket", "daemon.sock",
                     "--max-workers", "1", "--policy", "log"],
                    cwd=self.directory,
                    env=subprocess_env(),
                    stdout=log,
                    stderr=subprocess.STDOUT,
                )
        except BaseException:
            shutil.rmtree(self.directory, ignore_errors=True)
            raise

    def log_tail(self) -> str:
        try:
            with open(self.log_path, encoding="utf-8", errors="replace") as handle:
                return handle.read()[-2000:]
        except OSError:
            return ""

    def stop(self, connection: Optional["Connection"]) -> None:
        try:
            if connection is not None and self.process.poll() is None:
                try:
                    connection.request({"op": "shutdown", "id": "shutdown"}, "shutdown")
                except (OSError, ValueError, TimeoutError):
                    pass
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.terminate()
                try:
                    self.process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            if connection is not None:
                connection.close()
            shutil.rmtree(self.directory, ignore_errors=True)


class Connection:
    """One NDJSON connection to the daemon with its own line buffer, so
    a read that times out loses nothing."""

    def __init__(self, daemon: Daemon, connect_timeout: float = 60.0) -> None:
        deadline = time.monotonic() + connect_timeout
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(daemon.socket_path)
                break
            except OSError:
                sock.close()
                if daemon.process.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("daemon did not start:\n" + daemon.log_tail())
                time.sleep(0.02)
        sock.settimeout(0.5)
        self.sock = sock
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()

    def send(self, message: Dict[str, Any]) -> None:
        self.sock.sendall((json.dumps(message, separators=(",", ":")) + "\n").encode())

    def read(self) -> Dict[str, Any]:
        """The next message; raises ``socket.timeout`` when none arrives."""
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def request(self, message: Dict[str, Any], event: str,
                timeout: float = SESSION_TIMEOUT) -> Dict[str, Any]:
        """Send one op and wait for its reply event."""
        self.send(message)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                reply = self.read()
            except socket.timeout:
                continue
            if reply.get("id") == message["id"] and reply.get("event") in (event, "error"):
                if reply["event"] == "error":
                    raise ValueError(reply.get("error"))
                return reply
        raise TimeoutError(f"no {event} reply")


def drive(connection: Connection, specs: List[Dict[str, Any]], tag: str,
          clock: Callable[[], float]) -> List[Dict[str, Any]]:
    """Run ``specs`` in a closed loop with ``IN_FLIGHT`` outstanding.

    Returns one record per spec with the times the client saw, on
    ``clock`` (``submit``, ``running`` = the running-state event,
    ``done`` = the result event), the count of messages the session
    produced, and its result.  When a session is outstanding for more
    than ``SESSION_TIMEOUT`` wall seconds every outstanding session is
    marked timed out and the window ends.
    """
    records = [{"spec": spec, "sent": None, "submit": None, "running": None, "done": None,
                "events": 0, "result": None, "error": None} for spec in specs]
    by_id: Dict[str, Dict[str, Any]] = {}
    queued = iter(enumerate(records))
    outstanding: List[Dict[str, Any]] = []

    def submit_next() -> None:
        item = next(queued, None)
        if item is not None:
            k, record = item
            by_id[f"{tag}{k}"] = record
            record["sent"] = time.monotonic()
            record["submit"] = clock()
            connection.send({"op": "submit", "id": f"{tag}{k}", "spec": record["spec"],
                             "policy": "log"})
            outstanding.append(record)

    for _ in range(IN_FLIGHT):
        submit_next()
    while outstanding:
        try:
            message: Optional[Dict[str, Any]] = connection.read()
        except socket.timeout:
            message = None
        if any(time.monotonic() - r["sent"] > SESSION_TIMEOUT for r in outstanding):
            for record in records:
                if record["done"] is None:
                    record["error"] = ("timed out" if record["submit"] is not None
                                       else "not run: the window was aborted")
            break
        record = by_id.get(message.get("id")) if message else None
        if record is None or record["done"] is not None:
            continue
        now = clock()
        record["events"] += 1
        event = message.get("event")
        if event == "state" and message.get("state") == "running" and record["running"] is None:
            record["running"] = now
        elif event in ("result", "error"):
            record["done"] = now
            if event == "result":
                record["result"] = message.get("result", message)
                # Reap as a long-lived client would, so the daemon's
                # registry does not grow over the window.
                connection.send({"op": "reap", "id": "reap", "session": message.get("session")})
            else:
                record["error"] = message.get("error", "daemon error")
            outstanding.remove(record)
            submit_next()
    return records


def check_states(result: Result, records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One operation per session: it must end completed or alarmed."""
    good = []
    for record in records:
        spec = record["spec"]
        label = f"{spec['workload']}#{spec['attack_index']}"
        state = (record["result"] or {}).get("state")
        if result.check(record["error"] is None and state in ("completed", "alarmed"),
                        f"session {label}: {record['error'] or state} "
                        f"{(record['result'] or {}).get('error', '')}"):
            good.append(record)
    return good


def window_metrics(result: Result, records: List[Dict[str, Any]]) -> None:
    """Sessions per daemon CPU second over the window, and latency."""
    if not records:
        return
    elapsed = max(r["done"] for r in records) - min(r["submit"] for r in records)
    put_ops(result, [r["done"] - r["submit"] for r in records], elapsed)


def reference(spec: Dict[str, Any], **overrides: Any):
    """``run_attack_detailed`` in this process on the session's spec."""
    workload = get_workload(spec["workload"])
    program = compile_program_cached(workload.source, workload.name, spec["opt_level"])
    options = {"forensics": spec["forensics"], "timing_mode": spec["timing_mode"],
               **overrides}
    return run_attack_detailed(program, workload, spec["attack_index"],
                               seed_prefix=spec["seed_prefix"], **options)


def check_against_reference(result: Result, record: Dict[str, Any], execution) -> None:
    """The served session must equal the in-process run: alarms,
    outcome record and modelled cycles."""
    spec, served = record["spec"], record["result"]
    expected = execution.outcome.to_record(spec["workload"])
    outcome = served.get("outcome") or {}
    result.check(
        served.get("alarms") == [str(a) for a in execution.ipds.alarms]
        and outcome == expected
        and outcome.get("cycles") == execution.outcome.cycles,
        f"session {spec['workload']}#{spec['attack_index']}: served result differs "
        "from the in-process run",
    )


def set_up(result: Result, daemon: Daemon, connection: Connection,
           warm: List[Dict[str, Any]]) -> float:
    """Bring a fresh daemon to ready: ``hello``, then the warm sessions
    (checked), which compile every table the window uses.  Returns the
    daemon's CPU seconds since it was spawned."""
    def clock() -> float:
        return task_cpu_seconds(daemon.process.pid)

    connection.request({"op": "hello", "id": "hello"}, "hello")
    check_states(result, drive(connection, warm, "w", clock))
    return clock()


def run(seed: int, seconds: float, trace: bool, sessions: int = SESSIONS,
        names: Optional[Sequence[str]] = None) -> Result:
    """A closed-loop window of ``sessions`` sessions, then ``TOP_UP``
    more at a time until ``seconds`` of daemon CPU time have passed in
    the window.  The traced run measures one window of ``sessions``
    sessions: half of the specs, each run untraced and then traced.
    ``names`` restricts the servers (smoke tests)."""
    result = Result()
    names = list(names or workload_names())
    specs = session_specs(seed, sessions // 2 if trace else sessions, names)
    warm = [session_spec(name, len(specs) // len(names)) for name in names]
    spans = Spans() if trace else None
    setups = []
    for _ in range(0 if trace else SETUPS - 1):
        spare, link = Daemon(), None
        try:
            link = Connection(spare)
            setups.append(set_up(result, spare, link, warm))
        finally:
            spare.stop(link)
    connection = None
    daemon = Daemon()
    try:
        def clock() -> float:
            return task_cpu_seconds(daemon.process.pid)

        connection = Connection(daemon)
        ready = set_up(result, daemon, connection, warm)
        setups.append(ready)
        setup_s = median(setups)
        measured: List[Dict[str, Any]] = []
        traced_records: List[Dict[str, Any]] = []
        if spans is None:
            measured = drive(connection, specs, "m", clock)
            while clock() - ready < seconds and not any(r["error"] for r in measured):
                top_up = [specs[(len(measured) + k) % len(specs)] for k in range(TOP_UP)]
                measured += drive(connection, top_up, f"t{len(measured)}-", clock)
        else:
            # Every spec twice in a row, untraced then traced, so each
            # pair meets the same machine and daemon state.
            spans.clock = clock
            with spans.span("serve.window", "bench") as root:
                window = drive(connection, [s for spec in specs for s in (spec, spec)], "t",
                               clock)
            measured, traced_records = window[0::2], window[1::2]
            for k, record in enumerate(traced_records):
                if record["done"] is None:
                    continue
                session = spans.add("service.session", "service", record["submit"],
                                    record["done"], tid=1 + k % IN_FLIGHT, parent=root,
                                    server=record["spec"]["workload"],
                                    attack_index=record["spec"]["attack_index"])
                if record["running"] is not None:
                    spans.add("service.queue_wait", "service", record["submit"],
                              record["running"], tid=1 + k % IN_FLIGHT, parent=session)
        cache = connection.request({"op": "metrics", "id": "metrics"},
                                   "metrics")["metrics"]["compile_cache"]
        daemon_rss = peak_rss_mib(daemon.process.pid)
    finally:
        daemon.stop(connection)

    good = check_states(result, measured)
    if not trace:
        result.put("setup_s", setup_s, "s", len(setups))
        window_metrics(result, good)
        result.put("peak_rss_mb", daemon_rss, "MiB")
        sampled = names[random.Random(seed).randrange(len(names))]
        for record in good:
            if record["spec"]["workload"] == sampled:
                try:
                    execution = reference(record["spec"])
                except Exception as error:  # the in-process run itself failed
                    result.check(False, f"in-process {record['spec']}: {error}")
                    continue
                check_against_reference(result, record, execution)
        return result
    return traced(result, spans, setup_s, daemon_rss, cache, window, measured,
                  traced_records)


def traced(result: Result, spans: Spans, setup_s: float, daemon_rss: float,
           cache: Dict[str, Any], window: List[Dict[str, Any]],
           measured: List[Dict[str, Any]], traced_records: List[Dict[str, Any]]) -> Result:
    """The per-layer figures of a traced window: the sessions' opt-3
    set compile stage by stage, then every traced session re-run in
    this process (checked against the served result), as a
    ``DetectionSession``, as bare and monitored probe runs, and every
    ``MARGINAL_EVERY``-th without timing and without forensics."""
    counts: Counter = Counter()
    traced_good = check_states(result, traced_records)
    good = [r for r in measured if r["done"] is not None and r["error"] is None]
    result.info["untraced"] = {"setup_s": setup_s, "peak_rss_mb": daemon_rss}
    overhead = 0.0
    if good and traced_good:
        untraced_p50 = median([r["done"] - r["submit"] for r in good])
        traced_p50 = median([r["done"] - r["submit"] for r in traced_good])
        result.info["untraced"]["op_p50_ms"] = untraced_p50 * 1e3
        result.info["traced"] = {"op_p50_ms": traced_p50 * 1e3}
        overhead = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    for first, second in zip(measured, traced_records):
        if first["result"] and second["result"]:
            result.check(first["result"].get("alarms") == second["result"].get("alarms")
                         and first["result"].get("outcome") == second["result"].get("outcome"),
                         f"session {first['spec']['workload']}#{first['spec']['attack_index']}:"
                         " its untraced and traced runs disagree")
    servers = sorted({record["spec"]["workload"] for record in traced_good})
    for name in servers:
        workload = get_workload(name)
        compile_program_cached(workload.source, name, OPT_LEVEL)
    spans.clock = cpu_clock
    programs = compile_set(result, spans, [get_workload(name) for name in servers],
                           OPT_LEVEL, load_pins()["tables"], counts)
    registry = MetricsRegistry()
    session_s, full_s, timing_s, forensics_s, outcomes = [], [], [], [], []
    with spans.span("serve.reference", "bench"):
        for k, record in enumerate(traced_good):
            spec = record["spec"]
            try:
                with spans.span("attacks.run_attack_detailed", "attacks",
                                server=spec["workload"]) as span:
                    execution = reference(spec, metrics=registry)
            except Exception as error:  # the in-process run itself failed
                result.check(False, f"in-process {spec}: {error}")
                continue
            full = span.end - span.start
            full_s.append(full)
            outcomes.append(execution.outcome)
            check_against_reference(result, record, execution)
            with spans.span("service.DetectionSession.execute", "service") as span:
                DetectionSession(spec_from_payload(spec)).execute()
            session_s.append(span.end - span.start)
            workload = get_workload(spec["workload"])
            if spec["workload"] in programs:
                inputs = workload.make_inputs(
                    attack_rng(SEED_PREFIX, workload.name, spec["attack_index"]))
                result.check(probe_runs(spans, programs[spec["workload"]], inputs, counts),
                             f"{spec['workload']}#{spec['attack_index']}: the monitored "
                             "probe run raised an alarm")
            if k % MARGINAL_EVERY == 0:
                with spans.span("attacks.run_attack_detailed[untimed]", "attacks") as span:
                    reference(spec, timing_mode=None)
                timing_s.append((full, full - (span.end - span.start)))
                with spans.span("attacks.run_attack_detailed[no-forensics]", "attacks") as span:
                    reference(spec, forensics=False)
                forensics_s.append((full, full - (span.end - span.start)))
    put_compile(result, spans, sets=1, table_opt=OPT_LEVEL)
    put_runs(result, spans, counts)
    shares: Dict[str, float] = {}
    if traced_good and outcomes:
        done = [r for r in window if r["done"] is not None]
        # The daemon is never idle in the closed loop, so its time per
        # session is the window's time per session.
        served = (max(r["done"] for r in done) - min(r["submit"] for r in done)) / len(done)
        latency = sum(r["done"] - r["submit"] for r in traced_good)
        waits = sum((r["running"] or r["submit"]) - r["submit"] for r in traced_good)
        shares["service.queue_wait_pct"] = 100.0 * waits / latency
        shares["service.overhead_pct"] = 100.0 * (1.0 - sum(session_s) / len(session_s) / served)
        for name, pairs in (("cpu.timing_pct", timing_s), ("forensics.explain_pct", forensics_s)):
            shares[name] = 100.0 * sum(m for _, m in pairs) / sum(f for f, _ in pairs)
        counts["attacks.executions_per_attack"] = (registry.value("campaign.executions")
                                                   / len(outcomes))
        counts["attacks.fired"] = sum(o.fired for o in outcomes)
        counts["attacks.changed"] = sum(o.control_flow_changed for o in outcomes)
        counts["attacks.detected"] = sum(o.detected for o in outcomes)
        counts["cpu.cycles"] = sum(r["result"]["outcome"].get("cycles", 0) for r in traced_good)
        counts["service.events_per_session"] = (sum(r["events"] for r in traced_good)
                                                / len(traced_good))
        counts["parallel.cache_hits"] = cache["hits"]
        result.info["session_ms"] = {"timed_attack": 1e3 * sum(full_s) / len(full_s),
                                     "served": 1e3 * served}
    put_summary(result, spans, counts, overhead, shares)
    return result
