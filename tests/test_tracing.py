"""Hierarchical span tracing: trees, propagation, Chrome export."""

import json
import pickle
import threading

import pytest

from repro.observability import (
    MetricsRegistry,
    TraceContext,
    Tracer,
    chrome_trace,
    phase,
    validate_chrome_trace,
    write_spans,
)


# ----------------------------------------------------------------------
# Span trees and context propagation
# ----------------------------------------------------------------------


def test_nested_spans_build_a_tree():
    tracer = Tracer()
    with phase("outer", tracer, kind="campaign") as outer_phase:
        with phase("inner", tracer) as inner_phase:
            pass
    outer, inner = outer_phase.record, inner_phase.record
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.trace_id == inner.trace_id == tracer.trace_id
    # finished in completion order: inner closes first
    assert [span.name for span in tracer.finished] == ["inner", "outer"]
    assert outer.attributes == {"kind": "campaign"}
    assert outer.duration_us >= inner.duration_us >= 0


def test_explicit_parent_overrides_the_stack():
    tracer = Tracer()
    elsewhere = TraceContext(trace_id=tracer.trace_id, span_id="beef" * 4)
    with phase("top", tracer):
        with phase("detached", tracer, parent=elsewhere) as detached:
            pass
    assert detached.record.parent_id == elsewhere.span_id


def test_current_context_tracks_the_active_span():
    tracer = Tracer()
    root_context = tracer.current_context()
    assert root_context.trace_id == tracer.trace_id
    with phase("s", tracer) as span:
        assert tracer.current_context() == span.record.context
    assert tracer.current_context() == root_context


def test_seeded_tracer_parents_under_the_remote_context():
    parent = Tracer()
    with phase("campaign", parent) as root:
        handoff = parent.current_context()
    # ... the handoff crosses a process boundary as a pickle ...
    handoff = pickle.loads(pickle.dumps(handoff))
    worker = Tracer(context=handoff)
    assert worker.trace_id == parent.trace_id
    with phase("shard", worker) as shard:
        pass
    assert shard.record.parent_id == root.record.span_id


def test_adopt_folds_worker_spans_into_one_valid_tree():
    parent = Tracer()
    with phase("campaign", parent):
        context = parent.current_context()
        worker = Tracer(context=context)
        with phase("shard", worker):
            with phase("shard.compile", worker):
                pass
        # shard results carry spans as plain dicts (picklable)
        shipped = json.loads(json.dumps(worker.span_dicts()))
    assert parent.adopt(shipped) == 2
    assert parent.adopt(None) == 0
    assert validate_chrome_trace(chrome_trace(parent.finished)) == []


def test_thread_local_stacks_do_not_cross_nest():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def worker(name):
        with phase(name, tracer):
            barrier.wait()  # both spans provably open at once

    threads = [
        threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Concurrent siblings: neither adopted the other as parent.
    assert {span.parent_id for span in tracer.finished} == {None}


def test_events_and_untraced_phase():
    tracer = Tracer()
    tracer.event("ignored-outside-any-span")
    with phase("stage", tracer, workload="telnetd") as stage:
        tracer.event("checkpoint", index=3)
    span = stage.record
    assert span.events[0]["name"] == "checkpoint"
    assert span.events[0]["index"] == 3
    # Disabled tracing opens no span but still times the phase.
    with phase("stage") as untraced:
        assert untraced.record is None
    assert untraced.seconds >= 0.0


def test_phase_times_span_and_histogram_with_one_clock():
    tracer, registry = Tracer(), MetricsRegistry()
    with phase("stage", tracer, registry) as stage:
        pass
    assert stage.record.duration_us == int(stage.seconds * 1e6)
    histogram = registry.histogram("stage_seconds")
    assert (histogram.count, histogram.sum) == (1, stage.seconds)
    assert tracer.finished == [stage.record]


# ----------------------------------------------------------------------
# Chrome export and validation
# ----------------------------------------------------------------------


def _sample_tracer():
    tracer = Tracer()
    with phase("root", tracer, jobs=2):
        with phase("child", tracer):
            tracer.event("mark")
    return tracer


def test_chrome_trace_document_shape():
    tracer = _sample_tracer()
    document = chrome_trace(tracer.finished)
    assert document["otherData"]["tool"] == "repro-tracing"
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
    assert len(complete) == 2 and len(instants) == 1
    for event in complete:
        assert event["dur"] >= 1
        assert event["args"]["trace_id"] == tracer.trace_id
    assert validate_chrome_trace(document) == []


def test_validate_chrome_trace_rejects_broken_documents():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) == ["document needs a 'traceEvents' list"]

    def doc(span_parents):
        return chrome_trace(
            [
                {
                    "name": "s", "trace_id": "t", "span_id": sid,
                    "parent_id": parent, "start_us": 0, "duration_us": 1,
                    "pid": 1, "tid": 1,
                }
                for sid, parent in span_parents
            ]
        )

    # duplicate ids, unknown parent, two roots, parent cycle
    assert any("duplicate" in e
               for e in validate_chrome_trace(doc([("a", None), ("a", None)])))
    assert any("unknown parent" in e
               for e in validate_chrome_trace(doc([("a", None), ("b", "zz")])))
    assert any("one root" in e
               for e in validate_chrome_trace(doc([("a", None), ("b", None)])))
    assert any("not connected" in e
               for e in validate_chrome_trace(
                   doc([("r", None), ("a", "b"), ("b", "a")])))


def test_write_spans_jsonl_appends_and_json_overwrites(tmp_path):
    tracer = _sample_tracer()

    jsonl = tmp_path / "spans.jsonl"
    assert write_spans(tracer.finished, str(jsonl)) == 2
    assert write_spans(tracer.finished, str(jsonl)) == 2  # appends
    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(lines) == 4
    assert {line["name"] for line in lines} == {"root", "child"}

    chrome = tmp_path / "trace.json"
    write_spans(tracer.finished, str(chrome))
    write_spans(tracer.finished, str(chrome))  # overwrites
    document = json.loads(chrome.read_text())
    assert validate_chrome_trace(document) == []
    assert len(document["traceEvents"]) == 3


# ----------------------------------------------------------------------
# The real propagation boundary: a sharded campaign
# ----------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_sharded_campaign_produces_one_connected_trace(jobs):
    from repro.parallel.engine import run_campaign

    tracer = Tracer()
    summary = run_campaign(
        workloads=["telnetd"], attacks=4, jobs=jobs, tracer=tracer
    )
    assert summary.results[0].attacks
    document = chrome_trace(tracer.finished)
    assert validate_chrome_trace(document) == []

    by_name = {}
    for span in tracer.finished:
        by_name.setdefault(span.name, []).append(span)
    campaign_root = by_name["campaign"][0]
    assert campaign_root.parent_id is None
    # Shard spans — inline at jobs=1, recorded in worker processes
    # otherwise — hang directly under the campaign root.
    shards = by_name["shard"]
    assert len(shards) == jobs
    for shard in shards:
        assert shard.parent_id == campaign_root.span_id
        assert shard.trace_id == campaign_root.trace_id
    compile_parents = {span.parent_id for span in by_name["shard.compile"]}
    assert compile_parents <= {span.span_id for span in shards}
