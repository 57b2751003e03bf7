"""The benchmark's own tests, at smoke size.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import common  # noqa: E402
import fig7  # noqa: E402
import layers  # noqa: E402
import serve  # noqa: E402
from repro.observability.tracing import validate_chrome_trace  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((BENCH_DIR / "design.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
SMOKE_SERVERS = ["sysklogd", "atftpd"]


def smoke(workload: str, seed: int, trace: bool, pins=None):
    if workload == "fig7":
        return fig7.run(seed, 0, trace, attacks=2, pins=pins, names=SMOKE_SERVERS)
    return serve.run(seed, 0, trace, sessions=8, names=SMOKE_SERVERS)


def assert_emits(result, trace: bool) -> None:
    expected = layers.PER_LAYER if trace else common.END_TO_END
    assert list(result.metrics) == list(expected)
    for name, (value, unit) in result.metrics.items():
        assert unit == UNITS[name], name
        assert isinstance(value, (int, float))


@pytest.mark.parametrize("workload", ["fig7", "serve"])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    result = smoke(workload, 3, trace)
    assert result.failed == 0, result.problems
    assert result.line()["correct"]
    assert_emits(result, trace)
    if trace:
        path = tmp_path / "trace.json"
        assert result.spans.write_chrome_trace(path) > 0
        assert validate_chrome_trace(json.loads(path.read_text())) == []


def test_benchmark_json_matches_the_design_and_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(DESIGN["workloads"])
    for kind, printed in (("end_to_end", common.END_TO_END), ("per_layer", layers.PER_LAYER)):
        declared = [m["name"] for m in BENCHMARK[kind]]
        assert declared == DESIGN[kind] == list(printed)
        assert len(declared) == len(set(declared))
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        assert name.match(metric["name"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert name.match(metric["name"])
    for workload in BENCHMARK["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    pinned = json.loads(common.PINS_PATH.read_text())
    assert set(pinned["fig7"]) == {w.name for w in fig7.all_workloads()}


def test_fig7_same_seed_same_run_other_seed_other_order_same_outcomes():
    servers = fig7.setup()
    runs = []
    for seed in (5, 5, 6):
        order = fig7.attack_order(seed, 3, list(servers))
        _, records, outcomes, _ = fig7.campaign(servers, order, common.Result())
        counts = [sum(getattr(o, f) for o in outcomes)
                  for f in ("fired", "control_flow_changed", "detected")]
        runs.append((order, fig7.digests(records), counts))
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[2][0]
    assert runs[0][1:] == runs[2][1:]


def test_serve_derives_its_inputs_from_the_seed():
    specs = serve.session_specs(1, 20, SMOKE_SERVERS)
    assert specs == serve.session_specs(1, 20, SMOKE_SERVERS)
    assert specs != serve.session_specs(2, 20, SMOKE_SERVERS)


def test_corrupted_outcome_digest_is_a_failure():
    good = fig7.run(4, 0, False, attacks=1)
    assert good.failed == 0
    servers = fig7.setup()
    records = fig7.campaign(servers, fig7.attack_order(4, 1, list(servers)),
                            common.Result())[1]
    corrupted = dict(fig7.digests(records), telnetd="0" * 64)
    result = fig7.run(4, 0, False, attacks=1, pins=dict(common.load_pins(), fig7=corrupted))
    assert result.failed == 1
    assert not result.line()["correct"]


@pytest.mark.parametrize("workload, key", [("fig7", "sysklogd/opt0"),
                                           ("fig7", "sysklogd/predict_opt0"),
                                           ("serve", "sysklogd/opt3")])
def test_corrupted_image_or_predict_digest_is_a_failure(workload, key, monkeypatch):
    pins = common.load_pins()
    pins = dict(pins, fig7=None, tables=dict(pins["tables"], **{key: "0" * 64}))
    monkeypatch.setattr(serve, "load_pins", lambda: pins)
    result = smoke(workload, 1, True, pins=pins)
    # The staged compile, or the predict, of sysklogd fails; nothing else.
    assert result.failed == 1, result.problems
    assert not result.line()["correct"]


def test_serve_daemon_is_stopped_and_its_directory_removed_on_failure(monkeypatch):
    started = []

    class Recorded(serve.Daemon):
        def __init__(self):
            super().__init__()
            started.append(self)

    def broken(*_args, **_kwargs):
        raise RuntimeError("benchmark failed partway")

    monkeypatch.setattr(serve, "Daemon", Recorded)
    monkeypatch.setattr(serve, "drive", broken)
    with pytest.raises(RuntimeError, match="partway"):
        serve.run(1, 0, False, sessions=2, names=SMOKE_SERVERS)
    assert started and started[0].process.poll() is not None
    assert not Path(started[0].directory).exists()


def test_serve_session_timeout_counts_as_failure(monkeypatch):
    monkeypatch.setattr(serve, "SESSION_TIMEOUT", 0.0)
    result = serve.run(1, 0, False, sessions=2, names=SMOKE_SERVERS)
    assert result.failed > 0
    assert any("timed out" in problem for problem in result.problems)
    assert not list(common.OUT_DIR.glob("daemon-*"))


def test_spans_self_time_subtracts_the_union_of_children():
    spans = common.Spans()
    root = spans.add("root", "bench", 0.0, 10.0)
    spans.add("a", "service", 1.0, 5.0, parent=root)
    spans.add("b", "service", 3.0, 6.0, parent=root)
    spans.add("c", "attacks", 8.0, 9.0, parent=root)
    selfs = spans.self_by_layer()
    assert selfs["bench"] == pytest.approx(10.0 - 6.0)
    assert selfs["service"] == pytest.approx(7.0)
    assert spans.unattributed_pct() == pytest.approx(40.0)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "fig7", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_run_prints_no_result_line_without_every_metric(monkeypatch, capsys):
    import run

    partial = common.Result()
    partial.put("setup_s", 1.0, "s")
    partial.check(True, "")
    monkeypatch.setattr(fig7, "run", lambda *_args: partial)
    assert run.main(["--workload", "fig7", "--seed", "0", "--seconds", "1",
                     "--trace", "0"]) == 3
    assert '"correct"' not in capsys.readouterr().out


def test_fig7_worker_that_fails_fails_its_slice(monkeypatch):
    monkeypatch.setattr(fig7, "WORKER_TIMEOUT", 0.01)
    result = fig7.run(4, 0, False, attacks=1)
    assert result.failed == result.attempted == len(fig7.all_workloads())
    assert "worker failed" in result.problems[0]
