"""Tests for the attack campaign framework (Figure 7 methodology)."""

import pytest

from repro.attacks import (
    AttackOutcome,
    CampaignSummary,
    WorkloadResult,
    run_attack_detailed,
    run_campaign,
)
from repro.pipeline import compile_program
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def telnetd():
    workload = get_workload("telnetd")
    return workload, compile_program(workload.source, workload.name)


def test_attack_outcome_fields(telnetd):
    workload, program = telnetd
    outcome = run_attack_detailed(program, workload, 0).outcome
    assert outcome.fired
    assert outcome.trigger_read >= workload.min_trigger_read
    assert "." in outcome.target_label


def test_attacks_are_deterministic(telnetd):
    workload, program = telnetd
    a = run_attack_detailed(program, workload, 3).outcome
    b = run_attack_detailed(program, workload, 3).outcome
    assert a == b


def test_different_indices_differ(telnetd):
    workload, program = telnetd
    outcomes = [
        run_attack_detailed(program, workload, i).outcome for i in range(12)
    ]
    # Different attacks pick different targets/values at least sometimes.
    assert len({(o.address, o.value) for o in outcomes}) > 1


def test_detection_implies_change(telnetd):
    workload, program = telnetd
    for i in range(40):
        outcome = run_attack_detailed(program, workload, i).outcome
        if outcome.detected:
            assert outcome.control_flow_changed, outcome


def test_workload_result_rates(telnetd):
    workload, _ = telnetd
    result = run_campaign([workload], 25).results[0]
    assert result.total == 25
    assert 0 <= result.detected <= result.changed <= result.total
    if result.changed:
        assert result.pct_detected_of_changed == pytest.approx(
            100.0 * result.detected / result.changed
        )


def test_rates_on_empty_result():
    result = WorkloadResult(workload="empty", vuln_kind="bof")
    assert result.pct_changed == 0.0
    assert result.pct_detected == 0.0
    assert result.pct_detected_of_changed == 0.0


def test_campaign_summary_averages():
    r1 = WorkloadResult(workload="a", vuln_kind="bof")
    r2 = WorkloadResult(workload="b", vuln_kind="bof")
    r1.attacks = [
        AttackOutcome(0, 2, 0, "x.y", 1, True, True, True, None, None),
        AttackOutcome(1, 2, 0, "x.y", 1, True, False, False, None, None),
    ]
    r2.attacks = [
        AttackOutcome(0, 2, 0, "x.y", 1, True, True, False, None, None),
        AttackOutcome(1, 2, 0, "x.y", 1, True, True, True, None, None),
    ]
    summary = CampaignSummary([r1, r2])
    assert summary.avg_pct_changed == pytest.approx(75.0)
    assert summary.avg_pct_detected == pytest.approx(50.0)
    assert summary.avg_pct_detected_of_changed == pytest.approx(
        100.0 * 50.0 / 75.0
    )


def test_fmt_workload_can_target_globals():
    workload = get_workload("sysklogd")
    program = compile_program(workload.source, workload.name)
    outcomes = [
        run_attack_detailed(program, workload, i).outcome for i in range(30)
    ]
    # At least one attack should have landed on a global (the fmt
    # surface includes them).
    assert any(o.target_label.startswith("<global>") for o in outcomes)
