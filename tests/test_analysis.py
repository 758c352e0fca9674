"""Tests for the timeline/recovery-report analysis tools."""

import pytest

from repro.analysis import (
    collect_timeline,
    recovery_report,
    render_timeline,
)
from repro.analysis.timeline import recovery_epochs
from repro.cluster import FaultPlan
from repro.experiments.common import ft_config_for, machine_for
from repro.ft.app import run_ft_application
from repro.workloads import ModelLanczosProgram, scaled_spec


@pytest.fixture(scope="module")
def faulty_run():
    spec = scaled_spec(workers=4, iterations=80, name="analysis")
    cfg = ft_config_for(spec, n_spares=2)
    plan = FaultPlan().kill_process(30.0, 1)
    return run_ft_application(
        cfg, ModelLanczosProgram(spec), machine_spec=machine_for(cfg),
        fault_plan=plan, until=600.0,
    ), spec


@pytest.fixture(scope="module")
def clean_run():
    spec = scaled_spec(workers=4, iterations=40, name="analysis-clean")
    cfg = ft_config_for(spec, n_spares=2)
    return run_ft_application(
        cfg, ModelLanczosProgram(spec), machine_spec=machine_for(cfg),
        until=300.0,
    )


class TestCollectTimeline:
    def test_events_chronological_and_complete(self, faulty_run):
        result, _ = faulty_run
        events = collect_timeline(result)
        times = [e.t for e in events]
        assert times == sorted(times)
        labels = {e.label for e in events}
        assert {"KillProcess", "detected", "acknowledged", "failure-ack",
                "recovered", "restored", "done"} <= labels

    def test_checkpoints_excluded_by_default(self, faulty_run):
        result, _ = faulty_run
        default = collect_timeline(result)
        full = collect_timeline(result, include_checkpoints=True)
        assert not any(e.label == "checkpoint" for e in default)
        assert any(e.label == "checkpoint" for e in full)
        assert len(full) > len(default)

    def test_sources_identify_origin(self, faulty_run):
        result, _ = faulty_run
        events = collect_timeline(result)
        sources = {e.source for e in events}
        assert "fault" in sources
        assert "fd" in sources
        assert any(s.startswith("logical-") for s in sources)

    def test_render_contains_rows(self, faulty_run):
        result, _ = faulty_run
        text = render_timeline(collect_timeline(result))
        assert "KillProcess" in text
        assert "acknowledged" in text


class TestRecoveryReport:
    def test_epoch_breakdown(self, faulty_run):
        result, _ = faulty_run
        epochs = recovery_epochs(result)
        assert len(epochs) == 1
        e = epochs[0]
        assert e.failed == (1,)
        assert e.t_inject == 30.0
        assert e.t_inject < e.t_detected <= e.t_acknowledged < e.t_restored
        assert 0 < e.detection_latency < 8
        assert 0 < e.reinit_latency < 5

    def test_report_text(self, faulty_run):
        result, _ = faulty_run
        report = recovery_report(result)
        assert "epoch 1" in report
        assert "injected" in report
        assert "restored" in report

    def test_failure_free_report(self, clean_run):
        assert recovery_report(clean_run) == "failure-free run: no recoveries"
        assert recovery_epochs(clean_run) == []


def test_epochs_match_detections_to_their_own_injections():
    """Two ranks killed together, a third later: the second FD epoch
    reports the later kill, not the second injection in time order."""
    spec = scaled_spec(workers=6, iterations=160, name="analysis-overlap")
    cfg = ft_config_for(spec, n_spares=4)
    plan = (FaultPlan().kill_process(30.0, 1).kill_process(30.0, 2)
            .kill_process(80.0, 3))
    result = run_ft_application(
        cfg, ModelLanczosProgram(spec), machine_spec=machine_for(cfg),
        fault_plan=plan, until=900.0,
    )
    first, second = recovery_epochs(result)
    assert (first.failed, first.t_inject) == ((1, 2), 30.0)
    assert (second.failed, second.t_inject) == ((3,), 80.0)
    assert 0 < first.detection_latency < 8
    assert 0 < second.detection_latency < 8
