"""Failure-timeline reconstruction: synthetic chains + a scripted run."""

import pytest

from repro.obs.timeline import (
    FailureRecord,
    build_timelines,
    injected_ranks,
    timeline_report,
)
from repro.obs.tracer import TraceEvent


def ev(t, rank, etype, dur=0.0, **fields):
    return TraceEvent(t, rank, etype, dur, fields)


# ----------------------------------------------------------------------
# synthetic chains with known arithmetic
# ----------------------------------------------------------------------
def _one_failure_events():
    return [
        ev(10.0, 1, "failure_injected", kind="KillProcess"),
        ev(16.0, 9, "detection", epoch=1, failed=[1], rescues=[7]),
        ev(16.5, 9, "broadcast_flags", dur=0.5, epoch=1, n_targets=8),
        ev(18.0, 0, "group_rebuild", dur=1.2, epoch=1, size=4),
        ev(18.2, 7, "group_rebuild", dur=1.4, epoch=1, size=4),
        ev(18.2, 7, "spare_promote", dur=2.0, epoch=1, logical=1),
        ev(19.0, 7, "restore", dur=0.8, epoch=1, version=3),
        ev(19.0, 7, "rollback", epoch=1, version=3),
    ]


def test_single_failure_chain_reconstruction():
    (rec,) = build_timelines(_one_failure_events(), scenario="synthetic")
    assert rec.epoch == 1
    assert rec.failed == (1,) and rec.rescues == (7,)
    assert rec.t_injected == 10.0 and rec.t_detected == 16.0
    assert rec.detection_latency_s == pytest.approx(6.0)
    assert rec.broadcast_s == pytest.approx(0.5)
    # rebuild ends when the *last* member committed
    assert rec.t_rebuilt == 18.2
    assert rec.group_rebuild_s == pytest.approx(1.7)
    assert rec.spare_promote_s == pytest.approx(2.0)
    assert rec.restore_s == pytest.approx(0.8)
    assert rec.rollback_s == pytest.approx(0.0)
    assert rec.total_recovery_s == pytest.approx(9.0)
    assert rec.restore_version == 3
    assert rec.complete and rec.nonnegative


def test_incomplete_chain_flagged():
    events = _one_failure_events()[:2]  # inject + detection only
    (rec,) = build_timelines(events)
    assert not rec.complete
    assert rec.group_rebuild_s is None
    assert "incomplete chain" in timeline_report([rec])


def test_epoch_correlation_of_overlapping_failures():
    events = _one_failure_events() + [
        ev(30.0, 2, "failure_injected", kind="KillProcess"),
        ev(35.0, 9, "detection", epoch=2, failed=[2], rescues=[8]),
        ev(37.0, 8, "group_rebuild", dur=1.0, epoch=2, size=4),
        ev(37.0, 8, "spare_promote", dur=1.5, epoch=2, logical=2),
        ev(37.5, 8, "restore", dur=0.5, epoch=2, version=4),
    ]
    recs = build_timelines(events)
    assert [r.epoch for r in recs] == [1, 2]
    assert recs[1].t_injected == 30.0
    assert recs[1].detection_latency_s == pytest.approx(5.0)
    assert recs[1].complete


def test_manager_restore_without_epoch_ignored_by_chains():
    events = _one_failure_events() + [
        ev(2.0, 3, "restore", dur=0.1, version=0, source="local"),
    ]
    (rec,) = build_timelines(events)
    assert rec.t_restored == 19.0  # the out-of-recovery read did not attach


def test_latest_injection_before_detection_wins():
    """A rank killed, recovered, then killed again: each detection pairs
    with the newest injection at or before it."""
    events = [
        ev(10.0, 1, "failure_injected"),
        ev(15.0, 9, "detection", epoch=1, failed=[1], rescues=[7]),
        ev(16.0, 7, "group_rebuild", dur=1.0, epoch=1),
        ev(16.0, 7, "spare_promote", dur=1.0, epoch=1),
        ev(16.5, 7, "restore", dur=0.5, epoch=1),
        ev(40.0, 1, "failure_injected"),
        ev(45.0, 9, "detection", epoch=2, failed=[1], rescues=[8]),
        ev(46.0, 8, "group_rebuild", dur=1.0, epoch=2),
        ev(46.0, 8, "spare_promote", dur=1.0, epoch=2),
        ev(46.5, 8, "restore", dur=0.5, epoch=2),
    ]
    recs = build_timelines(events)
    assert recs[0].t_injected == 10.0
    assert recs[1].t_injected == 40.0


# ----------------------------------------------------------------------
# a scripted failure scenario through the real stack
# ----------------------------------------------------------------------
def test_timeline_from_scripted_failure_scenario():
    """One kill through the full FT stack must reconstruct into exactly
    one complete detection→rebuild→promote→restore chain."""
    from repro.experiments.common import run_ft_scenario
    from repro.obs import tracer as obs_tracer
    from repro.workloads.spec import scaled_spec

    spec = scaled_spec(workers=8, iterations=60, name="scripted")
    tr = obs_tracer.install()
    try:
        run_ft_scenario("scripted", spec, kill_times=[(40.0, 1)], n_spares=2)
    finally:
        obs_tracer.deactivate()
    events = tr.events()
    assert tr.dropped == 0
    assert injected_ranks(events) == [1]

    recs = build_timelines(events, scenario="scripted")
    assert len(recs) == 1
    rec = recs[0]
    assert rec.failed == (1,)
    assert rec.complete and rec.nonnegative
    assert rec.t_injected == pytest.approx(40.0)
    # detection latency ~ scan wait + error timeout: positive, bounded
    assert 0.0 < rec.detection_latency_s < 15.0
    assert rec.group_rebuild_s > 0.0
    assert rec.spare_promote_s > 0.0
    assert rec.restore_s > 0.0
    assert rec.total_recovery_s == pytest.approx(
        rec.t_rollback - rec.t_injected)


# ----------------------------------------------------------------------
# traced runs of the FT application
# ----------------------------------------------------------------------
def _traced_run(name, workers, iterations, until, plan=None, n_spares=2):
    """Trace events of one model-kernel FT run under ``plan``."""
    from repro.experiments.common import ft_config_for, machine_for
    from repro.ft.app import run_ft_application
    from repro.obs import tracer as obs_tracer
    from repro.workloads import ModelLanczosProgram, scaled_spec

    spec = scaled_spec(workers=workers, iterations=iterations, name=name)
    cfg = ft_config_for(spec, n_spares=n_spares)
    tr = obs_tracer.install()
    try:
        run_ft_application(
            cfg, ModelLanczosProgram(spec), machine_spec=machine_for(cfg),
            fault_plan=plan, until=until,
        )
    finally:
        obs_tracer.deactivate()
    assert tr.dropped == 0
    return tr.events()


@pytest.fixture(scope="module")
def one_kill_records():
    from repro.cluster import FaultPlan

    events = _traced_run("analysis", 4, 80, 600.0,
                         plan=FaultPlan().kill_process(30.0, 1))
    return build_timelines(events)


def test_traced_run_epoch_breakdown(one_kill_records):
    (rec,) = one_kill_records
    assert rec.failed == (1,)
    assert rec.t_injected == 30.0
    assert (rec.t_injected < rec.t_detected <= rec.t_broadcast
            < rec.t_restored)
    assert 0 < rec.detection_latency_s < 8
    # notice broadcast -> checkpoint restored: group rebuild + read
    assert 0 < rec.t_restored - rec.t_broadcast < 5


def test_traced_run_report_text(one_kill_records):
    report = timeline_report(one_kill_records)
    assert "epoch 1" in report
    assert "injected" in report
    assert "restored" in report


def test_failure_free_run_has_no_records():
    records = build_timelines(_traced_run("analysis-clean", 4, 40, 300.0))
    assert records == []
    assert "(no failures detected)" in timeline_report(records)


def test_epochs_match_detections_to_their_own_injections():
    """Two ranks killed together, a third later: the second FD epoch
    reports the later kill, not the second injection in time order."""
    from repro.cluster import FaultPlan

    plan = (FaultPlan().kill_process(30.0, 1).kill_process(30.0, 2)
            .kill_process(80.0, 3))
    first, second = build_timelines(
        _traced_run("analysis-overlap", 6, 160, 900.0, plan=plan, n_spares=4))
    assert (first.failed, first.t_injected) == ((1, 2), 30.0)
    assert (second.failed, second.t_injected) == ((3,), 80.0)
    assert 0 < first.detection_latency_s < 8
    assert 0 < second.detection_latency_s < 8
