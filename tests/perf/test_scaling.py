"""Weak-scaling harness units: the kernel benches run, the ladder
structure is complete and explicit about skips, the summary picks the
reference scale, and the CI smoke validates end to end (scaled down here
so the tier-1 suite stays fast)."""

from repro.perf import scaling
from repro.perf.bench import (LOWER_IS_BETTER, TARGET_FLOOR, TARGET_SPEEDUP,
                              _speedup)


def test_kernel_benches_run():
    fd = scaling.bench_fd_scan_us_per_rank(16, rounds=2)
    rb = scaling.bench_group_rebuild_us_per_rank(16, rounds=2)
    cm = scaling.bench_ckpt_mirror_us_per_rank(16, rounds=2)
    assert fd > 0.0 and rb > 0.0 and cm > 0.0


def test_run_scaling_structure_without_scenarios():
    out = scaling.run_scaling(ranks=[8, 16], scenarios=False)
    assert out["ranks"] == [8, 16]
    assert set(out["fd_scan_us_per_rank"]) == {"8", "16"}
    assert set(out["group_rebuild_us_per_rank"]) == {"8", "16"}
    assert set(out["ckpt_mirror_us_per_rank"]) == {"8", "16"}
    # construction metrics are measured at every rung — the kernel loop
    # no longer skips large rungs behind a memory-bound cap
    assert set(out["world_build_s"]) == {"8", "16"}
    assert set(out["world_peak_mb"]) == {"8", "16"}
    assert out["scenario_wall_s"] == {}
    assert out["ranks_max_at_60s"] == 0
    assert out["skipped"] == []


def test_summary_metrics_report_only_comparable_rungs():
    top = scaling.RANKS_LADDER[-1]
    out = scaling.summary_metrics({
        "ranks": [16, 64, 256, top],
        "fd_scan_us_per_rank": {"16": 4.0, "256": 2.0, str(top): 1.0},
        "group_rebuild_us_per_rank": {"16": 8.0, "64": 6.0},
        "ckpt_mirror_us_per_rank": {"16": 40.0, "256": 20.0},
        "scenario_wall_s": {"16": 0.1},
        "ranks_max_at_60s": 64,
        "world_build_s": {"16": 0.001, str(top): 0.03},
        "world_peak_mb": {"16": 0.02, str(top): 1.2},
    })
    assert out["fd_scan_us_per_rank"] == 2.0      # the 256-rank reference
    assert out["ckpt_mirror_us_per_rank"] == 20.0  # the 256-rank reference
    # no 256-rank rung: a smaller rung is not comparable, so no value
    assert "group_rebuild_us_per_rank" not in out
    assert "ckpt_replicated_restore_us_per_rank" not in out
    # the ladder reached its top: construction metrics surface there
    assert out["ranks_max_at_60s"] == 64.0
    assert out["world_build_s"] == 0.03
    assert out["world_peak_mb"] == 1.2
    # a short ladder reports nothing a merge could clobber
    assert scaling.summary_metrics({
        "ranks": [8],
        "fd_scan_us_per_rank": {"8": 3.0},
        "group_rebuild_us_per_rank": {"8": 3.0},
        "ckpt_mirror_us_per_rank": {"8": 3.0},
        "ckpt_replicated_restore_us_per_rank": {"8": 3.0},
        "world_build_s": {"8": 0.001},
        "world_peak_mb": {"8": 0.02},
        "scenario_wall_s": {"8": 0.1},
        "ranks_max_at_60s": 8,
    }) == {}


def test_scaling_metrics_are_tracked_lower_is_better():
    for key in ("fd_scan_us_per_rank", "group_rebuild_us_per_rank"):
        assert key in LOWER_IS_BETTER
        assert TARGET_SPEEDUP[key] == 5.0
    assert "ckpt_mirror_us_per_rank" in LOWER_IS_BETTER
    assert TARGET_SPEEDUP["ckpt_mirror_us_per_rank"] == 4.0
    assert "world_build_s" in LOWER_IS_BETTER
    assert "world_peak_mb" in LOWER_IS_BETTER
    assert TARGET_FLOOR["ranks_max_at_60s"] == 4096
    # the inversion: a drop from 4 us to 1 us must read as a 4x speedup
    ratios = _speedup({"fd_scan_us_per_rank": 4.0},
                      {"fd_scan_us_per_rank": 1.0})
    assert ratios["fd_scan_us_per_rank"] == 4.0


def test_sweep_parallel_speedup_null_on_single_core(monkeypatch):
    """1-core boxes report null, not a meaningless 1.0 baseline."""
    from repro.perf import bench

    monkeypatch.setattr(bench.os, "cpu_count", lambda: 1)
    assert bench.bench_sweep_scaling() is None


def test_scenario_ladder_runs_a_recovery_at_small_scale():
    wall = scaling.scenario_wall_s(16)
    assert wall > 0.0


def test_smoke_passes_at_reduced_scale(capsys):
    assert scaling.run_smoke(workers=16, wall_cap_s=60.0,
                             bulk_capacity=512) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "1 recovery" in out
