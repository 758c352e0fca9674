"""Weak-scaling benches: per-rank FT costs across the rank ladder.

The paper runs at 256 nodes (and ROADMAP item 1 asks for 1024–4096-rank
sweeps); what must stay flat under weak scaling is the *per-rank* cost of
the FT machinery — the FD's scan round and the recovery's group rebuild.
This module measures exactly those two kernels, the checkpoint planes
and an end-to-end fixed-per-rank-workload scenario ladder.  ``bench
--scaling`` records them as ``current`` in ``BENCH_core.json``; the
``seed`` table beside it is the frozen pre-vectorization measurement the
speedup targets are read against.

Metrics (all lower-is-better except the ladder maximum):

* ``fd_scan_us_per_rank`` — wall microseconds per probed rank per FD
  scan round, measured over full ``scan_once`` rounds inside a live
  simulation at the reference scale (256 ranks): the target list is
  derived once, and every round posts one single-callback batched sweep.
* ``group_rebuild_us_per_rank`` — wall microseconds per member of one
  recovery-side group rebuild: ``map_members`` + ``group_create`` +
  ``group_fill`` + ``logical_in_map``.  The collective commit is
  excluded — its virtual cost would only add noise.
* ``ckpt_mirror_us_per_rank`` — wall microseconds per rank per
  checkpoint write+mirror round, committed whole through
  ``CheckpointManager.commit_round`` (shared staging arena, one cached
  O(n) neighbor map, one round-priced mirror scatter).
* ``ranks_max_at_60s`` — the largest ladder rung whose fixed
  per-rank-workload scenario (one mid-run failure, full detect →
  promote → rebuild → restore cycle) completes within the wall cap.

Run ``python -m repro bench --scaling`` to record the ladder, or
``python -m repro bench --smoke`` for the CI smoke variant (one traced
256-rank scenario, validated and wall-capped).
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Optional, Sequence

#: the weak-scaling rank ladder (workers; each rung adds n_spares + FD)
RANKS_LADDER = (16, 64, 256, 1024, 2048, 4096)

#: reference scale for the per-rank kernel metrics (the paper's node count)
REFERENCE_RANKS = 256

#: wall-clock budget per scenario rung; the ladder stops at the first
#: rung that exceeds (or is predicted to exceed) it
WALL_CAP_S = 60.0

#: spares per rung — the scenario injects one failure, so the pool never
#: runs dry and the rung cost is dominated by the scale, not the budget
N_SPARES = 4

#: per-rank workload held fixed across the ladder (weak scaling)
ITERATIONS = 25

#: (time, worker rank) of the single injected failure per scenario rung
KILL = (10.5, 3)


def _run_gc_paused(main, n_ranks: int) -> None:
    """``run_gaspi(main)`` with the collector paused: the standard
    benchmark hygiene, since collector pauses otherwise land randomly
    inside the timed region."""
    from repro.gaspi import run_gaspi

    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run_gaspi(main, n_ranks=n_ranks)
    finally:
        if gc_was_enabled:
            gc.enable()


# ----------------------------------------------------------------------
# kernel bench 1: FD scan round
# ----------------------------------------------------------------------
def bench_fd_scan_us_per_rank(n_ranks: int = REFERENCE_RANKS,
                              rounds: Optional[int] = None) -> float:
    """Wall microseconds per probed rank per full FD scan round.

    One rank (the FD slot, ``n_ranks - 1``) sweeps all others ``rounds``
    times inside a live simulation, exercising the detector's real scan
    pipeline: target derivation via the rankstate kernels, then
    ``scan_once``.
    """
    import numpy as np

    from repro.ft import rankstate
    from repro.ft.detector import scan_once
    from repro.gaspi import run_gaspi

    if rounds is None:
        rounds = max(4, 4096 // n_ranks)
    n_rounds = rounds
    wall = [0.0]

    def main(ctx):
        if ctx.rank != n_ranks - 1:
            return
        statuses = np.zeros(n_ranks, dtype=np.int64)
        avoid = rankstate.avoid_mask(statuses)
        targets: Optional[List[int]] = None
        t0 = time.perf_counter()
        for _ in range(n_rounds):
            if targets is None:
                targets = rankstate.scan_targets(avoid, ctx.rank)
            failed = yield from scan_once(ctx, targets, 1)
            assert not failed
        wall[0] = time.perf_counter() - t0

    run_gaspi(main, n_ranks=n_ranks)
    return wall[0] / (n_rounds * (n_ranks - 1)) * 1e6


# ----------------------------------------------------------------------
# kernel bench 2: group rebuild
# ----------------------------------------------------------------------
def bench_group_rebuild_us_per_rank(n_ranks: int = REFERENCE_RANKS,
                                    rounds: Optional[int] = None) -> float:
    """Wall microseconds per member of one recovery group rebuild.

    Measures the Python-side rebuild work each member performs in
    :func:`repro.ft.recovery.perform_recovery`: sorted member extraction
    from the rank map, group creation and population, and the rank's own
    logical-identity lookup.  The collective commit is excluded.
    """
    from repro.ft import rankstate
    from repro.gaspi.groups import Group

    if rounds is None:
        rounds = max(4, 4096 // n_ranks)
    rank_map = {logical: logical for logical in range(n_ranks)}

    t0 = time.perf_counter()
    for k in range(rounds):
        members = rankstate.map_members(rank_map)
        group = Group(tag=k)
        rankstate.group_fill(group, members)
        assert rankstate.logical_in_map(rank_map, n_ranks - 1) == n_ranks - 1
        assert len(group.members) == n_ranks
    wall = time.perf_counter() - t0
    return wall / (rounds * n_ranks) * 1e6


# ----------------------------------------------------------------------
# kernel bench 3: checkpoint mirror round
# ----------------------------------------------------------------------
def bench_ckpt_mirror_us_per_rank(n_ranks: int = REFERENCE_RANKS,
                                  rounds: Optional[int] = None) -> float:
    """Wall microseconds per rank per checkpoint write+mirror round.

    Every rank commits one checkpoint per round and all of the round's
    neighbor mirrors must land before the next round starts.  The whole
    round is driven through
    :meth:`repro.checkpoint.CheckpointManager.commit_round` (one shared
    arena pack, one cached neighbor map, one round-priced mirror
    scatter).

    ``rounds`` counts *timed* rounds (at least 2); one extra untimed
    round runs first so that one-time costs (neighbor-map build, arena
    growth, store wiring) warm up outside the measurement.  The reported
    figure is the *fastest* observed round (the ``timeit`` estimator):
    per-round wall times vary >1.5x under scheduler/frequency noise and
    the minimum is the noise-free steady-state cost — the regime the
    scenario ladder spends its wall time in.  The default keeps
    ``rounds * n_ranks`` constant across rungs so every scale times the
    same number of mirror operations.
    """
    import numpy as np

    from repro.checkpoint import CheckpointLib, CheckpointManager
    from repro.sim import Sleep, WaitEvent

    if rounds is None:
        rounds = max(4, 16384 // n_ranks)
    n_rounds = rounds + 1  # + the untimed warm-up round
    payload = {"step": np.zeros(8)}
    nominal = 1 << 20
    period = 1.0  # virtual seconds between rounds; mirrors land well inside
    #: best observed per-round wall seconds (min over timed rounds)
    wall = [0.0]

    def main(ctx):
        if ctx.rank != 0:
            return
        libs = {
            r: CheckpointLib(ctx.world.contexts[r], r, range(n_ranks))
            for r in range(n_ranks)
        }
        manager = CheckpointManager.of(ctx.world)
        payloads = {r: payload for r in range(n_ranks)}
        marks = []
        for k in range(n_rounds):
            yield Sleep((k + 1) * period - ctx.now)
            if k >= 1:
                # round-top marks after the warm-up round; the
                # consecutive diffs are full per-round walls
                marks.append(time.perf_counter())
            mirrors = yield from manager.commit_round(
                libs, k, payloads, nominal_bytes=nominal)
            # all of a healthy uniform-fabric round's mirrors land in the
            # same delivery tick: wait once, then sweep any stragglers
            # (none in this scenario) instead of paying a countdown
            # callback per mirror inside the timing
            events = list(mirrors.values())
            yield WaitEvent(events[-1], 10.0)
            for ev in events:
                if not ev.fired:
                    yield WaitEvent(ev, 10.0)
        yield Sleep(period / 2)
        marks.append(time.perf_counter())
        wall[0] = min(b - a for a, b in zip(marks, marks[1:]))

    _run_gc_paused(main, n_ranks)
    return wall[0] / n_ranks * 1e6


# ----------------------------------------------------------------------
# kernel bench 4: replicated-backend restore round
# ----------------------------------------------------------------------
def bench_ckpt_replicated_restore_us_per_rank(
    n_ranks: int = REFERENCE_RANKS,
    rounds: Optional[int] = None,
) -> float:
    """Wall microseconds per rank per replicated-backend restore round.

    Every rank commits one ReStore-style replicated checkpoint (r copies
    scattered to its holders), then repeatedly restores it: the batched
    ``read_list`` fetch across the surviving replica set, CRC-validated
    unpack included — the per-rank cost of the recovery path the
    replicated backend exists for.

    Timing protocol matches :func:`bench_ckpt_mirror_us_per_rank`: one
    untimed warm-up round (placement map build, store wiring, arena
    growth), then the *fastest* timed round, with the collector paused.
    """
    import numpy as np

    from repro.checkpoint import CheckpointConfig, CheckpointLib
    from repro.sim import Sleep, WaitEvent

    if rounds is None:
        rounds = max(4, 16384 // n_ranks)
    n_rounds = rounds + 1  # + the untimed warm-up round
    payload = {"step": np.zeros(8)}
    nominal = 1 << 20
    period = 1.0  # virtual seconds between rounds; fetches land inside
    wall = [0.0]

    def main(ctx):
        lib = CheckpointLib(
            ctx, ctx.rank, range(n_ranks),
            config=CheckpointConfig(backend="replicated", tag="bench"),
        )
        protected = yield from lib.write_checkpoint(
            0, payload, nominal_bytes=nominal)
        yield WaitEvent(protected, 10.0)
        marks = []
        for k in range(n_rounds):
            yield Sleep((k + 1) * period - ctx.now)
            if k >= 1 and ctx.rank == 0:
                # rank 0 resumes at every round top: consecutive
                # diffs span the whole world's restore round
                marks.append(time.perf_counter())
            version, restored = yield from lib.read_checkpoint(
                0, reprotect=False)
            assert version == 0 and "step" in restored
        if ctx.rank == 0:
            yield Sleep(period / 2)
            marks.append(time.perf_counter())
            wall[0] = min(b - a for a, b in zip(marks, marks[1:]))

    _run_gc_paused(main, n_ranks)
    return wall[0] / n_ranks * 1e6


# ----------------------------------------------------------------------
# kernel bench 5: world construction
# ----------------------------------------------------------------------
def bench_world_build(workers: int, repeats: int = 3) -> Dict[str, float]:
    """Construction-only probe: build one scenario rung's world, untouched.

    Returns ``{"world_build_s": ..., "world_peak_mb": ...}`` for the
    exact machine + GASPI world the ``weak-<workers>`` scenario runs on
    (workers + spares + FD ranks, one per node), without running it.
    The wall time is the best of ``repeats`` clean passes (the flyweight
    build is a few milliseconds, so a single pass would be mostly
    scheduler noise); the allocation peak comes from one more
    construction under ``tracemalloc`` (the tracer multiplies allocation
    cost, so timing a traced build would measure tracemalloc, not the
    flyweight construction path).
    """
    import tracemalloc

    from repro.experiments.common import ft_config_for, machine_for
    from repro.cluster import Machine
    from repro.gaspi.runtime import GaspiWorld
    from repro.sim import Simulator
    from repro.workloads.spec import scaled_spec

    spec = scaled_spec(workers=workers, iterations=ITERATIONS,
                       name=f"weak-{workers}")
    cfg = ft_config_for(spec, n_spares=N_SPARES)
    machine_spec = machine_for(cfg)

    def build() -> GaspiWorld:
        sim = Simulator()
        return GaspiWorld(sim, Machine(sim, machine_spec))

    build_s = float("inf")
    for _ in range(max(1, repeats)):
        gc.collect()
        t0 = time.perf_counter()
        world = build()
        build_s = min(build_s, time.perf_counter() - t0)
        assert world.n_ranks == cfg.n_ranks
        del world
    gc.collect()
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "world_build_s": round(build_s, 4),
        "world_peak_mb": round(peak / (1 << 20), 3),
    }


# ----------------------------------------------------------------------
# end-to-end ladder: fixed per-rank workload, one failure per rung
# ----------------------------------------------------------------------
def scenario_wall_s(workers: int) -> float:
    """Wall seconds of one fixed-per-rank-workload failure scenario."""
    from repro.experiments.common import run_ft_scenario
    from repro.workloads.spec import scaled_spec

    spec = scaled_spec(workers=workers, iterations=ITERATIONS,
                       name=f"weak-{workers}")
    t0 = time.perf_counter()
    outcome = run_ft_scenario(f"weak-{workers}", spec,
                              kill_times=[KILL], n_spares=N_SPARES)
    wall = time.perf_counter() - t0
    assert outcome.n_recoveries == 1
    return wall


def run_scaling(ranks: Sequence[int] = RANKS_LADDER,
                wall_cap_s: float = WALL_CAP_S,
                scenarios: bool = True) -> Dict[str, object]:
    """The full weak-scaling suite.

    Returns per-rung kernel measurements, the scenario ladder walls, and
    ``ranks_max_at_60s``.  A rung predicted (from the previous rung,
    assuming slightly superlinear growth) or measured to exceed the wall
    cap stops the ladder; skipped rungs are listed explicitly, never
    silently absent.
    """
    ladder = sorted(set(int(n) for n in ranks))
    fd_scan: Dict[str, float] = {}
    rebuild: Dict[str, float] = {}
    ckpt_mirror: Dict[str, float] = {}
    ckpt_replicated: Dict[str, float] = {}
    world_build: Dict[str, float] = {}
    world_peak: Dict[str, float] = {}
    walls: Dict[str, float] = {}
    skipped: List[str] = []
    ranks_max = 0

    # flyweight world construction (shared group membership, pooled
    # segments, lazy boards) keeps even the 4096-rank bench worlds cheap,
    # so the kernel benches run at every rung of the ladder
    for n in ladder:
        build = bench_world_build(n)
        world_build[str(n)] = build["world_build_s"]
        world_peak[str(n)] = build["world_peak_mb"]
        fd_scan[str(n)] = round(bench_fd_scan_us_per_rank(n), 3)
        rebuild[str(n)] = round(bench_group_rebuild_us_per_rank(n), 3)
        ckpt_mirror[str(n)] = round(bench_ckpt_mirror_us_per_rank(n), 3)
        ckpt_replicated[str(n)] = round(
            bench_ckpt_replicated_restore_us_per_rank(n), 3)

    if scenarios:
        prev_n: Optional[int] = None
        prev_wall = 0.0
        for n in ladder:
            if prev_n is not None and prev_wall > 0.0:
                predicted = prev_wall * (n / prev_n) ** 1.3
                if predicted > wall_cap_s:
                    skipped.append(
                        f"weak-{n}: predicted {predicted:.1f}s > "
                        f"{wall_cap_s:.0f}s cap (from weak-{prev_n} at "
                        f"{prev_wall:.1f}s)")
                    break
            wall = scenario_wall_s(n)
            walls[str(n)] = round(wall, 3)
            prev_n, prev_wall = n, wall
            if wall > wall_cap_s:
                skipped.append(f"ladder stopped: weak-{n} took "
                               f"{wall:.1f}s > {wall_cap_s:.0f}s cap")
                break
            ranks_max = n

    return {
        "ranks": ladder,
        "wall_cap_s": wall_cap_s,
        "world_build_s": world_build,
        "world_peak_mb": world_peak,
        "fd_scan_us_per_rank": fd_scan,
        "group_rebuild_us_per_rank": rebuild,
        "ckpt_mirror_us_per_rank": ckpt_mirror,
        "ckpt_replicated_restore_us_per_rank": ckpt_replicated,
        "scenario_wall_s": walls,
        "ranks_max_at_60s": ranks_max,
        "skipped": skipped,
    }


def summary_metrics(scaling: Dict[str, object]) -> Dict[str, float]:
    """The flat ``BENCH_core.json`` metrics from one ladder run.

    Only numbers comparable with the committed ones are reported: the
    per-rank kernel metrics when the reference rung (256 ranks, the
    paper's node count) ran, and the construction metrics and
    ``ranks_max_at_60s`` when the ladder reached the top of
    :data:`RANKS_LADDER` — the rung the flyweight world-build work
    exists for.  A shorter ladder (``--ranks 8``) reports none of them,
    so merging its result leaves the committed values alone.
    """
    reference, top = str(REFERENCE_RANKS), str(RANKS_LADDER[-1])
    out: Dict[str, float] = {}
    for key, rung in (("fd_scan_us_per_rank", reference),
                      ("group_rebuild_us_per_rank", reference),
                      ("ckpt_mirror_us_per_rank", reference),
                      ("ckpt_replicated_restore_us_per_rank", reference),
                      ("world_build_s", top), ("world_peak_mb", top)):
        table = scaling.get(key, {})
        assert isinstance(table, dict)
        if rung in table:
            out[key] = table[rung]
    ranks = scaling.get("ranks", ())
    assert isinstance(ranks, (list, tuple))
    if scaling.get("scenario_wall_s") and RANKS_LADDER[-1] in ranks:
        out["ranks_max_at_60s"] = float(scaling["ranks_max_at_60s"])
    return out


# ----------------------------------------------------------------------
# CI smoke: one traced, validated, wall-capped 256-rank scenario
# ----------------------------------------------------------------------
def _smoke_outcome(workers: int, backend: str = "neighbor",
                   replication: int = 2):
    """Sweep worker: the reference-scale scenario, stripped for pickling."""
    from repro.checkpoint.manager import CheckpointConfig
    from repro.experiments.common import run_ft_scenario
    from repro.workloads.spec import scaled_spec

    spec = scaled_spec(workers=workers, iterations=ITERATIONS,
                       name=f"smoke-{workers}")
    outcome = run_ft_scenario(
        f"weak-{workers}", spec, kill_times=[KILL], n_spares=N_SPARES,
        checkpoint=CheckpointConfig(backend=backend,
                                    replication=replication))
    outcome.result = None
    return outcome


def run_smoke(workers: int = REFERENCE_RANKS,
              wall_cap_s: float = WALL_CAP_S,
              bulk_capacity: int = 4096,
              backend: str = "neighbor",
              replication: int = 2) -> int:
    """The CI weak-scaling smoke: traced 256-rank scenario under a cap.

    Asserts that (a) the scenario finishes within ``wall_cap_s``, (b) the
    single injected failure resolves into a complete, validation-clean
    lifecycle chain even at that scale — the tracer's bulk ring keeps the
    ping/solver-iteration flood from evicting the lifecycle events — and
    (c) exactly one recovery happened.  Returns a process exit status.
    ``backend`` swaps the checkpoint backend under the same scenario, so
    CI exercises the replicated restore path at reference scale too.
    """
    from repro.experiments.sweep import SweepTask, run_traced_sweep
    from repro.experiments.trace import validate_trace

    t0 = time.perf_counter()
    results, traces = run_traced_sweep(
        [SweepTask("scaling-smoke", f"weak-{workers}", _smoke_outcome,
                   (workers, backend, replication))],
        jobs=1, bulk_capacity=bulk_capacity)
    wall = time.perf_counter() - t0

    outcome, trace = results[0], traces[0]
    errors = validate_trace(trace)
    print(f"weak-scaling smoke [{backend}]: {workers} ranks in {wall:.1f}s "
          f"(cap {wall_cap_s:.0f}s), {outcome.n_recoveries} recovery, "
          f"{len(trace.events)} trace events "
          f"({trace.dropped_bulk} bulk-ring evictions tolerated)")
    failed = False
    if wall > wall_cap_s:
        print(f"FAIL: wall {wall:.1f}s exceeds the {wall_cap_s:.0f}s cap")
        failed = True
    if outcome.n_recoveries != 1:
        print(f"FAIL: expected exactly 1 recovery, "
              f"saw {outcome.n_recoveries}")
        failed = True
    lifecycle_dropped = trace.dropped - trace.dropped_bulk
    if lifecycle_dropped:
        print(f"FAIL: {lifecycle_dropped} lifecycle trace events dropped")
        failed = True
    if errors:
        print("FAIL: trace validation errors:")
        for err in errors:
            print(f"  - {err}")
        failed = True
    if failed:
        return 1
    print("OK — scenario completed under the cap with a clean, complete "
          "failure-lifecycle trace")
    return 0
