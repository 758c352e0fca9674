"""Lockstep cohorts: the batched solver loop against the per-rank oracle.

The model kernel advances a failure-free team as one cohort per
checkpoint interval; at the first divergence it splits back into the
per-rank loop.  The differential fault campaign draws failures that land
exactly on a tick, inside the allreduce window, on its completion, on
the last member, on or right after a checkpoint step, two at once, as
node crashes and as a cut FD link (a notice while nobody is dead).  Every
run must be bit-identical to the per-rank loop of ``tests/oracles``:
worker results (timelines, counters, ``t_done``), FD statistics,
checkpoint phase totals, final virtual time and the tracer's JSONL bytes.
"""

import json
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.checkpoint.manager import CheckpointManager
from repro.cluster import FaultPlan
from repro.experiments.common import ft_config_for, machine_for
from repro.experiments.figure4 import run_bare
from repro.ft.app import run_ft_application
from repro.gaspi import AllreduceOp, ReturnCode, run_gaspi
from repro.gaspi.collectives import Cohort, CollectiveCosts
from repro.obs import tracer as obs_tracer
from repro.obs.export import event_to_record
from repro.sim import Simulator, Sleep
from repro.sim.process import ProcessState
from repro.workloads.kernels import ModelLanczosProgram
from repro.workloads.spec import WorkloadSpec
from tests.oracles.per_rank_loop import PerRankModelProgram, per_rank_bare

N_ITER = 30
INTERVAL = 10
HORIZON = 2000.0


def _spec(workers: int) -> WorkloadSpec:
    return WorkloadSpec(
        name=f"lockstep-{workers}", n_rows=1000 * workers,
        nnz=10000 * workers, n_workers=workers, n_iterations=N_ITER,
        checkpoint_interval=INTERVAL, checkpoint_bytes_global=4096 * workers,
        iteration_time=0.5, setup_time=1.0,
    )


def _run(program_cls, workers, plan=None):
    """Run the FT model kernel traced; returns (result, comparable record)."""
    spec = _spec(workers)
    cfg = ft_config_for(spec)
    machine = machine_for(cfg)
    tracer = obs_tracer.install()
    try:
        result = run_ft_application(cfg, program_cls(spec),
                                    machine_spec=machine, fault_plan=plan,
                                    until=HORIZON)
    finally:
        obs_tracer.deactivate()
    world = result.run.world
    manager = CheckpointManager.maybe_of(world)
    record = {
        "workers": result.worker_results(),
        "fd_stats": result.fd_stats,
        "phase_totals": None if manager is None else dict(manager.phase_totals),
        "now": world.sim.now,
        "jsonl": "".join(json.dumps(event_to_record(ev), sort_keys=True) + "\n"
                         for ev in tracer.events()),
    }
    return result, record


@lru_cache(maxsize=None)
def _ticks(workers):
    """Failure-free wake-up time of every step (the cohort's tick times)."""
    _, record = _run(PerRankModelProgram, workers)
    ticks = {}
    for line in record["jsonl"].splitlines():
        event = json.loads(line)
        if event["etype"] == "solver_iter":
            ticks.setdefault(event["fields"]["step"], event["t"])
    return ticks


# ----------------------------------------------------------------------
# differential fault campaign
# ----------------------------------------------------------------------
def _plan(workers, where, step, frac, victims, how, later):
    """The fault plan of one drawn case (times from the failure-free run)."""
    ticks = _ticks(workers)
    t = ticks[step]
    if where == "window":  # inside the allreduce: (tick, tick + cost)
        t += frac * CollectiveCosts().allreduce(workers, 8)
    elif where == "completion":
        t += CollectiveCosts().allreduce(workers, 8)
    elif where == "ckpt":  # the checkpoint's per-rank allreduce, pre-park
        t = (ticks[step + 1] - _spec(workers).iteration_time
             - frac * CollectiveCosts().allreduce(workers, 8))
    plan = FaultPlan()
    fd_node = ft_config_for(_spec(workers)).fd_rank  # one rank per node
    for rank in victims:
        if how == "node":
            plan.kill_node(t, rank)
        elif how == "link":  # alive, but the FD declares it failed
            plan.break_link(t, fd_node, rank)
        else:
            plan.kill_process(t, rank)
    if later is not None:  # a sequential failure, after the first recovery
        later_step, rank = later
        plan.kill_process(ticks[later_step] + 40.0, rank)
    return plan


@st.composite
def fault_cases(draw):
    workers = draw(st.sampled_from([16, 24, 32]))
    # a tick may wake into a checkpoint step; "ckpt" lands in the per-rank
    # allreduce after one, so the cohort forms without the victim
    where = draw(st.sampled_from(["tick", "window", "completion", "ckpt"]))
    if where == "ckpt":
        step = draw(st.sampled_from(range(INTERVAL, N_ITER, INTERVAL)))
    elif where == "tick":
        step = draw(st.integers(1, N_ITER - 1))
    else:
        step = draw(st.integers(1, N_ITER - 1).filter(
            lambda s: s % INTERVAL))
    victims = [draw(st.one_of(st.just(workers - 1),
                              st.integers(0, workers - 1)))]
    if draw(st.booleans()):  # two in one tick
        victims.append(draw(st.integers(0, workers - 1).filter(
            lambda r: r != victims[0])))
    later = None
    if draw(st.booleans()):
        later = (draw(st.integers(step + 1, N_ITER - 1)),
                 draw(st.integers(0, workers - 1).filter(
                     lambda r: r not in victims)))
    how = draw(st.sampled_from(["process", "node", "link"]))
    return (workers, where, step, draw(st.floats(0.01, 0.99)),
            tuple(victims), how, later)


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=fault_cases())
@example(case=(16, "tick", 5, 0.0, (3,), "process", None))
@example(case=(16, "window", 15, 0.5, (7,), "process", None))
@example(case=(16, "completion", 7, 0.0, (15,), "process", None))  # last
@example(case=(24, "tick", 10, 0.0, (4,), "process", None))  # checkpoint
@example(case=(24, "ckpt", 20, 0.5, (4,), "process", None))
@example(case=(32, "tick", 13, 0.0, (2, 31), "process", None))  # two
@example(case=(16, "window", 23, 0.3, (9,), "node", None))  # node crash
@example(case=(16, "window", 5, 0.5, (3,), "link", None))  # notice only
@example(case=(16, "tick", 4, 0.0, (1,), "process", (12, 6)))
def test_cohorts_match_the_per_rank_loop_under_faults(case):
    workers = case[0]
    plan = _plan(*case)
    _, expected = _run(PerRankModelProgram, workers, plan)
    result, got = _run(ModelLanczosProgram, workers, plan)
    assert got == expected
    assert result.run.world.engine.cohorts == 0
    statuses = {w["status"] for w in got["workers"].values()}
    assert statuses <= {"done", "unrecoverable"}


@pytest.mark.parametrize("checkpoints", [False, True])
def test_bare_loop_matches_the_per_rank_loop(checkpoints):
    spec = _spec(16)
    assert run_bare(spec, checkpoints) == per_rank_bare(spec, checkpoints)


# ----------------------------------------------------------------------
# cohort lifecycle
# ----------------------------------------------------------------------
def test_failure_free_run_forms_one_cohort_per_checkpoint_interval(
        monkeypatch):
    formed = []
    init = Cohort.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        formed.append(self)

    monkeypatch.setattr(Cohort, "__init__", counting_init)
    result, got = _run(ModelLanczosProgram, 16)
    assert len(formed) == N_ITER // INTERVAL
    assert all(len(c.ranks) == 16 for c in formed)
    assert sum(c.rounds for c in formed) == N_ITER - N_ITER // INTERVAL
    assert result.run.world.engine.cohorts == 0
    assert got == _run(PerRankModelProgram, 16)[1]


def _guarded_loop(workers, iterations, lockstep, timeout=1.0):
    """A bare timed solver loop, with or without cohorts; returns the run."""

    def main(ctx):
        group = ctx.group_create(tag=0)
        ctx.group_add_many(group, range(workers))
        ret = yield from ctx.group_commit(group)
        assert ret is ReturnCode.SUCCESS
        step = 0
        while step < iterations:
            ret, _ = yield from ctx.allreduce(step, AllreduceOp.MIN, group,
                                              timeout)
            assert ret is ReturnCode.SUCCESS
            if lockstep:
                rounds, _ = yield from ctx.lockstep(
                    step, 0.5, iterations, group, timeout)
                step += rounds
            else:
                yield Sleep(0.5)
            step += 1
        return ctx.now

    return run_gaspi(main, n_ranks=workers)


def test_scheduled_entries_per_step_fall_at_least_p_fold():
    p = 16
    runs = {lockstep: [_guarded_loop(p, n, lockstep) for n in (100, 200)]
            for lockstep in (False, True)}
    per_rank, cohort = runs[False][1], runs[True][1]
    assert cohort.results == per_rank.results
    assert cohort.sim.now == per_rank.sim.now
    # per step: p wake-ups, p timeout timers and one completion, or one
    # tick and one completion
    per_step = {lockstep: long.sim.scheduled_count - short.sim.scheduled_count
                for lockstep, (short, long) in runs.items()}
    assert per_step[False] >= p * per_step[True]


def test_cohort_run_is_deadlock_free_and_leaves_no_cohort():
    run = _guarded_loop(16, 50, lockstep=True)
    run.sim.run(check_deadlock=True)  # raises SimDeadlock on a stuck rank
    assert run.world.engine.cohorts == 0
    assert all(p.state is ProcessState.DONE for p in run.procs.values())


def test_member_killed_while_parked_is_never_resumed():
    workers, victim = 8, 5
    resumed = []

    def main(ctx):
        group = ctx.group_create(tag=0)
        ctx.group_add_many(group, range(workers))
        yield from ctx.group_commit(group)
        ret, _ = yield from ctx.allreduce(0, AllreduceOp.MIN, group, 1.0)
        assert ret is ReturnCode.SUCCESS
        result = yield from ctx.lockstep(0, 0.5, 100, group, 1.0)
        resumed.append((ctx.rank, result))
        return result

    plan = FaultPlan().kill_process(5.2, victim)
    run = run_gaspi(main, n_ranks=workers, fault_plan=plan)
    assert run.procs[victim].state is ProcessState.KILLED
    assert sorted(rank for rank, _ in resumed) == [
        r for r in range(workers) if r != victim]
    # split at the first tick after the kill: the survivors resume after
    # the sleep of the round it lands in
    rounds, t_last = resumed[0][1]
    assert rounds > 0 and t_last < 5.2 < run.sim.now
    assert run.world.engine.cohorts == 0


def test_a_rank_sleeping_between_parkers_keeps_its_place():
    """Parks that are not back to back start a new cohort, in order."""
    woke = []

    def main(ctx, lockstep):
        group = ctx.group_create(tag=0)
        ctx.group_add_many(group, range(4))
        yield from ctx.group_commit(group)
        for step in range(3):
            ret, _ = yield from ctx.allreduce(step, AllreduceOp.MIN, group,
                                              1.0)
            assert ret is ReturnCode.SUCCESS
            if lockstep and ctx.rank != 1:
                yield from ctx.lockstep(step, 0.5, step + 1, group, 1.0)
            else:
                yield Sleep(0.5)
            woke.append((ctx.now, ctx.rank))

    expected = run_gaspi(lambda ctx: main(ctx, False), n_ranks=4)
    reference, woke[:] = list(woke), []
    run = run_gaspi(lambda ctx: main(ctx, True), n_ranks=4)
    assert woke == reference
    assert run.sim.now == expected.sim.now
    assert run.world.engine.cohorts == 0


def test_a_notice_alone_splits_the_cohort():
    """A posted notice with every member alive still splits at the tick."""
    notice = []

    def main(ctx, lockstep):
        group = ctx.group_create(tag=0)
        ctx.group_add_many(group, range(8))
        yield from ctx.group_commit(group)
        check = (lambda: notice[0] if notice else None)
        step = 0
        while True:
            ret, _ = yield from ctx.allreduce(step, AllreduceOp.MIN, group,
                                              1.0)
            assert ret is ReturnCode.SUCCESS
            if lockstep:
                rounds, _ = yield from ctx.lockstep(step, 0.5, 1000, group,
                                                    1.0, check=check)
                step += rounds
            else:
                yield Sleep(0.5)
            step += 1
            if check() is not None:
                return ctx.now, step

    results = []
    for lockstep in (False, True):
        notice.clear()
        sim = Simulator()
        sim.schedule(7.3, lambda: notice.append("failure"))
        run = run_gaspi(lambda ctx: main(ctx, lockstep), n_ranks=8, sim=sim)
        assert run.world.engine.cohorts == 0
        results.append((run.results, run.sim.now))
    assert results[0] == results[1]


def test_a_timeout_shorter_than_the_allreduce_keeps_per_rank_retries():
    """No round is taken together when its timer would fire first."""

    def main(ctx, lockstep, timeout=1e-5):  # below the 8-rank cost
        group = ctx.group_create(tag=0)
        ctx.group_add_many(group, range(8))
        yield from ctx.group_commit(group)
        step = retries = 0
        while step < 20:
            while True:
                ret, _ = yield from ctx.allreduce(step, AllreduceOp.MIN,
                                                  group, timeout)
                if ret is ReturnCode.SUCCESS:
                    break
                retries += 1
            if lockstep:
                rounds, _ = yield from ctx.lockstep(step, 0.5, 20, group,
                                                    timeout)
                step += rounds
            else:
                yield Sleep(0.5)
            step += 1
        return ctx.now, retries

    per_rank = run_gaspi(lambda ctx: main(ctx, False), n_ranks=8)
    cohort = run_gaspi(lambda ctx: main(ctx, True), n_ranks=8)
    assert cohort.results == per_rank.results
    assert all(retries > 0 for _, retries in cohort.results.values())
