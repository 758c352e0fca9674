"""The scalar form of ``allreduce``: a plain ``int`` is one int64 word.

It must reduce exactly like the array path (int64 wraparound included),
return a Python ``int``, and keep every check the array path has: commit
state, membership, membership agreement, timeouts on a dead member and
retry-rejoins-the-same-instance.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import FaultPlan
from repro.gaspi import AllreduceOp, GaspiUsageError, ReturnCode, run_gaspi
from repro.gaspi.collectives import INT64_MAX, INT64_MIN, CollectiveEngine
from repro.gaspi.groups import Group
from repro.sim import Simulator, Sleep

OPS = (AllreduceOp.MIN, AllreduceOp.MAX, AllreduceOp.SUM)

int64s = st.one_of(
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1,
                     INT64_MAX - 1, INT64_MAX]),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(values=st.lists(int64s, min_size=1, max_size=64))
def test_scalar_allreduce_equals_array_path(values):
    def main(ctx):
        mine = values[ctx.rank]
        out = []
        for op in OPS:
            ret, scalar = yield from ctx.allreduce(mine, op)
            assert ret is ReturnCode.SUCCESS
            ret, array = yield from ctx.allreduce(
                np.array([mine], dtype=np.int64), op)
            assert ret is ReturnCode.SUCCESS
            out.append((scalar, array))
        return out

    run = run_gaspi(main, n_ranks=len(values))
    for rank in range(len(values)):
        for scalar, array in run.result(rank):
            assert type(scalar) is int
            assert isinstance(array, np.ndarray) and array.dtype == np.int64
            assert scalar == int(array[0])


def test_scalar_sum_wraps_like_int64():
    def main(ctx):
        ret, total = yield from ctx.allreduce(INT64_MAX, AllreduceOp.SUM)
        return total

    run = run_gaspi(main, n_ranks=2)
    assert run.result(0) == run.result(1) == -2


@pytest.mark.parametrize("value", [True, np.int64(3), 3.0, [3]])
def test_non_int_inputs_take_the_array_path(value):
    def main(ctx):
        ret, result = yield from ctx.allreduce(value, AllreduceOp.MAX)
        return result

    run = run_gaspi(main, n_ranks=2)
    result = run.result(0)
    # numpy values: a 0-d input reduces to a numpy scalar, a list to an array
    assert isinstance(result, (np.ndarray, np.generic))
    assert np.array_equal(result, np.array(value))


@pytest.mark.parametrize("value", [INT64_MAX + 1, INT64_MIN - 1])
def test_out_of_range_int_rejected(value):
    def main(ctx):
        yield from ctx.allreduce(value, AllreduceOp.MIN)

    with pytest.raises(GaspiUsageError):
        run_gaspi(main, n_ranks=1)


def test_scalar_and_array_contributions_must_not_mix():
    def main(ctx):
        mine = 1 if ctx.rank == 0 else np.array(1)
        yield from ctx.allreduce(mine, AllreduceOp.MIN)

    with pytest.raises(GaspiUsageError):
        run_gaspi(main, n_ranks=2)


def test_scalar_allreduce_uncommitted_group_raises():
    def main(ctx):
        g = ctx.group_create(tag=1)
        g.add(ctx.rank)
        yield from ctx.allreduce(1, AllreduceOp.MIN, g)

    with pytest.raises(GaspiUsageError):
        run_gaspi(main, n_ranks=1)


def test_scalar_allreduce_non_member_raises():
    def main(ctx):
        g = ctx.group_create(tag=2)
        g.add(0)
        g.committed = True
        yield from ctx.allreduce(1, AllreduceOp.MIN, g)

    with pytest.raises(GaspiUsageError):
        run_gaspi(main, n_ranks=2)


def test_scalar_arrival_with_mismatched_membership_raises():
    engine = CollectiveEngine(Simulator())
    identity = (7, "team")
    engine.arrive("allreduce", identity, 0, 0, (0, 1), 5, op=AllreduceOp.MIN)
    with pytest.raises(GaspiUsageError):
        engine.arrive("allreduce", identity, 0, 1, (0, 1, 2), 6,
                      op=AllreduceOp.MIN)


def test_scalar_rearrival_returns_same_event_and_keeps_contribution():
    sim = Simulator()
    engine = CollectiveEngine(sim)
    identity = (8, "team")
    first = engine.arrive("allreduce", identity, 0, 0, (0, 1), 5,
                          op=AllreduceOp.MIN)
    again = engine.arrive("allreduce", identity, 0, 0, (0, 1), 9,
                          op=AllreduceOp.MIN)
    assert again is first
    engine.arrive("allreduce", identity, 0, 1, (0, 1), 7, op=AllreduceOp.MIN)
    sim.run()
    assert first.value == 5
    assert engine.pending == 0


def test_scalar_allreduce_with_dead_member_times_out():
    def main(ctx):
        if ctx.rank == 1:
            yield Sleep(100.0)
            return None
        outcomes = []
        for _ in range(3):
            ret, value = yield from ctx.allreduce(4, AllreduceOp.MIN,
                                                  timeout=0.5)
            outcomes.append((ret, value))
        return outcomes

    plan = FaultPlan().kill_process(0.1, 1)
    run = run_gaspi(main, n_ranks=2, fault_plan=plan, until=50.0)
    assert run.result(0) == [(ReturnCode.TIMEOUT, None)] * 3


def test_scalar_allreduce_timeout_then_retry_rejoins_instance():
    def main(ctx):
        if ctx.rank == 1:
            yield Sleep(2.0)  # late
        attempts = 0
        while True:
            # a retry repeats the call with identical parameters
            ret, value = yield from ctx.allreduce(10 + ctx.rank,
                                                  AllreduceOp.MIN,
                                                  timeout=0.5)
            attempts += 1
            if ret is ReturnCode.SUCCESS:
                return (attempts, ctx.now, value)

    run = run_gaspi(main, n_ranks=2)
    a0, t0, v0 = run.result(0)
    a1, t1, v1 = run.result(1)
    assert a0 > 1      # rank 0 had to retry after timeouts
    assert a1 == 1
    assert t0 == t1
    assert v0 == v1 == 10
    assert run.world.engine.pending == 0


def test_group_identity_cached_until_membership_changes():
    g = Group(tag=3)
    g.add(1)
    first = g.identity()
    assert g.identity() is first
    g.add(0)
    assert g.identity() == (3, (0, 1))
    assert g.identity() is not first
