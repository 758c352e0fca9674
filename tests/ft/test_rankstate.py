"""Property tests: the vectorized rankstate kernels equal the scalar
oracle on every input — randomized failure patterns, rank counts from
16 to 512, degenerate and truncated rescue batches — and the end-to-end
scenario rows are byte-identical with the oracle installed."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ft import rankstate
from repro.ft.roles import Role
from repro.gaspi.groups import Group
from tests.oracles import scalar_kernels
from tests.oracles.scalar_kernels import ScalarKernels

ROLE_VALUES = [int(r) for r in Role]


@st.composite
def rank_world(draw):
    """(statuses array, a random subset of ranks, a worker rank map)."""
    n = draw(st.integers(min_value=16, max_value=512))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    statuses = rng.choice(ROLE_VALUES, size=n).astype(np.int64)
    subset_size = draw(st.integers(0, min(n, 24)))
    subset = rng.permutation(n)[:subset_size].tolist()
    n_workers = draw(st.integers(1, n))
    rank_map_arr = rng.permutation(n)[:n_workers].astype(np.int64)
    return statuses, subset, rank_map_arr


def _plain_ints(values):
    return all(type(v) is int for v in values)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rank_world())
def test_detector_state_kernels_identical(world):
    statuses, subset, _ = world
    n = len(statuses)
    self_rank = n - 1

    avoid_v = rankstate.avoid_mask(statuses)
    avoid_s = ScalarKernels.avoid_mask(statuses)
    assert np.array_equal(avoid_v, avoid_s)

    rankstate.mark_avoided(avoid_v, subset)
    ScalarKernels.mark_avoided(avoid_s, subset)
    assert np.array_equal(avoid_v, avoid_s)

    tv = rankstate.scan_targets(avoid_v, self_rank)
    ts = ScalarKernels.scan_targets(avoid_s, self_rank)
    assert tv == ts and _plain_ints(tv)

    hv = rankstate.healthy_targets(avoid_v, statuses)
    hs = ScalarKernels.healthy_targets(avoid_s, statuses)
    assert hv == hs and _plain_ints(hv)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rank_world())
def test_role_and_split_kernels_identical(world):
    statuses, subset, rank_map_arr = world
    assert (rankstate.idle_ranks(statuses)
            == ScalarKernels.idle_ranks(statuses))
    for roles in ((Role.IDLE,), (Role.IDLE, Role.FD), (Role.WORKING,)):
        rv = rankstate.ranks_with_roles(statuses, roles)
        rs = ScalarKernels.ranks_with_roles(statuses, roles)
        assert rv == rs and _plain_ints(rv)

    wv, ov = rankstate.split_failed(subset, rank_map_arr)
    ws, os_ = ScalarKernels.split_failed(subset, rank_map_arr)
    assert (wv, ov) == (ws, os_)
    assert _plain_ints(wv) and _plain_ints(ov)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rank_world(), st.integers(0, 6), st.integers(0, 6))
def test_rescue_and_map_kernels_identical(world, n_failed, n_rescues):
    statuses, _, rank_map_arr = world
    n = len(statuses)
    rng = np.random.default_rng(int(rank_map_arr.sum()) + n)
    # failed drawn from the map's values, rescues from anywhere; the two
    # lists may have different lengths (the unrecoverable-batch case:
    # pairing must truncate like dict(zip(...)))
    failed = rng.permutation(rank_map_arr)[:n_failed].tolist()
    rescues = rng.permutation(n)[:n_rescues].tolist()
    out_v = rankstate.apply_rescues(rank_map_arr, failed, rescues)
    out_s = ScalarKernels.apply_rescues(rank_map_arr, failed, rescues)
    assert np.array_equal(out_v, out_s)

    rank_map = {i: int(p) for i, p in enumerate(out_v)}
    assert (rankstate.map_members(rank_map)
            == ScalarKernels.map_members(rank_map))
    for phys in (int(out_v[0]), n + 7):  # present and absent
        assert (rankstate.logical_in_map(rank_map, phys)
                == ScalarKernels.logical_in_map(rank_map, phys))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(16, 512), st.integers(0, 2**32 - 1))
def test_group_fill_kernels_identical(n, seed):
    members = np.random.default_rng(seed).permutation(n).tolist()
    gv, gs = Group(tag=1), Group(tag=1)
    rankstate.group_fill(gv, members)
    ScalarKernels.group_fill(gs, members)
    assert gv.members == gs.members
    assert gv.identity() == gs.identity()


def test_end_to_end_scenario_byte_identical_across_modes():
    """The acceptance gate: identical experiment rows at 16 ranks."""
    from repro.experiments.common import run_ft_scenario
    from repro.workloads.spec import scaled_spec

    spec = scaled_spec(workers=12, iterations=140, name="ident-16")
    fields = ("total_runtime", "computation_time", "redo_work_time",
              "reinit_time", "detection_time", "n_recoveries")

    def row():
        outcome = run_ft_scenario(
            "ident", spec, kill_times=[(12.5, 2), (31.0, 7)], n_spares=4)
        return tuple(getattr(outcome, f) for f in fields)

    vectorized = row()
    with pytest.MonkeyPatch.context() as mp:
        scalar_kernels.install(mp)
        scalar = row()
    assert vectorized == scalar
    assert vectorized[-1] == 2  # both kills recovered


def test_scalar_oracle_is_what_production_runs(scalar_oracle, monkeypatch):
    """With the oracle installed, an FT run really calls the scalar
    kernels, the per-target broadcast and the sequential sweep (else the
    row test above is vacuous)."""
    from repro.checkpoint.manager import CheckpointConfig
    from repro.cluster.transport import Transport
    from repro.experiments.common import run_ft_scenario
    from repro.ft.control import ControlBlock
    from repro.workloads.spec import scaled_spec

    for name in scalar_kernels.KERNELS:
        assert getattr(rankstate, name) is getattr(ScalarKernels, name)
    assert ControlBlock.broadcast is scalar_kernels.broadcast_per_target
    assert (Transport.post_ping_sweep
            is scalar_kernels.sequential_ping_sweep)

    called = set()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in scalar_kernels.KERNELS:
        monkeypatch.setattr(rankstate, name,
                            spy(name, getattr(rankstate, name)))
    for owner, name in ((ControlBlock, "broadcast"),
                        (Transport, "post_ping_sweep")):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    # one recovery per backend: the neighbor backend places mirrors, the
    # replicated one replicas
    spec = scaled_spec(workers=12, iterations=60, name="oracle-16")
    for backend in ("neighbor", "replicated"):
        outcome = run_ft_scenario(
            "oracle", spec, kill_times=[(12.5, 2)], n_spares=4,
            checkpoint=CheckpointConfig(backend=backend))
        assert outcome.n_recoveries == 1
    assert called == set(scalar_kernels.KERNELS) | {"broadcast",
                                                     "post_ping_sweep"}
