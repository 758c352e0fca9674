"""Integration tests for CheckpointLib on the simulated cluster."""

import numpy as np
import pytest

from repro.cluster import FaultPlan
from repro.checkpoint import (
    BACKENDS,
    CheckpointConfig,
    CheckpointLib,
    CheckpointManager,
    CheckpointNotFound,
    NodeLocalStore,
    ParallelFileSystem,
)
from repro.gaspi import run_gaspi
from repro.obs import tracer as obs_tracer
from repro.sim import Simulator, Sleep, WaitEvent


def test_write_then_local_restore():
    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=ctx.rank, participants=[0, 1])
        payload = {"v": np.arange(4.0) + ctx.rank, "it": ctx.rank * 10}
        mirrored = yield from lib.write_checkpoint(0, payload)
        yield WaitEvent(mirrored, 10.0)
        version, out = yield from lib.read_checkpoint()
        return (version, list(out["v"]), int(out["it"]))

    run = run_gaspi(main, n_ranks=2)
    assert run.result(0) == (0, [0.0, 1.0, 2.0, 3.0], 0)
    assert run.result(1) == (0, [1.0, 2.0, 3.0, 4.0], 10)


def test_neighbor_copy_lands_on_other_node():
    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=ctx.rank, participants=[0, 1, 2])
        mirrored = yield from lib.write_checkpoint(0, {"x": np.ones(8)})
        ok, copied = yield WaitEvent(mirrored, 10.0)
        return (ok, copied, lib.neighbor_rank, lib.stats["neighbor_copies"])

    run = run_gaspi(main, n_ranks=3)
    for r in range(3):
        ok, copied, neighbor, copies = run.result(r)
        assert ok and copied
        assert neighbor == (r + 1) % 3
        assert copies == 1
    # each node now holds its own blob and its predecessor's
    m = run.machine
    for node_id in range(3):
        from repro.checkpoint import NodeLocalStore
        store = NodeLocalStore(m.node(node_id))
        held = {k[2] for k in m.node(node_id).local_store}
        assert held == {node_id, (node_id - 1) % 3}


def test_restore_from_neighbor_after_node_loss():
    """Rescue on a fresh node restores a failed rank's data from its neighbor."""

    def main(ctx):
        if ctx.rank == 1:
            lib = CheckpointLib(ctx, logical_rank=1, participants=[0, 1, 2])
            mirrored = yield from lib.write_checkpoint(0, {"x": np.full(4, 7.0)})
            yield WaitEvent(mirrored, 10.0)
            yield Sleep(100.0)  # stays up until killed at t=20
            return None
        if ctx.rank == 3:  # the rescue: adopts logical rank 1 after failure
            yield Sleep(30.0)
            lib = CheckpointLib(ctx, logical_rank=1, participants=[0, 2, 3])
            # candidates: failed rank's node (1, dead) and its old neighbor (2)
            version, out = yield from lib.read_checkpoint(extra_nodes=[1, 2])
            return (version, float(out["x"][0]), lib.stats["remote_reads"])
        yield Sleep(40.0)
        return None

    plan = FaultPlan().kill_node(20.0, 1)
    run = run_gaspi(main, n_ranks=4, fault_plan=plan)
    assert run.result(3) == (0, 7.0, 1)


def test_restore_prefers_local_after_process_only_failure():
    """If only the process died, its node store still has the local copy."""

    def main(ctx):
        if ctx.rank == 0:
            lib = CheckpointLib(ctx, logical_rank=0, participants=[0, 1])
            yield from lib.write_checkpoint(0, {"x": np.arange(3.0)})
            yield Sleep(100.0)
            return None
        # rank 1 plays "rescue restarted on the failed process's node 0"?
        # it cannot be; instead verify remote read from node 0 succeeds
        yield Sleep(10.0)
        lib = CheckpointLib(ctx, logical_rank=0, participants=[1])
        version, out = yield from lib.read_checkpoint(extra_nodes=[0])
        return (version, list(out["x"]))

    plan = FaultPlan().kill_process(5.0, 0)
    run = run_gaspi(main, n_ranks=2, fault_plan=plan)
    assert run.result(1) == (0, [0.0, 1.0, 2.0])


def test_version_pruning_keeps_last_k():
    def main(ctx):
        cfg = CheckpointConfig(keep_versions=2)
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0, 1], config=cfg)
        if ctx.rank == 0:
            last = None
            for v in range(5):
                last = yield from lib.write_checkpoint(v, {"x": np.array([v])})
            yield WaitEvent(last, 10.0)
            from repro.checkpoint import NodeLocalStore
            store = NodeLocalStore(ctx.world.machine.node(0))
            versions = store.versions("ckpt", 0)
            return versions
        if False:
            yield

    run = run_gaspi(main, n_ranks=2)
    assert run.result(0) == [3, 4]


def test_restorable_latest_reports_minus_one_when_empty():
    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0])
        latest = lib.restorable_latest()
        if False:
            yield
        return latest

    run = run_gaspi(main, n_ranks=1)
    assert run.result(0) == -1


def test_read_missing_version_raises():
    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0])
        try:
            yield from lib.read_checkpoint(version=9)
        except CheckpointNotFound:
            return "not-found"

    run = run_gaspi(main, n_ranks=1)
    assert run.result(0) == "not-found"


def test_pfs_copies_every_kth_version():
    def main(ctx):
        pfs = ParallelFileSystem(ctx.world.sim)
        cfg = CheckpointConfig(pfs_every=2, keep_versions=10)
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0, 1],
                            config=cfg, pfs=pfs)
        if ctx.rank == 0:
            last = None
            for v in range(4):
                last = yield from lib.write_checkpoint(v, {"x": np.array([v])})
            yield WaitEvent(last, 10.0)
            return (lib.stats["pfs_copies"], pfs.has(("ckpt", 0, 0)),
                    pfs.has(("ckpt", 0, 1)), pfs.has(("ckpt", 0, 2)))
        if False:
            yield

    run = run_gaspi(main, n_ranks=2)
    assert run.result(0) == (2, True, False, True)


def test_refresh_changes_neighbor_after_failure():
    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=ctx.rank, participants=[0, 1, 2, 3])
        before = lib.neighbor_rank
        lib.refresh([0, 2, 3])  # rank 1 failed and left the ring
        after = lib.neighbor_rank
        if False:
            yield
        return (before, after)

    run = run_gaspi(main, n_ranks=4)
    assert run.result(0) == (1, 2)


def test_checkpoint_write_cost_scales_with_nominal_bytes():
    def main(ctx):
        cfg = CheckpointConfig(local_bandwidth=1e9)
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0])
        lib.config = cfg
        t0 = ctx.now
        yield from lib.write_checkpoint(0, {"x": np.zeros(2)}, nominal_bytes=10**9)
        return ctx.now - t0

    run = run_gaspi(main, n_ranks=1)
    assert run.result(0) == pytest.approx(1.0, rel=0.01)


def test_staging_buffer_reused_and_old_versions_stay_intact():
    """The pack staging arena (the world manager's shared one) is reused
    across writes, and stored blobs must be immutable snapshots —
    overwriting the arena with a later checkpoint must not corrupt
    earlier stored versions."""

    def main(ctx):
        manager = CheckpointManager.of(ctx.world)
        cfg = CheckpointConfig(keep_versions=4)
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0], config=cfg)
        yield from lib.write_checkpoint(0, {"x": np.full(64, 1.0)})
        staging = manager._arena
        yield from lib.write_checkpoint(1, {"x": np.full(64, 2.0)})
        same_buffer = manager._arena is staging  # equal size -> reused
        yield from lib.write_checkpoint(2, {"x": np.full(128, 3.0)})
        grew = len(manager._arena) >= 128 * 8
        _, v0 = yield from lib.read_checkpoint(version=0)
        _, v2 = yield from lib.read_checkpoint(version=2)
        return (same_buffer, grew, float(v0["x"][0]), float(v2["x"][0]))

    run = run_gaspi(main, n_ranks=1)
    assert run.result(0) == (True, True, 1.0, 3.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_library_launches_a_helper_process(backend):
    """Every asynchronous copy rides the world's copy plane (and the PFS
    backend has none): a rank runs its main program and nothing else."""
    sim = Simulator()
    pfs = ParallelFileSystem(sim)

    def main(ctx):
        lib = CheckpointLib(ctx, ctx.rank, range(4),
                            config=CheckpointConfig(backend=backend), pfs=pfs)
        done = yield from lib.write_checkpoint(0, {"x": np.ones(4)})
        ok, landed = yield WaitEvent(done, 10.0)
        return ok and bool(landed)

    run = run_gaspi(main, n_ranks=4, sim=sim)
    assert all(run.result(r) for r in range(4))
    assert sorted(p.name for p in run.sim.processes) == [
        f"rank{r}" for r in range(4)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_round_trip_on_every_backend(backend):
    """Each backend row end to end: write, ``restorable_latest``,
    ``has_local``, then ``read_checkpoint`` returns the payload, and the
    ``restore`` trace event names the backend's source."""
    source = {"neighbor": "local", "pfs": "pfs", "replicated": "replicated"}
    sim = Simulator()
    pfs = ParallelFileSystem(sim)

    def main(ctx):
        lib = CheckpointLib(ctx, ctx.rank, range(4),
                            config=CheckpointConfig(backend=backend), pfs=pfs)
        done = yield from lib.write_checkpoint(
            0, {"v": np.arange(4.0) + ctx.rank})
        yield WaitEvent(done, 10.0)
        latest, local = lib.restorable_latest(), lib.has_local(0)
        version, out = yield from lib.read_checkpoint()
        return latest, local, version, list(out["v"])

    tracer = obs_tracer.install()
    try:
        run = run_gaspi(main, n_ranks=4, sim=sim)
    finally:
        obs_tracer.deactivate()
    for r in range(4):
        assert run.result(r) == (0, True, 0, [r + 0.0, r + 1.0, r + 2.0,
                                              r + 3.0])
    restores = [e for e in tracer.events() if e.etype == "restore"]
    assert sorted(e.rank for e in restores) == [0, 1, 2, 3]
    assert {e.fields["source"] for e in restores} == {source[backend]}


def test_constructor_rejects_unknown_backend_and_pfs_without_filesystem():
    def main(ctx):
        with pytest.raises(ValueError, match="unknown checkpoint backend"):
            CheckpointLib(ctx, ctx.rank, [0, 1],
                          config=CheckpointConfig(backend="nfs"))
        with pytest.raises(ValueError, match="requires a ParallelFileSystem"):
            CheckpointLib(ctx, ctx.rank, [0, 1],
                          config=CheckpointConfig(backend="pfs"))
        return None
        yield  # pragma: no cover - makes main a generator

    run_gaspi(main, n_ranks=2)


def _holder(ctx):
    """An idle rank whose library opens its mirror window."""
    CheckpointLib(ctx, logical_rank=ctx.rank, participants=[ctx.rank])
    yield Sleep(100.0)


def test_reprotect_queues_behind_the_inflight_commit_mirror():
    """A remote-restore reprotect issued while the same library's commit
    mirror is in flight waits behind it: one copy in flight per library,
    and the reprotect stays out of the mirror phase totals."""
    seen = {}

    def main(ctx):
        if ctx.rank != 0:
            yield from _holder(ctx)
            return
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0, 1, 2])
        manager = CheckpointManager.of(ctx.world)
        first = yield from lib.write_checkpoint(0, {"x": np.arange(4.0)})
        yield WaitEvent(first, 10.0)
        # lose the local copy: only the neighbor's mirror of v0 is left
        NodeLocalStore(ctx.world.machine.node(0)).delete(("ckpt", 0, 0))
        # a ~1 s neighbor mirror keeps the library's lane busy
        commit = yield from lib.write_checkpoint(
            1, {"x": np.ones(4)}, nominal_bytes=3_200_000_000)
        commit_request = lib.lane.inflight
        version, out = yield from lib.read_checkpoint(version=0)
        seen["restored"] = (version, list(out["x"]), lib.stats["remote_reads"])
        seen["queued"] = (lib.lane.inflight is commit_request,
                          len(lib.lane.deferred), lib.lane.queue_obj.size)
        commit.add_callback(lambda ev: seen.setdefault(
            "at_commit", (ev.value, lib.stats["neighbor_copies"],
                          len(lib.lane.deferred))))
        yield Sleep(10.0)
        seen["end"] = (lib.stats["neighbor_copies"], lib.lane.inflight,
                       manager.phase_totals["mirror_ops"],
                       lib.has_local(0))

    run_gaspi(main, n_ranks=3)
    assert seen["restored"] == (0, [0.0, 1.0, 2.0, 3.0], 1)
    # the commit is still the lane's only op; the reprotect waits
    assert seen["queued"] == (True, 1, 1)
    # the commit mirror landed alone; the reprotect only lands after it
    assert seen["at_commit"] == (True, 2, 1)
    assert seen["end"] == (3, None, 2, True)


def test_severed_path_timeout_purges_only_its_own_library():
    """Two libraries of one rank: the one whose neighbor link is cut
    times out and purges its own queue; the other's copy, still in
    flight at that moment, lands untouched."""
    seen = {}

    def main(ctx):
        if ctx.rank != 0:
            yield from _holder(ctx)
            return
        ctx.world.machine.network.break_link(0, 1)
        cut = CheckpointLib(ctx, logical_rank=0, participants=[0, 1])
        far = CheckpointLib(ctx, logical_rank=0, participants=[0, 2],
                            config=CheckpointConfig(tag="far"))
        sim = ctx.world.sim
        # a ~2 s mirror on the healthy path outlives the cut one's timeout
        far_done = yield from far.write_checkpoint(
            0, {"x": np.ones(4)}, nominal_bytes=6_400_000_000)
        cut_done = yield from cut.write_checkpoint(0, {"x": np.ones(4)})
        cut_done.add_callback(lambda ev: seen.setdefault(
            "cut", (sim.now, ev.value, cut.lane.queue_obj.size,
                    far.lane.queue_obj.size, far_done.fired)))
        far_done.add_callback(lambda ev: seen.setdefault(
            "far", (sim.now, ev.value)))
        yield Sleep(10.0)
        seen["stats"] = (cut.stats["neighbor_copies"],
                         far.stats["neighbor_copies"])

    run_gaspi(main, n_ranks=3)
    t_cut, cut_value, cut_ops, far_ops, far_fired = seen["cut"]
    assert (cut_value, cut_ops, far_ops, far_fired) == (False, 0, 1, False)
    t_far, far_value = seen["far"]
    assert far_value is True and t_far > t_cut
    assert seen["stats"] == (0, 1)


def test_writer_killed_mid_pfs_copy_completes_nothing():
    """The PFS copy runs after the mirror resolved; a writer killed
    during it leaves the PFS without the blob and the event unfired."""
    seen = {}
    key = ("ckpt", 0, 0)

    def main(ctx):
        if ctx.rank != 0:
            yield from _holder(ctx)
            return
        pfs = ParallelFileSystem(ctx.world.sim)
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0, 1],
                            config=CheckpointConfig(pfs_every=1), pfs=pfs)
        seen["lib"], seen["pfs"] = lib, pfs
        # local write 2 s, mirror lands at ~5.1 s, PFS copy ends at ~6.1 s
        seen["done"] = yield from lib.write_checkpoint(
            0, {"x": np.ones(4)}, nominal_bytes=10_000_000_000)
        yield Sleep(100.0)

    plan = FaultPlan().kill_process(5.6, 0)
    run = run_gaspi(main, n_ranks=2, fault_plan=plan, until=50.0)
    lib, pfs = seen["lib"], seen["pfs"]
    assert NodeLocalStore(run.machine.node(1)).has(key)
    assert lib.stats["neighbor_copies"] == 1
    assert not pfs.has(key) and lib.stats["pfs_copies"] == 0
    assert not seen["done"].fired
