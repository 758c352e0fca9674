"""Flyweight world construction: equivalence and cost regression.

The flyweight build path (interned group memberships, arena-pooled
segments, lazy queue tables and notification boards, template-COW
control blocks) must be *observationally identical* to the historical
eager path — the oracle ``tests/oracles/eager_world.py`` — and must
keep world construction O(world), never O(ranks), in allocations.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, MachineSpec, TransportParams
from repro.experiments.common import run_ft_scenario
from repro.gaspi.runtime import GaspiWorld
from repro.obs.tracer import deactivate, install
from repro.sim import Simulator
from repro.workloads.spec import scaled_spec
from tests.oracles import eager_world


# ----------------------------------------------------------------------
# equivalence: eager reference vs default flyweight path
# ----------------------------------------------------------------------
def _rows_and_trace(workers, kill, eager):
    """(experiment-row JSON blob, tracer event tuple) for one scenario."""
    spec = scaled_spec(workers=workers, iterations=80,
                       name=f"equiv-{workers}")
    tracer = install(capacity=8192, bulk_capacity=8192)
    try:
        with pytest.MonkeyPatch.context() as mp:
            if eager:
                eager_world.install(mp)
            out = run_ft_scenario(
                f"equiv-{workers}", spec, kill_times=[kill], n_spares=4)
    finally:
        deactivate()
    worker_rows = out.result.worker_results()
    rows = {
        "total_runtime": out.total_runtime,
        "computation_time": out.computation_time,
        "redo_work_time": out.redo_work_time,
        "reinit_time": out.reinit_time,
        "detection_time": out.detection_time,
        "n_recoveries": out.n_recoveries,
        "ckpt_phases": out.ckpt_phases,
        "timelines": {str(k): w.get("timeline", [])
                      for k, w in sorted(worker_rows.items())},
        "counters": {str(k): w.get("counters", {})
                     for k, w in sorted(worker_rows.items())},
    }
    blob = json.dumps(rows, sort_keys=True, default=repr).encode()
    return blob, tuple(tracer.events())


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([16, 64]), st.data())
def test_eager_and_flyweight_worlds_equivalent(workers, data):
    """Byte-identical rows and identical tracer streams at 16/64 ranks."""
    kill_rank = data.draw(st.integers(0, workers - 1), label="kill_rank")
    kill_t = data.draw(st.sampled_from([8.5, 12.5, 24.0]), label="kill_t")
    flyweight = _rows_and_trace(workers, (kill_t, kill_rank), eager=False)
    eager = _rows_and_trace(workers, (kill_t, kill_rank), eager=True)
    assert flyweight[0] == eager[0]
    assert flyweight[1] == eager[1]


def test_eager_world_materialises_up_front(monkeypatch):
    """The reference path really is eager (else the test above is vacuous)."""
    world = eager_world.build_world(monkeypatch, 8)
    ctx = world.contexts[0]
    assert ctx._queues is not None
    # a private membership container, not the world's shared interned one
    assert ctx.group_all._members is not world.members_all
    assert ctx.state_vector._lazy_states is not None


def test_eager_oracle_fixture_skips_the_arena(eager_oracle):
    """Under the fixture every segment is private and materialised at
    creation: no arena pool, no pristine buffer, a built board."""
    world = _fresh_world(4)
    for ctx in world.contexts.values():
        assert ctx._queues is not None
        seg = ctx.segment_create_pooled(7, 64)
        assert not seg.pristine and seg._notifications is not None
    assert world.arena.allocations == 0


# ----------------------------------------------------------------------
# construction cost: O(world), not O(ranks)
# ----------------------------------------------------------------------
def _fresh_world(n_ranks):
    sim = Simulator()
    machine = Machine(sim, MachineSpec(n_nodes=n_ranks, procs_per_node=1,
                                       transport_params=TransportParams()))
    return GaspiWorld(sim, machine)


def test_group_all_membership_interned_across_contexts():
    world = _fresh_world(256)
    members = world.contexts[0].group_all.members
    assert members is world.members_all
    assert all(ctx.group_all.members is members
               for ctx in world.contexts.values())


def test_queue_tables_stay_lazy_until_first_touch():
    world = _fresh_world(256)
    assert all(ctx._queues is None for ctx in world.contexts.values())
    world.contexts[7]._queue(0)  # first touch builds rank 7's table only
    assert world.contexts[7]._queues is not None
    assert world.contexts[8]._queues is None


def test_arena_allocations_scale_with_shapes_not_ranks():
    """Every rank's same-shaped data-plane segment shares one pool."""
    world = _fresh_world(256)
    for ctx in world.contexts.values():
        _ = ctx.segment_create_pooled(7, 4096).buf  # touch: materialise
    assert world.arena.allocations == 1
    for ctx in world.contexts.values():
        _ = ctx.segment_create_pooled(8, 1 << 16).buf
    assert world.arena.allocations == 2  # one more shape, one more pool


def test_arena_recycled_slot_is_rezeroed():
    world = _fresh_world(4)
    ctx = world.contexts[0]
    seg = ctx.segment_create_pooled(7, 64)
    seg.buf[:] = 0xAB
    ctx.segments.delete(7)
    again = ctx.segment_create_pooled(7, 64)
    assert not again.buf.any()


def test_scenario_world_stays_o_world_in_allocations():
    """A full FT run at 64 ranks performs O(shapes) pool allocations."""
    spec = scaled_spec(workers=64, iterations=40, name="arena-64")
    out = run_ft_scenario("arena-64", spec, kill_times=[(12.5, 3)],
                          n_spares=4)
    world = out.result.run.world
    # mirror windows + replica/pfs planes: a handful of shapes, never
    # one allocation per rank (the pre-flyweight behaviour was ~n_ranks)
    assert 1 <= world.arena.allocations <= 8
    assert world.arena.allocations < world.n_ranks // 4
