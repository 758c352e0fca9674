"""The eager GASPI world, the oracle of flyweight world construction.

The production build (:class:`repro.gaspi.runtime.GaspiWorld`) defers
everything it can: every context shares the world's interned all-ranks
membership, queue tables, state vectors, segment buffers and
notification boards materialise on first touch, and same-shaped per-rank
segments share one arena pool.  The eager world materialises all of it
up front instead — a private ``group_all`` membership, the queue table
and the state vector per context at build time, and every segment's
private buffer and board at creation, with no arena.

:func:`install` patches the eager build in with a ``pytest.MonkeyPatch``;
:func:`build_world` installs it and builds one world.  Virtual-time
behaviour must be identical either way.
"""

from __future__ import annotations

from typing import Any

from repro.cluster import Machine, MachineSpec, TransportParams
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import Group
from repro.gaspi.runtime import GaspiWorld
from repro.gaspi.segments import Segment, SegmentTable
from repro.sim import Simulator


def install(monkeypatch: Any) -> None:
    """Build every GASPI world eagerly until ``monkeypatch`` is undone."""
    context_init = GaspiContext.__init__
    table_create = SegmentTable.create

    def eager_context_init(self: GaspiContext, world: GaspiWorld,
                           rank: int) -> None:
        context_init(self, world, rank)
        self.group_all = Group(tag=-1)
        self.group_all.add_many(range(world.n_ranks))
        self.group_all.committed = True
        self._queue_table()
        self.state_vector.snapshot()

    def eager_create(self: SegmentTable, *args: Any,
                     **kwargs: Any) -> Segment:
        seg = table_create(self, *args, **kwargs)
        seg._materialize()
        _ = seg.notifications
        return seg

    def private_segment(self: GaspiContext, segment_id: int,
                        size: int) -> Segment:
        return self.segment_create(segment_id, size)

    monkeypatch.setattr(GaspiContext, "__init__", eager_context_init)
    monkeypatch.setattr(GaspiContext, "segment_create_pooled",
                        private_segment)
    monkeypatch.setattr(SegmentTable, "create", eager_create)


def build_world(monkeypatch: Any, n_ranks: int) -> GaspiWorld:
    """Install the eager build and build one ``n_ranks``-rank world on
    it, one rank per node."""
    install(monkeypatch)
    sim = Simulator()
    machine = Machine(sim, MachineSpec(n_nodes=n_ranks, procs_per_node=1,
                                       transport_params=TransportParams()))
    return GaspiWorld(sim, machine)
