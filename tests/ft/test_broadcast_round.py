"""``ControlBlock.broadcast``'s single ``write_round`` against one
``write`` per target (the broadcast loop of
``tests/oracles/scalar_kernels.py``).

Both must land the same bytes in every target's control block at the
same virtual time and leave the FD with the same final wait code — also
when a target is dead (the wait times out and the queue is purged) and
when the queue is full at post time (drain, purge on timeout, repost).
"""

import pytest

from repro.cluster import FaultPlan
from repro.ft import ControlBlock, FTConfig, Role
from repro.ft.control import FT_SEGMENT
from repro.gaspi import ReturnCode, run_gaspi
from repro.gaspi.segments import Segment
from repro.sim import Event, Sleep
from tests.oracles.scalar_kernels import broadcast_per_target

CFG = FTConfig(n_workers=6, n_spares=2)
T_BROADCAST = 1.0
TIMEOUT = 2.0


def run_broadcast(broadcast, kill=None, queue_full=False):
    """FD rank broadcasts one notice to every other rank.

    Returns ``(landings, wait code, FD finish time)``: ``landings`` lists
    ``(virtual time, target rank, landed bytes)`` for every write into a
    control block other than the FD's own.
    """
    fd = CFG.fd_rank
    landings = []
    owners = {}
    write_bytes = Segment.write_bytes

    def recording_write_bytes(seg, offset, data):
        write_bytes(seg, offset, data)
        ctx = owners.get(id(seg))
        if ctx is not None:
            landings.append((ctx.now, ctx.rank, bytes(seg.buf)))

    def main(ctx):
        block = ControlBlock(ctx, CFG)
        block.init_local()
        if ctx.rank != fd:
            owners[id(ctx.segments.get(FT_SEGMENT))] = ctx
            return None
        if queue_full:
            queue = ctx._queue(0)
            for _ in range(queue.depth):
                queue.post(Event(name="prefill"))
        yield Sleep(T_BROADCAST)
        statuses = block.statuses().copy()
        statuses[1] = int(Role.FAILED)
        statuses[CFG.n_workers] = int(Role.WORKING)
        block.compose_notice(1, [1], [CFG.n_workers], statuses,
                             {i: (CFG.n_workers if i == 1 else i)
                              for i in range(CFG.n_workers)})
        targets = [r for r in range(CFG.n_ranks) if r != 1]
        ret = yield from broadcast(block, targets, timeout=TIMEOUT)
        return ret, ctx.now

    plan = None
    if kill is not None:
        plan = FaultPlan()
        plan.kill_process(T_BROADCAST / 2, kill)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Segment, "write_bytes", recording_write_bytes)
        run = run_gaspi(main, n_ranks=CFG.n_ranks, fault_plan=plan)
    ret, t_end = run.result(fd)
    return landings, ret, t_end


@pytest.mark.parametrize("kill, queue_full", [
    (None, False),   # every target alive
    (4, False),      # dead target: TIMEOUT, then purge
    (None, True),    # QUEUE_FULL: drain (times out), purge, repost
    (4, True),
])
def test_write_round_matches_per_target_writes(kill, queue_full):
    rnd = run_broadcast(ControlBlock.broadcast, kill, queue_full)
    per_target = run_broadcast(broadcast_per_target, kill, queue_full)
    assert rnd == per_target
    landings, ret, t_end = rnd
    landed = sorted(rank for _t, rank, _b in landings)
    expected = [r for r in range(CFG.n_ranks)
                if r not in (1, CFG.fd_rank, kill)]
    assert landed == expected
    assert len({b for _t, _r, b in landings}) == 1  # one notice everywhere
    assert ret is (ReturnCode.SUCCESS if kill is None
                   else ReturnCode.TIMEOUT)
    if queue_full:
        # the post waited out one full drain before the repost
        assert min(t for t, _r, _b in landings) > T_BROADCAST + TIMEOUT
