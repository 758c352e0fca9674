"""The pre-vectorization rank-state loops, the oracle of the SoA kernels.

:class:`ScalarKernels` holds the per-rank Python loops that
:mod:`repro.ft.rankstate` replaced, one static method per kernel and
under the same name.  :func:`broadcast_per_target` is the notice
broadcast as one ``write`` per target, the loop that
``ControlBlock.broadcast``'s single ``write_round`` replaced, and
:func:`sequential_ping_sweep` is the callback-chained ping sweep the
batched one replaced.

:func:`install` swaps all of them into the production modules with a
``pytest.MonkeyPatch``; the production code looks its kernels up at call
time, so an installed oracle is what an FT run then executes::

    def test_rows(monkeypatch):
        install(monkeypatch)
        outcome = run_ft_scenario(...)   # runs on the scalar oracle
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.transport import Transport
from repro.ft import rankstate
from repro.ft.control import _I8, FT_SEGMENT, ControlBlock
from repro.ft.roles import Role
from repro.gaspi.constants import ReturnCode
from repro.sim import Event


class ScalarKernels:
    """The pre-vectorization loops of every :mod:`repro.ft.rankstate`
    kernel."""

    @staticmethod
    def avoid_mask(statuses: np.ndarray) -> np.ndarray:
        n = len(statuses)
        mask = np.zeros(n, dtype=bool)
        for r in range(n):
            if statuses[r] == Role.FAILED:
                mask[r] = True
        return mask

    @staticmethod
    def mark_avoided(avoid: np.ndarray, ranks: Sequence[int]) -> None:
        for r in ranks:
            avoid[int(r)] = True

    @staticmethod
    def scan_targets(avoid: np.ndarray, self_rank: int) -> List[int]:
        return [
            r for r in range(len(avoid))
            if r != self_rank and not avoid[r]
        ]

    @staticmethod
    def split_failed(
        failed_now: Sequence[int], rank_map_arr: np.ndarray
    ) -> Tuple[List[int], List[int]]:
        values = [int(p) for p in rank_map_arr]
        failed_workers = sorted(int(r) for r in failed_now if int(r) in values)
        failed_others = [int(r) for r in failed_now
                         if int(r) not in failed_workers]
        return failed_workers, failed_others

    @staticmethod
    def healthy_targets(avoid: np.ndarray, statuses: np.ndarray) -> List[int]:
        return [
            r for r in range(len(avoid))
            if not avoid[r] and statuses[r] != Role.FAILED
        ]

    @staticmethod
    def idle_ranks(statuses: np.ndarray) -> List[int]:
        return [
            int(r) for r in range(len(statuses))
            if statuses[r] == Role.IDLE
        ]

    @staticmethod
    def ranks_with_roles(statuses: np.ndarray,
                         roles: Sequence[Role]) -> List[int]:
        wanted = tuple(int(role) for role in roles)
        return [
            int(r) for r in range(len(statuses))
            if int(statuses[r]) in wanted
        ]

    @staticmethod
    def apply_rescues(
        rank_map_arr: np.ndarray, failed: Sequence[int],
        rescues: Sequence[int],
    ) -> np.ndarray:
        replacement = dict(zip((int(f) for f in failed),
                               (int(r) for r in rescues)))
        return np.array(
            [replacement.get(int(p), int(p)) for p in rank_map_arr],
            dtype=np.int64,
        )

    @staticmethod
    def map_members(rank_map: Dict[int, int]) -> List[int]:
        return sorted(int(p) for p in rank_map.values())

    @staticmethod
    def logical_in_map(rank_map: Dict[int, int], phys: int) -> Optional[int]:
        for logical, p in rank_map.items():
            if p == phys:
                return logical
        return None

    @staticmethod
    def ring_neighbors(ring_nodes: np.ndarray) -> np.ndarray:
        # an independent forward scan per position
        d = [int(x) for x in np.asarray(ring_nodes)]
        n = len(d)
        out = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            for step in range(1, n):
                j = (i + step) % n
                if d[j] != d[i]:
                    out[i] = j
                    break
        return out

    @staticmethod
    def replica_ring_holders(ring_nodes: np.ndarray, r: int) -> np.ndarray:
        # the forward scans the vectorized kernel falls back to for
        # general node layouts
        return rankstate._replica_ring_holders_scan(
            np.asarray(ring_nodes, dtype=np.int64), r
        )

    @staticmethod
    def group_fill(group: Any, members: Sequence[int]) -> None:
        # the historical per-add list-membership scan (O(n^2) rebuild)
        seen: List[int] = []
        for r in members:
            if int(r) in seen:  # pragma: no cover - callers pass unique ranks
                raise ValueError(f"rank {r} already in group")
            seen.append(int(r))
            group.add(int(r))


#: every kernel :mod:`repro.ft.rankstate` exports
KERNELS = tuple(
    name for name in vars(ScalarKernels) if not name.startswith("_"))


def broadcast_per_target(block: ControlBlock, targets: List[int],
                         queue_id: int = 0, timeout: float = 1.0,
                         ) -> Generator[Any, Any, ReturnCode]:
    """``ControlBlock.broadcast`` as one ``write`` per target.

    Writes to dead targets never complete, so the final wait times out
    and the queue is purged; a full queue is drained (purged on timeout)
    and the write reposted, so no healthy rank misses the notice.
    """
    ctx = block.ctx
    nbytes = block.n_cells * _I8
    for target in targets:
        if target == ctx.rank:
            continue
        ret = ctx.write(FT_SEGMENT, 0, nbytes, target, FT_SEGMENT, 0,
                        queue_id)
        if ret is not ReturnCode.SUCCESS:
            drained = yield from ctx.wait(queue_id, timeout)
            if drained is not ReturnCode.SUCCESS:
                ctx.queue_purge(queue_id)
            retry = ctx.write(FT_SEGMENT, 0, nbytes, target, FT_SEGMENT, 0,
                              queue_id)
            if retry is not ReturnCode.SUCCESS:  # pragma: no cover
                continue  # freshly purged queue still full: give up
    ret = yield from ctx.wait(queue_id, timeout)
    if ret is not ReturnCode.SUCCESS:
        ctx.queue_purge(queue_id)
    return ret


def sequential_ping_sweep(transport: Transport, src: int,
                          targets: Sequence[int], width: int = 1) -> Event:
    """``Transport.post_ping_sweep`` as the callback-chained sweep."""
    transport.stats["ping"] += len(targets)
    return transport._post_ping_sweep_seq(src, list(targets),
                                          max(1, int(width)))


def install(monkeypatch: Any) -> None:
    """Run every rank-state kernel, notice broadcast and ping sweep on
    the scalar oracle until ``monkeypatch`` is undone."""
    for name in KERNELS:
        monkeypatch.setattr(rankstate, name, getattr(ScalarKernels, name))
    monkeypatch.setattr(ControlBlock, "broadcast", broadcast_per_target)
    monkeypatch.setattr(Transport, "post_ping_sweep", sequential_ping_sweep)
