"""Per-rank replica placement, the oracle of ``replica_holder_map``.

:func:`replica_holders` places one rank's replicas by walking the
participant ring on its own; the production map
(:func:`repro.checkpoint.replica_holder_map`) places a whole ring at once
with the ``replica_ring_holders`` rank-state kernel and must agree with
it row for row.
"""

from __future__ import annotations

from typing import Callable, List, Sequence


def replica_holders(
    rank: int,
    participants: Sequence[int],
    node_of: Callable[[int], int],
    r: int,
) -> List[int]:
    """The ``r`` replica holders of ``rank``.

    Walks the sorted participant ring forward from ``rank``, excluding
    the rank's own node and its mirror neighbor's node, and collects the
    first ``r`` ranks on pairwise-distinct nodes.  Returns fewer than
    ``r`` holders (possibly none) when the cluster layout cannot supply
    them — e.g. every participant shares two nodes.
    """
    ring = sorted(participants)
    if rank not in ring:
        raise ValueError(f"rank {rank} not among participants {ring}")
    n = len(ring)
    my_node = node_of(rank)
    idx = ring.index(rank)
    mirror_node = -1
    for step in range(1, n):
        candidate_node = node_of(ring[(idx + step) % n])
        if candidate_node != my_node:
            mirror_node = candidate_node
            break
    excluded = {my_node, mirror_node}
    holders: List[int] = []
    for step in range(1, n):
        if len(holders) == r:
            break
        candidate = ring[(idx + step) % n]
        candidate_node = node_of(candidate)
        if candidate_node in excluded:
            continue
        holders.append(candidate)
        excluded.add(candidate_node)
    return holders
