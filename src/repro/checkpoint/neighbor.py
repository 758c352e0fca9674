"""Ring placement of checkpoint copies: the neighbor mirror and the
replica holders.

The neighbor of a rank is the next participant (in ring order) hosted on a
*different* node — a copy on the same node would die with it.  After a
recovery the participant list changes, so the map must be refreshed (the
library's fault-awareness requirement from Sect. IV-C).

The ReStore-style replicated backend (arXiv:2203.01107) places ``r``
copies instead of one: walk the sorted participant ring forward from the
owner, skipping the owner's own node and its mirror neighbor's node, and
take the first ``r`` ranks on pairwise-distinct nodes.  Every surviving
copy therefore sits on a node that neither the owner's failure nor its
neighbor-mirror's failure can take down, and ``r`` copies on ``r``
distinct nodes tolerate any ``r - 1`` concurrent rank losses.

:func:`mirror_holder_map` and :func:`replica_holder_map` are the two
``placement`` entries of the checkpoint library's backend table: both map
every participant to its holder list.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np


def neighbor_of(
    rank: int,
    participants: Sequence[int],
    node_of: Callable[[int], int],
) -> Optional[int]:
    """The checkpoint neighbor of ``rank`` within ``participants``.

    Returns the first participant after ``rank`` (cyclically, in sorted
    order) living on a different node, or ``None`` when every participant
    shares the rank's node (no safe mirror exists).
    """
    ring = sorted(participants)
    if rank not in ring:
        raise ValueError(f"rank {rank} not among participants {ring}")
    my_node = node_of(rank)
    idx = ring.index(rank)
    for step in range(1, len(ring)):
        candidate = ring[(idx + step) % len(ring)]
        if node_of(candidate) != my_node:
            return candidate
    return None


def neighbor_map(
    participants: Sequence[int],
    node_of: Callable[[int], int],
) -> Dict[int, Optional[int]]:
    """Neighbor of every participant (``None`` where no mirror exists).

    Builds the sorted ring and its node lookup once and derives every
    position's partner with the active :mod:`repro.ft.rankstate`
    ``ring_neighbors`` kernel — O(n) for the whole map instead of the
    historical per-rank :func:`neighbor_of` rescan (O(n^2) total).  Each
    entry equals ``neighbor_of(r, participants, node_of)`` exactly; the
    scalar function stays as the property-test reference.
    """
    from repro.ft import rankstate

    ring = sorted(participants)
    if not ring:
        return {}
    nodes = np.fromiter((node_of(r) for r in ring), dtype=np.int64,
                        count=len(ring))
    nbr = rankstate.ring_neighbors(nodes)
    return {r: (None if j < 0 else ring[int(j)]) for r, j in zip(ring, nbr)}


def mirror_holder_map(
    participants: Sequence[int],
    node_of: Callable[[int], int],
    r: int,
) -> Dict[int, List[int]]:
    """:func:`neighbor_map` as holder lists: ``[neighbor]``, or ``[]``
    where no mirror exists (``r`` is ignored — a mirror is one copy)."""
    return {rank: [] if nbr is None else [nbr]
            for rank, nbr in neighbor_map(participants, node_of).items()}


def replica_holder_map(
    participants: Sequence[int],
    node_of: Callable[[int], int],
    r: int,
) -> Dict[int, List[int]]:
    """Replica holders of every participant.

    Builds the sorted ring and its node lookup once and derives every
    position's holder rows with the :mod:`repro.ft.rankstate`
    ``replica_ring_holders`` kernel — O(n·r) for the whole map.  An
    entry lists fewer than ``r`` holders (possibly none) when the
    cluster layout cannot supply them — e.g. every participant shares
    two nodes.
    """
    from repro.ft import rankstate

    ring = sorted(participants)
    if not ring:
        return {}
    nodes = np.fromiter((node_of(x) for x in ring), dtype=np.int64,
                        count=len(ring))
    rows = rankstate.replica_ring_holders(nodes, r)
    return {
        rank: [ring[int(j)] for j in row if j >= 0]
        for rank, row in zip(ring, rows)
    }
