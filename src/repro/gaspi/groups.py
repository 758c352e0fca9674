"""Groups: GASPI's analogue of MPI communicators.

A group is built locally (``group_create`` + ``group_add``) and becomes
usable only after the *collective* ``group_commit`` — whose blocking nature
is the paper's second recovery overhead (OHF2).  Identity across ranks is
by (tag, membership): all ranks of an SPMD program build the "same" group
with the same member set; the FT layer passes the recovery epoch as tag so
that successive reconstructions never collide in the collective engine.

Membership is backed by a set (O(1) duplicate checks) plus the insertion
list, with the sorted view cached between mutations — at paper scale the
recovery path adds hundreds of ranks per rebuild and the collective engine
reads ``members`` once per arrival, so both operations must stay cheap.
:meth:`Group.add_many` ingests a whole rank array in one call (the
vectorized rebuild path of ``repro.ft.recovery``).
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
                    Union, cast)

from repro.gaspi.errors import GaspiUsageError


class _Members(tuple):
    """Membership tuple with a cached hash, interned per distinct set.

    Collective instance keys embed the group's membership, and the
    engine hashes that key on every dict operation.  A plain tuple
    recomputes an O(n) hash per lookup, which turns one collective into
    O(n²) work across its arrivals at 2048+ ranks.  Interning yields one
    object per distinct membership — equal keys hit the per-element
    identity fast path of tuple comparison — and the cached hash makes
    every subsequent key hash O(1).  Content equality with plain tuples
    is inherited from ``tuple``, so group identities still compare by
    value (and matching degrades gracefully to content equality if an
    interned instance is ever dropped from the table).
    """

    _hash: int
    _set: Optional[FrozenSet[int]]
    _interned: Dict[Tuple[int, ...], "_Members"] = {}

    def __new__(cls, ranks: Iterable[int]) -> "_Members":
        self = super().__new__(cls, ranks)
        self._hash = tuple.__hash__(self)
        self._set = None
        return self

    def __hash__(self) -> int:
        return self._hash

    def member_set(self) -> FrozenSet[int]:
        """The membership as a set, built once per interned instance.

        Flyweight groups (:meth:`Group.from_members`) delegate their
        O(1) containment checks here, so a world with 4096 contexts
        holds one shared set instead of 4096 private copies.
        """
        cached = self._set
        if cached is None:
            cached = self._set = frozenset(self)
        return cached

    @classmethod
    def intern(cls, ranks: Tuple[int, ...]) -> "_Members":
        cached = cls._interned.get(ranks)
        if cached is None:
            if len(cls._interned) >= 4096:
                # safe to drop: matching falls back to content equality
                cls._interned.clear()
            cached = cls(ranks)
            cls._interned[ranks] = cached
        return cached


class Group:
    """A (possibly not yet committed) ordered set of ranks."""

    __slots__ = ("tag", "_members", "_member_set", "_sorted", "_identity",
                 "committed", "coll_seq")

    def __init__(self, tag: int = 0) -> None:
        self.tag = tag
        self._members: Union[List[int], _Members] = []
        self._member_set: Optional[Set[int]] = set()
        self._sorted: Optional[Tuple[int, ...]] = None
        self._identity: Optional[Tuple[int, Tuple[int, ...]]] = None
        self.committed = False
        #: per-rank collective sequence number on this group; incremented
        #: only on collective *success* so timed-out calls retry the same
        #: collective instance (GASPI's retry-with-same-parameters rule).
        self.coll_seq = 0

    @classmethod
    def from_members(cls, tag: int, members: _Members,
                     committed: bool = True) -> "Group":
        """Flyweight constructor over a pre-sorted interned membership.

        The group *shares* the interned tuple and its lazily built
        member set instead of materialising a private list/set — O(1)
        per context where ``add_many(range(n))`` was O(n), which is what
        lets a 4096-rank world build all its ``group_all`` instances
        from a single membership object.  A later mutation (``add`` on a
        deleted/uncommitted group) detaches via copy-on-write.
        """
        group = cls.__new__(cls)
        group.tag = tag
        group._members = members
        group._member_set = None
        group._sorted = members
        group._identity = None
        group.committed = committed
        group.coll_seq = 0
        return group

    def _own_members(self) -> Set[int]:
        """Copy-on-write: detach from a shared interned membership."""
        self._members = list(self._members)
        self._member_set = set(self._members)
        return self._member_set

    def adopt_members(self, members: _Members) -> None:
        """Fill an empty group by adopting a shared interned membership.

        ``members`` must be in ascending rank order (the interned form
        every producer of whole-group memberships emits).  The group
        shares the tuple and its set, so a 2048-rank recovery's group
        rebuild on every survivor is O(1) after the one interning pass
        instead of O(n) per rank; mutation later detaches (COW).
        """
        if self.committed:
            raise GaspiUsageError("cannot adopt members on a committed group")
        if len(self._members):
            raise GaspiUsageError("cannot adopt members on a non-empty group")
        self._members = members
        self._member_set = None
        self._sorted = members
        self._identity = None

    # ------------------------------------------------------------------
    def add(self, rank: int) -> None:
        """Add a rank (``gaspi_group_add``); only before commit."""
        if self.committed:
            raise GaspiUsageError("cannot add ranks to a committed group")
        if rank < 0:
            raise GaspiUsageError(f"invalid rank {rank}")
        member_set = self._member_set
        if member_set is None:
            member_set = self._own_members()
        if rank in member_set:
            raise GaspiUsageError(f"rank {rank} already in group")
        cast(List[int], self._members).append(rank)
        member_set.add(rank)
        self._sorted = None
        self._identity = None

    def add_many(self, ranks: Iterable[int]) -> None:
        """Add a whole batch of ranks in one call.

        Semantically identical to calling :meth:`add` per rank (same
        validation, same failure on duplicates) but O(n) instead of the
        historical O(n^2) membership scans — the fast path of the
        vectorized group rebuild.
        """
        if self.committed:
            raise GaspiUsageError("cannot add ranks to a committed group")
        batch = [int(r) for r in ranks]
        if not batch:
            return
        if min(batch) < 0:
            bad = min(batch)
            raise GaspiUsageError(f"invalid rank {bad}")
        batch_set = set(batch)
        if len(batch_set) != len(batch):
            seen: Set[int] = set()
            for r in batch:
                if r in seen:
                    raise GaspiUsageError(f"rank {r} already in group")
                seen.add(r)
        member_set = self._member_set
        if member_set is None:
            member_set = self._own_members()
        overlap = batch_set & member_set
        if overlap:
            raise GaspiUsageError(f"rank {min(overlap)} already in group")
        cast(List[int], self._members).extend(batch)
        member_set |= batch_set
        self._sorted = None
        self._identity = None

    @property
    def members(self) -> Tuple[int, ...]:
        """Membership in deterministic (sorted) order.

        Returns the interned :class:`_Members` instance — every group
        with the same membership (across all ranks) shares one tuple
        object, so collective-key hashing and matching stay O(1).
        """
        if self._sorted is None:
            self._sorted = _Members.intern(tuple(sorted(self._members)))
        return self._sorted

    @property
    def size(self) -> int:
        return len(self._members)

    def __contains__(self, rank: int) -> bool:
        member_set = self._member_set
        if member_set is None:
            return rank in cast(_Members, self._members).member_set()
        return rank in member_set

    def identity(self) -> Tuple:
        """Cross-rank identity used to match collective instances.

        ``(tag, members)``, built once and cached until the membership
        next changes: the solver loop asks for it on every collective.
        The tag is fixed at creation.
        """
        identity = self._identity
        if identity is None:
            identity = self._identity = (self.tag, self.members)
        return identity

    def require_committed(self) -> None:
        if not self.committed:
            raise GaspiUsageError("group used before gaspi_group_commit")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "committed" if self.committed else "building"
        return f"<Group tag={self.tag} {state} members={self.members}>"
