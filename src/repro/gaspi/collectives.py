"""The collective engine: matches collective calls across ranks.

Collectives in GASPI are timed-out and must be retried with identical
parameters after a timeout.  The engine keys each collective *instance* by
``(kind, group identity, sequence)``; a rank's arrival is idempotent, so a
retry after timeout re-joins the same pending instance.  When the last
member arrives the instance completes for everyone at

    ``max(arrival time) + cost(kind, group size, payload)``

with costs from :class:`CollectiveCosts`.  A member that never arrives
(because it failed) leaves the instance pending forever — the survivors
only ever see ``GASPI_TIMEOUT``, which is precisely the failure mode the
paper's fault detector exists to resolve.

Per-arrival work is kept to the match itself.  A rank's membership is
tested once per instance, at its first arrival (a retry finds its event and
returns it).  An allreduce's reduction and cost are resolved once, when the
last member arrives: builtins over plain ``int`` contributions (int64
words, the guarded solver-loop agreement), :func:`_reduce` over arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Collection, Dict, List, Optional, Tuple

import numpy as np

from repro.sim import Event, Simulator
from repro.gaspi.constants import AllreduceOp
from repro.gaspi.errors import GaspiUsageError
from repro.gaspi.groups import _Members


@dataclass
class CollectiveCosts:
    """Timing model of collective operations (see DESIGN.md calibration).

    * barrier/allreduce: dissemination pattern, ``ceil(log2 p)`` rounds.
    * group_commit: GPI-2 (re-)establishes connection state per member —
      the dominant, *linear-in-p* cost the paper observes as OHF2
      (~27 ms/rank → ≈ 7 s at 256 ranks).
    """

    round_latency: float = 10.0e-6
    bandwidth: float = 3.2e9
    commit_per_rank: float = 0.027
    commit_base: float = 0.050

    def __post_init__(self) -> None:
        # collective costs are pure in (p, nbytes); memoize — the spMVM
        # loop pays one allreduce per iteration with identical arguments.
        self._barrier_cache: Dict[int, float] = {}
        self._allreduce_cache: Dict[Tuple[int, int], float] = {}

    def barrier(self, p: int) -> float:
        cost = self._barrier_cache.get(p)
        if cost is None:
            cost = max(1, math.ceil(math.log2(max(2, p)))) * self.round_latency
            self._barrier_cache[p] = cost
        return cost

    def allreduce(self, p: int, nbytes: int) -> float:
        key = (p, nbytes)
        cost = self._allreduce_cache.get(key)
        if cost is None:
            rounds = max(1, math.ceil(math.log2(max(2, p))))
            cost = rounds * (self.round_latency + nbytes / self.bandwidth)
            self._allreduce_cache[key] = cost
        return cost

    def commit(self, p: int) -> float:
        return self.commit_base + self.commit_per_rank * p


#: int64 bounds of a scalar contribution (an 8-byte word)
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_SCALAR_OPS: Dict[AllreduceOp, Callable[[List[int]], int]] = {
    AllreduceOp.MIN: min,
    AllreduceOp.MAX: max,
    AllreduceOp.SUM: sum,
}


def _reduce(op: AllreduceOp, contributions: List[np.ndarray]) -> np.ndarray:
    stack = np.stack(contributions)
    if op is AllreduceOp.MIN:
        return stack.min(axis=0)
    if op is AllreduceOp.MAX:
        return stack.max(axis=0)
    if op is AllreduceOp.SUM:
        return stack.sum(axis=0)
    raise GaspiUsageError(f"unknown allreduce op {op!r}")  # pragma: no cover


def reduce_contributions(op: AllreduceOp, contributions: List[Any],
                         ) -> Tuple[Any, int]:
    """Combine one allreduce instance's contributions (in member order).

    Returns ``(result, payload bytes)``.  Plain ``int`` contributions are
    int64 words reduced with the builtins: the result is an ``int`` and a
    SUM wraps around exactly as the numpy path does.  Anything else is an
    array and goes through :func:`_reduce`.
    """
    kinds = set(map(type, contributions))
    if kinds == {int}:
        value = _SCALAR_OPS[op](contributions)
        if op is AllreduceOp.SUM and not INT64_MIN <= value <= INT64_MAX:
            value = (value - INT64_MIN) % (1 << 64) + INT64_MIN
        return value, 8
    if int in kinds:
        raise GaspiUsageError(
            "allreduce mixes int and array contributions across ranks")
    return _reduce(op, contributions), contributions[0].nbytes


class _Instance:
    """One in-flight collective instance.

    ``op`` marks an allreduce, reduced and priced at completion; other
    kinds carry the ``finisher`` and ``cost`` of their first arrival.
    """

    __slots__ = ("members", "member_set", "arrived", "events", "op",
                 "finisher", "cost")

    def __init__(self, members: Tuple[int, ...], op: Optional[AllreduceOp],
                 finisher: Optional[Callable[[List[Any]], Any]],
                 cost: float) -> None:
        self.members = members
        # interned memberships carry a shared set — O(1) membership tests
        # instead of an O(p) tuple scan
        self.member_set: Collection[int] = (
            members.member_set() if isinstance(members, _Members) else members)
        self.arrived: Dict[int, Any] = {}
        self.events: Dict[int, Event] = {}
        self.op = op
        self.finisher = finisher
        self.cost = cost


class CollectiveEngine:
    """World-global matcher for barrier / allreduce / group_commit."""

    def __init__(self, sim: Simulator, costs: Optional[CollectiveCosts] = None) -> None:
        self.sim = sim
        self.costs = costs or CollectiveCosts()
        self._instances: Dict[Tuple, _Instance] = {}

    # ------------------------------------------------------------------
    def arrive(
        self,
        kind: str,
        group_identity: Tuple,
        seq: int,
        rank: int,
        members: Tuple[int, ...],
        contribution: Any = None,
        finisher: Optional[Callable[[List[Any]], Any]] = None,
        cost: float = 0.0,
        op: Optional[AllreduceOp] = None,
    ) -> Event:
        """Join collective instance ``(kind, group_identity, seq)``.

        Returns this rank's completion event (stable across retries: a
        rank that arrives again rejoins the instance without re-checking
        its membership or replacing its contribution).  When the final
        member arrives the contributions are combined in member order and
        every member's event fires with the result after the instance's
        cost.  With ``op`` the instance is an allreduce: the engine reduces
        with :func:`reduce_contributions` and prices it with
        :meth:`CollectiveCosts.allreduce`, once, at completion; otherwise
        ``finisher`` (or ``None``) gives the result and ``cost`` the delay.
        """
        key = (kind, group_identity, seq)
        inst = self._instances.get(key)
        if inst is None:
            inst = _Instance(members, op, finisher, cost)
        else:
            # interned memberships make the match an identity check; the
            # content compare only runs for non-interned callers
            if inst.members is not members and inst.members != members:
                raise GaspiUsageError(
                    f"collective {key} called with mismatched membership: "
                    f"{inst.members} vs {members}"
                )
            event = inst.events.get(rank)
            if event is not None:
                return event
        # this rank's first arrival: the one membership test it gets
        if rank not in inst.member_set:
            raise GaspiUsageError(f"rank {rank} not a member of {group_identity}")
        arrived = inst.arrived
        if not arrived:
            # register a new instance only once a member has joined it
            self._instances[key] = inst
        # unnamed: formatting a per-arrival name is measurable on the
        # once-per-iteration allreduce path and only aids debugging
        event = Event()
        inst.events[rank] = event
        arrived[rank] = contribution
        if len(arrived) == len(members):
            self._finish(key, inst)
        return event

    def _finish(self, key: Tuple, inst: _Instance) -> None:
        """Combine a complete instance and schedule its members' wake-up."""
        arrived = inst.arrived
        ordered = [arrived[m] for m in inst.members]
        if inst.op is not None:
            result, nbytes = reduce_contributions(inst.op, ordered)
            cost = self.costs.allreduce(len(ordered), nbytes)
        else:
            finisher = inst.finisher
            result = finisher(ordered) if finisher is not None else None
            cost = inst.cost

        def complete() -> None:
            events = inst.events
            for member in inst.members:
                events[member].succeed(result)
            self._instances.pop(key, None)

        self.sim.schedule(cost, complete)

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of collective instances still waiting for members."""
        return len(self._instances)
