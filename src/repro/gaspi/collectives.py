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

A team that repeats the guarded solver-loop round in lockstep parks in a
:class:`Cohort`, which advances the whole team with one entry per step and
splits back into per-rank code at the first divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Collection, Dict, List, Optional, Set, Tuple

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


#: what a parked member resumes with: (rounds advanced, last round's start)
LockstepResult = Tuple[int, float]


class Cohort:
    """A team advancing the guarded solver loop as one, one entry per step.

    A *round* is what every member does after a successful allreduce:
    ``Sleep(dt)``, take the next step, read its failure flag, then a
    scalar-int MIN allreduce of that step.  Members *park* right after an
    allreduce, on a private event with no timeout timer.  The first one
    schedules the tick with its own ``dt``; later ones join only while
    nothing has been scheduled since and the clock has not moved, so each
    joiner's ``Sleep`` would have taken the very next sequence number.  A
    tick either advances the cohort by a round (emit each member's trace
    event, schedule the completion after ``costs.allreduce(p, 8)``, which
    schedules the next tick after ``dt``) or *splits*: its entry succeeds
    every park event in park order, and each member resumes in its own
    per-rank code just after that round's sleep.

    The tick splits when a member is dead, a member's ``check`` returns a
    notice, the next step reaches ``stop`` (a checkpoint step or the last
    step), the parked set is not the whole membership, or the timeout
    would fire before the completion.  Members that disagree on the
    round's parameters never share a cohort.  A member that dies during
    an allreduce is found dead at the next tick, which is where the
    survivors would have woken from their own sleeps.

    **Why this is exact.**  ``K`` entries with one time and contiguous
    sequence numbers run back to back: no other entry sorts between them,
    and what they schedule gets later numbers.  One entry that resumes
    ``K`` processes inline, in the same order, is therefore
    order-isomorphic to them, and every other entry keeps its relative
    order.  A round's ``K`` wake-ups collapse into the tick.  What they
    scheduled collapses into the completion, at the same position: ``K``
    timeout timers and the completion of the last arrival.  The ``K``
    sleeps the completion would have scheduled collapse into the next
    tick.  The timers no longer created were always cancelled before they
    fired, since a round is only taken when ``now + cost < now +
    timeout``.  Times come from the kernel's own ``now + delay`` with the
    same delays, never from an absolute-time round trip.
    """

    __slots__ = ("engine", "params", "step", "dt", "stop", "timeout",
                 "trace", "size", "ranks", "rank_array", "events",
                 "checks", "starts", "rounds", "t_last", "t_form", "mark",
                 "_alive")

    def __init__(self, engine: "CollectiveEngine", params: Tuple,
                 alive: Callable[[np.ndarray], bool]) -> None:
        identity, _seq, step, dt, stop, timeout, trace = params
        self.engine = engine
        self.params = params
        self.step = step
        self.dt = dt
        self.stop = stop
        self.timeout = timeout
        self.trace = trace
        self.size = len(identity[1])
        self.ranks: List[int] = []
        self.rank_array = np.zeros(0, dtype=np.int64)  # set at the 1st tick
        self.events: List[Event] = []
        self.checks: List[Callable[[], Any]] = []
        self.starts: List[float] = []
        self.rounds = 0
        self.t_last = 0.0
        self._alive = alive
        sim = engine.sim
        sim.schedule(dt, self._tick)
        self.t_form = sim.now
        self.mark = sim.scheduled_count

    def _tick(self) -> None:
        engine = self.engine
        if engine._forming is self:
            engine._forming = None
        sim = engine.sim
        now = sim.now
        step = self.step + 1
        cost = engine.costs.allreduce(self.size, 8)
        timeout = self.timeout
        if self.rounds == 0:
            self.rank_array = np.array(self.ranks, dtype=np.int64)
        if (step >= self.stop or len(self.ranks) != self.size
                or (timeout is not None and now + cost >= now + timeout)
                or not self._alive(self.rank_array)
                or any(check() is not None for check in self.checks)):
            self._split()
            return
        tracer = sim.tracer
        if tracer.enabled and self.trace is not None:
            name = self.trace
            starts = (self.starts if self.rounds == 0
                      else [self.t_last] * len(self.ranks))
            for rank, t0 in zip(self.ranks, starts):
                tracer.emit(now, rank, name, dur=now - t0, step=step)
        self.step = step
        self.t_last = now
        sim.schedule(cost, self._complete)

    def _complete(self) -> None:
        self.rounds += 1
        self.engine.sim.schedule(self.dt, self._tick)

    def _split(self) -> None:
        self.engine._cohorts.discard(self)
        rounds = self.rounds
        for event, t0 in zip(self.events, self.starts):
            # a member killed while parked has no waiter left: not resumed
            event.succeed((rounds, self.t_last if rounds else t0))


class CollectiveEngine:
    """World-global matcher for barrier / allreduce / group_commit."""

    def __init__(self, sim: Simulator, costs: Optional[CollectiveCosts] = None) -> None:
        self.sim = sim
        self.costs = costs or CollectiveCosts()
        self._instances: Dict[Tuple, _Instance] = {}
        self._cohorts: Set[Cohort] = set()
        #: the cohort later parkers may still join (until its first tick)
        self._forming: Optional[Cohort] = None

    # ------------------------------------------------------------------
    def park(self, params: Tuple, rank: int, check: Optional[Callable[[], Any]],
             t0: float, alive: Callable[[np.ndarray], bool]) -> Event:
        """Park ``rank`` in a lockstep cohort; returns its resume event.

        ``params`` is ``(identity, seq, step, dt, stop, timeout, trace)``;
        the member joins the forming cohort when the parameters match and
        nothing was scheduled since its last join (see :class:`Cohort`),
        else it starts a new one.  ``check`` is read every tick and
        returns a failure notice or ``None``; ``t0`` is the start of the
        member's current round; ``alive`` tests an array of ranks.
        """
        members = params[0][1]
        if rank not in (members.member_set() if isinstance(members, _Members)
                        else members):
            raise GaspiUsageError(f"rank {rank} not a member of {params[0]}")
        sim = self.sim
        cohort = self._forming
        if (cohort is None or cohort.mark != sim.scheduled_count
                or cohort.t_form != sim.now or cohort.params != params):
            cohort = self._forming = Cohort(self, params, alive)
            self._cohorts.add(cohort)
        event = Event()
        cohort.ranks.append(rank)
        cohort.events.append(event)
        if check is not None:
            cohort.checks.append(check)
        cohort.starts.append(t0)
        return event

    @property
    def cohorts(self) -> int:
        """Number of lockstep cohorts not yet split."""
        return len(self._cohorts)

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
