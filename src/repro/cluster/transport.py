"""Rank-to-rank transport with RDMA semantics and broken-channel detection.

The transport reproduces the failure-visibility model the paper's fault
detector is built on:

* **RDMA ops** (one-sided write/read) apply to the target's memory at
  delivery time *without target-process involvement*.  If the target process
  is dead (or the path is cut) the operation simply **never completes** —
  the initiator only ever observes ``GASPI_TIMEOUT`` on its queue, exactly
  as the paper describes for workers talking to failed ranks.
* **Ping** (the authors' ``gaspi_proc_ping`` GPI-2 extension) requires the
  remote GPI-2 agent to answer.  A dead/unreachable target makes the ping
  complete with an error after ``error_timeout`` (modelling the transport's
  retry/timeout machinery, ~seconds on InfiniBand).  Once a source saw a
  broken channel, further pings to the same target fail fast.
* **Control messages** (passive communication, kill requests) are delivered
  into the target endpoint's channel if it is alive at delivery time.

All completions are :class:`repro.sim.Event` objects carrying
``(ok, info)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.sim import Channel, Event, Simulator
from repro.cluster.network import Network


class _DoorbellBatch:
    """Same-tick RDMA ops coalesced behind one doorbell ring.

    Ops posted by a source to the same doorbell key within one simulated
    tick share a single completion timer (the max completion time across
    the batch) — the DES analogue of writing N descriptors and ringing the
    NIC doorbell once.
    """

    __slots__ = ("ops",)

    def __init__(self) -> None:
        #: (dst, completion_time, apply_fn, done_event)
        self.ops: List[Tuple[int, float, Callable[[], Any], Event]] = []


@dataclass
class TransportParams:
    """Timing knobs of the transport layer (see DESIGN.md calibration)."""

    #: Time for the transport to diagnose a broken channel (IB retry
    #: timeout equivalent).  Calibrated so detection+ack lands near the
    #: paper's ~5 s (Table I).
    error_timeout: float = 3.5
    #: Software service time of one ping (paper: ~1 ms per process).
    ping_overhead: float = 1.0e-3
    #: Fast-fail latency for pings on an already-known-broken channel.
    fast_fail: float = 1.0e-4
    #: Payload size assumed for acknowledgements/pings.
    small_message: int = 64


@dataclass
class Delivery:
    """A control-plane message as seen by the receiving endpoint."""

    src: int
    kind: str
    payload: Any
    nbytes: int
    t_sent: float


class SweepResults:
    """Per-probe results of one batched ping sweep, materialized lazily.

    Behaves like the sequential sweep's list of ``(target, alive,
    t_start, t_end)`` tuples, but keeps the per-probe data as the arrays
    the batched path already computed: consumers that only need the
    (usually empty) failure list — the FD's hot loop — never touch a
    per-target Python object, while iteration and indexing still yield
    the exact tuples the scalar reference produces.
    """

    __slots__ = ("_targets", "_alive", "_starts", "_ends")

    def __init__(self, targets: List[int], alive: np.ndarray,
                 starts: np.ndarray, ends: np.ndarray) -> None:
        self._targets = targets
        self._alive = alive
        self._starts = starts
        self._ends = ends

    @property
    def failed(self) -> List[int]:
        """Targets that did not answer, in ``targets`` order."""
        if bool(self._alive.all()):
            return []
        return [self._targets[i] for i in np.flatnonzero(~self._alive)]

    def __len__(self) -> int:
        return len(self._targets)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return (
            self._targets[index],
            bool(self._alive[index]),
            float(self._starts[index]),
            float(self._ends[index]),
        )

    def __iter__(self):
        for i in range(len(self._targets)):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SweepResults, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


class Endpoint:
    """Per-rank attachment point to the transport.

    Endpoint objects are materialised lazily (:meth:`Transport.endpoint`)
    — liveness truth lives in the transport's rank-indexed arrays, so a
    4096-rank world only instantiates endpoints for ranks that exchange
    control-plane messages or are looked up explicitly.
    """

    __slots__ = ("rank", "node_id", "_transport", "_inboxes")

    def __init__(self, rank: int, node_id: int,
                 transport: "Transport") -> None:
        self.rank = rank
        self.node_id = node_id
        self._transport = transport
        self._inboxes: Dict[str, Channel] = {}

    @property
    def alive(self) -> bool:
        """Liveness, read from the transport's shared rank array."""
        return bool(self._transport._alive[self.rank])

    def inbox(self, kind: str) -> Channel:
        """Per-message-kind FIFO of :class:`Delivery` objects."""
        chan = self._inboxes.get(kind)
        if chan is None:
            chan = Channel(name=f"ep{self.rank}.{kind}")
            self._inboxes[kind] = chan
        return chan


class Transport:
    """All rank-to-rank operations of the simulated fabric."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        params: Optional[TransportParams] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.params = params or TransportParams()
        self._endpoints: Dict[int, Endpoint] = {}
        #: per-rank node id / liveness / death time as dense arrays
        #: (rank-indexed) — the struct-of-arrays truth behind whole-round
        #: pricing, path checks and O(alive) liveness scans.  A rank that
        #: never died has ``t_death = +inf``.
        self._nodes_arr: np.ndarray = np.zeros(0, dtype=np.int64)
        self._alive: np.ndarray = np.zeros(0, dtype=bool)
        self._t_death: np.ndarray = np.zeros(0, dtype=np.float64)
        #: per-source set of targets whose channel is known broken; entries
        #: appear on first breakage (most sources never see one)
        self._broken: Dict[int, Set[int]] = {}
        self._kill_handler: Optional[Callable[[int], None]] = None
        #: open same-tick doorbell batches, keyed by (src, doorbell key)
        self._doorbells: Dict[Tuple[int, Any], _DoorbellBatch] = {}
        # counters for tests/benchmarks; "rdma" counts fabric operations,
        # "rdma_writes" the constituent writes they carry (batching shrinks
        # the former, never the latter).
        self.stats: Dict[str, int] = {
            "rdma": 0,
            "rdma_writes": 0,
            "ping": 0,
            "control": 0,
            "kill": 0,
        }

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register(self, rank: int, node_id: int) -> Endpoint:
        """Attach rank ``rank`` living on node ``node_id``."""
        if self._registered(rank):
            raise ValueError(f"rank {rank} already registered")
        if rank >= self._nodes_arr.shape[0]:
            # geometric growth keeps incremental registration O(n) total
            n_new = max(rank + 1, 2 * self._nodes_arr.shape[0])
            nodes = np.full(n_new, -1, dtype=np.int64)
            nodes[: self._nodes_arr.shape[0]] = self._nodes_arr
            self._nodes_arr = nodes
            alive = np.zeros(n_new, dtype=bool)
            alive[: self._alive.shape[0]] = self._alive
            self._alive = alive
            t_death = np.full(n_new, np.inf, dtype=np.float64)
            t_death[: self._t_death.shape[0]] = self._t_death
            self._t_death = t_death
        self._nodes_arr[rank] = node_id
        self._alive[rank] = True
        return self.endpoint(rank)

    def register_many(self, node_ids: Sequence[int]) -> None:
        """Attach ranks ``0..n-1`` to their nodes in one pass.

        The bulk-construction path: three array allocations for the whole
        world instead of per-rank endpoint objects, broken-channel sets
        and repeated array regrowth.  Endpoints materialise on demand via
        :meth:`endpoint`.
        """
        if self._registered_count():
            raise ValueError("register_many needs an empty transport")
        self._nodes_arr = np.ascontiguousarray(node_ids, dtype=np.int64)
        n = self._nodes_arr.shape[0]
        self._alive = np.ones(n, dtype=bool)
        self._t_death = np.full(n, np.inf, dtype=np.float64)

    def _registered(self, rank: int) -> bool:
        return (0 <= rank < self._nodes_arr.shape[0]
                and int(self._nodes_arr[rank]) >= 0)

    def _registered_count(self) -> int:
        return int(np.count_nonzero(self._nodes_arr >= 0))

    def endpoint(self, rank: int) -> Endpoint:
        ep = self._endpoints.get(rank)
        if ep is None:
            if not self._registered(rank):
                raise KeyError(rank)
            ep = Endpoint(rank, int(self._nodes_arr[rank]), self)
            self._endpoints[rank] = ep
        return ep

    def is_alive(self, rank: int) -> bool:
        """Liveness without materialising an endpoint object."""
        return bool(self._alive[rank])

    def all_alive(self, ranks: np.ndarray) -> bool:
        """Are all of ``ranks`` alive (one vectorized gather)?"""
        return bool(self._alive[ranks].all())

    def alive_ranks(self) -> List[int]:
        """All live ranks, via one vectorized scan of the alive array."""
        return np.flatnonzero(self._alive).tolist()

    def set_kill_handler(self, fn: Callable[[int], None]) -> None:
        """Install the machine hook that fail-stops a rank on request."""
        self._kill_handler = fn

    def mark_dead(self, rank: int) -> None:
        """Machine hook: the process behind ``rank`` fail-stopped."""
        if np.isinf(self._t_death[rank]):
            self._t_death[rank] = self.sim.now
        self._alive[rank] = False

    # ------------------------------------------------------------------
    # path helpers
    # ------------------------------------------------------------------
    def _path_up(self, src: int, dst: int) -> bool:
        nodes = self._nodes_arr
        return bool(self._alive[dst]) and self.network.reachable(
            int(nodes[src]), int(nodes[dst]))

    def _latency(self, src: int, dst: int, nbytes: int) -> float:
        nodes = self._nodes_arr
        return self.network.transfer_time(
            int(nodes[src]), int(nodes[dst]), nbytes)

    def _ack_latency(self, src: int, dst: int) -> float:
        return self._latency(dst, src, self.params.small_message)

    # ------------------------------------------------------------------
    # RDMA (one-sided)
    # ------------------------------------------------------------------
    def post_rdma(
        self,
        src: int,
        dst: int,
        nbytes: int,
        apply_fn: Callable[[], Any],
    ) -> Event:
        """One-sided operation: run ``apply_fn`` at the target at delivery.

        Completes ``(True, result)`` after delivery + ack if the target
        process is alive and reachable *at delivery time*; otherwise the
        returned event never fires (the initiator's queue sees timeouts).
        """
        self.stats["rdma"] += 1
        self.stats["rdma_writes"] += 1
        done = Event(name=f"rdma:{src}->{dst}")
        lat = self._latency(src, dst, nbytes)
        ack = self._ack_latency(src, dst)

        def deliver() -> None:
            if not self._path_up(src, dst):
                return  # op hangs: initiator only sees queue timeouts
            result = apply_fn()
            self.sim.schedule(ack, lambda: done.succeed((True, result)))

        self.sim.schedule(lat, deliver)
        return done

    def post_rdma_list(
        self,
        src: int,
        dst: int,
        sizes: Sequence[int],
        apply_fn: Callable[[], Any],
        doorbell: Any = None,
        n_writes: Optional[int] = None,
    ) -> Event:
        """Batched one-sided operation: N writes to one target as a single
        simulated transfer (``gaspi_write_list`` semantics).

        The time model is vectorized — one latency plus a sum-of-bytes
        bandwidth term (:meth:`Network.transfer_time_list`).  ``apply_fn``
        applies *all* writes of the batch atomically; the wire guarantees no
        interleaving within one list operation.

        With ``doorbell`` set (typically the GASPI queue id), ops posted by
        ``src`` to the same doorbell key within the same simulated tick are
        coalesced onto a single completion timer firing at the batch's max
        completion time.  Data then lands at completion (latency + ack)
        rather than at bare latency, and the path is re-checked per op at
        that moment — slightly *more* conservative than the sequential
        path: a target dying anywhere before completion hangs the op.
        """
        self.stats["rdma"] += 1
        self.stats["rdma_writes"] += len(sizes) if n_writes is None else n_writes
        done = Event(name=f"rdma_list:{src}->{dst}")
        nodes = self._nodes_arr
        lat = self.network.transfer_time_list(int(nodes[src]), int(nodes[dst]), sizes)
        ack = self._ack_latency(src, dst)

        if doorbell is None:
            def deliver() -> None:
                if not self._path_up(src, dst):
                    return  # hangs, like post_rdma
                result = apply_fn()
                self.sim.schedule(ack, lambda: done.succeed((True, result)))

            self.sim.schedule(lat, deliver)
            return done

        key = (src, doorbell)
        batch = self._doorbells.get(key)
        if batch is None:
            batch = _DoorbellBatch()
            self._doorbells[key] = batch

            def seal() -> None:
                # End of the tick: close the batch and ring the doorbell —
                # one timer at the slowest op's completion time.
                if self._doorbells.get(key) is batch:
                    del self._doorbells[key]
                ops = batch.ops
                t_max = max(op[1] for op in ops)

                def ring() -> None:
                    for dst_i, _tc, apply_i, done_i in ops:
                        if not self._path_up(src, dst_i):
                            continue  # this op hangs; the rest proceed
                        result = apply_i()
                        done_i.succeed((True, result))

                self.sim.schedule(t_max, ring)

            self.sim.schedule(0.0, seal)
        batch.ops.append((dst, lat + ack, apply_fn, done))
        return done

    def post_rdma_round(
        self,
        src: int,
        dsts: Sequence[int],
        nbytes: int,
        apply_fn: Callable[[int], Any],
    ) -> Event:
        """Fan one payload out to every rank in ``dsts`` as a single round
        operation (whole-round alpha-beta pricing, one completion event).

        Virtual-time equivalent of posting :meth:`post_rdma` once per
        destination within one tick and waiting on all of them: data lands
        at destination ``i`` at ``t + lat_i`` (liveness/reachability
        re-checked per destination at its delivery time, exactly like the
        sequential path), and the returned event completes ``(True, None)``
        at ``max_i (t + lat_i) + ack_i`` iff *every* delivery succeeded.
        Any dead or unreachable destination makes the event never fire —
        the initiator's queue sees timeouts, just as a per-target broadcast
        with one hung write would.

        Event cost is O(distinct latency values), not O(destinations): on a
        uniform fabric an entire notice broadcast is one delivery callback
        plus one finalize.
        """
        dst_list = [int(d) for d in dsts]
        self.stats["rdma"] += 1
        self.stats["rdma_writes"] += len(dst_list)
        done = Event(name=f"rdma_round:{src}")
        n = len(dst_list)
        if n == 0:
            done.succeed((True, None))
            return done
        t0 = self.sim.now
        net = self.network
        src_node = int(self._nodes_arr[src])
        if net.jittered:
            # interleaved per-destination draws: the exact RNG order of a
            # sequential per-target post loop
            lats = np.empty(n, dtype=np.float64)
            acks = np.empty(n, dtype=np.float64)
            for j, d in enumerate(dst_list):
                lats[j] = self._latency(src, d, nbytes)
                acks[j] = self._ack_latency(src, d)
        else:
            tgt_nodes = self._nodes_arr[np.asarray(dst_list, dtype=np.int64)]
            lats = net.transfer_time_round(src_node, tgt_nodes, nbytes)
            # symmetric-fabric ack pricing, see _post_ping_sweep_batched
            acks = net.transfer_time_round(
                src_node, tgt_nodes, self.params.small_message
            )
        t_done = float(((t0 + lats) + acks).max())
        state = {"hung": False}

        for lat_val in np.unique(lats).tolist():
            idxs = np.nonzero(lats == lat_val)[0].tolist()

            def deliver(idxs: List[int] = idxs) -> None:
                for j in idxs:
                    d = dst_list[j]
                    if not self._path_up(src, d):
                        state["hung"] = True
                        continue
                    apply_fn(d)

            self.sim.schedule_at(t0 + lat_val, deliver)

        def finalize() -> None:
            if not state["hung"]:
                done.succeed((True, None))

        self.sim.schedule_at(t_done, finalize)
        return done

    def post_rdma_scatter(
        self,
        srcs: Sequence[int],
        dsts: Sequence[int],
        sizes: Sequence[int],
        apply_fns: Sequence[Callable[[], Any]],
        hang_fns: Optional[Sequence[Optional[Callable[[], None]]]] = None,
        write_counts: Optional[Sequence[int]] = None,
    ) -> List[Event]:
        """Pairwise round of independent one-sided ops, priced together.

        Op ``i`` moves ``sizes[i]`` bytes from ``srcs[i]`` to ``dsts[i]``
        — the checkpoint mirror round's many-sources shape (each rank ships
        to its own neighbor), complementing :meth:`post_rdma_round`'s
        one-source fan.  The whole round costs one vectorized
        :meth:`Network.transfer_time_round` call per direction; op ``i``
        completes at ``now + (lat_i + ack_i)`` with the path re-checked at
        that moment, exactly like a doorbell-coalesced
        :meth:`post_rdma_list` op posted by ``srcs[i]`` in the same tick.
        A down path leaves event ``i`` unfired (the initiator's queue sees
        timeouts) and invokes ``hang_fns[i]`` instead, letting the caller
        arm its purge/timeout bookkeeping lazily.  ``write_counts[i]``
        feeds the ``rdma_writes`` counter (the constituent writes each op
        carries); each op counts as one fabric operation.

        Event cost is O(distinct completion times), not O(ops): a uniform
        fabric completes an entire mirror round in one callback.
        """
        n = len(srcs)
        self.stats["rdma"] += n
        self.stats["rdma_writes"] += (
            n if write_counts is None else int(sum(write_counts))
        )
        events = [Event(name="rdma_scatter") for _ in range(n)]
        if n == 0:
            return events
        t0 = self.sim.now
        net = self.network
        src_arr = np.asarray(srcs, dtype=np.int64)
        dst_arr = np.asarray(dsts, dtype=np.int64)
        if net.jittered:
            # per-op RNG draws in op order, like a sequential post loop
            lats = np.empty(n, dtype=np.float64)
            acks = np.empty(n, dtype=np.float64)
            for j in range(n):
                lats[j] = self._latency(
                    int(src_arr[j]), int(dst_arr[j]), int(sizes[j])
                )
                acks[j] = self._ack_latency(int(src_arr[j]), int(dst_arr[j]))
        else:
            src_nodes = self._nodes_arr[src_arr]
            dst_nodes = self._nodes_arr[dst_arr]
            lats = net.transfer_time_round(
                src_nodes, dst_nodes, np.asarray(sizes, dtype=np.int64)
            )
            acks = net.transfer_time_round(
                dst_nodes, src_nodes, self.params.small_message
            )
        t_done = t0 + (lats + acks)

        for t_val in np.unique(t_done).tolist():
            idxs = np.nonzero(t_done == t_val)[0].tolist()

            def ring(idxs: List[int] = idxs) -> None:
                for j in idxs:
                    s, d = srcs[j], dsts[j]
                    if not self._path_up(s, d):
                        if hang_fns is not None and hang_fns[j] is not None:
                            hang_fns[j]()  # type: ignore[misc]
                        continue  # this op hangs; the rest proceed
                    result = apply_fns[j]()
                    events[j].succeed((True, result))

            self.sim.schedule_at(t_val, ring)
        return events

    # ------------------------------------------------------------------
    # ping (gaspi_proc_ping extension) — the detection mechanism
    # ------------------------------------------------------------------
    def post_ping(self, src: int, dst: int) -> Event:
        """Health probe: completes ``(True, None)`` from a live target,
        ``(False, None)`` after ``error_timeout`` from a dead/cut one."""
        self.stats["ping"] += 1
        done = Event(name=f"ping:{src}->{dst}")
        p = self.params
        broken = self._broken.get(src)
        if broken is not None and dst in broken:
            self.sim.schedule(p.fast_fail, lambda: done.succeed((False, None)))
            return done
        rtt = (
            p.ping_overhead
            + self._latency(src, dst, p.small_message)
            + self._ack_latency(src, dst)
        )

        def resolve() -> None:
            # Aliveness is re-checked at resolution time so that a target
            # dying during the RTT is still (eventually) caught by later
            # pings, while one dying after the answer is legitimately seen
            # healthy this round — just like a real probe.
            if self._path_up(src, dst):
                done.succeed((True, None))
            else:
                self._broken.setdefault(src, set()).add(dst)

                def fail() -> None:
                    done.succeed((False, None))

                self.sim.schedule(max(0.0, p.error_timeout - rtt), fail)

        self.sim.schedule(rtt, resolve)
        return done

    def post_ping_sweep(
        self,
        src: int,
        targets: Sequence[int],
        width: int = 1,
        batched: bool = True,
    ) -> Event:
        """Probe a whole round of targets as one batched sweep.

        Semantically identical to issuing :meth:`post_ping` per target with
        at most ``width`` probes in flight (the FD's ``fd_threads`` knob),
        but the entire sweep is driven by transport-internal callbacks: the
        caller blocks once on the returned event instead of once per probe.

        With ``batched=True`` (default) the whole round is priced in one
        vectorized alpha-beta call (:meth:`Network.transfer_time_round`)
        and driven by a *single* finalize callback — O(1) simulator events
        per sweep instead of O(n) — reconstructing the exact per-probe
        virtual times of the callback-chained path.  Jittered networks fall
        back to the sequential path automatically (per-probe RNG draw order
        cannot be reproduced from one post-time pricing call).

        Completes ``(True, results)`` where ``results`` is a list, in
        ``targets`` order, of ``(target, alive, t_start, t_end)`` tuples —
        the virtual start/resolve times each probe would have seen on the
        sequential path (known-broken fast-fails, live-target RTTs, and the
        ``error_timeout`` wait for newly dead targets all preserved).
        """
        self.stats["ping"] += len(targets)
        if batched and not self.network.jittered:
            return self._post_ping_sweep_batched(
                src, list(targets), max(1, int(width))
            )
        return self._post_ping_sweep_seq(src, list(targets), max(1, int(width)))

    def _post_ping_sweep_batched(
        self, src: int, targets: List[int], width: int
    ) -> Event:
        """Whole-round sweep: one pricing call, one finalize callback.

        The sequential timeline is reconstructed in closed form: groups of
        ``width`` probes start together, each group at the previous group's
        max resolve time; a probe resolves after its RTT (or ``fast_fail``
        for known-broken channels) and a newly-dead target adds
        ``max(0, error_timeout - rtt)``.  Deaths *during* the sweep only
        lengthen it, so a fixed-point iteration over the dead set (recomputed
        from the rank death-time array at each callback, with re-arming when
        the sweep end moves past ``now``) converges to the exact sequential
        schedule.  A target is dead for a probe iff its death time is <= the
        probe's resolve time (kills scheduled at equal virtual time carry
        earlier sequence numbers and win the tie, matching the event order
        of the sequential path).  Duplicate targets in one sweep are priced
        off the post-time broken-set snapshot.
        """
        done = Event(name=f"pingsweep:{src}")
        n = len(targets)
        if n == 0:
            done.succeed((True, []))
            return done
        p = self.params
        t_post = self.sim.now
        src_node = int(self._nodes_arr[src])
        tgt = np.asarray(targets, dtype=np.int64)
        tgt_nodes = self._nodes_arr[tgt]
        fwd = self.network.transfer_time_round(
            src_node, tgt_nodes, p.small_message
        )
        # ack direction priced src->dst: the built-in fabrics are symmetric,
        # so this equals transfer_time(dst, src, small_message) bit-for-bit
        ack = self.network.transfer_time_round(
            src_node, tgt_nodes, p.small_message
        )
        rtt = (p.ping_overhead + fwd) + ack
        broken0 = self._broken.get(src, set())
        if broken0:
            is_broken = np.fromiter(
                (t in broken0 for t in targets), dtype=bool, count=n
            )
        else:
            is_broken = np.zeros(n, dtype=bool)
        eff = np.where(is_broken, p.fast_fail, rtt)
        extra = np.maximum(0.0, p.error_timeout - rtt)
        starts = np.empty(n, dtype=np.float64)
        ends = np.empty(n, dtype=np.float64)

        def timeline(dead: np.ndarray) -> float:
            if width == 1:
                # pure chain: each probe starts at the previous probe's
                # end, so the whole schedule is one sequential accumulation
                # over the interleaved (eff, dead-extra) increments.  Alive
                # probes contribute an exact 0.0 extra (r + 0.0 == r for
                # the positive times here), so one cumsum reproduces the
                # grouped loop below bit-for-bit without its O(n) Python
                # iterations.
                pad = np.where(dead & ~is_broken, extra, 0.0)
                chain = np.empty(2 * n + 1, dtype=np.float64)
                chain[0] = t_post
                chain[1::2] = eff
                chain[2::2] = pad
                acc = np.cumsum(chain)
                starts[:] = acc[0:-1:2]
                ends[:] = acc[2::2]
                return float(acc[-1])
            s = t_post
            for g0 in range(0, n, width):
                g1 = min(g0 + width, n)
                resolve = s + eff[g0:g1]
                end = np.where(
                    dead[g0:g1] & ~is_broken[g0:g1],
                    resolve + extra[g0:g1],
                    resolve,
                )
                starts[g0:g1] = s
                ends[g0:g1] = end
                s = float(end.max())
            return s

        def compute() -> Tuple[np.ndarray, float]:
            # Fixed point over the dead set: deaths only push resolve times
            # later, which can only mark *more* targets dead — monotone,
            # so this converges in <= n rounds (practically <= deaths + 1).
            t_death = self._t_death[tgt]
            if self.network.partitioned:
                unreach = np.fromiter(
                    (
                        not self.network.reachable(src_node, int(b))
                        for b in tgt_nodes
                    ),
                    dtype=bool,
                    count=n,
                )
            else:
                unreach = np.zeros(n, dtype=bool)
            dead = np.zeros(n, dtype=bool)
            end = timeline(dead)
            for _ in range(n + 1):
                new_dead = (~is_broken) & (
                    (t_death <= starts + eff) | unreach
                )
                if np.array_equal(new_dead, dead):
                    break
                dead = new_dead
                end = timeline(dead)
            return dead, end

        def check() -> None:
            dead, end = compute()
            if end > self.sim.now:
                # a death since the last estimate stretched the sweep
                self.sim.schedule_at(end, check)
                return
            if dead.any():
                broken = self._broken.setdefault(src, set())
                for d in tgt[dead].tolist():
                    broken.add(int(d))
            alive_mask = ~(is_broken | dead)
            done.succeed((True, SweepResults(
                targets, alive_mask, starts.copy(), ends.copy()
            )))

        _, estimate = compute()
        self.sim.schedule_at(estimate, check)
        return done

    def _post_ping_sweep_seq(
        self, src: int, targets: List[int], width: int
    ) -> Event:
        """Callback-chained sweep (scalar reference; exercised for jittered
        networks and by the vectorized-vs-scalar identity tests)."""
        done = Event(name=f"pingsweep:{src}")
        n = len(targets)
        out: List[Optional[Tuple[int, bool, float, float]]] = [None] * n
        p = self.params

        def start_group(idx: int) -> None:
            if idx >= n:
                done.succeed((True, out))
                return
            group_end = min(idx + width, n)
            remaining = group_end - idx

            def finish_one() -> None:
                nonlocal remaining
                remaining -= 1
                if remaining == 0:
                    start_group(group_end)

            t0 = self.sim.now
            for i in range(idx, group_end):
                self._sweep_probe(src, targets[i], i, t0, out, finish_one)

        start_group(0)
        return done

    def _sweep_probe(
        self,
        src: int,
        dst: int,
        i: int,
        t0: float,
        out: List[Optional[Tuple[int, bool, float, float]]],
        finish: Callable[[], None],
    ) -> None:
        """One probe of a sweep; mirrors :meth:`post_ping` exactly."""
        p = self.params
        broken = self._broken.get(src)
        if broken is not None and dst in broken:
            def fast_fail() -> None:
                out[i] = (dst, False, t0, self.sim.now)
                finish()

            self.sim.schedule(p.fast_fail, fast_fail)
            return
        rtt = (
            p.ping_overhead
            + self._latency(src, dst, p.small_message)
            + self._ack_latency(src, dst)
        )

        def resolve() -> None:
            if self._path_up(src, dst):
                out[i] = (dst, True, t0, self.sim.now)
                finish()
            else:
                self._broken.setdefault(src, set()).add(dst)

                def fail() -> None:
                    out[i] = (dst, False, t0, self.sim.now)
                    finish()

                self.sim.schedule(max(0.0, p.error_timeout - rtt), fail)

        self.sim.schedule(rtt, resolve)

    def forget_broken(self, src: int, dst: Optional[int] = None) -> None:
        """Clear the broken-channel cache (e.g. after link repair)."""
        broken = self._broken.get(src)
        if broken is None:
            return
        if dst is None:
            broken.clear()
        else:
            broken.discard(dst)

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def post_control(
        self, src: int, dst: int, kind: str, payload: Any, nbytes: int = 64
    ) -> Event:
        """Deliver a message into the target's control channel.

        Completes ``(True, None)`` once the target (alive at delivery time)
        has the message; never completes otherwise.
        """
        self.stats["control"] += 1
        done = Event(name=f"ctl:{src}->{dst}:{kind}")
        lat = self._latency(src, dst, nbytes)
        t_sent = self.sim.now

        def deliver() -> None:
            if not self._path_up(src, dst):
                return
            self.endpoint(dst).inbox(kind).put(
                Delivery(src=src, kind=kind, payload=payload, nbytes=nbytes, t_sent=t_sent)
            )
            self.sim.schedule(self._ack_latency(src, dst), lambda: done.succeed((True, None)))

        self.sim.schedule(lat, deliver)
        return done

    def post_kill(self, src: int, dst: int) -> Event:
        """Remote fail-stop request (``gaspi_proc_kill``).

        Completes ``(True, None)`` whether or not the target was still
        alive: killing an already-dead process is a success.  If the path
        from ``src`` is cut the request cannot take effect from here (the
        paper has *every* healthy rank issue the kill, so any rank with a
        working path enforces it).
        """
        self.stats["kill"] += 1
        done = Event(name=f"kill:{src}->{dst}")
        lat = self._latency(src, dst, self.params.small_message)

        def deliver() -> None:
            nodes = self._nodes_arr
            reachable = self.network.reachable(
                int(nodes[src]), int(nodes[dst])
            )
            if reachable and bool(self._alive[dst]) \
                    and self._kill_handler is not None:
                self._kill_handler(dst)
            self.sim.schedule(
                self._ack_latency(src, dst), lambda: done.succeed((True, None))
            )

        self.sim.schedule(lat, deliver)
        return done
