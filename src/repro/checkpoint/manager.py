"""The application-facing checkpoint library (paper Sect. IV-C, Fig. 2).

Usage from a rank's generator::

    lib = CheckpointLib(ctx, logical_rank=lrank, participants=workers)
    done = yield from lib.write_checkpoint(version, {"v_j": vj, "alpha": a})
    ...                         # compute continues; neighbor copy is async
    version, payload = yield from lib.read_checkpoint()   # on restart

The write path is the paper's neighbor node-level checkpointing (§IV-C /
Fig. 2; the C/R library of §V's overhead measurements): a synchronous
local-node checkpoint, then a background copy to the neighbor node (and,
optionally, every ``pfs_every``-th version to the PFS) on the world's one
round copy plane, :class:`CheckpointManager`, which every asynchronous
checkpoint copy of every backend rides.  Because the neighbor copy is
asynchronous, the application only ever pays the local write — the
paper's ≈0.01 % checkpointing overhead.  ``refresh`` re-derives the
neighbor after recovery (fault-aware placement); ``restorable_latest``
reports the newest version this rank could actually restore, which the
recovery protocol min-reduces across ranks to pick the globally
consistent restart point (the allreduce-MIN version agreement).

The same class serves all three backends of ``CHECKPOINTS.md``:
``config.backend`` picks one row of :data:`BACKEND_TABLE` — the neighbor
mirror (:data:`MIRROR`), the ReStore-style replicas (:data:`REPLICA`:
the mirror with ``r`` holders) and the classical synchronous PFS
(:data:`PFS`).  A row says how the backend places, writes, lands and
finds its copies; only the source search is written per backend.

Parameter ↔ paper-symbol mapping:

==========================  ====================================================
parameter                   paper quantity
==========================  ====================================================
``config.local_bandwidth``  node-local store (ramdisk/SSD) write bandwidth —
                            sets the synchronous checkpoint cost
``config.keep_versions``    checkpoint versions retained per rank (2 in the
                            paper: current + previous, so a failure mid-write
                            always leaves a consistent older version)
``config.pfs_every``        §IV-C's optional every-k-th PFS copy (0 = off)
``version``                 the checkpoint counter the solver increments every
                            ``FTConfig.checkpoint_interval`` iterations
==========================  ====================================================

Restore cost is the paper's OHF3; tracer events (``repro.obs``):
``ckpt_write`` (synchronous local span), ``ckpt_mirror`` (async neighbor
span), ``ckpt_scatter`` (async replica span) and ``restore`` (read path,
any source).
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.sim import Event, Sleep, WaitEvent
from repro.gaspi.constants import ReturnCode
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import _Members
from repro.checkpoint.neighbor import mirror_holder_map, replica_holder_map
from repro.checkpoint.pfs import ParallelFileSystem
from repro.checkpoint.serialization import (
    pack_checkpoint_into,
    packed_size,
    unpack_checkpoint,
)
from repro.checkpoint.store import (
    CheckpointNotFound,
    Key,
    NodeLocalStore,
    StoredBlob,
)

#: a backend's holder map: sorted participants, ``node_of`` and ``r`` to
#: every participant's holder list
Placement = Callable[[Sequence[int], Callable[[int], int], int],
                     Dict[int, List[int]]]


@dataclass
class CheckpointConfig:
    """Knobs of the checkpoint library (all three backends).

    ``backend`` selects the protection scheme behind the one
    ``CheckpointLib``: ``"neighbor"`` is the paper's §IV-C node-level
    neighbor mirroring, ``"pfs"`` the classical parallel-file-system
    checkpoint it argues against, and ``"replicated"`` the ReStore-style
    in-memory replication (checkpoints live in the memory of
    ``replication`` other ranks; arXiv:2203.01107).
    """

    tag: str = "ckpt"
    #: node-local store bandwidth (ramdisk/SSD), bytes/s
    local_bandwidth: float = 5.0e9
    #: how many versions to keep per (tag, logical rank)
    keep_versions: int = 2
    #: mirror every k-th version to the PFS (0 disables PFS copies)
    pfs_every: int = 0
    #: GASPI segment id of the mirror data plane's staging window; the
    #: neighbor copy ships through ``gaspi_write_list`` on this segment
    mirror_segment: int = 60
    #: staging window size (bytes); blobs larger than this stage a prefix
    #: while the time model still charges the full nominal size
    mirror_window: int = 64 * 1024
    #: which protection scheme backs the library (see :data:`BACKENDS`)
    backend: str = "neighbor"
    #: ReStore-style replication factor ``r``: how many replica holders
    #: receive each rank's packed checkpoint; tolerates up to ``r - 1``
    #: concurrent rank losses (FTHP-MPI's redundancy/MTTR knob)
    replication: int = 2
    #: GASPI segment id of the replicated backend's block landing window
    replica_segment: int = 61


# ----------------------------------------------------------------------
# the backend table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LandingPolicy:
    """One row of the backend table: what one backend does differently.

    The library (:class:`CheckpointLib`) and the copy plane
    (:class:`CheckpointManager`) are the same for every backend; a row
    says where the backend's copies go, what a landed copy *means* and
    how a restore finds its source.
    """

    #: the holder map (``None``: no copy plane — every write goes
    #: synchronously to the PFS, which is the only copy)
    placement: Optional[Placement]
    #: the :class:`CheckpointConfig` field naming the copy plane's landing
    #: segment (``""`` without a copy plane)
    segment: str
    #: whether a write also keeps the owner-key copy in its node's store
    local_copy: bool
    #: whether reads get a dedicated fetch queue (the replica fetch)
    fetch_queue: bool
    #: store-key namespace (``""`` keeps the owner key); a namespaced copy
    #: is also entered in the replica location index and its trace event
    #: names the holder
    prefix: str
    #: whether the holder *process* must be alive for the copy to land
    #: (a replica lives in its holder's memory, a mirror in its node store)
    holder_process: bool
    #: per-library stat counting protection copies, and the one counting
    #: failed copies (``None``: failures are not counted)
    stat: str
    failed_stat: Optional[str]
    #: tracer event per landed copy, and the ``phase_totals`` keys of
    #: its (ops, bytes, seconds) — ``None`` without a copy plane
    event: Optional[str]
    totals: Optional[Tuple[str, str, str]]
    #: the completion event's value, from the number of landed copies
    fired: Callable[[int], Any]
    #: whether every ``config.pfs_every``-th version also goes to the
    #: library's PFS once its holders resolved
    pfs_duty: bool
    #: the source search (the only per-backend algorithms):
    #: ``restorable_latest``, ``has_local`` and the restore's fetch
    latest: Callable[["CheckpointLib", Sequence[int]], int]
    has: Callable[["CheckpointLib", Key], bool]
    fetch: Callable[..., Generator[Any, Any, Tuple[int, Dict[str, Any]]]]


class CopyLane:
    """A library's seat on the copy plane: its landing window (same
    segment id and shape on every rank, so one pooled arena allocation),
    its dedicated queue (copies never contend with the application's
    queue 0, like the paper's library thread), and the FIFO that keeps at
    most one of its copies in flight."""

    __slots__ = ("segment", "seg_size", "queue", "queue_obj", "inflight",
                 "deferred")

    def __init__(self, ctx: GaspiContext, segment: int, window: int) -> None:
        if segment not in ctx.segments:
            ctx.segment_create_pooled(segment, window)
        self.segment = segment
        self.seg_size: int = ctx.segment(segment).size
        self.queue: int = ctx.queue_create()
        self.queue_obj = ctx.queue(self.queue)
        self.inflight: Optional[_CopyRequest] = None
        self.deferred: Deque[_CopyRequest] = deque()


class CheckpointLib:
    """Per-rank instance of the C/R library, for every backend.

    ``config.backend`` selects the library's row of :data:`BACKEND_TABLE`
    (its :attr:`landing` policy).  Construction, placement, the write
    path and the restore bookkeeping are shared; the row's ``latest``,
    ``has`` and ``fetch`` entries are the backend's source search.
    Raises :class:`ValueError` for an unknown backend and for the
    ``"pfs"`` backend without a :class:`ParallelFileSystem`.
    """

    def __init__(
        self,
        ctx: GaspiContext,
        logical_rank: int,
        participants: Sequence[int],
        config: Optional[CheckpointConfig] = None,
        pfs: Optional[ParallelFileSystem] = None,
    ) -> None:
        self.config = config or CheckpointConfig()
        landing = BACKEND_TABLE.get(self.config.backend)
        if landing is None:
            raise ValueError(
                f"unknown checkpoint backend {self.config.backend!r} "
                f"(expected one of {', '.join(map(repr, BACKENDS))})"
            )
        if landing.placement is None and pfs is None:
            raise ValueError(
                f"the {self.config.backend} backend requires a "
                f"ParallelFileSystem")
        #: this backend's row of the backend table
        self.landing = landing
        self.ctx = ctx
        self.machine = ctx.world.machine
        #: a rank's node never changes (a failed rank is replaced by a new
        #: library on a new context), so placement is resolved once
        self._my_node: int = self.machine.node_of(ctx.rank)
        self._local_store_obj = NodeLocalStore(self.machine.node(self._my_node))
        #: endpoints are registered once per rank and never replaced, so
        #: the liveness object can be resolved at construction
        self._endpoint_obj = ctx.world.transport.endpoint(ctx.rank)
        #: the simulator's tracer is fixed at launch (``obs.install`` runs
        #: before the world starts), so the property chain resolves once
        self._tracer = ctx.tracer
        self.logical_rank = logical_rank
        self.pfs = pfs
        self.participants: Sequence[int] = _Members.intern(
            tuple(sorted(participants)))
        #: the copy plane's holder list (placement, not location: replica
        #: reads use the manager's location index instead)
        self.holders: List[int] = []
        self.refresh(self.participants)
        # GASPI data plane: the landing window and copy queue, then (for
        # the replica fetch) a dedicated read queue, so copies and fetches
        # never contend with queue 0
        self.lane: Optional[CopyLane] = (
            CopyLane(ctx, getattr(self.config, landing.segment),
                     self.config.mirror_window)
            if landing.segment else None)
        self._fetch_queue: Optional[int] = (
            ctx.queue_create() if landing.fetch_queue else None)
        #: every backend's counters (zero where a backend has no such path)
        self.stats = dict.fromkeys(
            ("local_writes", "neighbor_copies", "replica_copies",
             "failed_copies", "pfs_copies", "local_reads", "remote_reads",
             "replica_reads", "pfs_reads"), 0)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    @property
    def my_node(self) -> int:
        return self._my_node

    @property
    def neighbor_rank(self) -> Optional[int]:
        """The first holder: the neighbor backend's mirror partner."""
        return self.holders[0] if self.holders else None

    @property
    def neighbor_node(self) -> Optional[int]:
        rank = self.neighbor_rank
        return None if rank is None else self.machine.node_of(rank)

    def _store_of_node(self, node_id: int) -> NodeLocalStore:
        return NodeLocalStore(self.machine.node(node_id))

    def refresh(self, participants: Iterable[int]) -> None:
        """Fault-aware placement update after group reconstruction.

        The whole ring's holder map comes from the world manager's cached
        build: every library of the same backend and participant set
        shares one map.  Already-landed replicas are unaffected: replica
        reads consult the manager's location index, so holder-map drift
        never orphans live copies.
        """
        # participants are interned: every library of one team shares the
        # sorted tuple, its set (O(1) membership below) and its hash (the
        # manager's holder-map cache key)
        members = _Members.intern(tuple(sorted(participants)))
        self.participants = members
        placement = self.landing.placement
        if (placement is not None and self.ctx.rank in members.member_set()
                and len(members) > 1):
            manager = CheckpointManager.of(self.ctx.world)
            self.holders = list(manager.holder_map_for(
                placement, members, self.config.replication
            ).get(self.ctx.rank, ()))
        else:
            self.holders = []

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write_checkpoint(
        self, version: int, payload: Dict[str, np.ndarray],
        nominal_bytes: Optional[int] = None,
    ) -> Generator[Any, Any, Event]:
        """Generator: synchronous checkpoint, then the asynchronous copies.

        Packs through the world manager's shared arena and charges the
        local write (keeping the owner-key copy when the backend has
        one), then hands the blob to the copy plane with this library's
        holders.  Returns an :class:`Event` that fires with the landing
        policy's value once every holder (and the PFS, if due) resolved —
        the application does *not* have to wait on it.  Without a copy
        plane the write is the synchronous PFS write instead, and the
        returned event has already fired.
        """
        t0 = self.ctx.now
        data = CheckpointManager.of(self.ctx.world).pack_blob(payload)
        blob = StoredBlob(data=data, nominal_bytes=nominal_bytes or len(data))
        key: Key = (self.config.tag, self.logical_rank, version)
        landing = self.landing
        if landing.placement is None:
            yield from self.pfs.write(key, blob)
            self.stats[landing.stat] += 1
        else:
            yield Sleep(blob.nominal_bytes / self.config.local_bandwidth)
            if landing.local_copy:
                self._local_store_obj.put_pruned(key, blob,
                                                 self.config.keep_versions)
        self.stats["local_writes"] += 1
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.ctx.now, self.ctx.rank, "ckpt_write",
                        dur=self.ctx.now - t0, version=version,
                        bytes=blob.nominal_bytes)
        done = Event(name=f"ckpt-{self.ctx.rank}-v{version}")
        if landing.placement is None:
            done.succeed(landing.fired(1))
        else:
            self._submit_copy(key, blob, done)
        return done

    def _submit_copy(self, key: Key, blob: StoredBlob, done: Event,
                     tally: bool = True) -> None:
        """Queue the asynchronous copies to the holders (and the PFS copy,
        every ``pfs_every``-th version) on the world's copy plane."""
        CheckpointManager.of(self.ctx.world).submit(self, key, blob, done,
                                                    tally=tally)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def restorable_latest(self, extra_nodes: Sequence[int] = ()) -> int:
        """Newest version this rank can restore from any source, or -1.

        ``extra_nodes`` are node hints only the neighbor backend's node
        walk uses (the replica index and the PFS are location-free).
        """
        return self.landing.latest(self, extra_nodes)

    def has_local(self, version: int) -> bool:
        """Whether the version is restorable without the network: on this
        rank's own node (neighbor), in a live reachable holder's memory
        (replicated — it keeps no owner-local copy), or on the PFS."""
        return self.landing.has(
            self, (self.config.tag, self.logical_rank, version))

    def read_checkpoint(
        self, version: Optional[int] = None,
        extra_nodes: Sequence[int] = (),
        reprotect: bool = True,
    ) -> Generator[Any, Any, Tuple[int, Dict[str, np.ndarray]]]:
        """Generator: restore ``(version, payload)`` (default: the newest
        :meth:`restorable_latest` version).

        The backend's fetch finds the source; the payload is CRC-validated,
        so the restored bytes equal the committed ones.  Raises
        :class:`CheckpointNotFound` when no source has the version.  With
        ``reprotect`` (default) the neighbor and replicated backends
        re-establish the restored version's protection copies.
        """
        if version is None:
            version = self.restorable_latest(extra_nodes)
            if version < 0:
                raise CheckpointNotFound(
                    f"no {self.config.backend} checkpoint for logical rank "
                    f"{self.logical_rank}"
                )
        key: Key = (self.config.tag, self.logical_rank, version)
        return (yield from self.landing.fetch(self, key, extra_nodes,
                                              reprotect, self.ctx.now))

    def _restored(self, key: Key, blob: StoredBlob, source: str,
                  t0: float) -> Tuple[int, Dict[str, np.ndarray]]:
        """Restore bookkeeping of every backend: the ``restore`` trace
        event, the world manager's restore totals and the CRC-checked
        unpack."""
        elapsed = self.ctx.now - t0
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.ctx.now, self.ctx.rank, "restore", dur=elapsed,
                        version=key[2], source=source)
        manager = CheckpointManager.maybe_of(self.ctx.world)
        if manager is not None:
            manager.record_restore(source, blob.nominal_bytes, elapsed)
        return key[2], unpack_checkpoint(blob.data)

    # -- neighbor: the node walk with PFS fallback -----------------------
    def _candidate_nodes(self, extra_nodes: Sequence[int] = ()) -> List[int]:
        nodes: List[int] = [self.my_node]
        nodes.extend(extra_nodes)
        # my own neighbor may hold my blob from before a migration
        if self.neighbor_node is not None:
            nodes.append(self.neighbor_node)
        return list(dict.fromkeys(nodes))

    def _nodes_latest(self, extra_nodes: Sequence[int]) -> int:
        best = -1
        for node_id in self._candidate_nodes(extra_nodes):
            latest = self._store_of_node(node_id).latest_version(
                self.config.tag, self.logical_rank)
            if latest is not None:
                best = max(best, latest)
        if self.pfs is not None:
            best = max(best, self._pfs_latest(extra_nodes))
        return best

    def _nodes_has(self, key: Key) -> bool:
        return self._local_store_obj.has(key)

    def _reprotect(self, key: Key, blob: StoredBlob):
        """Generator: re-establish local + neighbor copies after a remote
        restore (otherwise the *next* failure would find no local data).

        The neighbor copy queues on the copy plane behind any copy of
        this library still in flight; it is not a commit, so it stays out
        of the manager's ``mirror_*`` phase totals.
        """
        yield Sleep(blob.nominal_bytes / self.config.local_bandwidth)
        self._local_store_obj.put_pruned(key, blob, self.config.keep_versions)
        self.stats["local_writes"] += 1
        self._submit_copy(key, blob, Event(name=f"reprotect-{self.ctx.rank}"),
                          tally=False)

    def _nodes_fetch(self, key: Key, extra_nodes: Sequence[int],
                     reprotect: bool, t0: float):
        """Sources in locality order: own node, the ``extra_nodes`` the
        caller knows about (e.g. the failed process's node and its old
        neighbor), this rank's current neighbor, finally the PFS.  A
        version restored from a *remote* source is written back to the
        local node and mirrored to the current neighbor (``reprotect``).
        """
        for node_id in self._candidate_nodes(extra_nodes):
            store = self._store_of_node(node_id)
            if not store.has(key):
                continue
            if node_id != self.my_node and not self.machine.network.reachable(
                self.my_node, node_id
            ):
                continue
            blob = store.get(key)
            if node_id == self.my_node:
                source = "local"
                yield Sleep(blob.nominal_bytes / self.config.local_bandwidth)
                self.stats["local_reads"] += 1
            else:
                source = "neighbor"
                yield Sleep(self.machine.network.transfer_time(
                    self.my_node, node_id, blob.nominal_bytes))
                self.stats["remote_reads"] += 1
                if reprotect:
                    yield from self._reprotect(key, blob)
            return self._restored(key, blob, source, t0)
        if self.pfs is None or not self.pfs.has(key):
            raise CheckpointNotFound(f"version {key[2]} unavailable for {key}")
        blob = yield from self.pfs.read(key)
        self.stats["pfs_reads"] += 1
        if reprotect:
            yield from self._reprotect(key, blob)
        return self._restored(key, blob, "pfs", t0)

    # -- replicated: the striped replica fetch ---------------------------
    def _usable_holders(self, key: Key) -> List[int]:
        """Recorded holders whose replica of ``key`` is fetchable now:
        live endpoint, live node actually holding the blob, intact path."""
        manager = CheckpointManager.of(self.ctx.world)
        repl_key: Key = (self.landing.prefix + key[0], key[1], key[2])
        transport = self.ctx.world.transport
        network = self.machine.network
        usable: List[int] = []
        for holder in manager.replica_holders_of(key):
            if not transport.endpoint(holder).alive:
                continue
            node_id = self.machine.node_of(holder)
            if not self._store_of_node(node_id).has(repl_key):
                continue
            if not network.reachable(self._my_node, node_id):
                continue
            usable.append(holder)
        return usable

    def _replicas_latest(self, extra_nodes: Sequence[int]) -> int:
        """Newest version with at least one fetchable replica, or -1."""
        manager = CheckpointManager.maybe_of(self.ctx.world)
        if manager is None:
            return -1
        versions = manager.replica_versions(self.config.tag,
                                            self.logical_rank)
        for version in reversed(versions):
            if self._usable_holders(
                (self.config.tag, self.logical_rank, version)
            ):
                return version
        return -1

    def _replicas_has(self, key: Key) -> bool:
        return bool(self._usable_holders(key))

    def _replicas_fetch(self, key: Key, extra_nodes: Sequence[int],
                        reprotect: bool, t0: float):
        """The fetch splits the blob evenly across every usable holder and
        issues one batched ``read_list`` per holder on the dedicated
        fetch queue (each priced as its share), then waits once for the
        whole batch — recovery latency is the *slowest share*, which
        shrinks as more holders survive.  A holder dying mid-fetch times
        the wait out; the queue is purged and the fetch retried against
        the re-filtered survivor set (bounded by the recorded holder
        count).  Losses beyond the ``r - 1`` tolerance raise
        :class:`CheckpointNotFound` naming the dead holders; ``reprotect``
        re-scatters the restored version to the current holder set.
        """
        ctx = self.ctx
        version = key[2]
        repl_key: Key = (self.landing.prefix + key[0], key[1], key[2])
        manager = CheckpointManager.of(ctx.world)
        network = self.machine.network
        seg_id = self.config.replica_segment
        recorded = manager.replica_holders_of(key)
        for _ in range(len(recorded) + 1):
            usable = self._usable_holders(key)
            if not usable:
                transport = ctx.world.transport
                dead = [h for h in recorded
                        if not transport.endpoint(h).alive]
                raise CheckpointNotFound(
                    f"version {version} for logical rank "
                    f"{self.logical_rank}: no usable replica among "
                    f"recorded holders {recorded} (r="
                    f"{self.config.replication}, dead holders {dead}) — "
                    f"concurrent losses exceeded the r-1 tolerance"
                )
            blob = self._store_of_node(
                self.machine.node_of(usable[0])).get(repl_key)
            share = -(-blob.nominal_bytes // len(usable))
            t_wait = 0.0
            posted = 0
            for holder in usable:
                node_id = self.machine.node_of(holder)
                t_wait = max(t_wait, network.transfer_time(
                    self._my_node, node_id, share
                ))
                stage = min(len(blob.data), self.lane.seg_size)
                remote = ctx.world.contexts[holder].segments.find(seg_id)
                if stage == 0 or remote is None:
                    continue  # modeled share; its time is in t_wait
                chunk = max(1, (stage + 7) // 8)
                entries = []
                off = 0
                while off < stage:
                    n = min(chunk, stage - off)
                    entries.append((seg_id, off, n, seg_id, off))
                    off += n
                ret = ctx.read_list(entries, holder,
                                    queue_id=self._fetch_queue,
                                    modeled_bytes=share)
                if ret is ReturnCode.SUCCESS:
                    posted += 1
                # QUEUE_FULL: the share stays modeled, time already in
                # t_wait (checked before any yield, per FT004)
            if posted:
                ret = yield from ctx.wait(self._fetch_queue,
                                          timeout=t_wait * 1.5 + 1.0)
                if ret is ReturnCode.TIMEOUT:
                    # a holder died mid-fetch: purge and retry against
                    # the re-filtered survivor set
                    ctx.queue_purge(self._fetch_queue)
                    continue
            else:
                yield Sleep(t_wait)
            self.stats["replica_reads"] += 1
            restored = self._restored(key, blob, "replicated", t0)
            if reprotect:
                yield Sleep(blob.nominal_bytes / self.config.local_bandwidth)
                self._submit_copy(
                    key, blob, Event(name=f"reprotect-{ctx.rank}-v{version}"))
            return restored
        raise CheckpointNotFound(
            f"version {version} unavailable for {key} after retries"
        )

    # -- pfs: the plain PFS read ----------------------------------------
    def _pfs_latest(self, extra_nodes: Sequence[int]) -> int:
        latest = self.pfs.latest_version(self.config.tag, self.logical_rank)
        return -1 if latest is None else latest

    def _pfs_has(self, key: Key) -> bool:
        return self.pfs.has(key)

    def _pfs_fetch(self, key: Key, extra_nodes: Sequence[int],
                   reprotect: bool, t0: float):
        """The PFS copy *is* the protection: nothing to re-establish."""
        if not self.pfs.has(key):
            raise CheckpointNotFound(f"version {key[2]} unavailable on PFS")
        blob = yield from self.pfs.read(key)
        self.stats["pfs_reads"] += 1
        return self._restored(key, blob, "pfs", t0)


#: the paper's neighbor mirror: one holder, an owner-local copy too, the
#: owner key, fires a bool; the node walk finds it
MIRROR = LandingPolicy(placement=mirror_holder_map,
                       segment="mirror_segment", local_copy=True,
                       fetch_queue=False,
                       prefix="", holder_process=False,
                       stat="neighbor_copies", failed_stat=None,
                       event="ckpt_mirror",
                       totals=("mirror_ops", "mirror_bytes", "mirror_s"),
                       fired=bool,
                       pfs_duty=True,
                       latest=CheckpointLib._nodes_latest,
                       has=CheckpointLib._nodes_has,
                       fetch=CheckpointLib._nodes_fetch)
#: ReStore replicas: ``r`` holders and no owner-local copy, ``"repl:"``
#: keys in the location index, fires the landed-copy count; the PFS is
#: never touched
REPLICA = LandingPolicy(placement=replica_holder_map,
                        segment="replica_segment", local_copy=False,
                        fetch_queue=True,
                        prefix="repl:", holder_process=True,
                        stat="replica_copies", failed_stat="failed_copies",
                        event="ckpt_scatter",
                        totals=("scatter_ops", "scatter_bytes", "scatter_s"),
                        fired=int,
                        pfs_duty=False,
                        latest=CheckpointLib._replicas_latest,
                        has=CheckpointLib._replicas_has,
                        fetch=CheckpointLib._replicas_fetch)
#: the classical baseline: no copy plane, every write a synchronous
#: (contended) PFS write, every restore a PFS read; fires ``True``
PFS = LandingPolicy(placement=None, segment="", local_copy=False,
                    fetch_queue=False,
                    prefix="", holder_process=False,
                    stat="pfs_copies", failed_stat=None,
                    event=None, totals=None,
                    fired=bool,
                    pfs_duty=False,
                    latest=CheckpointLib._pfs_latest,
                    has=CheckpointLib._pfs_has,
                    fetch=CheckpointLib._pfs_fetch)

#: :attr:`CheckpointConfig.backend` -> its row, in reporting order
BACKEND_TABLE: Dict[str, LandingPolicy] = {
    "neighbor": MIRROR, "pfs": PFS, "replicated": REPLICA}
#: valid values of :attr:`CheckpointConfig.backend` (see ``CHECKPOINTS.md``)
BACKENDS = tuple(BACKEND_TABLE)


@dataclass(slots=True)
class _CopyRequest:
    """One library's pending asynchronous copy, to all of its holders.

    Once every copy landed or failed, the due PFS copy runs, ``done``
    fires with the policy's value and the library's next request starts.
    """

    manager: "CheckpointManager"
    lib: CheckpointLib
    key: Key
    blob: StoredBlob
    done: Event
    #: whether landed copies count in the manager's ``phase_totals``
    tally: bool = True
    #: the PFS to copy to once the holders resolved, when this version owes one
    pfs: Optional[ParallelFileSystem] = None
    t_start: float = 0.0
    #: copies still in flight; the request resolves when this hits zero
    pending: int = 0
    #: copies that actually landed
    landed: int = 0


@dataclass(slots=True)
class _Copy:
    """One holder's copy of a :class:`_CopyRequest`."""

    request: _CopyRequest
    holder: int
    node_id: int
    expected: float = 0.0
    stage: int = 0
    segment: Optional[Any] = None

    def apply(self) -> None:
        """Delivery callback: land the staged bytes in the holder's
        window (the blob snapshot is immutable, so slicing it now equals
        binding it at post time), then the landing epilogue — unless the
        writer died mid-flight."""
        stage = self.stage
        data = self.request.blob.data
        self.segment.write_view(0, stage)[:] = (
            data if stage == len(data) else memoryview(data)[:stage]
        )
        if self.request.lib._endpoint_obj.alive:
            self.request.manager._land(self)

    def hang(self) -> None:
        """Arm the flush timeout lazily (only hung ops ever need it):
        purge the writer's copy queue and count this copy as failed."""
        request = self.request
        manager = request.manager
        manager.sim.schedule_at(
            request.t_start + (self.expected * 1.5 + 1.0),
            lambda: manager._fail(self),
        )


class CheckpointManager:
    """World-level round copy plane for every asynchronous checkpoint copy.

    One instance per :class:`~repro.gaspi.runtime.GaspiWorld` (attached
    lazily via :meth:`of`).  A copy request names a library, a key and a
    blob; the library's ``holders`` say where the copies go and its
    ``landing`` policy (:class:`LandingPolicy`) what a landed copy means.
    The neighbor mirror is the one-holder case of the ReStore replica
    scatter, so both — and the re-protection after a remote restore — run
    one chain: submit → flush → post → timeout → land → finish.

    * **shared staging arena** — every blob of a round packs through one
      grown-geometrically buffer (one ``packed_size`` prefix-sum, one
      ``pack_checkpoint_into`` view per rank);
    * **same-tick coalescing** — copies signalled within one simulated
      tick flush as *one* round priced by a single vectorized
      :meth:`Network.transfer_time_round` call per direction
      (:meth:`Transport.post_rdma_scatter`), with per-copy path re-checks
      at delivery, per-copy hang/timeout/purge semantics, and per-library
      FIFO ordering of back-to-back copies;
    * **PFS duty** — a version that owes a PFS copy writes it after its
      holders resolved and before its event fires, in a process bound to
      the writer's rank (a writer that dies meanwhile completes nothing);
    * **cached placement maps** and **phase totals** (copy and restore
      bytes/latency for ``recovery_compare``'s per-phase reporting).

    The plane reproduces the per-library helper-thread pipeline of the
    paper's Fig. 2 (the test oracle ``tests/oracles/helper_mirror.py``)
    bit-for-bit, except for the helper's scratch copy into the writer's
    *own* staging window.
    """

    _ATTR = "_checkpoint_manager"

    def __init__(self, world: Any) -> None:
        self.world = world
        self.sim = world.sim
        self.machine = world.machine
        self.transport = world.transport
        #: rank -> node, resolved once (placement never changes)
        self._node_of: List[int] = [
            world.machine.node_of(r) for r in range(world.machine.n_ranks)]
        #: bound reachability check (the network object never changes)
        self._reachable: Callable[[int, int], bool] = (
            world.machine.network.reachable
        )
        #: node-local store views, one per node (nodes never move)
        self._stores: Dict[int, NodeLocalStore] = {}
        #: shared pack arena, grown geometrically and never shrunk
        self._arena = bytearray()
        #: requests accumulated in the current tick, flushed as one round
        self._pending: List[_CopyRequest] = []
        self._sealed = False
        #: (placement, participant-tuple, r) -> {rank: [holders]} cache
        #: (tiny LRU; a run only ever sees a handful of participant sets)
        self._holder_maps: "OrderedDict[Tuple[Placement, Tuple[int, ...], int], Dict[int, List[int]]]" = OrderedDict()
        #: replica location index: where each replicated checkpoint
        #: *actually* landed (keys are the un-namespaced ``(tag, logical,
        #: version)``).  Reads consult this instead of re-deriving
        #: placement, so holder-map drift after a recovery cannot orphan
        #: blobs that are still alive on their original holders.
        self._replica_sets: Dict[Key, List[int]] = {}
        #: (tag, logical rank) -> sorted versions ever replicated
        self._replica_versions: Dict[Tuple[str, int], List[int]] = {}
        #: per-phase checkpoint-plane totals (bytes / virtual seconds)
        self.phase_totals: Dict[str, float] = {
            "mirror_ops": 0, "mirror_bytes": 0, "mirror_s": 0.0,
            "scatter_ops": 0, "scatter_bytes": 0, "scatter_s": 0.0,
            "restore_ops": 0, "restore_bytes": 0, "restore_s": 0.0,
            "restore_local_ops": 0, "restore_neighbor_ops": 0,
            "restore_pfs_ops": 0, "restore_replicated_ops": 0,
        }

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, world: Any) -> "CheckpointManager":
        """The world's manager, created on first use."""
        manager = getattr(world, cls._ATTR, None)
        if manager is None:
            manager = cls(world)
            setattr(world, cls._ATTR, manager)
        return manager

    @classmethod
    def maybe_of(cls, world: Any) -> Optional["CheckpointManager"]:
        """The world's manager if one was ever attached, else ``None``."""
        manager: Optional[CheckpointManager] = getattr(world, cls._ATTR, None)
        return manager

    # ------------------------------------------------------------------
    # shared staging arena
    # ------------------------------------------------------------------
    def _reserve(self, total: int) -> memoryview:
        if len(self._arena) < total:
            self._arena = bytearray(max(total, 2 * len(self._arena)))
        return memoryview(self._arena)

    def pack_blob(self, payload: Dict[str, np.ndarray]) -> bytes:
        """Pack one payload through the shared arena (stored snapshot out).

        The zero-copy pack writes straight into the arena (one byte move +
        streaming CRC); the single ``bytes()`` at the end is the immutable
        snapshot the node store keeps — it must not alias the arena, which
        the next checkpoint overwrites.
        """
        size = packed_size(payload)
        arena = self._reserve(size)
        pack_checkpoint_into(payload, arena)
        return bytes(arena[:size])

    def pack_round(
        self, payloads: Sequence[Dict[str, np.ndarray]]
    ) -> List[bytes]:
        """Pack a whole round of payloads through the arena at once.

        One ``packed_size`` pass and one prefix-sum lay every rank's blob
        out back-to-back; each packs via a ``pack_checkpoint_into`` view at
        its offset.  Returns the per-rank immutable snapshots (the node
        stores keep those; the arena is reused next round).
        """
        n = len(payloads)
        sizes = np.fromiter(
            (packed_size(p) for p in payloads), dtype=np.int64, count=n
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        arena = self._reserve(int(offsets[-1]))
        out: List[bytes] = []
        for payload, off, size in zip(
            payloads, offsets[:-1].tolist(), sizes.tolist()
        ):
            pack_checkpoint_into(payload, arena, offset=off, size=size)
            out.append(bytes(arena[off:off + size]))
        return out

    # ------------------------------------------------------------------
    # placement map cache
    # ------------------------------------------------------------------
    def holder_map_for(
        self, placement: Placement, participants: Tuple[int, ...], r: int
    ) -> Dict[int, List[int]]:
        """One backend's full holder map of a (sorted) participant set.

        Built once per distinct ``(placement, set, r)`` with the
        placement's vectorized kernel (see ``CHECKPOINTS.md``).
        """
        cache_key = (placement, participants, r)
        cached = self._holder_maps.get(cache_key)
        if cached is None:
            cached = placement(participants, self.machine.node_of, r)
            self._holder_maps[cache_key] = cached
            while len(self._holder_maps) > 8:
                self._holder_maps.popitem(last=False)
        else:
            self._holder_maps.move_to_end(cache_key)
        return cached

    def _store(self, node_id: int) -> NodeLocalStore:
        store = self._stores.get(node_id)
        if store is None:
            store = NodeLocalStore(self.machine.node(node_id))
            self._stores[node_id] = store
        return store

    # ------------------------------------------------------------------
    # replica location index (ReStore backend)
    # ------------------------------------------------------------------
    def record_replica(self, key: Key, holder_rank: int) -> None:
        """Record that ``holder_rank`` landed a replica of ``key``."""
        holders = self._replica_sets.setdefault(key, [])
        if holder_rank not in holders:
            holders.append(holder_rank)
        versions = self._replica_versions.setdefault((key[0], key[1]), [])
        if key[2] not in versions:
            insort(versions, key[2])

    def replica_holders_of(self, key: Key) -> List[int]:
        """Ranks recorded as holding a replica of ``key`` (may be dead)."""
        return list(self._replica_sets.get(key, ()))

    def replica_versions(self, tag: str, logical_rank: int) -> List[int]:
        """Sorted versions ever replicated for ``(tag, logical_rank)``."""
        return list(self._replica_versions.get((tag, logical_rank), ()))

    # ------------------------------------------------------------------
    # round copy plane
    # ------------------------------------------------------------------
    def submit(self, lib: Any, key: Key, blob: StoredBlob, done: Event,
               tally: bool = True) -> None:
        """Register one library's asynchronous copy to its holders.

        Requests submitted in the same tick coalesce into one flush round;
        a request for a library whose previous copy is still in flight
        queues behind it.  ``tally=False`` keeps the landed copies out of
        :attr:`phase_totals`.
        """
        request = _CopyRequest(self, lib, key, blob, done, tally)
        every = lib.config.pfs_every
        if (every and lib.landing.pfs_duty and lib.pfs is not None
                and key[2] % every == 0):
            request.pfs = lib.pfs
        lane = lib.lane
        if lane.inflight is not None:
            lane.deferred.append(request)
            return
        lane.inflight = request
        self._enqueue(request)

    def _enqueue(self, request: _CopyRequest) -> None:
        self._pending.append(request)
        if not self._sealed:
            self._sealed = True
            self.sim.schedule(0.0, self._flush)

    def _flush(self) -> None:
        """Close the tick's round, one copy per (writer, holder).

        A request without holders resolves immediately.  A copy whose
        transfer is only modeled (no landing window on the holder, empty
        staging prefix, or a full copy queue) lands after its expected
        transfer time; the rest ship as one scatter round on each
        library's dedicated queue, land at delivery+ack with the path
        re-checked there, and a severed path leaves the op hung until the
        flush timeout purges the queue.  A writer that died mid-flight
        takes no completion actions.
        """
        requests, self._pending, self._sealed = self._pending, [], False
        sim = self.sim
        now = sim.now
        node_of = self._node_of
        copies: List[_Copy] = []
        for request in requests:
            request.t_start = now
            holders = request.lib.holders
            if not holders:
                self._finish(request)
                continue
            request.pending = len(holders)
            for holder in holders:
                copies.append(_Copy(request, holder, node_of[holder]))
        if not copies:
            return
        n = len(copies)
        src_nodes = np.fromiter(
            (c.request.lib._my_node for c in copies), dtype=np.int64, count=n
        )
        dst_nodes = np.fromiter(
            (c.node_id for c in copies), dtype=np.int64, count=n
        )
        nominal = np.fromiter(
            (c.request.blob.nominal_bytes for c in copies),
            dtype=np.int64, count=n,
        )
        expected = self.machine.network.transfer_time_round(
            src_nodes, dst_nodes, nominal).tolist()
        contexts = self.world.contexts
        modeled: Dict[float, List[_Copy]] = {}
        wired: List[_Copy] = []
        for copy, t_copy in zip(copies, expected):
            copy.expected = t_copy
            lane = copy.request.lib.lane
            segment = contexts[copy.holder].segments.find(lane.segment)
            stage = min(len(copy.request.blob.data), lane.seg_size)
            if segment is None or stage == 0 or lane.queue_obj.full:
                # nothing to put on the wire (or QUEUE_FULL): the copy
                # is only modeled and lands after its expected time
                modeled.setdefault(now + t_copy, []).append(copy)
                continue
            copy.stage = stage
            copy.segment = segment
            wired.append(copy)
        for t_val in sorted(modeled):
            def land_modeled(group: List[_Copy] = modeled[t_val]) -> None:
                for copy in group:
                    if copy.request.lib._endpoint_obj.alive:
                        self._land(copy)

            sim.schedule_at(t_val, land_modeled)
        if wired:
            events = self.transport.post_rdma_scatter(
                [c.request.lib.ctx.rank for c in wired],
                [c.holder for c in wired],
                [c.request.blob.nominal_bytes for c in wired],
                [c.apply for c in wired],
                [c.hang for c in wired],
                # a write_list chunks the staged prefix into <= 8 entries;
                # the same entry count keeps the rdma statistics identical
                [-(-c.stage // max(1, (c.stage + 7) // 8)) for c in wired],
            )
            for copy, event in zip(wired, events):
                copy.request.lib.lane.queue_obj.post(event)

    #: the replica flush's former name; ``perfbench/ledger.py`` still
    #: wraps it by name, so it stays an alias of the one flush
    _flush_scatter = _flush

    def _fail(self, copy: _Copy) -> None:
        """Flush timeout of a hung copy: purge the writer's copy queue."""
        request = copy.request
        lib = request.lib
        if not lib._endpoint_obj.alive:
            return
        lib.ctx.queue_purge(lib.lane.queue)
        failed_stat = lib.landing.failed_stat
        if failed_stat is not None:
            lib.stats[failed_stat] += 1
        request.pending -= 1
        if request.pending == 0:
            self._finish(request)

    def _land(self, copy: _Copy) -> None:
        """Landing epilogue of one copy, as the library's policy says.

        The copy counts only when its holder node is up and the path from
        the writer is intact — and, for an in-memory replica, when the
        holder process is alive (a dead holder process loses the replica
        even if its node survived).
        """
        request = copy.request
        lib = request.lib
        policy = lib.landing
        store = self._store(copy.node_id)
        if ((not policy.holder_process
                or self.transport.endpoint(copy.holder).alive)
                and store.available
                and self._reachable(lib._my_node, copy.node_id)):
            now = self.sim.now
            key = request.key
            blob = request.blob
            if policy.prefix:
                store.put_pruned((policy.prefix + key[0], key[1], key[2]),
                                 blob, lib.config.keep_versions)
                self.record_replica(key, copy.holder)
            else:
                store.put_pruned(key, blob, lib.config.keep_versions)
            lib.stats[policy.stat] += 1
            request.landed += 1
            tracer = lib._tracer
            if tracer.enabled:
                where = ({"holder": copy.holder, "node": copy.node_id}
                         if policy.prefix else {"node": copy.node_id})
                tracer.emit(now, lib.ctx.rank, policy.event,
                            dur=now - request.t_start, version=key[2],
                            **where)
            if request.tally:
                totals = self.phase_totals
                ops, nbytes, secs = policy.totals
                totals[ops] += 1
                totals[nbytes] += blob.nominal_bytes
                totals[secs] += now - request.t_start
        elif policy.failed_stat is not None:
            lib.stats[policy.failed_stat] += 1
        request.pending -= 1
        if request.pending == 0:
            self._finish(request)

    def _finish(self, request: _CopyRequest) -> None:
        """Every holder resolved: the due PFS copy first, then fire the
        request's event and start the library's next copy."""
        lib = request.lib
        pfs = request.pfs
        if pfs is not None:
            request.pfs = None
            if lib._endpoint_obj.alive:
                lib.ctx.world.launch(lib.ctx.rank,
                                     self._pfs_copy(request, pfs),
                                     name=f"ckpt-pfs-{lib.ctx.rank}")
            return
        request.done.succeed(lib.landing.fired(request.landed))
        lane = lib.lane
        lane.inflight = None
        if lane.deferred:
            nxt = lane.deferred.popleft()
            lane.inflight = nxt
            self._enqueue(nxt)

    def _pfs_copy(self, request: _CopyRequest, pfs: ParallelFileSystem):
        """Generator: the version's PFS copy, in a process bound to the
        writer's rank (a writer that dies meanwhile completes nothing)."""
        yield from pfs.write(request.key, request.blob)
        request.lib.stats["pfs_copies"] += 1
        self._finish(request)

    # ------------------------------------------------------------------
    # whole-round commit (the coordinator API)
    # ------------------------------------------------------------------
    def commit_round(
        self,
        libs: Mapping[int, CheckpointLib],
        version: int,
        payloads: Mapping[int, Dict[str, np.ndarray]],
        nominal_bytes: Union[int, Mapping[int, int], None] = None,
    ) -> Generator[Any, Any, Dict[int, Event]]:
        """Generator: commit one checkpoint round for many ranks at once.

        Equivalent to every rank in ``payloads`` calling its library's
        ``write_checkpoint(version, payload)`` in the same tick — same
        stores, stats, tracer events and virtual timestamps — but driven
        by one coordinator: one arena :meth:`pack_round` and one grouped
        callback per distinct local-write duration.  Returns ``{rank:
        mirrored_event}`` once every local write finished; a rank that
        dies before its local write completes takes no actions.
        """
        ranks = sorted(payloads)
        sim = self.sim
        t0 = sim.now
        blobs = self.pack_round([payloads[r] for r in ranks])
        items: List[Tuple[CheckpointLib, Key, StoredBlob, Event]] = []
        mirrors: Dict[int, Event] = {}
        durations = np.empty(len(ranks), dtype=np.float64)
        for i, (rank, data) in enumerate(zip(ranks, blobs)):
            lib = libs[rank]
            nom = (nominal_bytes if isinstance(nominal_bytes, int)
                   else (nominal_bytes or {}).get(rank) or len(data))
            blob = StoredBlob(data=data, nominal_bytes=nom)
            key = (lib.config.tag, lib.logical_rank, version)
            # event names are diagnostic only: a constant name keeps the
            # per-rank construction cost flat without changing observables
            mirrored = Event(name="ckpt-mirrored")
            mirrors[rank] = mirrored
            items.append((lib, key, blob, mirrored))
            durations[i] = nom / lib.config.local_bandwidth
        t_local = t0 + durations

        def local_done(idxs: List[int]) -> None:
            for i in idxs:
                lib, key, blob, mirrored = items[i]
                if not lib._endpoint_obj.alive:
                    continue
                store = lib._local_store_obj
                store.put_pruned(key, blob, lib.config.keep_versions)
                lib.stats["local_writes"] += 1
                tracer = lib._tracer
                if tracer.enabled:
                    tracer.emit(sim.now, lib.ctx.rank, "ckpt_write",
                                dur=sim.now - t0, version=version,
                                bytes=blob.nominal_bytes)
                self.submit(lib, key, blob, mirrored)

        for t_val in np.unique(t_local).tolist():
            idxs = np.nonzero(t_local == t_val)[0].tolist()
            sim.schedule_at(t_val, lambda idxs=idxs: local_done(idxs))

        committed = Event(name="ckpt-round")
        sim.schedule_at(float(t_local.max()) if len(items) else t0,
                        lambda: committed.succeed(None))
        yield WaitEvent(committed)  # ftlint: disable=FT001 -- committed fires unconditionally at the round's max local-write time; no remote peer involved
        return mirrors

    # ------------------------------------------------------------------
    # phase totals
    # ------------------------------------------------------------------
    def record_restore(self, source: str, nbytes: int,
                       elapsed: float) -> None:
        """Accumulate one restore into the per-phase totals."""
        totals = self.phase_totals
        totals["restore_ops"] += 1
        totals["restore_bytes"] += nbytes
        totals["restore_s"] += elapsed
        key = f"restore_{source}_ops"
        if key in totals:
            totals[key] += 1
