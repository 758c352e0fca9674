"""The per-library helper-thread mirror of paper Fig. 2 (reference only).

Before the world-level copy plane (:class:`repro.checkpoint.manager.
CheckpointManager`), every :class:`~repro.checkpoint.manager.CheckpointLib`
launched one helper process that took signals from a job channel and
mirrored each blob to the neighbor node with one ``gaspi_write_list`` on
the library's dedicated queue, then wrote the due PFS copy.  That
pipeline lives on here for two jobs only:

* the live same-host reference of ``bench --scaling``'s
  ``ckpt_mirror_us_per_rank`` speedup target (the scalar column of
  :func:`repro.perf.scaling.bench_ckpt_mirror_us_per_rank`);
* the oracle the copy plane is proven bit-identical against
  (``tests/checkpoint/test_commit_round.py``).

No production library uses it.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.checkpoint.manager import CheckpointLib
from repro.checkpoint.store import Key, StoredBlob
from repro.gaspi.constants import ReturnCode
from repro.sim import Channel, Event, Sleep

_SHUTDOWN = object()


class HelperMirrorLib(CheckpointLib):
    """:class:`CheckpointLib` whose asynchronous copies run on a helper
    process of its own instead of the world's copy plane."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._jobs = Channel(name=f"ckpt-jobs-{self.ctx.rank}")
        self.ctx.world.launch(self.ctx.rank, self._helper_loop(),
                              name=f"ckpt-helper-{self.ctx.rank}")

    def _submit_copy(self, key: Key, blob: StoredBlob, done: Event,
                     tally: bool = True) -> None:
        self._jobs.put((key, blob, done))

    def shutdown(self) -> None:
        """Stop the helper thread (flushes queued jobs first)."""
        self._jobs.put(_SHUTDOWN)

    def _mirror_transfer(self, neighbor_rank: int, node_id: int,
                         blob: StoredBlob):
        """Generator: ship the blob to the neighbor's mirror window.

        One ``write_list`` of <= 8 chunked entries on the library's
        queue, charged the blob's full nominal size.  Returns whether the
        transfer was delivered: a dead/unreachable neighbor leaves the
        operations stuck, the wait times out and the queue is purged.
        Falls back to a plain timed transfer when the neighbor has no
        mirror window or the queue is full.
        """
        ctx = self.ctx
        lane = self.lane
        expected = self.machine.network.transfer_time(
            self.my_node, node_id, blob.nominal_bytes
        )
        stage = min(len(blob.data), lane.seg_size)
        if (lane.segment not in ctx.world.contexts[neighbor_rank].segments
                or stage == 0):
            yield Sleep(expected)
            return True
        view = ctx.segment_view(lane.segment, np.uint8, 0, stage)
        view[:] = np.frombuffer(blob.data, dtype=np.uint8, count=stage)
        chunk = max(1, (stage + 7) // 8)
        entries = [(lane.segment, off, min(chunk, stage - off),
                    lane.segment, off) for off in range(0, stage, chunk)]
        ret = ctx.write_list(entries, neighbor_rank, queue_id=lane.queue,
                             modeled_bytes=blob.nominal_bytes)
        if ret is not ReturnCode.SUCCESS:  # queue full: model the copy
            yield Sleep(expected)
            return True
        ret = yield from ctx.wait(lane.queue, timeout=expected * 1.5 + 1.0)
        if ret is ReturnCode.TIMEOUT:
            ctx.queue_purge(lane.queue)
            return False
        return True

    def _helper_loop(self):
        """The library thread of Fig. 2: waits for signals, mirrors blobs."""
        while True:
            _, job = yield from self._jobs.get()
            if job is _SHUTDOWN:
                return
            key, blob, mirrored = job
            copied = False
            neighbor_rank = self.neighbor_rank
            node_id = self.neighbor_node
            t0 = self.ctx.now
            if node_id is not None:
                delivered = yield from self._mirror_transfer(
                    neighbor_rank, node_id, blob
                )
                # a recovery may have changed the neighbor while the copy
                # was in flight; the blob still lands where the transfer
                # was headed if that node survived
                store = self._store_of_node(node_id)
                if (delivered and store.available
                        and self.machine.network.reachable(self.my_node,
                                                           node_id)):
                    store.put_pruned(key, blob, self.config.keep_versions)
                    self.stats["neighbor_copies"] += 1
                    copied = True
                    if self._tracer.enabled:
                        self._tracer.emit(self.ctx.now, self.ctx.rank,
                                          "ckpt_mirror",
                                          dur=self.ctx.now - t0,
                                          version=key[2], node=node_id)
            every = self.config.pfs_every
            if self.pfs is not None and every > 0 and key[2] % every == 0:
                yield from self.pfs.write(key, blob)
                self.stats["pfs_copies"] += 1
            mirrored.succeed(copied)
