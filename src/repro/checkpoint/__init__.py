"""The checkpoint/restart library for GASPI applications (three backends).

The core is the reproduction of the paper's third contribution
(Sect. IV-C): an application-level C/R library where each rank
checkpoints to its *local* node store and the checkpoint is mirrored
asynchronously to the neighboring node (optionally, every k-th checkpoint
also goes to the parallel file system).  The paper's per-library helper
thread is modelled by one world-level copy plane that every asynchronous
copy of every backend rides (:class:`CheckpointManager`).  The library is
fault-aware: after a recovery the neighbor map is refreshed from the
failed-process list, and a restore transparently falls back from the
local store to the neighbor copy to the PFS copy.

Two alternative backends are rows of the same library's backend table
(select with ``CheckpointConfig.backend``; :data:`BACKENDS` lists them):
the classical synchronous-PFS baseline, and a ReStore-style backend that
replicates each checkpoint in the memory of ``r`` other ranks
(arXiv:2203.01107).  See ``CHECKPOINTS.md`` for wire formats, placement
rules and the failure-tolerance comparison.

Checkpoints are keyed by *logical* rank so that a rescue process (which
adopts the failed process's logical identity) finds its predecessor's data.
"""

from repro.checkpoint.serialization import (
    CheckpointCorrupt,
    pack_checkpoint,
    pack_checkpoint_into,
    packed_size,
    unpack_checkpoint,
)
from repro.checkpoint.store import CheckpointNotFound, NodeLocalStore, StoredBlob
from repro.checkpoint.pfs import ParallelFileSystem
from repro.checkpoint.neighbor import (
    neighbor_map,
    neighbor_of,
    replica_holder_map,
)
from repro.checkpoint.manager import (
    BACKENDS,
    CheckpointConfig,
    CheckpointLib,
    CheckpointManager,
)

__all__ = [
    "pack_checkpoint",
    "pack_checkpoint_into",
    "packed_size",
    "unpack_checkpoint",
    "CheckpointCorrupt",
    "CheckpointNotFound",
    "NodeLocalStore",
    "StoredBlob",
    "ParallelFileSystem",
    "neighbor_of",
    "neighbor_map",
    "BACKENDS",
    "CheckpointConfig",
    "CheckpointLib",
    "CheckpointManager",
    "replica_holder_map",
]
