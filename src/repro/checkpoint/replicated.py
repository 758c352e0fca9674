"""ReStore-style in-memory replicated checkpoints: a row, not a library.

Where the paper's §IV-C neighbor backend keeps one mirror copy on the
next node, ReStore (arXiv:2203.01107) keeps each rank's checkpoint
*replicated in the memory of other ranks*: commit scatters ``r`` copies
to replica holders, and recovery fetches the surviving replica set
without touching the parallel file system — near-instant restores at the
cost of ``r``× the network volume per checkpoint.  FTHP-MPI
(arXiv:2504.09989) motivates exposing ``r`` as a tunable cost/MTTR knob,
which is exactly :attr:`CheckpointConfig.replication` here.

That is the neighbor mirror with ``r`` holders, so the backend is the
:data:`~repro.checkpoint.manager.REPLICA` row of the one
:class:`~repro.checkpoint.manager.CheckpointLib`'s backend table
(``CheckpointConfig(backend="replicated")``); its placement kernel,
:func:`~repro.checkpoint.neighbor.replica_holder_map`, sits next to the
mirror's in :mod:`repro.checkpoint.neighbor`.

This module only keeps the name :class:`ReplicatedCheckpointLib`, which
the host-time ledger (``perfbench/ledger.py``) wraps by name; it goes
with the next change to that ledger's targets.
"""

from __future__ import annotations

from repro.checkpoint.manager import CheckpointLib


class ReplicatedCheckpointLib:
    """Never instantiated: the ledger-target name of the replicated
    backend's ``write_checkpoint``/``read_checkpoint``, which are
    :class:`CheckpointLib`'s."""

    write_checkpoint = CheckpointLib.write_checkpoint
    read_checkpoint = CheckpointLib.read_checkpoint
