"""Unified event timeline of a fault-tolerant run.

Merges three event sources into one chronological view:

* fault injections (from the armed :class:`FaultPlan`),
* FD-side detection/acknowledgment events (:class:`FDStats`),
* per-rank application marks (setup, checkpoints, failure-acks,
  recoveries, restores) from the workers' ``timeline`` records.

``recovery_report`` condenses that into the per-epoch cost breakdown
(inject → detect → acknowledge → group rebuilt → restored) that the
paper's Sect. VI discusses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.faults import affected_ranks
from repro.ft.app import FTRunResult
from repro.obs.timeline import served_injection


@dataclass(frozen=True)
class TimelineEvent:
    """One timestamped event with its origin."""

    t: float
    source: str   # "fault", "fd", or "logical-<rank>"
    label: str
    info: Dict = field(default_factory=dict, compare=False)

    def format(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.info.items()))
        return f"{self.t:10.3f}s  {self.source:<12} {self.label:<18} {extras}"


def collect_timeline(result: FTRunResult,
                     include_checkpoints: bool = False) -> List[TimelineEvent]:
    """All events of the run, chronologically sorted."""
    events: List[TimelineEvent] = []
    for fault in result.run.injected:
        events.append(TimelineEvent(
            t=fault.time, source="fault", label=type(fault).__name__,
            info={"target": getattr(fault, "rank", getattr(fault, "node_id", None))},
        ))
    stats = result.fd_stats
    if stats is not None:
        for det in stats.detections:
            events.append(TimelineEvent(
                t=det.t_detected, source="fd", label="detected",
                info={"epoch": det.epoch, "failed": det.failed},
            ))
            events.append(TimelineEvent(
                t=det.t_acknowledged, source="fd", label="acknowledged",
                info={"epoch": det.epoch, "rescues": det.rescues},
            ))
    for logical, worker in sorted(result.worker_results().items()):
        for t, label, info in worker.get("timeline", []):
            if label == "checkpoint" and not include_checkpoints:
                continue
            events.append(TimelineEvent(
                t=t, source=f"logical-{logical}", label=label, info=dict(info),
            ))
        events.append(TimelineEvent(
            t=worker["t_done"], source=f"logical-{logical}", label="done",
            info={"status": worker["status"]},
        ))
    return sorted(events, key=lambda e: (e.t, e.source, e.label))


def render_timeline(events: List[TimelineEvent]) -> str:
    """Chronological text rendering of a timeline."""
    lines = [f"{'time':>10}   {'source':<12} {'event':<18} details",
             "-" * 64]
    lines.extend(event.format() for event in events)
    return "\n".join(lines)


@dataclass
class RecoveryEpoch:
    """Cost breakdown of one recovery epoch."""

    epoch: int
    failed: tuple
    rescues: tuple
    t_inject: Optional[float]
    t_detected: float
    t_acknowledged: float
    t_restored: Optional[float]

    @property
    def detection_latency(self) -> Optional[float]:
        if self.t_inject is None:
            return None
        return self.t_detected - self.t_inject

    @property
    def reinit_latency(self) -> Optional[float]:
        if self.t_restored is None:
            return None
        return self.t_restored - self.t_acknowledged


def recovery_epochs(result: FTRunResult) -> List[RecoveryEpoch]:
    """Per-epoch recovery summaries (empty if the run was failure-free)."""
    stats = result.fd_stats
    if stats is None or not stats.detections:
        return []
    injected: Dict[int, List[float]] = {}  # rank -> inject times, ascending
    for fault in sorted(result.run.injected, key=lambda f: f.time):
        for rank in affected_ranks(fault, result.run.machine):
            injected.setdefault(rank, []).append(fault.time)
    restores: Dict[int, List[float]] = {}
    for worker in result.worker_results().values():
        epoch = None
        for t, label, info in worker.get("timeline", []):
            if label in ("failure-ack", "recovered"):
                epoch = info.get("epoch")
            elif label == "restored" and epoch is not None:
                restores.setdefault(epoch, []).append(t)
                epoch = None

    epochs: List[RecoveryEpoch] = []
    for det in stats.detections:
        done = restores.get(det.epoch, [])
        epochs.append(RecoveryEpoch(
            epoch=det.epoch,
            failed=det.failed,
            rescues=det.rescues,
            t_inject=served_injection(det.failed, injected, det.t_detected),
            t_detected=det.t_detected,
            t_acknowledged=det.t_acknowledged,
            t_restored=max(done) if done else None,
        ))
    return epochs


def recovery_report(result: FTRunResult) -> str:
    """Human-readable per-epoch recovery cost report."""
    epochs = recovery_epochs(result)
    if not epochs:
        return "failure-free run: no recoveries"
    lines = []
    for e in epochs:
        lines.append(f"epoch {e.epoch}: failed={e.failed} rescues={e.rescues}")
        if e.t_inject is not None:
            lines.append(f"  injected     t={e.t_inject:9.3f}s")
        lines.append(f"  detected     t={e.t_detected:9.3f}s"
                     + (f"  (+{e.detection_latency:.3f}s after injection)"
                        if e.detection_latency is not None else ""))
        lines.append(f"  acknowledged t={e.t_acknowledged:9.3f}s")
        if e.t_restored is not None:
            lines.append(f"  restored     t={e.t_restored:9.3f}s"
                         f"  (re-init {e.reinit_latency:.3f}s)")
    return "\n".join(lines)
