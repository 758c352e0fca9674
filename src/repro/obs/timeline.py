"""Failure-timeline reconstruction: events → per-failure lifecycle chains.

This is the paper's Figure 4 decomposition derived from *any* traced run:
each injected failure becomes one :class:`FailureRecord` carrying the
timestamps of its lifecycle milestones

    inject → detection → broadcast → group rebuild → spare promotion
           → restore → rollback

and per-phase latencies between them.  Records are keyed on the recovery
``epoch`` the FD assigns at detection time: every downstream event
(``group_rebuild``, ``spare_promote``, ``restore``, ``rollback``) carries
an ``epoch`` field, so correlation is exact even when failures overlap.
Checkpoint-manager ``restore`` events without an ``epoch`` field (e.g.
reads outside a recovery) are deliberately ignored here — they stay in
the raw trace but belong to no failure chain.

Phase durations are non-negative by construction of the protocol: the
group commit is a collective (all members finish together, after the
detection broadcast), the rescue's promotion is reported at commit
success, and restore/rollback happen after re-initialisation.  The
``repro trace`` CLI asserts this on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .tracer import (BROADCAST_FLAGS, DETECTION, FAILURE_INJECTED,
                     GROUP_REBUILD, RESTORE, ROLLBACK, SPARE_PROMOTE,
                     TraceEvent)

#: phase names in lifecycle order, mapping to FailureRecord properties
PHASES = (
    ("detection_latency_s", "Inject → detected"),
    ("broadcast_s", "Detected → all ranks notified"),
    ("group_rebuild_s", "Notified → new group committed"),
    ("spare_promote_s", "Rebuild span of the promoted rescue"),
    ("restore_s", "Committed → checkpoint restored"),
    ("rollback_s", "Restored → solver resumed"),
)


@dataclass
class FailureRecord:
    """One failure's reconstructed lifecycle."""

    epoch: int
    failed: Tuple[int, ...] = ()
    rescues: Tuple[int, ...] = ()
    scenario: str = ""
    t_injected: Optional[float] = None
    t_detected: Optional[float] = None
    t_broadcast: Optional[float] = None
    t_rebuilt: Optional[float] = None
    promote_dur: Optional[float] = None
    t_restored: Optional[float] = None
    t_rollback: Optional[float] = None
    restore_version: Optional[int] = None

    # -- per-phase latencies (None when an endpoint is missing) --------
    @staticmethod
    def _delta(a: Optional[float], b: Optional[float]) -> Optional[float]:
        return None if a is None or b is None else b - a

    @property
    def detection_latency_s(self) -> Optional[float]:
        return self._delta(self.t_injected, self.t_detected)

    @property
    def broadcast_s(self) -> Optional[float]:
        return self._delta(self.t_detected, self.t_broadcast)

    @property
    def group_rebuild_s(self) -> Optional[float]:
        return self._delta(self.t_broadcast, self.t_rebuilt)

    @property
    def spare_promote_s(self) -> Optional[float]:
        return self.promote_dur

    @property
    def restore_s(self) -> Optional[float]:
        return self._delta(self.t_rebuilt, self.t_restored)

    @property
    def rollback_s(self) -> Optional[float]:
        return self._delta(self.t_restored, self.t_rollback)

    @property
    def total_recovery_s(self) -> Optional[float]:
        """Inject → solver resumed, the paper's per-failure overhead."""
        return self._delta(self.t_injected, self.t_rollback)

    def phases(self) -> Dict[str, Optional[float]]:
        return {name: getattr(self, name) for name, _ in PHASES}

    @property
    def complete(self) -> bool:
        """Full detection→rebuild→promote→restore chain present?"""
        return (self.t_injected is not None
                and self.t_detected is not None
                and self.t_rebuilt is not None
                and (self.promote_dur is not None or not self.rescues)
                and self.t_restored is not None)

    @property
    def nonnegative(self) -> bool:
        return all(v is None or v >= -1e-9 for v in self.phases().values())


def served_injection(failed: Iterable[int],
                     injected: Mapping[int, Sequence[float]],
                     t_detected: float) -> Optional[float]:
    """The injection a detection at ``t_detected`` of ``failed`` caught.

    For each failed rank, its latest injection at or before detection
    (``injected`` maps a rank to its ascending injection times); the
    result is the earliest of those — the first unserved fault — or
    ``None`` when no failed rank has a known injection.
    """
    times: List[float] = []
    for rank in failed:
        cands = [t for t in injected.get(rank, ()) if t <= t_detected + 1e-9]
        if cands:
            times.append(cands[-1])
    return min(times) if times else None


def build_timelines(events: Iterable[TraceEvent],
                    scenario: str = "") -> List[FailureRecord]:
    """Reconstruct one :class:`FailureRecord` per detected failure epoch."""
    events = sorted(events, key=lambda e: e.t)
    injected: Dict[int, List[float]] = {}  # rank -> inject times, ascending
    records: Dict[int, FailureRecord] = {}

    for ev in events:
        etype, fields = ev.etype, ev.fields
        if etype == FAILURE_INJECTED:
            injected.setdefault(ev.rank, []).append(ev.t)
            continue
        if etype == DETECTION:
            epoch = fields["epoch"]
            rec = records.setdefault(epoch, FailureRecord(epoch=epoch,
                                                          scenario=scenario))
            rec.failed = tuple(fields.get("failed", ()))
            rec.rescues = tuple(fields.get("rescues", ()))
            rec.t_detected = ev.t
            rec.t_injected = served_injection(rec.failed, injected, ev.t)
            continue

        epoch = fields.get("epoch")
        if epoch is None:
            continue  # e.g. manager-level restore outside recovery
        rec = records.setdefault(epoch, FailureRecord(epoch=epoch,
                                                      scenario=scenario))
        if etype == BROADCAST_FLAGS:
            rec.t_broadcast = (ev.t if rec.t_broadcast is None
                               else max(rec.t_broadcast, ev.t))
        elif etype == GROUP_REBUILD:
            # all members commit collectively; keep the last to finish
            rec.t_rebuilt = (ev.t if rec.t_rebuilt is None
                             else max(rec.t_rebuilt, ev.t))
        elif etype == SPARE_PROMOTE:
            rec.promote_dur = max(rec.promote_dur or 0.0, ev.dur)
        elif etype == RESTORE:
            rec.t_restored = (ev.t if rec.t_restored is None
                              else max(rec.t_restored, ev.t))
            if "version" in fields:
                rec.restore_version = fields["version"]
        elif etype == ROLLBACK:
            rec.t_rollback = (ev.t if rec.t_rollback is None
                              else max(rec.t_rollback, ev.t))

    return [records[e] for e in sorted(records)]


def injected_ranks(events: Iterable[TraceEvent]) -> List[int]:
    """Distinct ranks hit by ``failure_injected`` events (rank ≥ 0)."""
    return sorted({ev.rank for ev in events
                   if ev.etype == FAILURE_INJECTED and ev.rank >= 0})


def timeline_report(records: Sequence[FailureRecord],
                    title: str = "Failure timeline") -> str:
    """Human-readable per-failure lifecycle report."""
    lines = [title, "=" * len(title)]
    if not records:
        lines.append("(no failures detected)")
        return "\n".join(lines)
    for rec in records:
        head = (f"epoch {rec.epoch}"
                + (f" [{rec.scenario}]" if rec.scenario else "")
                + f": failed={list(rec.failed)} rescues={list(rec.rescues)}")
        lines.append("")
        lines.append(head)
        lines.append("-" * len(head))
        milestones = [
            ("injected", rec.t_injected), ("detected", rec.t_detected),
            ("broadcast", rec.t_broadcast), ("group rebuilt", rec.t_rebuilt),
            ("restored", rec.t_restored), ("rolled back", rec.t_rollback),
        ]
        for label, t in milestones:
            lines.append(f"  {label:<14} "
                         + (f"t={t:12.4f} s" if t is not None else "—"))
        for name, desc in PHASES:
            v = getattr(rec, name)
            if v is not None:
                lines.append(f"    {name:<22} {v:10.4f} s   ({desc})")
        total = rec.total_recovery_s
        if total is not None:
            lines.append(f"    {'total_recovery_s':<22} {total:10.4f} s")
        if not rec.complete:
            lines.append("    !! incomplete chain")
    return "\n".join(lines)
