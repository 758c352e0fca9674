"""Ablations: the paper's qualitative design arguments, quantified.

* ``run_fd_strategy_comparison`` — Sect. IV-A(b): dedicated FD (local-flag
  check) vs all-to-all ping vs neighbor-ring ping: failure-free overhead
  and detection latency.
* ``run_checkpoint_interval_sweep`` — Sect. IV-E: redo-work vs checkpoint
  cost as the interval varies (one failure injected).
* ``run_checkpoint_destination`` — Sect. VI claim that neighbor-level
  checkpoints are ~free while PFS-level checkpoints are not.
* ``run_group_commit_scaling`` — the blocking ``gaspi_group_commit`` cost
  (OHF2) versus group size.

Run: ``python -m repro.experiments.ablations [--which all] [--jobs N]`` —
every grid point is an independent simulation; ``--jobs`` fans them
across a process pool with output identical to the serial run.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim import Simulator, Sleep
from repro.cluster import FaultPlan, MachineSpec
from repro.gaspi import AllreduceOp, ReturnCode, run_gaspi
from repro.checkpoint.manager import CheckpointConfig, CheckpointLib
from repro.checkpoint.pfs import ParallelFileSystem
from repro.ft.strategies import (
    AllToAllStrategy,
    LocalFlagStrategy,
    NeighborRingStrategy,
)
from repro.experiments.common import run_ft_scenario
from repro.experiments.report import format_table
from repro.experiments.sweep import SweepTask, run_sweep
from repro.workloads.spec import WorkloadSpec, scaled_spec


# ----------------------------------------------------------------------
# FD strategy comparison
# ----------------------------------------------------------------------
@dataclass
class StrategyOutcome:
    strategy: str
    runtime: float
    overhead_pct: float
    pings_total: int
    detection_latency: Optional[float]


_STRATEGIES = {
    "dedicated-fd": LocalFlagStrategy,
    "all-to-all": AllToAllStrategy,
    "neighbor-ring": NeighborRingStrategy,
}


def _strategy_run(strategy_name: str, n_ranks: int, n_iters: int,
                  iteration_time: float, check_period: float,
                  kill: Optional[tuple] = None) -> StrategyOutcome:
    """Workers compute + run the in-loop detection hook each iteration."""
    cls = _STRATEGIES[strategy_name]
    detected_at: Dict[int, float] = {}

    def main(ctx):
        strategy = cls(ctx, list(range(n_ranks)), check_period)
        for step in range(n_iters):
            yield Sleep(iteration_time)
            fresh = yield from strategy.maybe_check()
            if fresh and ctx.rank not in detected_at:
                detected_at[ctx.rank] = ctx.now
            ret, _ = yield from ctx.allreduce(
                step, AllreduceOp.MIN, timeout=2.0
            )
            if ret is not ReturnCode.SUCCESS:
                # a peer died: bare loop cannot recover; stop measuring
                return (ctx.now, strategy.stats)
        return (ctx.now, strategy.stats)

    plan = None
    t_kill = None
    if kill is not None:
        t_kill, victim = kill
        plan = FaultPlan().kill_process(t_kill, victim)
    run = run_gaspi(main, machine_spec=MachineSpec(n_nodes=n_ranks),
                    fault_plan=plan, until=n_iters * iteration_time * 20 + 60)
    finish, stats = max(
        (run.result(r) for r in range(n_ranks) if run.result(r) is not None),
        key=lambda pair: pair[0],
    )
    pings = sum(
        run.result(r)[1].pings_sent
        for r in range(n_ranks) if run.result(r) is not None
    )
    latency = None
    if t_kill is not None and detected_at:
        latency = min(detected_at.values()) - t_kill
    return StrategyOutcome(
        strategy=strategy_name,
        runtime=finish,
        overhead_pct=0.0,  # filled by the caller against the baseline
        pings_total=pings,
        detection_latency=latency,
    )


def run_fd_strategy_comparison(n_ranks: int = 32, n_iters: int = 60,
                               iteration_time: float = 0.414,
                               check_period: float = 3.0,
                               jobs: Optional[int] = 1) -> List[StrategyOutcome]:
    """Failure-free overhead + detection latency per strategy."""
    kill_t = n_iters * iteration_time * 0.4
    tasks = []
    for name in _STRATEGIES:
        tasks.append(SweepTask(
            "ablations/fd", f"{name}/free", _strategy_run,
            (name, n_ranks, n_iters, iteration_time, check_period),
        ))
        tasks.append(SweepTask(
            "ablations/fd", f"{name}/faulty", _strategy_run,
            (name, n_ranks, n_iters, iteration_time, check_period),
            {"kill": (kill_t, n_ranks // 2)},
        ))
    results = run_sweep(tasks, jobs=jobs)

    outcomes = []
    baseline = results[0].runtime  # dedicated-fd ~ pure compute
    for idx, name in enumerate(_STRATEGIES):
        free, faulty = results[2 * idx], results[2 * idx + 1]
        outcomes.append(StrategyOutcome(
            strategy=name,
            runtime=free.runtime,
            overhead_pct=100.0 * (free.runtime - baseline) / baseline,
            pings_total=free.pings_total,
            detection_latency=faulty.detection_latency,
        ))
    return outcomes


# ----------------------------------------------------------------------
# checkpoint interval sweep
# ----------------------------------------------------------------------
@dataclass
class IntervalOutcome:
    interval: int
    runtime: float
    redo_work: float
    checkpoints_taken: int


def _interval_outcome(spec: WorkloadSpec, interval: int) -> IntervalOutcome:
    """Sweep worker: one failure at one checkpoint interval."""
    s = dataclasses.replace(spec, checkpoint_interval=interval)
    kill_t = s.setup_time + s.time_of_iteration(
        min(interval + interval // 2, s.n_iterations // 2)
    )
    outcome = run_ft_scenario(
        f"interval={interval}", s, kill_times=[(kill_t, 1)], n_spares=2,
    )
    return IntervalOutcome(
        interval=interval,
        runtime=outcome.total_runtime,
        redo_work=outcome.redo_work_time,
        checkpoints_taken=int(s.n_iterations / interval),
    )


def run_checkpoint_interval_sweep(
    spec: Optional[WorkloadSpec] = None,
    intervals: Sequence[int] = (25, 50, 100, 200, 350),
    jobs: Optional[int] = 1,
) -> List[IntervalOutcome]:
    """One failure; vary the checkpoint interval (redo-work trade-off)."""
    spec = spec or scaled_spec(workers=16, iterations=400, name="cp-sweep")
    tasks = [
        SweepTask("ablations/interval", f"interval={interval}",
                  _interval_outcome, (spec, interval))
        for interval in intervals
    ]
    return run_sweep(tasks, jobs=jobs)


# ----------------------------------------------------------------------
# checkpoint destination (neighbor vs PFS)
# ----------------------------------------------------------------------
@dataclass
class DestinationOutcome:
    destination: str
    checkpoint_time_total: float
    overhead_pct: float


def _destination_outcome(dest: str, n_ranks: int, n_checkpoints: int,
                         bytes_per_rank: int,
                         pfs_bandwidth: float) -> DestinationOutcome:
    """Sweep worker: application-blocked time of one destination."""
    compute_per_phase = 10.0
    sim = Simulator()
    pfs = ParallelFileSystem(sim, aggregate_bandwidth=pfs_bandwidth)

    def main(ctx):
        lib = CheckpointLib(
            ctx, ctx.rank, list(range(n_ranks)),
            config=CheckpointConfig(tag="abl"), pfs=pfs,
        )
        blocked = 0.0
        for version in range(n_checkpoints):
            yield Sleep(compute_per_phase)
            t0 = ctx.now
            if dest == "neighbor-level":
                yield from lib.write_checkpoint(
                    version, {"v": np.zeros(2)},
                    nominal_bytes=bytes_per_rank,
                )
            else:
                from repro.checkpoint.store import StoredBlob
                from repro.checkpoint.serialization import pack_checkpoint
                blob = StoredBlob(pack_checkpoint({"v": np.zeros(2)}),
                                  bytes_per_rank)
                yield from pfs.write(("abl", ctx.rank, version), blob)
            blocked += ctx.now - t0
        lib.shutdown()
        return blocked

    run = run_gaspi(main, machine_spec=MachineSpec(n_nodes=n_ranks), sim=sim)
    blocked = max(run.result(r) for r in range(n_ranks))
    compute_total = n_checkpoints * compute_per_phase
    return DestinationOutcome(
        destination=dest,
        checkpoint_time_total=blocked,
        overhead_pct=100.0 * blocked / compute_total,
    )


def run_checkpoint_destination(n_ranks: int = 64, n_checkpoints: int = 7,
                               bytes_per_rank: int = 7_500_000,
                               pfs_bandwidth: float = 2.0e9,
                               jobs: Optional[int] = 1) -> List[DestinationOutcome]:
    """Synchronous-wait cost of neighbor-level vs PFS-level checkpoints.

    Measures the time the *application* is blocked per strategy: the
    neighbor scheme blocks only for the local write (the copy is
    asynchronous), PFS-level checkpointing blocks until the contended
    global file system accepted the data.
    """
    tasks = [
        SweepTask("ablations/destination", dest, _destination_outcome,
                  (dest, n_ranks, n_checkpoints, bytes_per_rank,
                   pfs_bandwidth))
        for dest in ("neighbor-level", "pfs-level")
    ]
    return run_sweep(tasks, jobs=jobs)


# ----------------------------------------------------------------------
# group commit scaling (OHF2)
# ----------------------------------------------------------------------
def _commit_time(size: int) -> tuple:
    """Sweep worker: one blocking group commit at one group size."""
    def main(ctx):
        group = ctx.group_create(tag=1)
        for rank in range(size):
            ctx.group_add(group, rank)
        t0 = ctx.now
        ret = yield from ctx.group_commit(group)  # ftlint: disable=FT001 -- commit-cost microbenchmark on a healthy cluster (no fault plan); blocking is the quantity measured
        assert ret is ReturnCode.SUCCESS
        return ctx.now - t0

    run = run_gaspi(main, machine_spec=MachineSpec(n_nodes=size))
    return (size, run.result(0))


def run_group_commit_scaling(sizes: Sequence[int] = (8, 16, 32, 64, 128, 256),
                             jobs: Optional[int] = 1) -> List[tuple]:
    """Measured blocking time of gaspi_group_commit vs group size."""
    tasks = [
        SweepTask("ablations/commit", f"size={size}", _commit_time, (size,))
        for size in sizes
    ]
    return run_sweep(tasks, jobs=jobs)


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> str:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--which",
                        choices=["all", "fd", "interval", "destination",
                                 "commit"],
                        default="all")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="scenario-sweep worker processes "
                             "(0 = all cores, default 1 = serial)")
    args = parser.parse_args(argv)
    chunks: List[str] = []
    if args.which in ("all", "fd"):
        rows = run_fd_strategy_comparison(jobs=args.jobs)
        chunks.append(format_table(
            ["strategy", "runtime[s]", "overhead[%]", "pings",
             "detection latency[s]"],
            [[o.strategy, o.runtime, o.overhead_pct, o.pings_total,
              o.detection_latency if o.detection_latency is not None else "n/a"]
             for o in rows],
            title="FD strategy comparison (Sect. IV-A b)"))
    if args.which in ("all", "interval"):
        rows = run_checkpoint_interval_sweep(jobs=args.jobs)
        chunks.append(format_table(
            ["CP interval", "runtime[s]", "redo-work[s]", "checkpoints"],
            [[o.interval, o.runtime, o.redo_work, o.checkpoints_taken]
             for o in rows],
            title="Checkpoint interval sweep (one failure)"))
    if args.which in ("all", "destination"):
        rows = run_checkpoint_destination(jobs=args.jobs)
        chunks.append(format_table(
            ["destination", "blocked time[s]", "overhead[%]"],
            [[o.destination, o.checkpoint_time_total, o.overhead_pct]
             for o in rows],
            title="Checkpoint destination (neighbor vs PFS)"))
    if args.which in ("all", "commit"):
        rows = run_group_commit_scaling(jobs=args.jobs)
        chunks.append(format_table(
            ["group size", "commit time[s]"], rows,
            title="gaspi_group_commit scaling (OHF2)"))
    out = "\n\n".join(chunks)
    print(out)
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
