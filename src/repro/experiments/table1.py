"""Table I: FD ping-scan time and failure detection+ack time vs node count.

For each cluster size the harness measures (a) the FD's average ping-scan
time in a failure-free run — expected ≈ setup + 1 ms x (p-1), i.e. linear
— and (b) the time from a random ``kill -9`` of a random worker to the
completed failure acknowledgment, over 10 seeded repetitions — expected
flat around scan_period/2 + transport error timeout (~5.3 s ± 0.9).

Run: ``python -m repro.experiments.table1 [--nodes 8 16 ...] [--runs 10]
[--jobs N]`` — every scan / detection sample is an independent
simulation; ``--jobs`` fans them across a process pool.  Each sample's
seed derives from its ``(experiment, scenario, repetition)`` identity,
so serial and parallel sweeps produce byte-identical rows.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.sim import RngStreams
from repro.cluster import FaultPlan
from repro.ft.app import run_ft_application
from repro.experiments.common import ft_config_for, machine_for
from repro.experiments.report import format_table
from repro.experiments.sweep import SweepTask, run_sweep, scenario_seed
from repro.workloads.kernels import ModelLanczosProgram
from repro.workloads.spec import scaled_spec

PAPER_NODES = (8, 16, 32, 64, 128, 256)


@dataclass
class Table1Row:
    n_nodes: int
    avg_scan_time: float
    detection_mean: float
    detection_std: float
    n_runs: int


def _spec_for(n_nodes: int, n_spares: int):
    """A workload long enough that detection completes mid-run (~60 s)."""
    workers = n_nodes - n_spares
    return scaled_spec(workers=workers, iterations=150,
                       name=f"table1-{n_nodes}")


def measure_scan_time(n_nodes: int, n_spares: int = 2) -> float:
    """Average failure-free ping-scan time of the FD."""
    spec = _spec_for(n_nodes, n_spares)
    cfg = ft_config_for(spec, n_spares=n_spares)
    result = run_ft_application(
        cfg, ModelLanczosProgram(spec), machine_spec=machine_for(cfg),
        until=spec.setup_time + spec.baseline_runtime + 300,
    )
    stats = result.fd_stats
    if stats is None or not stats.scan_times:
        raise RuntimeError(f"no scans recorded for {n_nodes} nodes")
    return stats.avg_scan_time


def measure_detection(n_nodes: int, seed: int, n_spares: int = 2) -> float:
    """One kill-to-acknowledgment latency sample."""
    spec = _spec_for(n_nodes, n_spares)
    cfg = ft_config_for(spec, n_spares=n_spares)
    rng = RngStreams(seed).stream("table1")
    t_kill = float(rng.uniform(spec.setup_time + 5.0,
                               spec.setup_time + 25.0))
    victim = int(rng.integers(0, cfg.n_workers))
    plan = FaultPlan().kill_process(t_kill, victim)
    result = run_ft_application(
        cfg, ModelLanczosProgram(spec), machine_spec=machine_for(cfg),
        fault_plan=plan,
        until=(spec.setup_time + spec.baseline_runtime) * 3 + 300,
    )
    stats = result.fd_stats
    if stats is None or not stats.detections:
        raise RuntimeError(
            f"failure not detected (nodes={n_nodes}, seed={seed})"
        )
    return stats.detections[0].t_acknowledged - t_kill


def detection_seed(n_nodes: int, repetition: int, base_seed: int = 0) -> int:
    """The identity-derived seed of one detection sample.

    Derived solely from ``(table1/base_seed, nodes, repetition)`` — never
    from execution order — so a sample's kill instant and victim are the
    same whether the sweep runs serially or on a pool, and adding node
    counts or repetitions never perturbs existing samples.
    """
    return scenario_seed(f"table1/{base_seed}", f"detect-nodes{n_nodes}",
                         repetition)


def run_table1(nodes: Sequence[int] = PAPER_NODES, n_runs: int = 10,
               n_spares: int = 2, base_seed: int = 0,
               jobs: Optional[int] = 1) -> List[Table1Row]:
    tasks: List[SweepTask] = []
    for n_nodes in nodes:
        tasks.append(SweepTask(
            "table1", f"scan-nodes{n_nodes}", measure_scan_time,
            (n_nodes, n_spares),
        ))
        for i in range(n_runs):
            tasks.append(SweepTask(
                "table1", f"detect-nodes{n_nodes}", measure_detection,
                (n_nodes, detection_seed(n_nodes, i, base_seed), n_spares),
                k=i,
            ))
    results = run_sweep(tasks, jobs=jobs)

    rows: List[Table1Row] = []
    per_group = 1 + n_runs
    for idx, n_nodes in enumerate(nodes):
        chunk = results[idx * per_group : (idx + 1) * per_group]
        scan, samples = chunk[0], chunk[1:]
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / max(1, len(samples) - 1)
        rows.append(Table1Row(
            n_nodes=n_nodes,
            avg_scan_time=scan,
            detection_mean=mean,
            detection_std=math.sqrt(var),
            n_runs=n_runs,
        ))
    return rows


HEADERS = ["nodes", "avg ping scan time [s]",
           "failure detection + ack [s]", "std [s]", "runs"]


def as_rows(rows: List[Table1Row]) -> List[List]:
    return [[r.n_nodes, r.avg_scan_time, r.detection_mean, r.detection_std,
             r.n_runs] for r in rows]


def main(argv: Optional[Sequence[str]] = None) -> str:
    parser = argparse.ArgumentParser(prog="python -m repro table1",
                                     description=__doc__)
    parser.add_argument("--nodes", type=int, nargs="+",
                        default=list(PAPER_NODES))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="scenario-sweep worker processes "
                             "(0 = all cores, default 1 = serial)")
    args = parser.parse_args(argv)
    rows = run_table1(args.nodes, args.runs, jobs=args.jobs)
    table = format_table(HEADERS, as_rows(rows),
                         title="Table I — FD scan time and detection latency")
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
