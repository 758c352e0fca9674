"""Figure 4: runtime scenarios of the FT Lanczos application.

Reproduces the seven bars (paper Sect. VI): the no-health-check /
no-checkpoint baseline, checkpointing only, health check + checkpointing,
one / two / three sequential failure recoveries, and three *simultaneous*
failures detected by the threaded FD — each decomposed into computation,
redo-work, re-initialisation and fault-detection time.

Kills are placed ~114 iterations past a checkpoint (the paper kills at a
fixed iteration "to have a deterministic redo-work time"), so one recovery
costs ≈ redo(114 iters) + detection + re-init.

Run: ``python -m repro.experiments.figure4 [--scale paper|small|tiny]
[--jobs N]`` — the seven scenarios are independent simulations and fan
out across a process pool with ``--jobs``; the output is byte-identical
to the serial run.

``--curve`` switches to the paper's scan-time *curve* reproduction: the
FD ping-scan time is swept over the paper's node counts, both the
measured and the digitized reference curves are normalized to their
largest-node value, and the run fails if any point's relative deviation
from the reference shape exceeds ``--curve-tol``.  Gating on the
normalized shape (not absolute values) checks what the paper actually
demonstrates — scan time linear in the process count — independent of
the testbed's per-ping constant.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence, Tuple

from repro.sim import Sleep
from repro.gaspi import AllreduceOp, ReturnCode, run_gaspi
from repro.cluster import MachineSpec
from repro.checkpoint.manager import CheckpointConfig, CheckpointLib
from repro.experiments.common import ScenarioOutcome, run_ft_scenario
from repro.experiments.report import format_phase_summary, format_table
from repro.experiments.sweep import SweepTask, run_sweep, run_traced_sweep
from repro.workloads.spec import PAPER_GRAPHENE, WorkloadSpec, scaled_spec

#: fraction of a checkpoint interval the kill lands after a checkpoint
#: (paper: ~47 s redo of the ~64 s per-failure overhead => ~114 of the 500
#: iterations between checkpoints)
REDO_TARGET_FRACTION = 114 / 500

#: digitized FD ping-scan times [ms] at the paper's node counts — the
#: linear ~1 ms/process curve the paper measures on the QDR-IB testbed
#: (small per-point wiggle from reading values off the printed figure)
FIGURE4_SCAN_MS = {
    8: 9.3,
    16: 17.4,
    32: 33.9,
    64: 66.1,
    128: 131.0,
    256: 262.0,
}

#: default shape gate: max relative deviation per normalized point
CURVE_TOL = 0.2


def _redo_target_iters(spec: WorkloadSpec) -> int:
    return max(1, int(round(spec.checkpoint_interval * REDO_TARGET_FRACTION)))


def default_spec(scale: str) -> WorkloadSpec:
    if scale == "paper":
        return PAPER_GRAPHENE
    if scale == "small":
        return scaled_spec(workers=64, iterations=700, name="figure4-small")
    if scale == "tiny":
        return scaled_spec(workers=16, iterations=140, name="figure4-tiny")
    raise ValueError(f"unknown scale {scale!r}")


# ----------------------------------------------------------------------
# bare (non-FT) scenarios: 'w/o HC' bars
# ----------------------------------------------------------------------
def run_bare(spec: WorkloadSpec, checkpoints: bool) -> float:
    """Failure-free run without the FT stack; returns the total runtime."""

    def main(ctx):
        import numpy as np

        group = ctx.group_create(tag=0)
        ctx.group_add_many(group, range(spec.n_workers))
        ret = yield from ctx.group_commit(group)  # ftlint: disable=FT001 -- bare (non-FT) baseline by design: no fault plan, nothing to guard on
        assert ret is ReturnCode.SUCCESS

        lib = None
        if checkpoints:
            lib = CheckpointLib(ctx, ctx.rank, list(range(spec.n_workers)),
                                config=CheckpointConfig(tag="state"))
        yield Sleep(spec.setup_time)
        step = 0
        interval = (spec.checkpoint_interval if lib is not None
                    else spec.n_iterations)
        while step < spec.n_iterations:
            ret, _ = yield from ctx.allreduce(  # ftlint: disable=FT001 -- bare (non-FT) baseline by design: the paper's comparison point runs without the health flag
                step, AllreduceOp.MIN, group
            )
            assert ret is ReturnCode.SUCCESS
            stop = min(spec.n_iterations, (step // interval + 1) * interval)
            rounds, _ = yield from ctx.lockstep(  # ftlint: disable=FT001 -- bare (non-FT) baseline by design: the paper's comparison point runs without the health flag
                step, spec.iteration_time, stop, group)
            step += rounds + 1
            if lib is not None and step % spec.checkpoint_interval == 0:
                yield from lib.write_checkpoint(
                    step // spec.checkpoint_interval,
                    {"step": np.int64(step)},
                    nominal_bytes=spec.checkpoint_bytes_per_worker,
                )
        return ctx.now

    run = run_gaspi(main, machine_spec=MachineSpec(n_nodes=spec.n_workers))
    return max(run.result(r) for r in range(spec.n_workers))


# ----------------------------------------------------------------------
# kill placement
# ----------------------------------------------------------------------
def kill_schedule(spec: WorkloadSpec, n_kills: int,
                  simultaneous: bool = False) -> List[Tuple[float, int]]:
    """(time, rank) pairs placing each kill ~REDO_TARGET iters past a CP."""
    from repro.gaspi.collectives import CollectiveCosts

    redo_iters = _redo_target_iters(spec)
    detection_est = 3.0 / 2 + 3.5 + 0.5          # scan phase + error timeout
    commit_est = CollectiveCosts().commit(spec.n_workers)
    redo_est = redo_iters * spec.iteration_time
    per_failure_overhead = detection_est + commit_est + redo_est + 1.0

    kills: List[Tuple[float, int]] = []
    for k in range(n_kills):
        if simultaneous:
            target_iter = spec.checkpoint_interval + redo_iters
            t = spec.setup_time + spec.time_of_iteration(target_iter)
        else:
            target_iter = spec.checkpoint_interval * (k + 1) + redo_iters
            t = (spec.setup_time + spec.time_of_iteration(target_iter)
                 + k * per_failure_overhead)
        kills.append((t + 1e-3, 1 + k))  # kill worker ranks 1, 2, 3, ...
    return kills


# ----------------------------------------------------------------------
# the figure
# ----------------------------------------------------------------------
def _bare_outcome(name: str, spec: WorkloadSpec,
                  checkpoints: bool) -> ScenarioOutcome:
    """Sweep worker for the two non-FT bars."""
    total = run_bare(spec, checkpoints)
    return ScenarioOutcome(
        name=name, spec=spec, total_runtime=total,
        computation_time=total, redo_work_time=0.0, reinit_time=0.0,
        detection_time=0.0, n_recoveries=0,
    )


def _ft_outcome(name: str, spec: WorkloadSpec, keep_results: bool = False,
                **scenario_kwargs) -> ScenarioOutcome:
    """Sweep worker for the FT bars; strips the heavyweight run result
    before it would travel back through the pool's pickle channel."""
    outcome = run_ft_scenario(name, spec, **scenario_kwargs)
    if not keep_results:
        outcome.result = None
    return outcome


def scenario_tasks(spec: WorkloadSpec,
                   keep_results: bool = False) -> List[SweepTask]:
    """The seven Figure-4 scenarios as independent sweep tasks."""
    tasks = [
        SweepTask("figure4", name, _bare_outcome, (name, spec, checkpoints))
        for name, checkpoints in (("w/o HC, w/o CP", False),
                                  ("w/o HC, with CP", True))
    ]
    tasks.append(SweepTask(
        "figure4", "with HC, with CP", _ft_outcome,
        ("with HC, with CP", spec, keep_results),
    ))
    for k in (1, 2, 3):
        tasks.append(SweepTask(
            "figure4", f"{k} fail recovery", _ft_outcome,
            (f"{k} fail recovery", spec, keep_results),
            {"kill_times": kill_schedule(spec, k)}, k=k,
        ))
    tasks.append(SweepTask(
        "figure4", "3 sim. fail recovery", _ft_outcome,
        ("3 sim. fail recovery", spec, keep_results),
        {"kill_times": kill_schedule(spec, 3, simultaneous=True),
         "fd_threads": 8},
    ))
    return tasks


def run_figure4(spec: Optional[WorkloadSpec] = None,
                keep_results: bool = False,
                jobs: Optional[int] = 1) -> List[ScenarioOutcome]:
    spec = spec or default_spec("small")
    return run_sweep(scenario_tasks(spec, keep_results), jobs=jobs)


# ----------------------------------------------------------------------
# the scan-time curve (--curve)
# ----------------------------------------------------------------------
def curve_tasks(nodes: Sequence[int]) -> List[SweepTask]:
    """One failure-free FD scan measurement per node count."""
    from repro.experiments.table1 import measure_scan_time

    return [
        SweepTask("figure4-curve", f"scan-nodes{n}", measure_scan_time, (n,))
        for n in nodes
    ]


def run_curve(nodes: Optional[Sequence[int]] = None,
              jobs: Optional[int] = 1) -> List[float]:
    """Measured average scan times [s], one per node count."""
    nodes = sorted(nodes or FIGURE4_SCAN_MS)
    return run_sweep(curve_tasks(nodes), jobs=jobs)


def curve_shape(nodes: Sequence[int],
                measured: Sequence[float]) -> Tuple[List[List], float]:
    """Compare the measured curve's *shape* against the digitized points.

    Both curves are normalized to their largest-node value; returns the
    per-point table rows and the maximum relative deviation between the
    normalized curves (the shape-distance the gate applies).
    """
    if len(nodes) < 2:
        raise ValueError("curve shape needs at least two node counts")
    reference = [FIGURE4_SCAN_MS[n] / 1000.0 for n in nodes]
    m_scale, r_scale = measured[-1], reference[-1]
    rows: List[List] = []
    worst = 0.0
    for n, m, r in zip(nodes, measured, reference):
        m_norm, r_norm = m / m_scale, r / r_scale
        dev = abs(m_norm - r_norm) / r_norm
        worst = max(worst, dev)
        rows.append([n, m, r, m_norm, r_norm, dev])
    return rows, worst


CURVE_HEADERS = ["nodes", "measured[s]", "reference[s]",
                 "measured(norm)", "reference(norm)", "rel dev"]


def _run_curve_mode(args, parser) -> str:
    nodes = sorted(args.nodes or FIGURE4_SCAN_MS)
    unknown = [n for n in nodes if n not in FIGURE4_SCAN_MS]
    if unknown:
        parser.error(f"no digitized reference points for nodes {unknown}; "
                     f"known: {sorted(FIGURE4_SCAN_MS)}")
    if args.trace:
        from repro.obs.export import write_jsonl

        measured, traces = run_traced_sweep(curve_tasks(nodes),
                                            jobs=args.jobs)
        write_jsonl([(tr.label, tr.events) for tr in traces], args.trace)
    else:
        measured = run_curve(nodes, jobs=args.jobs)
    rows, worst = curve_shape(nodes, measured)
    table = format_table(
        CURVE_HEADERS, rows,
        title="Figure 4 curve — normalized FD scan time vs digitized points",
    )
    print(table)
    verdict = "PASS" if worst <= args.curve_tol else "FAIL"
    print(f"shape gate: max relative deviation {worst:.4f} "
          f"(tol {args.curve_tol:g}) -> {verdict}")
    if worst > args.curve_tol:
        raise SystemExit(1)
    return table


def as_rows(outcomes: List[ScenarioOutcome]) -> List[List]:
    rows = []
    for o in outcomes:
        rows.append([
            o.name, o.total_runtime, o.computation_time, o.redo_work_time,
            o.reinit_time, o.detection_time, o.n_recoveries,
        ])
    return rows


HEADERS = ["scenario", "runtime[s]", "computation[s]", "redo-work[s]",
           "re-init[s]", "detection[s]", "recoveries"]


def main(argv: Optional[Sequence[str]] = None) -> str:
    parser = argparse.ArgumentParser(prog="python -m repro figure4",
                                     description=__doc__)
    parser.add_argument("--scale", choices=["paper", "small", "tiny"],
                        default="small")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="scenario-sweep worker processes "
                             "(0 = all cores, default 1 = serial)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="capture a structured trace (repro.obs) to "
                             "this JSONL file and print per-failure phase "
                             "latencies")
    parser.add_argument("--curve", action="store_true",
                        help="sweep the paper's node counts and gate the "
                             "normalized FD scan-time curve against the "
                             "digitized Figure-4 reference points")
    parser.add_argument("--curve-tol", type=float, default=CURVE_TOL,
                        metavar="F",
                        help="shape gate: max relative deviation per "
                             "normalized point (default %(default)s)")
    parser.add_argument("--nodes", type=int, nargs="+", default=None,
                        help="node counts for --curve (default: all "
                             "digitized reference points)")
    args = parser.parse_args(argv)
    if args.curve:
        return _run_curve_mode(args, parser)
    spec = default_spec(args.scale)
    if args.trace:
        from repro.obs.export import write_jsonl

        outcomes, traces = run_traced_sweep(
            scenario_tasks(spec), jobs=args.jobs)
        write_jsonl([(tr.label, tr.events) for tr in traces], args.trace)
        print(format_phase_summary(traces))
        print()
    else:
        outcomes = run_figure4(spec, jobs=args.jobs)
    table = format_table(
        HEADERS, as_rows(outcomes),
        title=(f"Figure 4 — Lanczos runtime scenarios "
               f"({spec.n_workers} workers, {spec.n_iterations} iterations, "
               f"CP every {spec.checkpoint_interval})"),
    )
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
