"""Host-cost benchmark of the FT-GASPI simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-256 --seed 0 --seconds 12 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``fig4-256``,
``weak-2048-repl`` and ``numeric-graphene``.  Everything runs in this one
process, scenario after scenario, with no threads or pools; only the
set-up probes are separate (sequential) interpreters.  Each run first
executes the workload's warm-up scenarios once, untimed.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times
are host seconds scaled to a reference host speed (``hostspeed.py``): the
host is shared, and a calibration kernel timed around every scenario
removes most of the other tenants' effect.  The raw seconds and the
measured host speed are printed and kept in the report.

``setup_s``          fresh interpreter to the first scenario call
                     (``repro`` imports + input generation), median of
                     :data:`SETUP_PROBES` child interpreters
``wall_s``/``cpu_s`` host wall / process CPU seconds of one pass over the
                     workload's scenarios, median over the measured passes
                     (at least :data:`MIN_PASSES`, and until they add up
                     to ``--seconds``)
``sim_steps_per_s``  worker-iterations simulated (redo included) per host
                     wall second, median over the passes
``peak_rss_mb``      peak resident memory after the first measured pass

``--trace 1`` runs one untraced pass (the overhead reference), then two
passes under the per-layer ledger (``ledger.py``) and reports the
per-layer metrics.  The two traced passes must give identical counts; a
difference is reported as a benchmark defect.  The traced run writes
``.bench_out/<workload>-seed<seed>.trace.{json,md}`` (one row per layer)
and the raw spans of the last pass to ``.bench_out/<workload>.spans.npz``.

Every scenario output of every pass, warm-up included, is checked
(``check.py``); the failures over the scenario runs attempted are the
``failed``/``attempted`` of the result.  The last stdout line is the JSON
result; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: child interpreters timed for ``setup_s``
SETUP_PROBES = 3
#: measured passes per run, however long a pass takes
MIN_PASSES = 2
#: extra kernel samples each set-up probe takes after its timed part
CALIBRATION_BURSTS = 3
#: traced passes; their counts must agree exactly
TRACED_PASSES = 2
#: stop adding measured passes once the run has used this much wall time
RUN_CAP_S = 150.0


def fingerprint() -> Dict[str, Any]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int) -> Tuple[List[float], List[float]]:
    """Seconds from spawning a fresh interpreter to its first scenario call,
    raw and at the reference host speed (each probe samples its own)."""
    raw, normalized = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        t1, spent, kernel = (float(v) for v in done.stdout.split()[-3:])
        raw.append(t1 - t0 - spent)
        normalized.append(raw[-1] * hostspeed.REFERENCE_S / kernel)
    return raw, normalized


def setup_probe(workload: str, seed: int) -> None:
    """Child side of :func:`measure_setup`: build the inputs while sampling
    the host speed, then print the end time, the time spent calibrating
    and the mean kernel time."""
    import workloads

    t0 = time.perf_counter()
    sampler = hostspeed.Sampler(hostspeed.Kernel())
    built = time.perf_counter() - t0
    with sampler:
        workloads.build(workload, seed)
    end = time.monotonic()
    samples = sampler.samples + [sampler.kernel.run()
                                 for _ in range(CALIBRATION_BURSTS)]
    print(end, built + sampler.spent[0],
          statistics.mean(w for w, _ in samples))


@dataclass
class Pass:
    """One closed-loop pass over a list of scenarios."""

    wall: float
    cpu: float
    #: mean calibration kernel (wall, CPU) seconds during the scenarios
    kernel: Tuple[float, float]
    records: List[Dict]

    @property
    def wall_ref(self) -> float:
        return self.wall * hostspeed.REFERENCE_S / self.kernel[0]

    @property
    def cpu_ref(self) -> float:
        return self.cpu * hostspeed.REFERENCE_S / self.kernel[1]


def run_pass(scenarios, ledger=None, kernel=None) -> Pass:
    """Run each scenario once, in order.  With a calibration ``kernel`` the
    host speed is sampled during every scenario (``hostspeed.Sampler``)
    and the samples' own time is left out of the pass."""
    wall = cpu = 0.0
    records = []
    samples: List[Tuple[float, float]] = []
    for index, scenario in enumerate(scenarios):
        gc.collect()
        if ledger is not None:
            ledger.begin_scenario(index)
        sampler = None
        if kernel is not None:
            samples.append(kernel.run(hostspeed.BURST_ROUNDS))
            sampler = hostspeed.Sampler(kernel)
        with sampler or contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                record = scenario.run()
            except Exception as exc:  # a failed scenario is a counted failure
                record = {"error": f"{type(exc).__name__}: {exc}"}
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
        if sampler is not None:
            wall -= sampler.spent[0]
            cpu -= sampler.spent[1]
            samples.extend(sampler.samples)
        if ledger is not None:
            ledger.end_scenario()
        records.append(record)
    speed = ((statistics.mean(w for w, _ in samples),
              statistics.mean(c for _, c in samples)) if samples
             else (hostspeed.REFERENCE_S, hostspeed.REFERENCE_S))
    return Pass(wall, cpu, speed, records)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_passes(checker, passes: List[Tuple[list, List[Dict]]]
                 ) -> Tuple[int, List[str]]:
    """(failed scenario runs, messages) over every (scenarios, records)
    pass; a scenario's virtual results must also repeat across passes."""
    from check import digest

    failed = 0
    messages = []
    first: Dict[str, str] = {}
    for number, (scenarios, records) in enumerate(passes):
        for scenario, record in zip(scenarios, records):
            found = checker.problems(scenario, record)
            if "error" not in record:
                base = first.setdefault(scenario.name, digest(record))
                if digest(record) != base:
                    found.append("virtual results differ from an earlier "
                                 "pass")
            if found:
                failed += 1
                messages.append(f"pass {number} {scenario.name}: "
                                + "; ".join(found))
    return failed, messages


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(agg: Dict[str, Any], records: List[Dict]
                  ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced pass, as (value, unit)."""
    from ledger import LAYERS

    by = agg["by_name"]

    def self_s(name: str) -> float:
        return by[name]["self_s"]

    def calls(name: str) -> int:
        return by[name]["calls"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ok = [r for r in records if "error" not in r]
    phases: Dict[str, float] = {}
    for record in ok:
        for key, value in record["ckpt_phases"].items():
            phases[key] = phases.get(key, 0) + value
    steps = sum(r["steps"] for r in ok)
    nominal = sum(r["nominal"] for r in ok)
    m: Dict[str, Tuple[float, str]] = {
        "sim.events": (agg["sim_events"], "count"),
        "sim.run_self_s": (self_s("sim.run"), "s"),
        "sim.us_per_event": (ratio(self_s("sim.run") * 1e6,
                                   agg["sim_events"]), "us"),
        "gaspi.allreduce.calls": (calls("gaspi.allreduce"), "count"),
        "gaspi.allreduce.self_s": (self_s("gaspi.allreduce"), "s"),
        "gaspi.collective.arrivals": (calls("gaspi.collective.arrive"),
                                      "count"),
        "gaspi.group_commit.calls": (calls("gaspi.group_commit"), "count"),
        "gaspi.group_commit.self_s": (self_s("gaspi.group_commit"), "s"),
        "gaspi.rdma.calls": (calls("gaspi.rdma"), "count"),
        "gaspi.timeouts": (agg["timeouts"], "count"),
        "gaspi.world_build_s": (by["gaspi.world_build"]["incl_s"], "s"),
        "cluster.machine_build_s": (by["cluster.machine_build"]["incl_s"],
                                    "s"),
        "cluster.rdma_posts": (calls("cluster.rdma_post"), "count"),
        "cluster.transport.self_s": (self_s("cluster.rdma_post")
                                     + self_s("cluster.transport"), "s"),
        "ft.agree_min.calls": (calls("ft.agree_min"), "count"),
        "ft.agree_min.self_s": (self_s("ft.agree_min"), "s"),
        "ft.scan_rounds": (calls("ft.scan"), "count"),
        "ft.scan.self_s": (self_s("ft.scan"), "s"),
        "ft.recovery.calls": (calls("ft.recovery"), "count"),
        "ft.recovery.self_s": (self_s("ft.recovery"), "s"),
        "ft.redo_frac": (ratio(steps - nominal, steps), "frac"),
        "checkpoint.write.calls": (calls("checkpoint.write"), "count"),
        "checkpoint.write.self_s": (self_s("checkpoint.write"), "s"),
        "checkpoint.read.calls": (calls("checkpoint.read"), "count"),
        "checkpoint.read.self_s": (self_s("checkpoint.read"), "s"),
        "checkpoint.mirror_ops": (phases.get("mirror_ops", 0), "count"),
        "checkpoint.scatter_ops": (phases.get("scatter_ops", 0), "count"),
        "checkpoint.restore_ops": (phases.get("restore_ops", 0), "count"),
        "checkpoint.bytes": (phases.get("mirror_bytes", 0)
                             + phases.get("scatter_bytes", 0)
                             + phases.get("restore_bytes", 0), "count"),
        "checkpoint.pack_mb_s": (ratio(agg["pack_bytes"] / 1e6,
                                       self_s("checkpoint.pack")), "MB/s"),
        "spmvm.multiply.calls": (calls("spmvm.multiply"), "count"),
        "spmvm.multiply.self_s": (self_s("spmvm.multiply"), "s"),
        "spmvm.mflops": (ratio(2.0 * agg["multiply_nnz"] / 1e6,
                               self_s("spmvm.multiply")), "Mflop/s"),
        "spmvm.matgen_s": (by["spmvm.matgen"]["incl_s"], "s"),
        "solvers.lanczos_step.calls": (calls("solvers.lanczos_step"),
                                       "count"),
        "solvers.lanczos_step.self_s": (self_s("solvers.lanczos_step"), "s"),
        "solvers.tridiag_s": (by["solvers.tridiag"]["incl_s"], "s"),
        "workloads.model_run.self_s": (self_s("workloads.model_run"), "s"),
        "trace.unattributed_s": (agg["unattributed_s"], "s"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (agg["layer_self_s"][layer], "s")
    return m


def traced_run(workload, untraced_wall: float
               ) -> Tuple[Dict[str, Any], List[List[Dict]], List[str]]:
    """Two traced passes: ({metrics, report}, records per pass, defects)."""
    import numpy as np

    from ledger import Ledger

    ledger = Ledger()
    ledger.install()
    per_pass, passes, aggs = [], [], []
    try:
        for _ in range(TRACED_PASSES):
            ledger.reset()
            traced = run_pass(workload.scenarios, ledger)
            agg = ledger.aggregate(traced.wall)
            aggs.append(agg)
            passes.append(traced.records)
            per_pass.append(layer_metrics(agg, traced.records))
        spans = ledger.span_table()
    finally:
        ledger.uninstall()
    defects = []
    for name, (_, unit) in per_pass[0].items():
        values = {m[name][0] for m in per_pass}
        if unit == "count" and len(values) > 1:
            defects.append(f"count {name} differs between traced passes: "
                           f"{sorted(values)}")
    for name in aggs[0]["by_name"]:
        values = {a["by_name"][name]["calls"] for a in aggs}
        if len(values) > 1:
            defects.append(f"calls of {name} differ between traced passes: "
                           f"{sorted(values)}")
    metrics: Dict[str, Any] = {}
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        metrics[name] = (statistics.median(values), unit)
    traced_wall = statistics.median(a["wall_s"] for a in aggs)
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0,
                                      "frac")
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"{workload.name}.spans.npz", **spans)
    report = {"traced_wall_s": [a["wall_s"] for a in aggs],
              "untraced_wall_s": untraced_wall, "passes": aggs}
    return {"metrics": metrics, "report": report}, passes, defects


def layer_table_md(workload, metrics: Dict[str, Any],
                   report: Dict[str, Any]) -> str:
    """One Markdown row per layer: self time, share, counts and ratios."""
    from ledger import LAYER_EFFECTS, LAYERS

    wall = statistics.median(report["traced_wall_s"])
    lines = [
        f"# Per-layer ledger: {workload.name}, seed {workload.seed}",
        "",
        f"Traced wall {wall:.3f} s (median of {TRACED_PASSES} passes), "
        f"untraced wall {report['untraced_wall_s']:.3f} s, overhead "
        f"{metrics['trace.overhead_frac'][0]:.1%}.",
        "",
        "| layer | self [s] | share | counts and ratios | should move |",
        "|---|---:|---:|---|---|",
    ]
    total = 0.0
    for layer in LAYERS:
        self_s = metrics[f"layer.{layer}.self_s"][0]
        total += self_s
        related = ", ".join(
            f"`{name}` {_fmt(value)}{'' if unit == 'count' else ' ' + unit}"
            for name, (value, unit) in metrics.items()
            if name.startswith(layer + ".") and not name.endswith("self_s"))
        lines.append(f"| {layer} | {self_s:.3f} | {self_s / wall:.1%} | "
                     f"{related} | {LAYER_EFFECTS[layer]} |")
    rest = metrics["trace.unattributed_s"][0]
    total += rest
    lines.append(f"| (unattributed) | {rest:.3f} | {rest / wall:.1%} | | |")
    lines.append(f"| **sum** | {total:.3f} | {total / wall:.1%} | "
                 f"equals the traced wall | |")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4g}"


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Host-cost benchmark of the FT-GASPI simulator.")
    parser.add_argument("--workload", required=True,
                        choices=("fig4-256", "weak-2048-repl",
                                 "numeric-graphene"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measured wall seconds (whole passes, at "
                             "least %d)" % MIN_PASSES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from traced passes")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    t_start = time.perf_counter()
    host = fingerprint()
    setup_raw, setup_ref = (([], []) if args.trace
                            else measure_setup(args.workload, args.seed))
    from check import Checker

    workload = workloads.build(args.workload, args.seed)
    print(f"workload {workload.name} seed {workload.seed}: "
          f"{len(workload.scenarios)} scenario(s), inputs {workload.inputs}")
    print(f"host {json.dumps(host)}")

    kernel = hostspeed.Kernel()
    warm = run_pass(workload.warmup, kernel=kernel)
    passes = [(workload.warmup, warm.records)]
    measured: List[Pass] = []
    defects: List[str] = []
    report: Dict[str, Any] = {}
    if args.trace:
        # one untraced pass is the reference for the tracing overhead
        measured.append(run_pass(workload.scenarios, kernel=kernel))
        passes.append((workload.scenarios, measured[0].records))
        traced, traced_records, defects = traced_run(workload,
                                                     measured[0].wall)
        passes.extend((workload.scenarios, r) for r in traced_records)
        result_metrics = traced["metrics"]
        report["trace"] = traced["report"]
    else:
        rss = 0.0
        while ((len(measured) < MIN_PASSES
                or sum(p.wall for p in measured) < args.seconds)
               and time.perf_counter() - t_start < RUN_CAP_S):
            measured.append(run_pass(workload.scenarios, kernel=kernel))
            rss = rss or peak_rss_mb()
            passes.append((workload.scenarios, measured[-1].records))
        steps = sum(r.get("steps", 0) for r in measured[0].records)
        result_metrics = {
            "setup_s": (statistics.median(setup_ref), "s"),
            "wall_s": (statistics.median(p.wall_ref for p in measured), "s"),
            "cpu_s": (statistics.median(p.cpu_ref for p in measured), "s"),
            "sim_steps_per_s": (statistics.median(
                steps / p.wall_ref for p in measured), "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }

    reference = workloads.reference_ritz(workload)
    checker = Checker(workload, reference)
    failed, messages = check_passes(checker, passes)
    attempted = sum(len(records) for _, records in passes)
    correct = failed == 0 and not defects

    print(f"correctness: {attempted - failed}/{attempted} scenario runs "
          f"pass ({checker.digest_note}); fail_frac {failed / attempted:g}")
    for line in messages + [f"DEFECT {d}" for d in defects]:
        print(f"  {line}")
    if not args.trace:
        print(f"raw host seconds: warm-up {warm.wall:.3f}, passes "
              f"{[round(p.wall, 3) for p in measured]}, set-up "
              f"{[round(t, 4) for t in setup_raw]}; host speed "
              f"{[round(hostspeed.REFERENCE_S / p.kernel[0], 3) for p in measured]}"
              f" x reference")
    for name, (value, unit) in result_metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{workload.seed}"
    report.update({
        "workload": workload.name, "seed": workload.seed, "host": host,
        "traced": args.trace, "correct": correct, "attempted": attempted,
        "failed": failed, "fail_frac": failed / attempted,
        "problems": messages, "defects": defects,
        "samples": {
            "setup_raw_s": setup_raw, "setup_ref_s": setup_ref,
            "wall_raw_s": [p.wall for p in measured],
            "wall_ref_s": [p.wall_ref for p in measured],
            "cpu_raw_s": [p.cpu for p in measured],
            "cpu_ref_s": [p.cpu_ref for p in measured],
            "kernel_s": [p.kernel for p in measured],
            "warmup_wall_s": warm.wall},
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result_metrics.items()},
    })
    suffix = "trace" if args.trace else "e2e"
    (OUT / f"{stem}.{suffix}.json").write_text(
        json.dumps(report, indent=1, default=str))
    if args.trace:
        (OUT / f"{stem}.trace.md").write_text(
            layer_table_md(workload, result_metrics, report["trace"]))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result_metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
