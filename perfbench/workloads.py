"""The benchmark's three workloads, built from a seed.

Each workload is a closed loop of scenarios: the runner starts a scenario
only after the previous one has returned.  The seed derives the inputs
only (which worker ranks are killed, a sub-iteration jitter on the kill
times, and the graphene disorder seed); the size of every scenario is
fixed, so host cost does not depend on the seed.  Seed ``0`` keeps the
library's own placement: the Figure-4 kill schedule on ranks 1, 2, 3 and
rank 3 for the scaling rung.  Each workload also names its warm-up
scenarios, run once before the measured passes.

A scenario returns a compact record of its virtual-time results (no
simulator objects survive it):

``row``          Figure-4 row: runtime, computation, redo, re-init,
                 detection [virtual s] and the recovery count
``ckpt_phases``  :attr:`CheckpointManager.phase_totals` of the run
``steps``        worker-iterations executed, redo included
``nominal``      worker-iterations of a failure-free run
``eigenvalues``  lowest Ritz values (numeric workload only)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

DEFAULT_SEED = 0

WORKLOADS = ("fig4-256", "weak-2048-repl", "numeric-graphene")

#: numeric workload shape (the real-arithmetic Lanczos case)
GRAPHENE_CELLS = (200, 200)
GRAPHENE_DISORDER = 1.0
GRAPHENE_DEFAULT_DISORDER_SEED = 7
NUMERIC_WORKERS = 16
NUMERIC_SPARES = 4
NUMERIC_STEPS = 200
NUMERIC_CP = 20
#: paced step (virtual seconds) so both kills land mid-run, in two epochs
NUMERIC_SPMV_S = 0.04
NUMERIC_VECTOR_S = 0.01
#: lowest Ritz values compared against the sequential reference
N_RITZ_CHECKED = 3


@dataclass
class Scenario:
    name: str
    run: Callable[[], Dict[str, Any]]
    expected_recoveries: int
    #: phase_totals keys that must be non-zero in a correct run
    required_phases: tuple = ()
    #: the generated inputs in a printable form (kills, disorder seed)
    inputs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    scenarios: List[Scenario]
    #: run once, untimed, before the measured passes: every code path of
    #: the workload at a fraction of a pass's cost
    warmup: List[Scenario]
    #: numeric workloads: the matrix generator the reference runs on
    generator: Optional[Any] = None

    @property
    def inputs(self) -> Dict[str, Any]:
        return {s.name: s.inputs for s in self.scenarios if s.inputs}


def _row(outcome) -> List[float]:
    return [outcome.total_runtime, outcome.computation_time,
            outcome.redo_work_time, outcome.reinit_time,
            outcome.detection_time, outcome.n_recoveries]


def _executed_iterations(result) -> int:
    return sum(int(w.get("counters", {}).get("iterations", 0))
               for w in result.worker_results().values())


def _outcome_record(outcome) -> Dict[str, Any]:
    """Compact record of a ScenarioOutcome; drops the simulated world."""
    spec = outcome.spec
    nominal = spec.n_workers * spec.n_iterations
    steps = (nominal if outcome.result is None
             else _executed_iterations(outcome.result))
    return {
        "row": _row(outcome),
        "ckpt_phases": dict(outcome.ckpt_phases),
        "steps": steps,
        "nominal": nominal,
    }


# ----------------------------------------------------------------------
# fig4-256
# ----------------------------------------------------------------------
def _fig4(seed: int) -> Workload:
    from repro.experiments.figure4 import scenario_tasks
    from repro.workloads.spec import scaled_spec

    spec = scaled_spec(workers=256, iterations=350, name="fig4-256")
    rng = random.Random(seed)
    scenarios: List[Scenario] = []
    for task in scenario_tasks(spec, keep_results=True):
        kwargs = dict(task.kwargs)
        kills = kwargs.get("kill_times") or []
        if kills and seed != DEFAULT_SEED:
            ranks = rng.sample(range(1, spec.n_workers), len(kills))
            jitter = rng.uniform(0.0, 0.25) * spec.iteration_time
            kwargs["kill_times"] = [(t + jitter, rank)
                                    for (t, _), rank in zip(kills, ranks)]
        bare = task.scenario.startswith("w/o HC")

        def run(task=task, kwargs=kwargs) -> Dict[str, Any]:
            return _outcome_record(task.fn(*task.args, **kwargs))

        scenarios.append(Scenario(
            name=task.scenario, run=run,
            expected_recoveries=len({t for t, _ in kills}),
            # the bare bars run without the FT stack's checkpoint manager
            required_phases=() if bare else ("mirror_ops",),
            inputs={"kills": kwargs["kill_times"]} if kills else {},
        ))
    # one single-failure scenario runs the bare loop's collectives, the FT
    # loop, checkpoints and a recovery: every path of the pass
    warmup = [s for s in scenarios if s.name == "1 fail recovery"]
    return Workload("fig4-256", seed, scenarios, warmup)


# ----------------------------------------------------------------------
# weak-2048-repl
# ----------------------------------------------------------------------
def _weak_scenario(workers: int, seed: int) -> Scenario:
    from repro.checkpoint.manager import CheckpointConfig
    from repro.experiments.common import run_ft_scenario
    from repro.gaspi.collectives import CollectiveCosts
    from repro.perf.scaling import ITERATIONS, N_SPARES
    from repro.workloads.spec import scaled_spec

    spec = scaled_spec(workers=workers, iterations=ITERATIONS,
                       name=f"weak-{workers}")
    # Set-up starts once the initial worker-group commit ends (55.3 s of
    # virtual time at 2048 workers) and lasts spec.setup_time.  The kill
    # lands in iteration 11 of 25, past the third checkpoint (every 3
    # iterations), so recovery restores through the replicated read_list.
    # (The ladder's own KILL at t = 10.5 s falls inside the initial commit
    # and never restores a checkpoint.)
    setup_done = CollectiveCosts().commit(workers) + spec.setup_time
    offset = 10.5
    rank = 3
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        rank = rng.randrange(1, workers)
        offset += rng.uniform(-0.2, 0.2)
    kill = (setup_done + offset * spec.iteration_time, rank)
    config = CheckpointConfig(backend="replicated", replication=2)

    def run() -> Dict[str, Any]:
        return _outcome_record(run_ft_scenario(
            spec.name, spec, kill_times=[kill], n_spares=N_SPARES,
            checkpoint=config))

    return Scenario(
        name=f"weak-{workers}-repl", run=run, expected_recoveries=1,
        required_phases=("scatter_ops", "restore_replicated_ops"),
        inputs={"kill": kill})


def _weak(seed: int) -> Workload:
    scenario = _weak_scenario(2048, seed)
    # the same rung at 256 workers runs every code path in ~1 s
    return Workload("weak-2048-repl", seed, [scenario],
                    warmup=[_weak_scenario(256, seed)])


# ----------------------------------------------------------------------
# numeric-graphene
# ----------------------------------------------------------------------
class PacedSteps:
    """Fixed virtual cost per Lanczos step (spMVM + vector operations)."""

    def spmv_time(self, nnz: int, rows: int) -> float:
        return NUMERIC_SPMV_S

    def vector_ops_time(self, n: int) -> float:
        return NUMERIC_VECTOR_S


def _counted_lanczos_class():
    from repro.solvers.ft_lanczos import FTLanczos

    class CountedFTLanczos(FTLanczos):
        """FTLanczos that counts executed steps like the model kernel."""

        def _build_solver(self, ftx, dmat, state):
            solver = yield from super()._build_solver(ftx, dmat, state)
            step = solver.step

            def counted_step():
                result = yield from step()
                ftx.count("iterations")
                return result

            solver.step = counted_step
            return solver

    return CountedFTLanczos


def _numeric(seed: int) -> Workload:
    from repro.cluster import FaultPlan, MachineSpec
    from repro.checkpoint.manager import CheckpointManager
    from repro.ft import FTConfig, run_ft_application
    from repro.spmvm.matgen import GrapheneSheet

    disorder_seed = GRAPHENE_DEFAULT_DISORDER_SEED
    ranks = (3, 9)
    jitter = 0.0
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        disorder_seed = rng.randrange(1, 2**31)
        ranks = tuple(rng.sample(range(1, NUMERIC_WORKERS), 2))
        jitter = rng.uniform(-0.2, 0.2)
    generator = GrapheneSheet(*GRAPHENE_CELLS, disorder=GRAPHENE_DISORDER,
                              seed=disorder_seed)
    step_s = NUMERIC_SPMV_S + NUMERIC_VECTOR_S
    # the FD scans every 3 s and detects a kill at the second scan after
    # it: the first kill lands just past the second checkpoint and before
    # the t = 3 s scan (detected at 6.5 s), the second one well after that
    # recovery and before the t = 12 s scan (detected at 15.6 s), so the
    # two are recovered in two separate epochs
    setup_done = 0.482
    kills = [(setup_done + (2 * NUMERIC_CP + 0.5 + jitter) * step_s, ranks[0]),
             (10.0 + jitter * step_s, ranks[1])]
    cfg = FTConfig(n_workers=NUMERIC_WORKERS, n_spares=NUMERIC_SPARES,
                   checkpoint_interval=NUMERIC_CP)
    program = _counted_lanczos_class()(
        generator=generator, n_steps=NUMERIC_STEPS, time_model=PacedSteps())

    def run() -> Dict[str, Any]:
        plan = FaultPlan()
        for t, rank in kills:
            plan.kill_process(t, rank)
        result = run_ft_application(
            cfg, program, machine_spec=MachineSpec(n_nodes=cfg.n_ranks),
            fault_plan=plan)
        workers = result.worker_results()
        if any(w["status"] != "done" for w in workers.values()):
            raise RuntimeError("numeric run did not complete: "
                               f"{ {k: w['status'] for k, w in workers.items()} }")
        manager = CheckpointManager.maybe_of(result.run.world)
        runtime = max(w["t_done"] for w in workers.values())
        return {
            "row": [runtime, len(result.fd_stats.detections)],
            "ckpt_phases": {} if manager is None
            else dict(manager.phase_totals),
            "steps": _executed_iterations(result),
            "nominal": NUMERIC_WORKERS * NUMERIC_STEPS,
            "eigenvalues": [float(v) for v in
                            workers[0]["result"]["eigenvalues"]],
        }

    scenario = Scenario(name="ft-lanczos-graphene", run=run,
                        expected_recoveries=2,
                        required_phases=("mirror_ops",),
                        inputs={"kills": kills,
                                "disorder_seed": disorder_seed})
    # a pass is short: the warm-up is one full pass
    return Workload("numeric-graphene", seed, [scenario], [scenario],
                    generator=generator)


def build(name: str, seed: int) -> Workload:
    """The workload's scenarios for ``seed`` (inputs only, nothing run)."""
    factories = {"fig4-256": _fig4, "weak-2048-repl": _weak,
                "numeric-graphene": _numeric}
    if name not in factories:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    return factories[name](seed)


def reference_ritz(workload: Workload) -> Optional[List[float]]:
    """Lowest Ritz values of a sequential Lanczos on the same matrix."""
    if workload.generator is None:
        return None
    from repro.solvers import lanczos_sequential
    from repro.solvers.tridiag import lanczos_matrix_eigenvalues

    alpha, beta = lanczos_sequential(workload.generator.full(), NUMERIC_STEPS)
    ritz = lanczos_matrix_eigenvalues(alpha, beta)
    return [float(v) for v in ritz[:N_RITZ_CHECKED]]
