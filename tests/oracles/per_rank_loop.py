"""The guarded solver loop with one generator resume per rank per step.

This is the model kernel's loop and the bare Figure-4 loop as they ran
before lockstep cohorts: every rank sleeps, reads its failure flag and
joins the MIN allreduce on its own.  The production loops
(:meth:`repro.workloads.kernels.ModelLanczosProgram.run`,
:func:`repro.experiments.figure4.run_bare`) must stay bit-identical to
these in virtual time, timelines, counters and trace streams.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.checkpoint.manager import CheckpointConfig, CheckpointLib
from repro.cluster import MachineSpec
from repro.ft.app import FTContext
from repro.gaspi import AllreduceOp, ReturnCode, run_gaspi
from repro.sim import Sleep
from repro.workloads.kernels import ModelLanczosProgram
from repro.workloads.spec import WorkloadSpec


class PerRankModelProgram(ModelLanczosProgram):
    """:class:`ModelLanczosProgram` with the per-rank solver loop."""

    def run(self, ftx: FTContext, work: Dict[str, int]):
        spec = self.spec
        step = work["step"]
        iterations_executed = 0
        tracer = ftx.ctx.tracer
        while step < spec.n_iterations:
            t0 = ftx.now
            yield from ftx.agree_min(step)
            yield Sleep(spec.iteration_time)
            step += 1
            iterations_executed += 1
            ftx.count("iterations")
            if tracer.enabled:
                tracer.emit(ftx.now, ftx.ctx.rank, "solver_iter",
                            dur=ftx.now - t0, step=step)
            if step % spec.checkpoint_interval == 0:
                yield from ftx.checkpoint(
                    step // spec.checkpoint_interval,
                    {"step": np.int64(step)},
                    nominal_bytes=spec.checkpoint_bytes_per_worker,
                )
        return {"steps": step, "iterations_executed": iterations_executed}


def per_rank_bare(spec: WorkloadSpec, checkpoints: bool) -> float:
    """:func:`repro.experiments.figure4.run_bare`, per rank."""

    def main(ctx):
        group = ctx.group_create(tag=0)
        ctx.group_add_many(group, range(spec.n_workers))
        ret = yield from ctx.group_commit(group)
        assert ret is ReturnCode.SUCCESS
        lib = None
        if checkpoints:
            lib = CheckpointLib(ctx, ctx.rank, list(range(spec.n_workers)),
                                config=CheckpointConfig(tag="state"))
        yield Sleep(spec.setup_time)
        step = 0
        while step < spec.n_iterations:
            ret, _ = yield from ctx.allreduce(step, AllreduceOp.MIN, group)
            assert ret is ReturnCode.SUCCESS
            yield Sleep(spec.iteration_time)
            step += 1
            if lib is not None and step % spec.checkpoint_interval == 0:
                yield from lib.write_checkpoint(
                    step // spec.checkpoint_interval,
                    {"step": np.int64(step)},
                    nominal_bytes=spec.checkpoint_bytes_per_worker,
                )
        if lib is not None:
            lib.shutdown()
        return ctx.now

    run = run_gaspi(main, machine_spec=MachineSpec(n_nodes=spec.n_workers))
    return max(run.result(r) for r in range(spec.n_workers))
