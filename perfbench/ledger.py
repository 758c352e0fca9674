"""Per-layer host-time ledger, traced from outside the program.

:class:`Ledger` wraps the public entry points of each simulator layer
(``sim``, ``cluster``, ``gaspi``, ``ft``, ``checkpoint``, ``spmvm``,
``solvers``, ``workloads``) while it is installed and records one span per
call.  A generator function gets one span per *resume* (each ``send``,
``throw`` or ``close``), so only host time spent inside the layer's frames
counts, never the virtual time a process sleeps.  Spans nest along the
host call stack: each span stores its name, start, end, parent span and
scenario id in flat in-memory arrays, and a layer's self time is the sum of
its spans' durations minus the part their child spans cover.  Time outside
every span is ``trace.unattributed_s``; the layer self times plus that
remainder add up to the traced wall exactly.

Nothing under ``src/`` changes: wrappers replace class attributes and
module globals (including every ``from x import f`` copy in loaded
``repro`` modules) and :meth:`Ledger.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

SPAN = "span"    # time every call (every resume for a generator)
COUNT = "count"  # count calls only: hot leaf calls a span would swamp

#: (layer, span name, module, qualified attribute, kind).  The span name is
#: what the per-layer metrics refer to; several targets may share one.
TARGETS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("sim", "sim.run", "repro.sim.kernel", "Simulator.run", SPAN),
    ("cluster", "cluster.machine_build", "repro.cluster.machine",
     "Machine.__init__", SPAN),
    *(("cluster", "cluster.rdma_post", "repro.cluster.transport",
       f"Transport.{m}", SPAN)
      for m in ("post_rdma", "post_rdma_list", "post_rdma_round",
                "post_rdma_scatter")),
    *(("cluster", "cluster.transport", "repro.cluster.transport",
       f"Transport.{m}", SPAN)
      for m in ("post_ping", "post_ping_sweep", "post_control", "post_kill",
                "mark_dead")),
    ("gaspi", "gaspi.world_build", "repro.gaspi.runtime",
     "GaspiWorld.__init__", SPAN),
    ("gaspi", "gaspi.allreduce", "repro.gaspi.context",
     "GaspiContext.allreduce", SPAN),
    ("gaspi", "gaspi.group_commit", "repro.gaspi.context",
     "GaspiContext.group_commit", SPAN),
    ("gaspi", "gaspi.collective.arrive", "repro.gaspi.collectives",
     "CollectiveEngine.arrive", COUNT),
    *(("gaspi", "gaspi.rdma", "repro.gaspi.context", f"GaspiContext.{m}",
       SPAN)
      for m in ("write", "read", "notify", "write_notify", "write_list",
                "write_list_notify", "write_round", "read_list")),
    *(("gaspi", "gaspi.blocking", "repro.gaspi.context", f"GaspiContext.{m}",
       SPAN)
      for m in ("barrier", "wait", "notify_waitsome", "passive_receive",
                "proc_ping", "proc_ping_sweep", "proc_kill")),
    ("ft", "ft.agree_min", "repro.ft.app", "FTContext.agree_min", SPAN),
    ("ft", "ft.scan", "repro.ft.detector", "scan_once", SPAN),
    ("ft", "ft.fd_process", "repro.ft.detector", "fd_process", SPAN),
    ("ft", "ft.recovery", "repro.ft.recovery", "perform_recovery", SPAN),
    *(("checkpoint", "checkpoint.write", mod, f"{cls}.write_checkpoint", SPAN)
      for mod, cls in (("repro.checkpoint.manager", "CheckpointLib"),
                       ("repro.checkpoint.replicated",
                        "ReplicatedCheckpointLib"))),
    *(("checkpoint", "checkpoint.read", mod, f"{cls}.read_checkpoint", SPAN)
      for mod, cls in (("repro.checkpoint.manager", "CheckpointLib"),
                       ("repro.checkpoint.replicated",
                        "ReplicatedCheckpointLib"))),
    *(("checkpoint", "checkpoint.flush", "repro.checkpoint.manager",
       f"CheckpointManager.{m}", SPAN)
      for m in ("_flush", "_flush_scatter", "commit_round")),
    ("checkpoint", "checkpoint.pack", "repro.checkpoint.serialization",
     "pack_checkpoint_into", SPAN),
    ("checkpoint", "checkpoint.unpack", "repro.checkpoint.serialization",
     "unpack_checkpoint", SPAN),
    ("spmvm", "spmvm.multiply", "repro.spmvm.spmv", "SpMVMEngine.multiply",
     SPAN),
    ("spmvm", "spmvm.distribute", "repro.spmvm.dist_matrix",
     "distribute_matrix", SPAN),
    ("spmvm", "spmvm.matgen", "repro.spmvm.matgen.graphene",
     "GrapheneSheet.generate_rows", SPAN),
    ("solvers", "solvers.lanczos_step", "repro.solvers.lanczos",
     "DistributedLanczos.step", SPAN),
    ("solvers", "solvers.ft_lanczos", "repro.solvers.ft_lanczos",
     "FTLanczos.run", SPAN),
    ("solvers", "solvers.tridiag", "repro.solvers.tridiag", "ql_eigenvalues",
     SPAN),
    ("workloads", "workloads.model_run", "repro.workloads.kernels",
     "ModelLanczosProgram.run", SPAN),
)

LAYERS = ("sim", "cluster", "gaspi", "ft", "checkpoint", "spmvm", "solvers",
          "workloads")

#: which end-to-end metric each layer's metrics should move, on which
#: workload (a change to one layer names its claim from this table)
LAYER_EFFECTS = {
    "sim": "wall_s on fig4-256",
    "cluster": "setup_s and wall_s on weak-2048-repl",
    "gaspi": "allreduce/arrivals: wall_s on fig4-256; group_commit/"
             "world_build_s: wall_s and peak_rss_mb on weak-2048-repl",
    "ft": "agree_min: wall_s on fig4-256; scan/recovery: wall_s on "
          "weak-2048-repl",
    "checkpoint": "wall_s on weak-2048-repl (scatter + restore) and "
                  "fig4-256 (mirror)",
    "spmvm": "wall_s on numeric-graphene only",
    "solvers": "wall_s on numeric-graphene only",
    "workloads": "wall_s on fig4-256",
}

#: span names whose wrapper counts ``ReturnCode.TIMEOUT`` results
_RETURN_CODES = ("gaspi.allreduce", "gaspi.group_commit", "gaspi.blocking")


class Ledger:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self._ids: Dict[str, int] = {}
        for layer, name, *_ in TARGETS:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
                self.layer_of.append(layer)
        self.counts = [0] * len(self.names)
        self.scenario = -1
        self._stack: List[int] = []
        self._originals: List[Tuple[Any, str, Any]] = []
        self._simulators: List[Any] = []
        self.reset()

    # ------------------------------------------------------------------
    # span storage
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop every span and count (between traced passes)."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_scenario = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # in place: the installed wrappers hold a reference to this list
        self.counts[:] = [0] * len(self.names)
        self.timeouts = 0
        self.sim_events = 0
        self.pack_bytes = 0
        self.multiply_nnz = 0
        self._stack.clear()

    def begin_scenario(self, scenario: int) -> None:
        self.scenario = scenario
        self._simulators.clear()

    def end_scenario(self) -> None:
        """Fold the scenario's simulators' event counters into the tally."""
        self.sim_events += sum(s.scheduled_count for s in self._simulators)
        self._simulators.clear()
        self.scenario = -1

    def _push(self, nid: int) -> int:
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_scenario.append(self.scenario)
        self.span_end.append(0.0)
        stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _pop(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap_function(self, fn: Callable, nid: int) -> Callable:
        push, pop, counts = self._push, self._pop, self.counts

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            counts[nid] += 1
            idx = push(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(idx)
        return timed

    def _wrap_counter(self, fn: Callable, nid: int) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[nid] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap_generator(self, fn: Callable, nid: int,
                        return_codes: bool) -> Callable:
        """Time every resume of the generator ``fn`` returns.

        The wrapper's loop is the ``yield from`` expansion with a span around
        each ``send``/``throw``/``close`` of the inner generator.
        """
        from repro.gaspi.constants import ReturnCode

        timeout = ReturnCode.TIMEOUT
        ledger = self
        push, pop, counts = self._push, self._pop, self.counts

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            counts[nid] += 1
            gen = fn(*args, **kwargs)
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                idx = push(nid)
                try:
                    if error is None:
                        request = gen.send(value)
                    else:
                        request = gen.throw(error)
                except StopIteration as stop:
                    pop(idx)
                    result = stop.value
                    if return_codes and (
                            result is timeout
                            or (type(result) is tuple and result
                                and result[0] is timeout)):
                        ledger.timeouts += 1
                    return result
                except BaseException:
                    pop(idx)
                    raise
                pop(idx)
                try:
                    value = yield request
                    error = None
                except GeneratorExit:
                    idx = push(nid)
                    try:
                        gen.close()
                    finally:
                        pop(idx)
                    raise
                except BaseException as exc:  # forwarded into ``gen``
                    error = exc
        return timed

    def _make_wrapper(self, fn: Callable, name: str, kind: str) -> Callable:
        nid = self._ids[name]
        if kind == COUNT:
            return self._wrap_counter(fn, nid)
        if name == "spmvm.multiply":
            return self._wrap_multiply(fn, nid)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, nid, name in _RETURN_CODES)
        if name == "checkpoint.pack":
            return self._wrap_pack(fn, nid)
        if name == "sim.run":
            return self._wrap_sim_run(fn, nid)
        return self._wrap_function(fn, nid)

    def _wrap_multiply(self, fn: Callable, nid: int) -> Callable:
        """Also tally the local non-zeros each spMVM call multiplies."""
        timed = self._wrap_generator(fn, nid, return_codes=False)
        ledger = self

        @functools.wraps(fn)
        def multiply(engine, *args, **kwargs):
            ledger.multiply_nnz += engine.matrix.local.nnz
            return timed(engine, *args, **kwargs)
        return multiply

    def _wrap_pack(self, fn: Callable, nid: int) -> Callable:
        timed = self._wrap_function(fn, nid)
        ledger = self

        @functools.wraps(fn)
        def packed(*args, **kwargs):
            written = timed(*args, **kwargs)
            ledger.pack_bytes += written
            return written
        return packed

    def _wrap_sim_run(self, fn: Callable, nid: int) -> Callable:
        timed = self._wrap_function(fn, nid)
        simulators = self._simulators

        @functools.wraps(fn)
        def run(sim, *args, **kwargs):
            if not any(s is sim for s in simulators):
                simulators.append(sim)
            return timed(sim, *args, **kwargs)
        return run

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        if self._originals:
            raise RuntimeError("ledger already installed")
        for _layer, name, module_name, qualname, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner: Any = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._make_wrapper(fn, name, kind)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._replace(owner, attr, raw, wrapped)
            if owner is module:
                # rebind every ``from module import fn`` copy as well
                for other in list(sys.modules.values()):
                    mod_name = getattr(other, "__name__", "")
                    if (other is module or not mod_name.startswith("repro")
                            or other.__dict__.get(attr) is not raw):
                        continue
                    self._replace(other, attr, raw, wrapped)

    def _replace(self, owner: Any, attr: str, raw: Any, wrapped: Any) -> None:
        self._originals.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def aggregate(self, wall_s: float) -> Dict[str, Any]:
        """Self time, inclusive time and calls per span name and layer."""
        n_names = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        if len(self._stack):
            raise RuntimeError("aggregate() with spans still open")
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        self_by_name = np.bincount(name, weights=self_time,
                                   minlength=n_names)
        # inclusive time counts only outermost spans of each name, so a
        # recursive or re-entrant name is not counted twice
        outer = np.ones(len(dur), dtype=bool)
        outer[has_parent] = name[has_parent] != name[parent[has_parent]]
        incl_by_name = np.bincount(name[outer], weights=dur[outer],
                                   minlength=n_names)
        spans_by_name = np.bincount(name, minlength=n_names)
        roots = dur[~has_parent].sum()
        by_name = {
            self.names[i]: {
                "layer": self.layer_of[i],
                "calls": int(self.counts[i]),
                "spans": int(spans_by_name[i]),
                "self_s": float(self_by_name[i]),
                "incl_s": float(incl_by_name[i]),
            }
            for i in range(n_names)
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for entry in by_name.values():
            layers[entry["layer"]] += entry["self_s"]
        return {
            "wall_s": wall_s,
            "spans": int(len(dur)),
            "unattributed_s": float(wall_s - roots),
            "by_name": by_name,
            "layer_self_s": layers,
            "timeouts": int(self.timeouts),
            "sim_events": int(self.sim_events),
            "pack_bytes": int(self.pack_bytes),
            "multiply_nnz": int(self.multiply_nnz),
        }

    def span_table(self) -> Dict[str, np.ndarray]:
        """The raw spans as arrays (written out after the traced run)."""
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "scenario": np.frombuffer(self.span_scenario,
                                      dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }
