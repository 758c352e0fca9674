"""Reference implementations kept only to prove a fast path equivalent.

None of these ship in ``src/``; each equivalence test installs or calls
its oracle itself:

* :mod:`~tests.oracles.scalar_kernels` — the pre-vectorization
  rank-state loops (``ScalarKernels``), the per-target notice broadcast
  and the sequential ping sweep, swapped into the production modules
  together by ``install(monkeypatch)``;
* :mod:`~tests.oracles.eager_world` — the eager GASPI world
  construction (``install(monkeypatch)``, ``build_world``);
* :mod:`~tests.oracles.helper_mirror` — ``HelperMirrorLib``, the
  per-library helper-thread neighbor mirror of paper Fig. 2;
* :mod:`~tests.oracles.placement` — ``replica_holders``, the per-rank
  replica placement walk;
* :mod:`~tests.oracles.per_rank_loop` — the guarded solver loop with one
  generator resume per rank per step.
"""
