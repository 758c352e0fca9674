"""Shared pytest plumbing.

The ``sanitize`` marker attaches the runtime protocol sanitizer
(``repro.gaspi.sanitize``) to every GASPI world a test builds, exactly
as ``REPRO_SANITIZE=1`` does for a whole run::

    @pytest.mark.sanitize
    def test_spmv_round_trip():
        ...

CI runs the gaspi/ft test subset under ``REPRO_SANITIZE=1`` as well, so
the invariants hold both where explicitly requested and across the
whole protocol surface.
"""

import pytest

from repro.gaspi.sanitize import ENV_FLAG


@pytest.fixture(autouse=True)
def _sanitize_marker(request, monkeypatch):
    if request.node.get_closest_marker("sanitize") is not None:
        monkeypatch.setenv(ENV_FLAG, "1")


@pytest.fixture
def scalar_oracle(monkeypatch):
    """Run the rank-state kernels, the notice broadcast and the ping
    sweep on their scalar oracle (``tests/oracles/scalar_kernels.py``)."""
    from tests.oracles import scalar_kernels

    scalar_kernels.install(monkeypatch)
    return scalar_kernels.ScalarKernels


@pytest.fixture
def eager_oracle(monkeypatch):
    """Build every GASPI world of the test eagerly
    (``tests/oracles/eager_world.py``)."""
    from tests.oracles import eager_world as oracle

    oracle.install(monkeypatch)
