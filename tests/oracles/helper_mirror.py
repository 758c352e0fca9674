"""The helper-thread neighbor mirror, the oracle of the copy plane.

:class:`~repro.perf.helper_mirror.HelperMirrorLib` stays in ``src/`` only
because ``bench --scaling`` measures the copy plane's speedup against it
live; the equivalence tests import it from here.
"""

from repro.perf.helper_mirror import HelperMirrorLib

__all__ = ["HelperMirrorLib"]
