"""Planning and static analysis: spare-count/Daly planners and ftlint.

Per-failure lifecycle reports of a run live in :mod:`repro.obs.timeline`
(install a tracer and call ``build_timelines``).
"""

from repro.analysis.planning import (
    SparePlan,
    daly_interval,
    expected_failures,
    expected_overhead_fraction,
    plan_job,
    required_spares,
    survival_probability,
)

__all__ = [
    "SparePlan",
    "daly_interval",
    "expected_failures",
    "expected_overhead_fraction",
    "plan_job",
    "required_spares",
    "survival_probability",
]
