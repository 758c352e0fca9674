"""The Figure-4 recovery split charges each epoch its own injection."""

from repro.experiments.common import run_ft_scenario
from repro.workloads import scaled_spec


def _outcome(kills):
    spec = scaled_spec(workers=6, iterations=160, name="split")
    return run_ft_scenario("split", spec, kill_times=kills, n_spares=4)


def test_detection_split_pairs_epochs_with_their_own_injections():
    """Kills 0.3 s apart are caught in one epoch; the later, separate kill
    is charged from its own injection, not the second distinct kill time."""
    staggered = _outcome([(30.0, 1), (30.3, 2), (80.0, 3)])
    together = _outcome([(30.0, 1), (30.0, 2), (80.0, 3)])
    epochs = [d.failed for d in staggered.result.fd_stats.detections]
    assert epochs == [(1, 2), (3,)]
    assert staggered.n_recoveries == together.n_recoveries == 2
    assert staggered.detection_time == together.detection_time
    assert 0 < staggered.detection_time < 20.0
