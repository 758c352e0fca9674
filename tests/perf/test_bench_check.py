"""``python -m repro bench --check`` is read-only.

A failing check used to write its own numbers into the baseline file
before evaluating them, so a rerun compared against the regression and
passed.
"""

import json

from repro.perf import bench


def _committed(tmp_path):
    path = tmp_path / "BENCH_core.json"
    report = {"schema": bench.SCHEMA_VERSION,
              "current": {"figure4_tiny_wall_s": 1.0,
                          "environment": {"python": "3"}}}
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def test_failing_check_leaves_the_baseline_bytes_unchanged(tmp_path,
                                                           monkeypatch):
    path = _committed(tmp_path)
    before = path.read_bytes()
    # 3x slower than committed: a regression well past the tolerance
    monkeypatch.setattr(bench, "run_benches",
                        lambda quick=False: {"figure4_tiny_wall_s": 3.0})
    argv = ["--quick", "--check", "--out", str(path)]
    assert bench.main(argv) == 1
    assert path.read_bytes() == before
    assert bench.main(argv) == 1  # and the rerun still fails


def test_plain_run_still_records(tmp_path, monkeypatch):
    path = _committed(tmp_path)
    monkeypatch.setattr(bench, "run_benches",
                        lambda quick=False: {"figure4_tiny_wall_s": 0.5})
    assert bench.main(["--quick", "--out", str(path)]) == 0
    current = json.loads(path.read_text())["current"]
    assert current["figure4_tiny_wall_s"] == 0.5
