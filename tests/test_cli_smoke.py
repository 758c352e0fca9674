"""One cheap real invocation of every ``python -m repro`` subcommand.

Each runs in-process from a temporary working directory, so whatever it
writes lands under ``tmp_path``.  ``bench --scaling`` runs against a
copy of the committed ``BENCH_core.json`` and must refresh only the
``current`` tables: the ``seed`` tables are a frozen baseline.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.__main__ import main

from tests.test_cli_help import SUBCOMMANDS

BENCH_CORE = Path(__file__).resolve().parents[1] / "BENCH_core.json"

SMOKE_ARGS = {
    "figure4": ["--scale", "tiny"],
    "table1": ["--nodes", "8", "--runs", "1"],
    "ablations": ["--which", "commit"],
    "compare": ["--sizes", "8", "--backend", "neighbor"],
    "trace": ["figure4", "--quick", "--out", "trace-out"],
    "bench": ["--world-build", "16"],
}


def test_every_subcommand_has_a_smoke_run():
    assert set(SMOKE_ARGS) == set(SUBCOMMANDS)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_runs(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([command, *SMOKE_ARGS[command]]) == 0
    assert capsys.readouterr().out.strip()
    if command == "trace":
        out = tmp_path / "trace-out"
        assert (out / "trace.jsonl").stat().st_size > 0
        assert json.loads((out / "chrome_trace.json").read_text())


def test_bench_scaling_refreshes_current_and_keeps_seed(tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "BENCH_core.json"
    shutil.copyfile(BENCH_CORE, report)
    before = json.loads(report.read_text())
    assert main(["bench", "--scaling", "--ranks", "8",
                 "--out", str(report)]) == 0
    after = json.loads(report.read_text())

    def frozen(rep):
        return json.dumps([rep["seed"], rep["scaling"]["seed"]],
                          sort_keys=True)

    assert frozen(after) == frozen(before)
    assert after["scaling"]["current"]["ranks"] == [8]
    assert after["current"]["environment"] is not None
