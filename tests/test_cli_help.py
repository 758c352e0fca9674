"""Every ``python -m repro`` subcommand prints its ``--help`` and exits 0."""

import pytest

from repro.__main__ import _COMMANDS, main

SUBCOMMANDS = ("figure4", "table1", "ablations", "compare", "bench", "trace")


def test_every_subcommand_is_covered():
    assert set(SUBCOMMANDS) == set(_COMMANDS)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_help(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage:")
    assert "--help" in out
