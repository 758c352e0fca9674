"""The host-time ledger of ``perfbench/`` still finds every target.

``perfbench/ledger.py`` wraps simulator entry points by module and
qualified name.  A rename under ``src/`` that drops one of those names
would otherwise only surface when the benchmark runs; here it fails the
test suite.  The ledger is loaded from its file, unmodified.
"""

import importlib
import importlib.util
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[2] / "perfbench" / "ledger.py"


def _load_ledger():
    spec = importlib.util.spec_from_file_location("perfbench_ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _raw(module_name, qualname):
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_every_ledger_target_resolves_and_uninstalls_cleanly():
    ledger_mod = _load_ledger()
    targets = [(mod, qual) for _layer, _name, mod, qual, _kind
               in ledger_mod.TARGETS]
    before = [_raw(mod, qual) for mod, qual in targets]
    ledger = ledger_mod.Ledger()
    ledger.install()
    try:
        wrapped = [_raw(mod, qual) for mod, qual in targets]
        assert all(w is not b for w, b in zip(wrapped, before))
    finally:
        ledger.uninstall()
    assert [_raw(mod, qual) for mod, qual in targets] == before
