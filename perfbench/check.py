"""Correctness check of scenario records.

Virtual-time results are never scored, only checked for identity: a change
that only speeds the simulator up must leave every simulated statistic as
it was.  Two levels:

* **digest** — for a seed with a committed digest in ``digests.json``, the
  record's Figure-4 row, checkpoint phase totals and eigenvalues must hash
  to exactly the recorded value;
* **structure** — for every seed: no scenario raised (every worker ended
  ``done``), the recovery count matches the injected kills, the expected
  checkpoint planes ran, and the lowest numeric Ritz values match a
  sequential Lanczos reference within :data:`RITZ_TOL`.

Digests are trusted only on the Python/NumPy versions they were recorded
with; on any other host the structural check stands alone and the report
says so.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

DIGESTS = Path(__file__).with_name("digests.json")

#: |distributed - sequential| bound on the lowest Ritz values.  Measured
#: differences are a few 1e-15 (reduction order only); an error in the
#: recurrence, a lost step or a wrong restore moves them by >= 1e-6.
RITZ_TOL = 1e-10


def host_versions() -> Dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def digest(record: Dict[str, Any]) -> str:
    """Hash of a record's virtual-time content (floats at full precision)."""
    content = {
        "row": record["row"],
        "ckpt_phases": sorted(record["ckpt_phases"].items()),
        "eigenvalues": record.get("eigenvalues"),
    }
    text = json.dumps(content, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


class Checker:
    """Checks one workload's records for one seed."""

    def __init__(self, workload, reference: Optional[List[float]] = None,
                 digests_path: Optional[Path] = DIGESTS) -> None:
        self.workload = workload
        self.reference = reference
        self.expected: Dict[str, str] = {}
        self.digest_note = "no committed digest for this seed"
        if digests_path is not None and digests_path.exists():
            table = json.loads(digests_path.read_text())
            recorded = table.get("recorded_with", {})
            per_seed = table.get("digests", {}).get(workload.name, {})
            if str(workload.seed) in per_seed:
                if recorded == host_versions():
                    self.expected = per_seed[str(workload.seed)]
                    self.digest_note = "committed digests"
                else:
                    self.digest_note = (
                        f"digests recorded with {recorded}, host has "
                        f"{host_versions()}: structural check only")

    def problems(self, scenario, record: Dict[str, Any]) -> List[str]:
        """Every reason ``record`` is wrong; empty when it is correct."""
        if "error" in record:
            return [f"raised {record['error']}"]
        found: List[str] = []
        row = record["row"]
        if not all(math.isfinite(v) for v in row):
            found.append(f"non-finite row {row}")
        if row[-1] != scenario.expected_recoveries:
            found.append(f"{row[-1]} recoveries, expected "
                         f"{scenario.expected_recoveries}")
        if record["steps"] < record["nominal"]:
            found.append(f"{record['steps']} iterations executed, fewer than "
                         f"the nominal {record['nominal']}")
        for phase in scenario.required_phases:
            if not record["ckpt_phases"].get(phase):
                found.append(f"checkpoint phase {phase} never ran")
        if self.reference is not None:
            got = np.asarray(record.get("eigenvalues", []))[:len(self.reference)]
            if (got.shape != (len(self.reference),)
                    or np.abs(got - self.reference).max() > RITZ_TOL):
                found.append(f"Ritz values {got.tolist()} differ from the "
                             f"sequential reference {self.reference} by more "
                             f"than {RITZ_TOL:g}")
        want = self.expected.get(scenario.name)
        if want is not None and digest(record) != want:
            found.append(f"digest {digest(record)} != committed {want}")
        return found
