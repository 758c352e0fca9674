"""Show that the correctness check rejects perturbed scenario outputs.

Run from the repository root::

    python3 perfbench/selftest.py

Runs the Figure-4 "1 fail recovery" scenario and the numeric workload once
(seed 0), confirms the real records pass, then feeds the checker copies
with one value changed: the virtual runtime by one ulp, the detection
time by one ulp, the recovery count, the lowest Ritz value by 1e-8 (with
and without the committed digest) and a scenario that raised.  Exits 0
only when the real records pass and every perturbed copy is rejected.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from check import Checker  # noqa: E402


def perturbations(record):
    """(label, perturbed copy) pairs of one record."""
    def changed(fn):
        out = copy.deepcopy(record)
        fn(out)
        return out

    yield "runtime + 1 ulp", changed(
        lambda r: r["row"].__setitem__(0, math.nextafter(r["row"][0], math.inf)))
    yield "recoveries + 1", changed(
        lambda r: r["row"].__setitem__(-1, r["row"][-1] + 1))
    yield "scenario raised", {"error": "RuntimeError: injected"}
    if "eigenvalues" in record:
        yield "lowest Ritz value + 1e-8", changed(
            lambda r: r["eigenvalues"].__setitem__(0, r["eigenvalues"][0] + 1e-8))
    else:
        yield "detection time + 1 ulp", changed(
            lambda r: r["row"].__setitem__(4, math.nextafter(r["row"][4],
                                                             math.inf)))


def main() -> int:
    ok = True
    cases = [("fig4-256", "1 fail recovery"),
             ("numeric-graphene", "ft-lanczos-graphene")]
    for name, scenario_name in cases:
        workload = workloads.build(name, workloads.DEFAULT_SEED)
        scenario = next(s for s in workload.scenarios
                        if s.name == scenario_name)
        record = scenario.run()
        reference = workloads.reference_ritz(workload)
        checkers = {"digest": Checker(workload, reference),
                    "structure": Checker(workload, reference,
                                         digests_path=None)}
        for kind, checker in checkers.items():
            problems = checker.problems(scenario, record)
            print(f"{name} / {scenario_name} [{kind}] real record: "
                  f"{'PASS' if not problems else problems}")
            ok &= not problems
        for label, bad in perturbations(record):
            for kind, checker in checkers.items():
                problems = checker.problems(scenario, bad)
                # one-ulp changes are invisible to the structural check by
                # design; only the digest must catch them
                must_fail = kind == "digest" or "ulp" not in label
                status = ("rejected" if problems else "accepted")
                print(f"  {label:26s} [{kind:9s}] {status}"
                      + (f": {problems[0]}" if problems else ""))
                if must_fail and not problems:
                    ok = False
        if not checkers["digest"].expected:
            print(f"  no committed digest for {name} seed "
                  f"{workload.seed}: {checkers['digest'].digest_note}")
            ok = False
    print("selftest", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
