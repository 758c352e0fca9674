"""Compare two result reports of one workload.

Run from the repository root::

    python3 perfbench/compare.py BASE.e2e.json NEW.e2e.json
    python3 perfbench/compare.py A.trace.json B.trace.json

The reports are the ``.bench_out/<workload>-seed<seed>.{e2e,trace}.json``
files ``run.py`` writes.

End-to-end reports: each metric is compared against its bound in
``BENCHMARK.json``.  When the two host fingerprints differ the comparison
is printed and flagged as cross-host but never gated (exit 0): absolute
host times from different machines say nothing about the code.  On one
host the exit code is 1 when a metric is worse than its bound.

Traced reports of one seed: every count (``*.calls``, ``sim.events``,
``checkpoint.*_ops``, ``checkpoint.bytes`` ...) must repeat exactly; any
difference is a benchmark defect (exit 1).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if base["workload"] != new["workload"]:
        print(f"different workloads: {base['workload']} vs "
              f"{new['workload']}", file=sys.stderr)
        return 2
    if base["traced"] or new["traced"]:
        return compare_counts(base, new)
    same_host = base["host"] == new["host"]
    if not same_host:
        print(f"CROSS-HOST comparison, flagged and not gated:\n"
              f"  base host {base['host']}\n  new host  {new['host']}")
    regressions = []
    print(f"{'metric':18s} {'base':>12s} {'new':>12s} {'worse by':>9s} "
          f"{'bound':>6s}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in base["metrics"] or name not in new["metrics"]:
            continue
        b = base["metrics"][name]["value"]
        n = new["metrics"][name]["value"]
        worse = (n / b - 1.0) if metric["better"] == "lower" else (b / n - 1.0)
        flag = ""
        if worse > metric["bound"]:
            flag = " (not gated)" if not same_host else " REGRESSION"
            if same_host:
                regressions.append(name)
        print(f"{name:18s} {b:12.6g} {n:12.6g} {worse:+9.1%} "
              f"{metric['bound']:6.0%}{flag}")
    if not base["correct"] or not new["correct"]:
        print("at least one run failed its correctness check")
        return 1
    return 1 if regressions else 0


def compare_counts(first, second) -> int:
    """Exact comparison of the count metrics of two traced runs."""
    if not (first["traced"] and second["traced"]):
        print("compare a traced report with a traced report", file=sys.stderr)
        return 2
    if first["seed"] != second["seed"]:
        print("counts repeat only for one seed", file=sys.stderr)
        return 2
    differ = []
    for name, entry in first["metrics"].items():
        if entry["unit"] != "count":
            continue
        other = second["metrics"].get(name, {}).get("value")
        if other != entry["value"]:
            differ.append(name)
        print(f"{name:30s} {entry['value']:>16.0f} {other!s:>16s}"
              f"{'  DIFFERS' if other != entry['value'] else ''}")
    print("counts identical" if not differ
          else f"DEFECT: {len(differ)} count(s) differ: {differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
