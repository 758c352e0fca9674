"""Record the committed scenario digests (``digests.json``).

Run from the repository root, at a commit whose virtual-time results are
the reference::

    python3 perfbench/record_digests.py --seeds 0-10

Each (workload, seed) runs one untraced pass; its records must pass the
structural check before their digests are written.  Existing entries for
other seeds and workloads are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from check import DIGESTS, Checker, digest, host_versions  # noqa: E402
from run import run_pass  # noqa: E402


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="e.g. 0-10 or 0,3,7")
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS,
                        help="repeatable; default all")
    args = parser.parse_args(argv)

    table = (json.loads(DIGESTS.read_text()) if DIGESTS.exists()
             else {"digests": {}})
    if table.get("recorded_with", host_versions()) != host_versions():
        print(f"digests.json was recorded with {table['recorded_with']}; "
              f"this host has {host_versions()}", file=sys.stderr)
        return 2
    table["recorded_with"] = host_versions()
    for name in args.workload or workloads.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            workload = workloads.build(name, seed)
            records = run_pass(workload.scenarios).records
            checker = Checker(workload, workloads.reference_ritz(workload),
                              digests_path=None)
            entry = {}
            for scenario, record in zip(workload.scenarios, records):
                problems = checker.problems(scenario, record)
                if problems:
                    print(f"{name} seed {seed} {scenario.name}: {problems}",
                          file=sys.stderr)
                    return 1
                entry[scenario.name] = digest(record)
            table["digests"].setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {entry}", flush=True)
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
