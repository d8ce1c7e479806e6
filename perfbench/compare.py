"""Compare two sets of end-to-end results written by run.py.

usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``*-t0.json`` files that run.py writes to
``.perfbench_work/results`` (copy them aside between commits).  For each
workload and end-to-end metric this prints both medians, the change, and
whether it is worse than the metric's bound in BENCHMARK.json.  When the
two sides ran different kernel implementations, or a different
``WREATHQ_PURE`` setting, the workload is flagged and no gain or loss is
reported for it.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> dict[str, list]:
    groups: dict[str, list] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-t0.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        groups.setdefault(record["workload"], []).append(record)
    return groups


def kernels(records) -> set:
    return {(r["env"]["kernel"], r["env"]["wreathq_pure"]) for r in records}


def main(base_dir: str, new_dir: str) -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    base, new = load(base_dir), load(new_dir)
    for workload in sorted(base.keys() & new.keys()):
        b, n = base[workload], new[workload]
        print(f"{workload}: {len(b)} base runs, {len(n)} new runs")
        kb, kn = kernels(b), kernels(n)
        comparable = kb == kn and len(kb) == 1
        if not comparable:
            print(f"  FLAGGED: kernel implementations differ (base {sorted(kb)}, new {sorted(kn)});"
                  " no gain or loss is reported")
        for side, records in (("base", b), ("new", n)):
            bad = sum(1 for r in records if not r["result"]["correct"])
            if bad:
                print(f"  {side}: {bad} runs failed their correctness checks")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            mb = statistics.median(r["result"]["metrics"][name]["value"] for r in b)
            mn = statistics.median(r["result"]["metrics"][name]["value"] for r in n)
            change = mn / mb - 1
            worse = change if metric["better"] == "lower" else -change
            if not comparable:
                verdict = "not comparable"
            elif worse > metric["bound"]:
                verdict = f"WORSE than the {metric['bound']:.0%} bound"
            else:
                verdict = "within bound"
            print(f"  {name:14s} {mb:12.6g} -> {mn:12.6g} {metric['unit']:4s} "
                  f"{change:+7.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
