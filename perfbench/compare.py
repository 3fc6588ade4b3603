#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the stamped records ``perfbench/run.py`` writes
(``.perfbench_work/results/`` by default, or ``--out``); untraced records
are read recursively.  For every workload × end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the share
of pairs the new side wins (records paired by seed and repeat index,
ties counting for neither), each side's failed and attempted units, and
a verdict:

- ``failed``: a run of the new side has a failed unit (an error or a
  changed result); a faster run that changes a verdict is no gain;
- ``improved``: the new side wins at least nine tenths of the pairs and
  its median is better by more than the base runs' interquartile range;
- ``unresolved``: either side's spread (interquartile range over median)
  is wider than the metric's bound, unless every new run reads better
  than every base run;
- ``worse``: the new median is worse than the base median by more than
  the bound;
- ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(directory: str) -> Dict[str, List[dict]]:
    """Untraced records by workload."""
    out: Dict[str, List[dict]] = {}
    for base, _, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(base, name), encoding="utf-8") as fh:
                record = json.load(fh)
            stamp = record.get("stamp", {})
            if stamp.get("traced") or "metrics" not in record:
                continue
            out.setdefault(stamp["workload"], []).append(record)
    return out


def failures(records: List[dict]) -> Tuple[int, int]:
    """(failed, attempted) units summed over ``records``."""
    return (sum(r.get("failed", 0) for r in records),
            sum(r.get("attempted", 0) for r in records))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: List[dict], new: List[dict], metric: str) -> List[Tuple[float, float]]:
    """(base, new) values paired by (seed, repeat); records without a
    partner pair up in order."""
    def key(r):
        return (r["stamp"].get("seed"), r["stamp"].get("repeat"))

    by_key = {key(r): r for r in new}
    matched, rest_b, used = [], [], set()
    for r in base:
        partner = by_key.get(key(r))
        if partner is not None and key(r) not in used:
            used.add(key(r))
            matched.append((r["metrics"][metric], partner["metrics"][metric]))
        else:
            rest_b.append(r)
    rest_n = [r for r in new if key(r) not in used]
    matched.extend(
        (b["metrics"][metric], n["metrics"][metric]) for b, n in zip(rest_b, rest_n))
    return matched


def verdict(base: Sequence[float], new: Sequence[float],
            paired: Sequence[Tuple[float, float]], bound: float, better: str) -> Tuple[str, float]:
    """``(verdict, share of pairs won by new)``; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    wins = sum(1 for b, n in paired if sign * (n - b) > 0)
    share = wins / len(paired) if paired else 0.0
    if share >= 0.9 and sign * (nm - bm) > (b3 - b1):
        return "improved", share
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    all_better = (min(new) > max(base)) if sign > 0 else (max(new) < min(base))
    if spread > bound and not all_better:
        return "unresolved", share
    if bm and sign * (nm - bm) / abs(bm) < -bound:
        return "worse", share
    return "unchanged", share


def compare(base_dir: str, new_dir: str, bench: dict) -> List[dict]:
    base, new = load(base_dir), load(new_dir)
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name] for r in base.get(workload, []) if name in r["metrics"]]
            n = [r["metrics"][name] for r in new.get(workload, []) if name in r["metrics"]]
            row = {"workload": workload, "metric": name, "unit": metric["unit"],
                   "base_n": len(b), "new_n": len(n),
                   "base_failed": failures(base.get(workload, [])),
                   "new_failed": failures(new.get(workload, []))}
            if not b or not n:
                row["verdict"] = "missing"
                rows.append(row)
                continue
            v, share = verdict(b, n, pairs(base[workload], new[workload], name),
                               metric["bound"], metric["better"])
            if row["new_failed"][0]:
                v = "failed"
            row.update(base=quartiles(b), new=quartiles(n), wins=share, verdict=v,
                       change=(statistics.median(n) - statistics.median(b))
                       / abs(statistics.median(b)))
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        bench = json.load(fh)
    rows = compare(args.base, args.new, bench)
    print("{:<14} {:<12} {:>30} {:>30} {:>8} {:>6} {:>13} {:>13}  {}".format(
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "wins", "base failed", "new failed", "verdict"))
    for r in rows:
        failed = ["{}/{}".format(*r[side]) for side in ("base_failed", "new_failed")]
        if r["verdict"] == "missing":
            print("{:<14} {:<12} {:>30} {:>30} {:>8} {:>6} {:>13} {:>13}  missing".format(
                r["workload"], r["metric"], "n={}".format(r["base_n"]),
                "n={}".format(r["new_n"]), "", "", *failed))
            continue
        fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
        print("{:<14} {:<12} {:>30} {:>30} {:>+7.1%} {:>6.0%} {:>13} {:>13}  {}".format(
            r["workload"], r["metric"], fmt.format(*r["base"]), fmt.format(*r["new"]),
            r["change"], r["wins"], *failed, r["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
