"""``run.py --compare A.json B.json``: did B get worse than A?

One row per workload x end-to-end metric: both medians, the delta in the
metric's "worse" direction, the bound, and a verdict —

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  not worse, but a side's run-to-run spread is wider than
  the bound, so "no change" cannot be told from noise;
* ``ok``          otherwise.

Simulated counts must match exactly when the two files share a seed.
Returns exit code 1 if any row is ``worse`` or any count differs.
"""

from __future__ import annotations

import json


def worsening(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: dict, b: dict) -> tuple[float, str]:
    delta = worsening(a["median"], b["median"], a["better"])
    bound = a["bound"]
    if delta > bound:
        return delta, "worse"
    if max(a["spread"], b["spread"]) > bound:
        return delta, "unresolved"
    return delta, "ok"


def compare(a: dict, b: dict) -> tuple[list[dict], list[str]]:
    """Rows for the table and a list of exact-count mismatches."""
    rows, mismatches = [], []
    same_inputs = all(a[key] == b[key] for key in ("seed", "seconds", "smoke"))
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            mismatches.append(f"{name}: missing from B")
            continue
        for metric, value_a in entry_a["end_to_end"].items():
            value_b = entry_b["end_to_end"][metric]
            delta, word = verdict(value_a, value_b)
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "unit": value_a["unit"],
                    "a": value_a["median"],
                    "b": value_b["median"],
                    "worse_by": delta,
                    "bound": value_a["bound"],
                    "verdict": word,
                }
            )
        if same_inputs and entry_a["sim"] != entry_b["sim"]:
            mismatches.append(f"{name}: simulated counts differ under one seed")
    return rows, mismatches


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    rows, mismatches = compare(a, b)
    print(f"{'workload':<20}{'metric':<16}{'A':>14}{'B':>14}  {'worse by':>9}  {'bound':>6}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<20}{row['metric']:<16}{row['a']:>14.3f}{row['b']:>14.3f}"
            f"  {100 * row['worse_by']:>+8.1f}%  {100 * row['bound']:>5.0f}%  {row['verdict']}"
        )
    print()
    for label, results in (("A", a), ("B", b)):
        for name, entry in results["workloads"].items():
            share = entry["ops_failed"] / entry["ops_attempted"]
            print(f"{label} {name:<20} ops failed {entry['ops_failed']}/{entry['ops_attempted']}"
                  f" ({100 * share:.3f}%)")
    for mismatch in mismatches:
        print(f"MISMATCH {mismatch}")
    bad = [row for row in rows if row["verdict"] == "worse"]
    return 1 if bad or mismatches else 0
