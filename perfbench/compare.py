"""Compare two recorded result sets, metric by metric, one workload at a time.

Each file holds the JSON lines that ``run.py --record`` appends. Runs of the
two sides are paired by seed, and both sides must hold the same seeds. For
each workload and metric this prints each side's median and quartiles and a
verdict:

* improved   -- there are at least ten pairs, the change wins at least 9/10
  of them (ties count for neither side) and the medians differ by more than
  the parent's interquartile spread;
* worse      -- the same rule with the sides swapped;
* unresolved -- anything else, including fewer than ten pairs.

End-to-end metrics also show whether the change's median is within the
bound BENCHMARK.json fixes for a regression. A last row per workload sums
up the verdicts.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["trace"])].append(r)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_seed(runs: list[dict]) -> dict[int, dict]:
    seeds = [r["seed"] for r in runs]
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"a seed was recorded twice: {sorted(seeds)}")
    return {r["seed"]: r for r in runs}


def pairs(parent: list[dict], change: list[dict], metric: str) -> list[tuple[float, float]]:
    """(parent, change) values of runs with the same seed; both sides must hold the same seeds."""
    p_runs, c_runs = by_seed(parent), by_seed(change)
    if set(p_runs) != set(c_runs):
        raise ValueError(f"the two sides ran different seeds: {sorted(p_runs)} vs {sorted(c_runs)}")
    return [(p_runs[s]["metrics"][metric]["value"], c_runs[s]["metrics"][metric]["value"]) for s in sorted(p_runs)]


def verdict(parent: list[float], change: list[float], paired, lower_is_better: bool) -> tuple[str, str]:
    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    change_wins = sum(better(c, p) for p, c in paired)
    parent_wins = sum(better(p, c) for p, c in paired)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    gap_clear = abs(med_c - med_p) > q3 - q1
    need = WIN_SHARE * len(paired)
    wins = f"{change_wins}/{len(paired)}"
    if len(paired) < MIN_PAIRS:
        return "unresolved", wins
    if change_wins >= need and gap_clear and better(med_c, med_p):
        return "improved", wins
    if parent_wins >= need and gap_clear and better(med_p, med_c):
        return "worse", wins
    return "unresolved", wins


def load_spec() -> dict[str, dict]:
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def main(parent_path: str, change_path: str) -> int:
    spec = load_spec()
    parent, change = load(parent_path), load(change_path)
    try:
        return report(spec, parent, change)
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


def report(spec, parent, change) -> int:
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        summary = defaultdict(list)
        names = [n for n in p_runs[0]["metrics"] if n in c_runs[0]["metrics"]]
        for name in names:
            m = spec.get(name, {"better": "lower"})
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            v, wins = verdict(p_vals, c_vals, pairs(p_runs, c_runs, name), m["better"] == "lower")
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            bound = ""
            if "bound" in m and pq[1]:
                worse_by = (cq[1] - pq[1]) / pq[1] * (1 if m["better"] == "lower" else -1)
                bound = f"  {'within' if worse_by <= m['bound'] else 'BEYOND'} bound {m['bound']:g} ({worse_by:+.1%})"
            print(
                f"{workload:<9} {name:<44} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] n={len(p_vals)}"
                f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] n={len(c_vals)}"
                f"  change wins {wins}  {v}{bound}"
            )
            summary[v].append(name)
        mode = "traced" if trace else "end-to-end"
        parts = [f"{v}: {', '.join(summary[v]) or '-'}" for v in ("improved", "worse")]
        print(f"{workload:<9} {mode} summary  " + "  ".join(parts) + f"  unresolved: {len(summary['unresolved'])}")
    return 0
