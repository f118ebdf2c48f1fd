"""Compare two result sets of the benchmark, such as a parent and a change.

    python3 perfbench/compare.py PARENT CHANGE

Each side is a directory of run records written by ``run.py --out DIR``
or a baseline file (``{"runs": [...]}``, as in ``baseline/``).  Only
untraced runs count.  For each workload and end-to-end metric it prints
both sides' median and quartiles, the fraction of pairs the change won
(pairs share a seed when the sides share seeds, else they are taken in
order; ties count for neither) and a verdict:

* improved: the change wins at least 9 in 10 of at least 10 pairs and the
  medians differ, the right way, by more than the parent's quartile spread;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
* unresolved: the parent's own spread (quartile distance over median) is
  wider than the bound, and not every change run reads better than every
  parent run; or too few pairs were run to claim a gain;
* no worse: otherwise.

A ``fail_ratio`` row compares failed / attempted; more failures is worse.
The exit code is 1 when any row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> list[dict]:
    if path.is_dir():
        runs = [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
    else:
        doc = json.loads(path.read_text())
        runs = doc["runs"] if "runs" in doc else [doc]
    return [r for r in runs if not r.get("trace")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    shared = [(r, by_seed[r["seed"]]) for r in parent if r["seed"] in by_seed]
    return shared if shared else list(zip(parent, change))


def verdict(p_vals, c_vals, matched, lower_better: bool, bound: float) -> tuple[str, float]:
    sign = 1 if lower_better else -1
    better = lambda c, p: sign * (c - p) < 0
    won = sum(better(c, p) for p, c in matched) / len(matched) if matched else 0.0
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    gain = sign * (p_med - c_med)
    if won >= WIN_SHARE and gain > p_q3 - p_q1 and len(matched) >= MIN_PAIRS:
        return "improved", won
    every_better = all(better(c, p) for c in c_vals for p in p_vals)
    if (p_q3 - p_q1) / p_med > bound and not every_better:
        return "unresolved", won
    if -gain / p_med > bound:
        return "worse", won
    if won >= WIN_SHARE and gain > p_q3 - p_q1:
        return "unresolved", won      # a gain, but on fewer than MIN_PAIRS pairs
    return "no worse", won


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = (load(Path(a)) for a in argv)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<8} {'metric':<12} {'unit':<5} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'won':>5}  verdict")
    any_worse = False
    for wl in workloads:
        p_runs = [r for r in parent if r["workload"] == wl]
        c_runs = [r for r in change if r["workload"] == wl]
        if not p_runs or not c_runs:
            continue
        matched = pairs(p_runs, c_runs)
        rows = [(m["name"], m["unit"], m["better"] == "lower", m["bound"],
                 lambda r, n=m["name"]: r["metrics"][n][0]) for m in spec["end_to_end"]]
        rows.append(("fail_ratio", "1", True, 0.0,
                     lambda r: r["run"]["failed"] / r["run"]["attempted"]))
        for name, unit, lower, bound, get in rows:
            p_vals = [get(r) for r in p_runs]
            c_vals = [get(r) for r in c_runs]
            if name == "fail_ratio":
                diff = statistics.median(c_vals) - statistics.median(p_vals)
                verdict_, won = ("worse" if diff > 0 else "improved" if diff < 0
                                 else "no worse"), 0.0
            else:
                verdict_, won = verdict(p_vals, c_vals, [(get(p), get(c)) for p, c in matched],
                                        lower, bound)
            any_worse |= verdict_ == "worse"
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"{wl:<8} {name:<12} {unit:<5} {fmt(quartiles(p_vals)):>32} "
                  f"{fmt(quartiles(c_vals)):>32} {won:>5.2f}  {verdict_}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
