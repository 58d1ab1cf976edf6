"""Compare a parent commit and a change on every (workload, end-to-end metric).

    python3 perfbench/compare.py run PARENT_ROOT CHANGE_ROOT OUT_DIR [--pairs 10]
    python3 perfbench/compare.py table OUT_DIR

`run` makes `--pairs` pairs of runs per workload, one pair per seed,
alternating which side runs first, with each checkout's own
`perfbench/run.py` and the run length from `BENCHMARK.json`.  It saves each
run's output as `OUT_DIR/<side>/<workload>/<seed>.out`, then prints the
table.  `table` prints it again from saved results.

One row per (workload, end-to-end metric of `BENCHMARK.json`): each
side's median and quartiles, the change's pair wins, and a verdict:

* `improved`: the change wins at least nine tenths of all pairs (ties
  count for neither), the medians differ by more than the parent's
  interquartile range, and no more operations failed than at the parent;
* `unresolved`: the parent's own spread (interquartile range over median)
  is wider than the metric's bound, unless every change run reads better
  than every parent run;
* `worse`: the change's median is worse than the parent's by more than the
  bound;
* `no worse`: otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SIDES = ("parent", "change")


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_pairs(parent: str, change: str, out: str, pairs: int) -> None:
    spec = load_spec(change)
    roots = {"parent": parent, "change": change}
    for i in range(pairs):
        seed = i + 1
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in spec["workloads"]:
            for side in order:
                cmd = spec["command"] + ["--workload", w["name"], "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=roots[side], capture_output=True, text=True,
                                      timeout=900)
                if proc.returncode != 0:
                    raise SystemExit(f"{side} {w['name']} seed {seed}: exit "
                                     f"{proc.returncode}\n{proc.stderr}")
                path = os.path.join(out, side, w["name"])
                os.makedirs(path, exist_ok=True)
                with open(os.path.join(path, f"{seed}.out"), "w", encoding="utf-8") as fh:
                    fh.write(proc.stdout)
                print(f"pair {seed}: {side} {w['name']} done", file=sys.stderr, flush=True)


def load_runs(out: str, side: str, workload: str) -> dict[int, dict]:
    """Result objects by seed."""
    path = os.path.join(out, side, workload)
    runs = {}
    for name in os.listdir(path) if os.path.isdir(path) else ():
        with open(os.path.join(path, name), encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        runs[int(name.split(".")[0])] = json.loads(lines[-1])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: dict, parent: list[float], change: list[float], pairs: list[tuple],
            more_failures: bool) -> tuple[str, int]:
    sign = 1 if metric["better"] == "higher" else -1
    better = [sign * (c - p) > 0 for p, c in pairs]
    wins = sum(better)
    pq1, pm, pq3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = (pq3 - pq1) / abs(pm) if pm else float("inf")
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > pq3 - pq1 and not more_failures:
        return "improved", wins
    if spread > metric["bound"] and not all_better:
        return "unresolved", wins
    if worse_by > metric["bound"]:
        return "worse", wins
    return "no worse", wins


def table(out: str, root: str) -> int:
    spec = load_spec(root)
    header = (f"{'workload':<9} {'metric':<17} {'parent q1/med/q3':>28} "
              f"{'change q1/med/q3':>28} {'wins':>6}  verdict")
    print(header)
    print("-" * len(header))
    worse = 0
    for w in spec["workloads"]:
        runs = {side: load_runs(out, side, w["name"]) for side in SIDES}
        seeds = sorted(set(runs["parent"]) & set(runs["change"]))
        if not seeds:
            continue
        failed = {side: sum(runs[side][s]["failed"] for s in seeds) for side in SIDES}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [runs["parent"][s]["metrics"][name]["value"] for s in seeds]
            c = [runs["change"][s]["metrics"][name]["value"] for s in seeds]
            v, wins = verdict(metric, p, c, list(zip(p, c)), failed["change"] > failed["parent"])
            worse += v == "worse"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{w['name']:<9} {name:<17} {fmt.format(*quartiles(p)):>28} "
                  f"{fmt.format(*quartiles(c)):>28} {wins:>3}/{len(seeds):<2}  {v}")
        print(f"{w['name']:<9} failed operations: parent {failed['parent']}, "
              f"change {failed['change']}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("parent")
    r.add_argument("change")
    r.add_argument("out")
    r.add_argument("--pairs", type=int, default=10)
    t = sub.add_parser("table")
    t.add_argument("out")
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    if args.mode == "run":
        run_pairs(os.path.abspath(args.parent), os.path.abspath(args.change),
                  os.path.abspath(args.out), args.pairs)
        root = os.path.abspath(args.change)
    return table(args.out, root)


if __name__ == "__main__":
    sys.exit(main())
