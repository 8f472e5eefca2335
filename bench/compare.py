"""Summarise or compare result sets written by ``run.py --out`` / ``--out-dir``.

    python3 bench/compare.py report DIR
    python3 bench/compare.py compare PARENT_DIR CHANGE_DIR

``report`` prints, for every workload and metric, the median over the runs,
the quartile spread as a share of the median, the number of runs and the
samples inside one run, and whether the spread is within a third of the
metric's bound in BENCHMARK.json.

``compare`` takes two sets made with the same benchmark code and seeds, run
alternately (parent first on odd pairs; ``run.py --root`` measures another
checkout), and prints one row per workload and metric (the i-th runs of the two sets, in
seed order, form the i-th pair):

- ``improved``: there are at least ten pairs, the change wins at least 9 of
  10 of them, ties counting for neither, and the medians differ by more than
  the parent's quartile spread;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
- ``unresolved``: the parent's own spread is wider than the bound, and not
  every run of the change beats every run of the parent;
- ``no worse``: otherwise.

Correctness comes first.  If the change fails a larger share of its ops than
the parent, or any of its runs is marked incorrect, the workload counts as a
regression and none of its metrics is rated ``improved``.  The correctness
metric (``ok_frac``) is compared exactly, as a share of failed ops pooled over
all runs, never against a bound.

Per-layer metrics have no bound: exact counts, and times that are 0 on both
sides, print ``same`` or ``changed``; other times print ``improved``,
``worse`` (the same rule the other way) or ``unresolved``.  Every ratio is given with its base.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_RATE = 0.9
#: Fewest pairs on which a gain (or, without a bound, a loss) may be claimed.
MIN_PAIRS = 10
#: Metrics that restate the share of failed ops; compared exactly.
CORRECTNESS = ("ok_frac", "failed_frac")


def load_set(directory: Path) -> dict:
    """{(workload, trace): {seed: record}}"""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def specs() -> dict:
    spec = json.loads(BENCHMARK.read_text())
    out = {m["name"]: dict(m, trace=0) for m in spec["end_to_end"]}
    out.update({m["name"]: dict(m, trace=1) for m in spec["per_layer"]})
    return out


def report(directory: Path) -> int:
    runs = load_set(directory)
    worst = 0
    print(f"{'workload':15s} {'metric':28s} {'median':>12s} unit     {'IQR/med':>8s} "
          f"{'bound':>6s} runs samples")
    for (workload, trace), by_seed in sorted(runs.items()):
        records = list(by_seed.values())
        bounds = {name: m.get("bound") for name, m in specs().items() if m["trace"] == trace}
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            m = records[0]["metrics"][name]
            bound = bounds.get(name)
            share = spread(values)
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag, worst = "  > bound/3", 1
            extra = f" p{m['percentile']:g}" if "percentile" in m else ""
            bound_text = f"{bound:.3g}" if bound is not None else "-"
            print(f"{workload:15s} {name:28s} {statistics.median(values):12.6g} "
                  f"{m['unit']:8s} {share:8.3%} {bound_text:>6s} {len(values):4d} "
                  f"{m['samples']}{extra}{flag}")
        failed = sum(r["failed"] for r in records)
        print(f"{workload:15s} {'(runs correct)':28s} "
              f"{sum(r['correct'] for r in records)}/{len(records)}, failed ops {failed}")
    return worst


def verdict(parent, change, better, bound, exact) -> str:
    sign = 1 if better == "higher" else -1
    if exact or not any(parent + change):
        return "same" if parent == change else f"changed {parent[0]:g} -> {change[0]:g}"
    pairs = list(zip(parent, change))
    enough = len(pairs) >= MIN_PAIRS
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    q1, med_a, q3 = quartiles(parent)
    med_b = statistics.median(change)
    apart = abs(med_b - med_a) > q3 - q1
    if enough and wins >= WIN_RATE * len(pairs) and apart and sign * (med_b - med_a) > 0:
        return "improved"
    if bound is None:
        if enough and losses >= WIN_RATE * len(pairs) and apart:
            return "worse"
        return "unresolved"
    if sign * (med_b - med_a) < -bound * abs(med_a):
        return "worse"
    if spread(parent) > bound and not min(sign * b for b in change) > max(sign * a for a in parent):
        return "unresolved"
    return "no worse"


def failed_share(runs) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(parent_dir: Path, change_dir: Path) -> int:
    parent, change = load_set(parent_dir), load_set(change_dir)
    metrics = specs()
    regressions = 0
    print(f"{'workload':15s} {'metric':28s} {'parent':>12s} {'change':>12s} "
          f"{'change/parent':>13s} pairs verdict")
    for key in sorted(parent):
        if key not in change:
            print(f"{key[0]:15s} missing from {change_dir}")
            continue
        # Pair the i-th run of each side, in seed order.
        runs_a = [parent[key][s] for s in sorted(parent[key])]
        runs_b = [change[key][s] for s in sorted(change[key])]
        pairs = min(len(runs_a), len(runs_b))
        runs_a, runs_b = runs_a[:pairs], runs_b[:pairs]
        failed_a, failed_b = failed_share(runs_a), failed_share(runs_b)
        incorrect = sum(not r["correct"] for r in runs_b)
        broken = failed_b > failed_a or incorrect > 0
        regressions += broken
        print(f"{key[0]:15s} {'(failed ops)':28s} {failed_a:12.6g} {failed_b:12.6g} {'-':>13s} "
              f"{pairs:5d} {'worse' if broken else 'no worse'}"
              + (f", {incorrect} change runs incorrect" if incorrect else ""))
        for name, m in metrics.items():
            if m["trace"] != key[1]:
                continue
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            if name in CORRECTNESS:
                result = "worse" if failed_b > failed_a else (
                    "improved" if failed_b < failed_a else "same")
            else:
                exact = m["unit"] in ("count", "bytes")
                result = verdict(a, b, m["better"], m.get("bound"), exact)
                regressions += result == "worse" and m.get("bound") is not None
            if broken and result == "improved":
                result = "not counted: more failed ops"
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = f"{med_b / med_a:.3f}" if med_a else "-"
            print(f"{key[0]:15s} {name:28s} {med_a:12.6g} {med_b:12.6g} {ratio:>13s} "
                  f"{pairs:5d} {result}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("report").add_argument("directory", type=Path)
    both = sub.add_parser("compare")
    both.add_argument("parent", type=Path)
    both.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "report":
        return report(args.directory)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
