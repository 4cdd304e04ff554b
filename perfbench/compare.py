"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON files ``run.py --out DIR`` writes.  For
every workload and end-to-end metric the command prints both sides'
median and quartiles and a verdict:

* ``better`` — the new side wins at least 9 of 10 pairs (runs paired
  by seed; ties count for neither) and its median beats the base
  median by more than the base's own interquartile distance;
* ``worse`` — the new median is worse than the base median by more
  than the metric's bound from ``BENCHMARK.json``;
* ``unresolved`` — either side's interquartile spread, as a share of
  its median, is wider than the bound, unless every new run beats
  every base run (then ``better``);
* ``unchanged`` — none of the above.

Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from sample_stats import median, quartiles, relative_spread

HERE = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    """The verdict for one metric; ``base[i]`` pairs with ``new[i]``."""
    sign = 1.0 if better == "higher" else -1.0
    b = [sign * x for x in base]
    n = [sign * x for x in new]
    if max(relative_spread(base), relative_spread(new)) > bound:
        return "better" if min(n) > max(b) else "unresolved"
    q1, mid, q3 = quartiles(base)
    pairs = list(zip(b, n))
    wins = sum(1 for x, y in pairs if y > x)
    gain = median(n) - median(b)
    if wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "better"
    if -gain > bound * abs(mid):
        return "worse"
    return "unchanged"


def load(directory: Path) -> dict[str, dict[str, dict[int, float]]]:
    """``values[workload][metric][seed]`` from untraced results."""
    values: dict = defaultdict(lambda: defaultdict(dict))
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace"):
            continue
        seed = result["provenance"]["seed"]
        for name, metric in result["metrics"].items():
            values[result["workload"]][name][seed] = metric["value"]
    return values


def compare(base_dir: Path, new_dir: Path, spec: dict) -> list[tuple]:
    base, new = load(base_dir), load(new_dir)
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = base[workload].get(name, {}), new[workload].get(name, {})
            seeds = sorted(set(a) & set(b))
            if seeds:
                left, right = [a[s] for s in seeds], [b[s] for s in seeds]
            else:
                left, right = sorted(a.values()), sorted(b.values())
            if not left or not right:
                continue
            rows.append(
                (
                    workload,
                    name,
                    metric["unit"],
                    quartiles(left),
                    quartiles(right),
                    max(relative_spread(left), relative_spread(right)),
                    metric["bound"],
                    verdict(left, right, metric["bound"], metric["better"]),
                )
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare two result sets")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--bench", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.bench.read_text())
    rows = compare(args.base, args.new, spec)
    print(
        f"{'workload':11s} {'metric':20s} {'base median [q1, q3]':>30s} "
        f"{'new median [q1, q3]':>30s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for workload, name, unit, left, right, spread, bound, outcome in rows:
        def fmt(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {unit}"

        print(
            f"{workload:11s} {name:20s} {fmt(left):>30s} {fmt(right):>30s} "
            f"{spread:7.3f} {bound:6.2f}  {outcome}"
        )
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
