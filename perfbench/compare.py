"""Compare benchmark results of two versions of the program.

Usage:

    python3 perfbench/compare.py --base perfbench/out/results/A*.json --new B*.json

Prints, per metric, the median of each side, the change, and each side's
spread (distance between the quartiles as a share of the median), and
whether the output digests of the seeds both sides ran are byte-identical.
Refuses to compare results whose string-kernel backend, workload or trace
mode differ: the compiled kernel changes the kernel's cost by about 40x.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


class Incomparable(Exception):
    pass


def load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def check_comparable(records: list[dict]) -> None:
    for field in ("simdist_backend", "workload"):
        values = {r["env"][field] for r in records}
        if len(values) > 1:
            raise Incomparable(f"results differ in {field}: {sorted(values)}")
    if len({r["trace"] for r in records}) > 1:
        raise Incomparable("results mix traced and untraced runs")


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def compare(base: list[dict], new: list[dict]) -> list[str]:
    check_comparable(base + new)
    key = "per_layer" if base[0]["trace"] else "metrics"
    lines = [f"{'metric':<34}{'base':>14}{'new':>14}{'change':>9}{'spread b/n':>14}"]
    for name in base[0][key]:
        b = [r[key][name] for r in base if name in r[key]]
        n = [r[key][name] for r in new if name in r[key]]
        if not b or not n:
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        change = f"{(mn - mb) / mb:+8.1%}" if mb else "       -"
        lines.append(f"{name:<34}{mb:>14.6g}{mn:>14.6g} {change}"
                     f"{spread(b):>7.1%}/{spread(n):.1%}")
    by_seed = {r["env"]["seed"]: r["digests"] for r in base}
    shared = [r for r in new if r["env"]["seed"] in by_seed]
    same = all(r["digests"] == by_seed[r["env"]["seed"]] for r in shared)
    seeds = sorted({r["env"]["seed"] for r in shared})
    lines.append(f"outputs byte-identical on seeds {seeds}: {'yes' if same else 'NO'}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", required=True, help="result files of the parent")
    p.add_argument("--new", nargs="+", required=True, help="result files of the change")
    args = p.parse_args(argv)
    try:
        print("\n".join(compare(load(args.base), load(args.new))))
    except Incomparable as exc:
        print(f"compare: refusing to compare: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
