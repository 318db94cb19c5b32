"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage: ``python bench/compare.py A.jsonl B.jsonl``

Each file holds the runs ``bench/run.py --record FILE`` appended, one
JSON line per workload run; A is the parent, B the change. For every
workload and metric the script prints each side's median and quartiles
over its runs, then a verdict:

- ``unresolved``: a side's spread (quartile distance over median) is
  wider than the metric's bound, and not every B run beats every A run;
- ``better``: the spread is too wide, but every B run beats every A run;
- ``REGRESSION``: B's median is worse than A's by more than the bound;
- ``gain``: B wins at least nine tenths of the run pairs (i-th run of
  A against i-th run of B, ties count for neither) and the medians
  differ by more than A's quartile distance;
- ``ok``: none of the above, so no worse than the bound allows.

Metrics without a bound (the per-layer ones) are reported without a
verdict. A rise in the share of failed jobs, or any run whose outputs
were wrong, is flagged. Exits 0 only when every verdict is ``ok``,
``gain`` or ``better`` and nothing is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> Dict[Tuple[str, int], List[dict]]:
    """Results grouped by (workload, trace flag), in file order."""
    runs: Dict[Tuple[str, int], List[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            runs.setdefault(key, []).append(record["result"])
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str, bound) -> str:
    if bound is None:
        return ""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    if max(spread(a), spread(b)) > bound:
        beats_all = all(sign * (y - x) < 0 for x in a for y in b)
        return "better" if beats_all else "unresolved"
    if sign * (b_med - a_med) / abs(a_med) > bound:
        return "REGRESSION"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (
        sign * (b_med - a_med) < 0
        and wins >= 0.9 * len(pairs)
        and abs(b_med - a_med) > a_q3 - a_q1
    ):
        return "gain"
    return "ok"


def failure_share(results: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load(Path(p)) for p in argv]
    ok = True
    for key in sorted(set(sides[0]) & set(sides[1])):
        a_runs, b_runs = sides[0][key], sides[1][key]
        workload, trace = key
        print(
            f"== {workload}{' (traced)' if trace else ''}: "
            f"{len(a_runs)} runs A, {len(b_runs)} runs B"
        )
        print(
            f"   {'metric':<42} {'A median [q1, q3]':>30} "
            f"{'B median [q1, q3]':>30} {'change':>8}  verdict"
        )
        names = [n for n in metrics if n in a_runs[0]["metrics"]]
        for name in names:
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            meta = metrics[name]
            outcome = verdict(a, b, meta["better"], meta.get("bound"))
            ok &= outcome in ("", "ok", "gain", "better")
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            change = (
                f"{(quartiles(b)[1] / quartiles(a)[1] - 1):+.1%}"
                if quartiles(a)[1]
                else "-"
            )
            print(
                f"   {name:<42} {cells[0]:>30} {cells[1]:>30} "
                f"{change:>8}  {outcome}"
            )
        shares = failure_share(a_runs), failure_share(b_runs)
        print(f"   failed share: A {shares[0]:.4g}, B {shares[1]:.4g}")
        if shares[1] > shares[0]:
            print("   FLAG: the failure share rose")
            ok = False
        wrong = sum(not r["correct"] for r in a_runs + b_runs)
        if wrong:
            print(f"   FLAG: {wrong} runs produced wrong outputs")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
