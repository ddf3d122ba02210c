"""Summarise one set of benchmark runs, or compare two sets.

    python3 benchmarks/compare.py RUNS                # one set: medians and spreads
    python3 benchmarks/compare.py BASE CHANGE         # verdict per workload and metric

A set is a directory of ``<workload>.seed<N>.json`` files as written by
``sweep.py``, each holding the JSON line of one ``--trace 0`` run. Metric
bounds and directions come from BENCHMARK.json. Spread is the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.

Verdicts, for each workload and end-to-end metric:
  unresolved   the two sets failed different shares of their operations
               (a failed operation's stages are timed as far as they ran,
               so the timings do not measure the same work), or the
               spread of either set is wider than the bound and not
               every change run beats every base run
  better       as above, but every change run beats every base run
  regression   the change median is worse than the base median by more
               than the bound
  improved     runs paired by seed: the change wins at least 9/10 of the
               pairs (ties count for neither) and the medians differ by
               more than the base set's quartile distance
  no change    none of the above
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory: Path) -> dict[str, dict[int, dict]]:
    """{workload: {seed: run result}} from one directory of run files."""
    runs = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.seed*.json")):
        workload, seed = path.stem.rsplit(".seed", 1)
        runs[workload][int(seed)] = json.loads(path.read_text())
    if not runs:
        raise SystemExit(f"error: no run files in {directory}")
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def metric_values(runs: dict[int, dict], name: str) -> dict[int, float]:
    return {seed: r["metrics"][name]["value"] for seed, r in runs.items()
            if name in r["metrics"]}


def failed_count(runs: dict[int, dict]) -> tuple[int, int]:
    """(failed, attempted) operations over a set of runs."""
    return (sum(r["failed"] for r in runs.values()),
            sum(r["attempted"] for r in runs.values()))


def verdict(base: dict[int, float], change: dict[int, float], bound: float,
            lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    b_vals, c_vals = list(base.values()), list(change.values())
    all_better = (max(c_vals) < min(b_vals)) if lower_is_better else (min(c_vals) > max(b_vals))
    if spread(b_vals) > bound or spread(c_vals) > bound:
        return "better (every run)" if all_better else "unresolved"
    b_med, c_med = statistics.median(b_vals), statistics.median(c_vals)
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    if worse_by > bound:
        return f"regression ({worse_by:+.1%} worse)"
    pairs = sorted(set(base) & set(change))
    wins = sum(1 for s in pairs if sign * (change[s] - base[s]) < 0)
    q1, _, q3 = quartiles(b_vals)
    if pairs and wins >= 0.9 * len(pairs) and sign * (b_med - c_med) > q3 - q1:
        return f"improved ({wins}/{len(pairs)} pairs won)"
    return f"no change ({wins}/{len(pairs)} pairs won)"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    e2e = spec["end_to_end"]
    sets = [load_set(Path(a)) for a in argv]
    workloads = [w["name"] for w in spec["workloads"] if all(w["name"] in s for s in sets)]
    for w in workloads:
        counts = [failed_count(s[w]) for s in sets]
        shares = [Fraction(*c) for c in counts]
        print(f"== {w}  failed: " + "  vs  ".join(f"{f}/{a}" for f, a in counts))
        for m in e2e:
            cols = []
            for s in sets:
                vals = list(metric_values(s[w], m["name"]).values())
                q1, med, q3 = quartiles(vals)
                cols.append(f"median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread(vals):.1%}"
                            f" n={len(vals)}")
            line = f"  {m['name']:<12} {m['unit']:<6} " + "  |  ".join(cols)
            if len(sets) == 1:
                ok = spread(vals) <= m["bound"]
                line += f"  bound {m['bound']:.0%} {'ok' if ok else 'WIDER THAN BOUND'}"
            elif shares[0] != shares[1]:
                line += "  -> unresolved (failed shares differ)"
            else:
                line += "  -> " + verdict(metric_values(sets[0][w], m["name"]),
                                          metric_values(sets[1][w], m["name"]),
                                          m["bound"], m["better"] == "lower")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
