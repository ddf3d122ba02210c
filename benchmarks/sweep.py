"""Run the benchmark over several seeds and keep each run's result.

    python3 benchmarks/sweep.py --out runs/change --seeds 1-10
    python3 benchmarks/sweep.py --out runs/change --seeds 1-5 --workload envelope-3d

Runs ``run.py`` untraced once per workload and seed, one run at a time,
in the checkout that holds this directory, with the run length from
BENCHMARK.json. Each result line is written to
``<out>/<workload>.seed<N>.json`` for ``compare.py``; a run that exits
non-zero stops the sweep. To compare two commits, copy this directory into
the other checkout, sweep both into separate directories, alternating
which checkout runs first for each seed, and pass both directories to
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900  # a run may take this long only when it has to build first


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seeds", default="1-10", type=parse_seeds)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]],
                   help="repeatable; default: every workload in BENCHMARK.json")
    args = p.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                print(f"error: {workload} seed {seed} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            (args.out / f"{workload}.seed{seed}.json").write_text(json.dumps(result) + "\n")
            total = result["metrics"]["total_s"]["value"]
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}"
                  f", total_s {total:.4g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
