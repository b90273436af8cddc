"""Run one workload on several seeds and report each metric's spread.

The spread is the distance between the first and third quartile of the
values (``statistics.quantiles(values, n=4)``) as a share of their
median, the steadiness measure ``BENCHMARK.json`` bounds are judged by.

Usage, from the repository root::

    python3 perfbench/spread.py adaptive_plume --seeds 1-10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        row = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + json.dumps({k: round(v, 4) for k, v in row.items()}),
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) < 2 or med == 0:
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        bound = f"  bound {bounds[name]}" if name in bounds else ""
        print(f"{name:34s} median {med:.5g}  spread {(q3 - q1) / med:.3f}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
