"""Same-runner perfbench regression gate: this tree against a base tree.

Usage, from anywhere::

    python .github/scripts/perfbench_compare.py BASE_TREE

Runs each tree's own ``perfbench/run.py`` on every workload of this tree's
``BENCHMARK.json``, at its ``run_seconds``, for seeds 1-3, alternating which
tree goes first.  Prints one row per workload and end-to-end metric (both
medians, their ratio and the pairs this tree won) and exits 1 when

* any run is not ``correct``;
* this tree's failed/attempted share on a workload exceeds the base's;
* on any metric this tree's median is worse than the base's by more than the
  metric's bound *and* this tree lost every pair on it.  Noise rarely loses
  every pair; a real regression of the bound's size does.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[2]
SEEDS = (1, 2, 3)


def run(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``tree``; a crash or hang counts as a failed run."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        out = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=10 * seconds + 120)
        if out.returncode == 0:
            return json.loads(out.stdout.strip().splitlines()[-1])
        print(f"{tree}: {workload} seed {seed} exited {out.returncode}\n{out.stderr[-2000:]}", flush=True)
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"{tree}: {workload} seed {seed} failed: {exc!r}")
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def compare(workload: str, metrics: list[dict], base: list[dict], change: list[dict]) -> list[str]:
    """Print the workload's rows; return the reasons it fails the gate."""
    failures = [f"{workload}: {side} seed {seed} is not correct"
                for side, runs in (("base", base), ("change", change))
                for seed, r in zip(SEEDS, runs) if not r["correct"]]
    share = {side: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
             for side, runs in (("base", base), ("change", change))}
    if share["change"] > share["base"]:
        failures.append(f"{workload}: failed share {share['change']:.3f} > base {share['base']:.3f}")
    for m in metrics:
        name = m["name"]
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in zip(base, change) if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        sign = 1.0 if m["better"] == "lower" else -1.0
        won = sum(sign * (c - b) < 0 for b, c in pairs)
        lost = sum(sign * (c - b) > 0 for b, c in pairs)
        b_med = statistics.median(b for b, _ in pairs)
        c_med = statistics.median(c for _, c in pairs)
        ratio = c_med / b_med if b_med else float("inf")
        worse = ratio > 1 + m["bound"] if sign > 0 else ratio < 1 - m["bound"]
        verdict = "FAIL" if worse and lost == len(pairs) else "ok"
        print(f"{workload:16s} {name:12s} {b_med:10.4f} {c_med:10.4f} {ratio:7.3f}"
              f"  {won}/{len(pairs)}  {verdict}")
        if verdict == "FAIL":
            failures.append(f"{workload}: {name} {ratio:.3f}x the base, lost {lost}/{len(pairs)} pairs")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0] + "\nusage: perfbench_compare.py BASE_TREE",
              file=sys.stderr)
        return 2
    base_tree = Path(argv[0]).resolve()
    config = json.loads((CHANGE / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    results: dict[str, tuple[list[dict], list[dict]]] = {}
    for wl in (w["name"] for w in config["workloads"]):
        base, change = [], []
        for seed in SEEDS:
            order = [(base_tree, base), (CHANGE, change)]
            for tree, runs in order if seed % 2 else reversed(order):
                runs.append(run(tree, config["command"], wl, seed, seconds))
                print(f"ran {wl} seed {seed} in {tree}: correct={runs[-1]['correct']}",
                      flush=True)
        results[wl] = (base, change)

    print(f"{'workload':16s} {'metric':12s} {'base p50':>10s} {'change p50':>10s} {'ratio':>7s}  won")
    failures = []
    for wl, (base, change) in results.items():
        failures += compare(wl, config["end_to_end"], base, change)
    for f in failures:
        print(f"FAIL {f}")
    print("perfbench gate:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
