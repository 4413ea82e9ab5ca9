"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/steady.py --workload NAME --seeds 1 2 3 4 5

The spread is the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median.  Runs use
BENCHMARK.json's run_seconds and --trace 0.  Each
end-to-end metric's spread should stay below a third of its bound in
BENCHMARK.json.  One line per run is appended to .perfbench_out/steady.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else (0.0 if q3 == q1 else float("inf"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        with open(os.path.join(ROOT, ".perfbench_out", "steady.jsonl"), "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        bound = bounds.get(name)
        s = spread(vals)
        flag = "" if bound is None or s < bound / 3 else "  <-- above a third of its bound"
        print(f"{name:40s} median {median(vals):.6g}  spread {s:.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
