"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workload catalogue --seeds 1-10 --seconds 15 [--trace 1] [--threads 2]

Prints one line per run, then per metric the median, the quartiles and
the quartile distance as a share of the median, and the share of failed
operations.  The README's reference figures come from this script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last) + 1)) if last else [int(v) for v in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--threads", default="1")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace,
             "--threads", args.threads],
            capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        lines = done.stdout.splitlines()
        host, result = json.loads(lines[-2])["host"], json.loads(lines[-1])
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if "wall_items_per_s" in host:
            values.setdefault("wall_items_per_s (host line)", []).append(host["wall_items_per_s"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        low, _, high = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        spread = (high - low) / median if median else 0.0
        print(f"{name}: median {median:.6g}  quartiles {low:.6g} .. {high:.6g}  spread {spread:.1%}")
    print("failed/attempted:", sorted({f / a for f, a in shares}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
