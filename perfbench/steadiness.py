"""Run the benchmark on several seeds and print each run's wall time, and
each end-to-end metric's median and spread (interquartile distance over
the median) next to its bound from BENCHMARK.json. Run from the root of
a checkout:

    python3 perfbench/steadiness.py --workload queries --seeds 1-10

The benchmark is accepted when every spread but setup_s is within its
bound; it is meant to stay below a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    elapsed = []
    for seed in args.seeds:
        cmd = [
            *bench["command"],
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        elapsed.append(time.monotonic() - t0)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = [
            f"seed {seed}: {elapsed[-1]:.1f} s, failed {result['failed']}/{result['attempted']}"
        ]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(" ".join(line), flush=True)
    print(f"wall time per run: median {statistics.median(elapsed):.1f} s, max {max(elapsed):.1f} s")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = f" bound {bound} ({spread / bound:.0%} of it)" if bound else ""
        print(f"{name:24s} median {med:12.6g} spread {spread:7.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
