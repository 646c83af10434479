"""Alternating before/after pairs of perfbench runs for two git revisions.

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD \\
        --workload orbit:6 --workload sweep:3 --workload queries:3 \\
        --seed 1 --seconds 15 --out BENCH_N.json

Run from the root of a git checkout. Each revision (any tree-ish, so also
the id that `git write-tree` prints for staged changes) is exported with
`git archive` into fresh directories whose names have DIR_NAME_LENGTHS
different lengths: the `orbit` memory peak moves with heap history, which
the length of the checkout path shifts, so pairs rotate through them.

Pair i of a workload runs `python3 perfbench/run.py --workload W --seed
S+i --seconds N` once in a checkout of each revision, one process at a
time, with the base first on even pairs and the head first on odd ones,
and reads the JSON object on the last line of each run's stdout. The
output file is rewritten after every run. Besides every run's numbers it
holds, per workload and end-to-end metric of BENCHMARK.json, each side's
median and quartiles and how many pairs each side won (ties count for
neither), each side's attempted and failed op counts, and how many of
its runs perfbench did not report `correct`. Standard
library only; perfbench itself is run, never imported.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# name lengths of each revision's checkout directories, one per pair in turn
DIR_NAME_LENGTHS = (8, 13, 22)
RUN_TIMEOUT_S = 600
SIDES = ("base", "head")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    """The files of rev, as `git archive` writes them, under dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run in checkout: the op counts and metrics of the
    JSON object on its last stdout line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(
        argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    out = json.loads(lines[-1])
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "correct": out["correct"],
        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
    }


def spread(xs: list[float]) -> dict:
    """Median and quartiles (inclusive method, so a pair of runs gives
    quartiles between them)."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs each
    side won by the metric's better direction; per side: op counts and
    the number of runs not `correct`."""
    out = {"metrics": {}, "ops": {}}
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        wins = {side: 0 for side in SIDES}
        for b, h in zip(values["base"], values["head"]):
            if sign * (h - b) > 0:
                wins["head"] += 1
            elif sign * (h - b) < 0:
                wins["base"] += 1
        out["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            **{side: spread(values[side]) for side in SIDES},
            "pairs_won": wins,
        }
    for side in SIDES:
        out["ops"][side] = {
            key: sum(p[side][key] for p in pairs) for key in ("attempted", "failed")
        }
        out["ops"][side]["incorrect_runs"] = sum(not p[side]["correct"] for p in pairs)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the parent revision")
    ap.add_argument("--head", required=True, help="the changed revision")
    ap.add_argument(
        "--workload",
        action="append",
        required=True,
        metavar="NAME:PAIRS",
        help="a workload and its number of pairs; repeatable",
    )
    ap.add_argument("--seed", type=int, default=1, help="the seed of pair 0")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    plan = [(name, int(n)) for name, n in (w.split(":") for w in args.workload)]

    end_to_end = json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]
    report = {
        "protocol": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds N",
            "seconds": args.seconds,
            "seed_of_pair_0": args.seed,
            "dir_name_lengths": list(DIR_NAME_LENGTHS),
            "order": "base first on even pairs, head first on odd pairs",
        },
        "revisions": {
            side: {"rev": rev, "tree": git("rev-parse", f"{rev}^{{tree}}").decode().strip()}
            for side, rev in zip(SIDES, (args.base, args.head))
        },
        "workloads": {},
    }
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        checkouts = {}
        for side, rev in zip(SIDES, (args.base, args.head)):
            for length in DIR_NAME_LENGTHS:
                dest = scratch / f"{side}-".ljust(length, "x")
                export(rev, dest)
                checkouts[side, length] = dest
        for workload, n_pairs in plan:
            pairs = []
            for i in range(n_pairs):
                length = DIR_NAME_LENGTHS[i % len(DIR_NAME_LENGTHS)]
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": args.seed + i, "dir_name_length": length, "first": order[0]}
                for side in order:
                    print(f"{workload} pair {i}: {side}", file=sys.stderr, flush=True)
                    checkout = checkouts[side, length]
                    pair[side] = run_once(checkout, workload, args.seed + i, args.seconds)
                pairs.append(pair)
                report["workloads"][workload] = {
                    "pairs": pairs,
                    **summarize(pairs, end_to_end),
                }
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
