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

In-process figures come from the same tool and the same file:

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD \\
        --setup "from psldesigns import cli" \\
        --call "pair=cli.main(['sweep', '--pair', '5', '10', '--qmax', '450000', '--json'])" \\
        --rounds 10 --reps 5 --out BENCH_N.json

Round i of a call starts one child per side, in the same checkouts and
order as pair i of a workload. The child puts the checkout's src first on
sys.path, sends its stdout to os.devnull, runs the setup once and then
evaluates the expression --reps times, recording perf_counter and
process_time around each. Each side's round reads as the median of its
repetitions, in milliseconds of wall and of CPU time, and the summary
gives medians, quartiles and rounds won as for the workloads. A setup
that should leave caches warm evaluates the expression once itself.
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


# a call's child: argv is src, setup, expression, repetitions
CALL_CHILD = """
import json, os, sys, time
src, setup, expr, reps = sys.argv[1:]
sys.path.insert(0, src)
out, sys.stdout = sys.stdout, open(os.devnull, "w")
scope = {}
exec(setup, scope)
code = compile(expr, "<call>", "eval")
wall, cpu = [], []
for _ in range(int(reps)):
    t, c = time.perf_counter(), time.process_time()
    eval(code, scope)
    cpu.append(time.process_time() - c)
    wall.append(time.perf_counter() - t)
out.write(json.dumps({"wall_s": wall, "cpu_s": cpu}) + "\\n")
"""
CALL_METRICS = [
    {"name": name, "unit": "ms", "better": "lower", "bound": None}
    for name in ("wall_ms", "cpu_ms")
]


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


def time_call(checkout: Path, setup: str, expr: str, reps: int) -> dict:
    """One child's repetitions of expr in checkout, each in seconds of
    wall and of CPU time, and their medians in milliseconds as metrics."""
    argv = [sys.executable, "-c", CALL_CHILD, str(checkout / "src"), setup, expr, str(reps)]
    proc = subprocess.run(
        argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{expr} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout)
    metrics = {
        f"{clock}_ms": 1e3 * statistics.median(out[f"{clock}_s"]) for clock in ("wall", "cpu")
    }
    return {**out, "metrics": metrics}


def spread(xs: list[float]) -> dict:
    """Median and quartiles (inclusive method, so a pair of runs gives
    quartiles between them)."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3}


def compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs each
    side won by the metric's better direction."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        wins = {side: 0 for side in SIDES}
        for b, h in zip(values["base"], values["head"]):
            if sign * (h - b) > 0:
                wins["head"] += 1
            elif sign * (h - b) < 0:
                wins["base"] += 1
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            **{side: spread(values[side]) for side in SIDES},
            "pairs_won": wins,
        }
    return out


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """compare's metrics; per side: op counts and the number of runs not
    `correct`."""
    out = {"metrics": compare(pairs, end_to_end), "ops": {}}
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
        default=[],
        metavar="NAME:PAIRS",
        help="a workload and its number of pairs; repeatable",
    )
    ap.add_argument("--seed", type=int, default=1, help="the seed of pair 0")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument(
        "--call",
        action="append",
        default=[],
        metavar="NAME=EXPR",
        help="an expression to time in process; repeatable",
    )
    ap.add_argument("--setup", default="", help="statements run before a call's repetitions")
    ap.add_argument("--rounds", type=int, default=10, help="rounds per call")
    ap.add_argument("--reps", type=int, default=5, help="repetitions per child")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if not args.workload and not args.call:
        ap.error("give at least one --workload or --call")
    plan = [(name, int(n)) for name, n in (w.split(":") for w in args.workload)]
    calls = [c.split("=", 1) for c in args.call]

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
    }
    if calls:
        report["protocol"]["call"] = {
            "setup": args.setup,
            "reps": args.reps,
            "order": "as the pairs: base first in even rounds",
        }
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        checkouts = {}
        for side, rev in zip(SIDES, (args.base, args.head)):
            for length in DIR_NAME_LENGTHS:
                dest = scratch / f"{side}-".ljust(length, "x")
                export(rev, dest)
                checkouts[side, length] = dest
        jobs = [("workloads", name, n, end_to_end) for name, n in plan]
        jobs += [("calls", name, args.rounds, CALL_METRICS) for name, _ in calls]
        exprs = dict(calls)
        for kind, name, n_pairs, metrics in jobs:
            pairs = []
            for i in range(n_pairs):
                length = DIR_NAME_LENGTHS[i % len(DIR_NAME_LENGTHS)]
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                seed = {"seed": args.seed + i} if kind == "workloads" else {}
                pair = {**seed, "dir_name_length": length, "first": order[0]}
                for side in order:
                    print(f"{name} pair {i}: {side}", file=sys.stderr, flush=True)
                    checkout = checkouts[side, length]
                    if kind == "workloads":
                        pair[side] = run_once(checkout, name, args.seed + i, args.seconds)
                    else:
                        pair[side] = time_call(checkout, args.setup, exprs[name], args.reps)
                pairs.append(pair)
                if kind == "workloads":
                    summary = summarize(pairs, metrics)
                else:
                    summary = {"expr": exprs[name], "metrics": compare(pairs, metrics)}
                report.setdefault(kind, {})[name] = {"pairs": pairs, **summary}
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
