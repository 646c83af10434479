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
order as pair i of a workload. The child runs with one BLAS thread, puts
the checkout's src first on sys.path, sends its stdout to os.devnull, runs
the setup once and then
evaluates the expression --reps times, recording perf_counter and
process_time around each. Each side's round reads as the median of its
repetitions, in milliseconds of wall and of CPU time, and the summary
gives medians, quartiles and rounds won as for the workloads. A setup
that should leave caches warm evaluates the expression once itself.

Per-op figures, so that a moved workload median names the ops that moved:

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD \\
        --ops sweep:10 --seed 1 --seconds 15 --out BENCH_N.json

Pair i of `--ops W:PAIRS` writes the plan of seed S+i in each side's
checkout, by running perfbench/plans.py's make_plan in a child, and then
runs each round of it as `perfbench/worker.py ops PLAN.json` in a fresh
interpreter, as perfbench does, in the same checkouts and order as pair i
of a workload. Ops are keyed by their kind and, where the plan names one,
their field (`build 181 10`): the seed moves a sweep's bounds and a
build's generator, so argv alone would not match across pairs. A
`queries` op is keyed by its universe stratum (`check-prime`,
`check-ext`, `seq-prime`, `seq-ext`, `lift`), so that prime and
extension fields are not averaged together. Each
side's pair reads, per key, as the median of its ops' worker times in
milliseconds. Per key the file gives each side's median and quartiles,
the pairs each side won, whether both sides wrote the same stdout in
every pair, and the p-value of a two-sided exact sign test on the pairs,
ties dropped (Conover, Practical Nonparametric Statistics, ch. 3).
`moved` names the keys that Holm's step-down correction over all of the
workload's keys rejects at a family-wise level of MOVED_ALPHA (Holm,
Scand. J. Statist. 6 (1979)), each as "lower" or "higher". It reads
"too few pairs", and names no key, below the pair count n at which a key
that moved the same way in every pair could pass Holm's first step,
2**(1 - n) <= MOVED_ALPHA / keys: 11 pairs for 38 keys.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
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
# an --ops plan's child, run in a checkout: argv is workload, seed, seconds
PLAN_CHILD = """
import json, sys
sys.path.insert(0, "perfbench")
import plans
workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
entries = plans.load_queries_record() if workload == "queries" else []
def key(op):
    if "entry" in op.info:
        return entries[op.info["entry"]]["stratum"]
    return " ".join([op.kind] + [str(op.info[f]) for f in ("q", "k") if f in op.info])
rounds = plans.make_plan(workload, seed, seconds)
print(json.dumps([[{"argv": op.argv, "key": key(op)} for op in ops] for ops in rounds]))
"""
OP_METRIC = {"unit": "ms", "better": "lower", "bound": None}
# the chance that `moved` names any key of a workload whose sides do not differ
MOVED_ALPHA = 0.05
TOO_FEW_PAIRS = "too few pairs"
CALL_METRICS = [{"name": name, **OP_METRIC} for name in ("wall_ms", "cpu_ms")]


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
    wall and of CPU time, and their medians in milliseconds as metrics.
    The child runs one BLAS thread: a second one spins for milliseconds
    after numpy's import, and with a core free that time counted as the
    expression's CPU time, at times more than its wall time."""
    argv = [sys.executable, "-c", CALL_CHILD, str(checkout / "src"), setup, expr, str(reps)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        argv, cwd=checkout, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{expr} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout)
    metrics = {
        f"{clock}_ms": 1e3 * statistics.median(out[f"{clock}_s"]) for clock in ("wall", "cpu")
    }
    return {**out, "metrics": metrics}


def ops_plan(checkout: Path, workload: str, seed: int, seconds: int) -> list[list[dict]]:
    """The rounds of perfbench's plan for (workload, seed, seconds), each a
    list of ops {argv, key}, from a child in checkout."""
    argv = [sys.executable, "-c", PLAN_CHILD, workload, str(seed), str(seconds)]
    proc = subprocess.run(
        argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} plan in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def run_ops(checkout: Path, rounds: list[list[dict]]) -> dict:
    """Each round in a fresh `perfbench/worker.py ops` run of checkout, with
    its src on PYTHONPATH and a scratch working directory: per key, the
    ops' times in milliseconds and the sha1 of each op's stdout, in plan
    order, and as metrics the median time per key. An op that raised
    stops the run."""
    ops_out = {}
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory(prefix="ops-") as work:
        for i, ops in enumerate(rounds):
            plan = {
                "src": str(checkout / "src"),
                "ops": [op["argv"] for op in ops],
                "trace": False,
                "max_seconds": RUN_TIMEOUT_S,
                "summary": f"{work}/{i}.summary.json",
                "results": f"{work}/{i}.results.jsonl",
            }
            plan_path = Path(work, f"{i}.plan.json")
            plan_path.write_text(json.dumps(plan))
            argv = [sys.executable, str(checkout / "perfbench" / "worker.py"), "ops", str(plan_path)]
            proc = subprocess.run(
                argv, cwd=work, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
            )
            if proc.returncode != 0:
                raise RuntimeError(f"worker in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            results = [json.loads(line) for line in Path(plan["results"]).read_text().splitlines()]
            for op, res in zip(ops, results, strict=True):
                if res["exc"]:
                    raise RuntimeError(f"{op['argv']} raised in {checkout}:\n{res['exc']}")
                rec = ops_out.setdefault(op["key"], {"t_ms": [], "out_sha1": []})
                rec["t_ms"].append(1e3 * res["t"])
                rec["out_sha1"].append(hashlib.sha1(res["out"].encode()).hexdigest()[:12])
    metrics = {key: statistics.median(rec["t_ms"]) for key, rec in ops_out.items()}
    return {"ops": ops_out, "metrics": metrics}


def sign_test_p(lower: int, higher: int) -> float:
    """Two-sided exact sign test: the chance of a split at least as uneven
    as lower : higher when each untied pair goes either way with
    probability 1/2; 1 when every pair is tied."""
    n = lower + higher
    tail = sum(math.comb(n, i) for i in range(min(lower, higher) + 1))
    return min(1.0, 2 * tail / 2**n)


def holm(p_values: dict[str, float], alpha: float) -> list[str]:
    """The keys that Holm's step-down procedure rejects at family-wise
    level alpha: in increasing order of p-value, the i-th of m keys
    (i from 0) while each p-value so far is at most alpha / (m - i)."""
    ranked = sorted(p_values, key=p_values.get)
    rejected = []
    for i, key in enumerate(ranked):
        if p_values[key] > alpha / (len(ranked) - i):
            break
        rejected.append(key)
    return rejected


def compare_ops(pairs: list[dict]) -> dict:
    """Per op key, compare's figures of the sides' per-pair medians,
    whether both sides wrote the same stdout in every pair, and the sign
    test's p-value; `moved` names the keys that Holm's correction rejects
    at MOVED_ALPHA, or is TOO_FEW_PAIRS when not even a key that moved
    the same way in every pair could be named."""
    keys = sorted(pairs[0]["base"]["metrics"])
    metrics = compare(pairs, [{"name": key, **OP_METRIC} for key in keys])
    ways = {}
    for key in keys:
        rec = metrics[key]
        rec["same_stdout"] = all(
            p["base"]["ops"][key]["out_sha1"] == p["head"]["ops"][key]["out_sha1"] for p in pairs
        )
        diffs = [p["head"]["metrics"][key] - p["base"]["metrics"][key] for p in pairs]
        lower, higher = sum(d < 0 for d in diffs), sum(d > 0 for d in diffs)
        rec["sign_p"] = sign_test_p(lower, higher)
        ways[key] = "lower" if lower > higher else "higher"
    if 2.0 ** (1 - len(pairs)) > MOVED_ALPHA / len(keys):
        moved = TOO_FEW_PAIRS
    else:
        p_values = {key: metrics[key]["sign_p"] for key in keys}
        moved = {key: ways[key] for key in sorted(holm(p_values, MOVED_ALPHA))}
    return {"metrics": metrics, "moved": moved}


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
    ap.add_argument(
        "--ops",
        action="append",
        default=[],
        metavar="NAME:PAIRS",
        help="a workload to time op by op, and its number of pairs; repeatable",
    )
    ap.add_argument("--setup", default="", help="statements run before a call's repetitions")
    ap.add_argument("--rounds", type=int, default=10, help="rounds per call")
    ap.add_argument("--reps", type=int, default=5, help="repetitions per child")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if not args.workload and not args.call and not args.ops:
        ap.error("give at least one --workload, --call or --ops")
    plan = [(name, int(n)) for name, n in (w.split(":") for w in args.workload)]
    op_plan = [(name, int(n)) for name, n in (w.split(":") for w in args.ops)]
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
    if op_plan:
        report["protocol"]["ops"] = {
            "command": "python3 perfbench/worker.py ops PLAN.json, per round of "
            "plans.make_plan(W, S+i, N)",
            "key": "the op's kind, then its q and k where the plan names them; "
            "a queries op's universe stratum",
            "value": "per pair and side, the median worker time t of the key's ops, in ms",
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
        jobs += [("ops", name, n, None) for name, n in op_plan]
        exprs = dict(calls)
        for kind, name, n_pairs, metrics in jobs:
            pairs = []
            for i in range(n_pairs):
                length = DIR_NAME_LENGTHS[i % len(DIR_NAME_LENGTHS)]
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                seed = {"seed": args.seed + i} if kind != "calls" else {}
                pair = {**seed, "dir_name_length": length, "first": order[0]}
                for side in order:
                    print(f"{name} pair {i}: {side}", file=sys.stderr, flush=True)
                    checkout = checkouts[side, length]
                    if kind == "workloads":
                        pair[side] = run_once(checkout, name, args.seed + i, args.seconds)
                    elif kind == "ops":
                        rounds = ops_plan(checkout, name, args.seed + i, args.seconds)
                        pair[side] = run_ops(checkout, rounds)
                    else:
                        pair[side] = time_call(checkout, args.setup, exprs[name], args.reps)
                pairs.append(pair)
                if kind == "workloads":
                    summary = summarize(pairs, metrics)
                elif kind == "ops":
                    summary = compare_ops(pairs)
                else:
                    summary = {"expr": exprs[name], "metrics": compare(pairs, metrics)}
                report.setdefault(kind, {})[name] = {"pairs": pairs, **summary}
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
