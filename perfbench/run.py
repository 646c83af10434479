"""The psldesigns benchmark. Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep|orbit|queries --seed N \\
        --seconds S --trace 0|1

--trace 0 times the workload untraced and prints every end-to-end metric;
--trace 1 runs its first round untraced and then traced, and prints
every per-layer metric with the tracing overhead. Report lines come
first; the last line of stdout is one JSON object with correct,
attempted, failed and metrics.
Every op's output is checked (checks.py); a wrong exit code, wrong output
or exception counts as a failed op; an op left unrun when a round reaches
its share of the run's deadline is reported as such, not as failed. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import plans
import tracing

HERE = Path(__file__).resolve().parent
# set-up samples taken before each round
SETUP_REPS = 2
# a run must end within 180 s; the workers share what is left of this
RUN_DEADLINE_S = 150
PROBE = """\
import contextlib, io, time
import psldesigns.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
print(time.monotonic())
"""

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}
WORKLOAD_METRICS = {
    "sweep_cases_per_s": "1/s",
    "build_blocks_per_s": "1/s",
    "verify_triples_per_s": "1/s",
    "oracle_triples_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "queries_per_s": "1/s",
}
LAYER_METRICS = {
    "gf.field_for_order.s": "s",
    "gf.field_for_order.calls": "count",
    "gf.make_extension_field.s": "s",
    "gf.make_extension_field.calls": "count",
    "gf.factorize.calls": "count",
    "gf.mul.calls": "count",
    "gf.chi.calls": "count",
    "gf.power.calls": "count",
    "gf.inv.calls": "count",
    "gf.self_s": "s",
    "projline.point_permutation.s": "s",
    "projline.point_permutation.calls": "count",
    "projline.brute_force_triple_orbits.s": "s",
    "projline.delta_extended.calls": "count",
    "projline.self_s": "s",
    "starter.make_starter_context.s": "s",
    "starter.make_starter_context.calls": "count",
    "starter.delta_sum.s": "s",
    "starter.delta_sum.calls": "count",
    "starter.thm510_conditions.s": "s",
    "starter.thm1326_condition.s": "s",
    "starter.self_s": "s",
    "design.expand_orbit.s": "s",
    "design.blocks_expanded": "count",
    "design.format_design.s": "s",
    "design.bytes_written": "bytes",
    "design.parse_design.s": "s",
    "design.bytes_read": "bytes",
    "design.verify_t_design.s": "s",
    "design.triples_counted": "count",
    "design.self_s": "s",
    "search.sieve_primes.s": "s",
    "search.sieve_primes.calls": "count",
    "search.enumerate_prime_powers.s": "s",
    "search.candidates": "count",
    "search.hits": "count",
    "search.hit_ratio": "ratio",
    "search.self_s": "s",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
MICRO_METRICS = {
    "gf.mul.prime_ns": "ns",
    "gf.mul.ext_ns": "ns",
    "gf.chi.prime_ns": "ns",
    "gf.chi.ext_ns": "ns",
    "baseline.expand_orbit_181_10_s": "s",
    "baseline.verify_t_design_181_10_s": "s",
}
PER_LAYER = {**LAYER_METRICS, **MICRO_METRICS, **WORKLOAD_METRICS}
# hand-taken ROADMAP baseline (2 CPUs, Python 3.11), for the micro rows
ROADMAP_BASELINE = {
    "gf.mul.prime_ns": 140,
    "gf.mul.ext_ns": 2800,
    "gf.chi.prime_ns": 420,
    "gf.chi.ext_ns": 25700,
    "baseline.expand_orbit_181_10_s": 0.61,
    "baseline.verify_t_design_181_10_s": 3.44,
}


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it:
    (value, percentile, samples beyond). With fewer than 21 samples that
    percentile would not lie above the median, so the maximum is used."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int) -> None:
        self.src = root / "src"
        self.workload = workload
        self.out_dir = root / ".perfbench_out"
        self.work = self.out_dir / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONHASHSEED="0")
        self.rounds = plans.make_plan(workload, seed, seconds)
        self.checker = checks.Checker(workload, seed)
        self.start = time.monotonic()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.start)

    def _child(self, args: list[str], timeout: float) -> str:
        """Run a child interpreter to completion; subprocess.run kills and
        reaps it on timeout."""
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=self.work,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(1.0, timeout),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return proc.stdout

    def setup_sample(self) -> float:
        """Seconds from spawning a fresh interpreter until psldesigns.cli is
        imported and its parser built."""
        t0 = time.monotonic()
        out = self._child(["-c", PROBE], 30)
        return float(out.split()[-1]) - t0

    def worker(self, mode: str, tag: str, timeout: float, **plan) -> tuple[dict, list[dict]]:
        plan_path = self.work / f"{tag}.plan.json"
        summary_path = self.work / f"{tag}.summary.json"
        results_path = self.work / f"{tag}.results.jsonl"
        plan.update(src=str(self.src), summary=str(summary_path), results=str(results_path))
        plan_path.write_text(json.dumps(plan))
        self._child([str(HERE / "worker.py"), mode, str(plan_path)], timeout)
        summary = json.loads(summary_path.read_text())
        results = []
        if results_path.exists():
            with open(results_path) as fh:
                results = [json.loads(line) for line in fh]
        return summary, results

    def run_round(self, i: int, trace: bool, budget: float) -> "Round":
        ops = self.rounds[i]
        tag = f"{'traced' if trace else 'untraced'}-{i}"
        summary, results = self.worker(
            "ops",
            tag,
            budget + 10,
            ops=[op.argv for op in ops],
            trace=trace,
            max_seconds=budget,
            trace_path=str(self.out_dir / f"trace-{self.workload}.json"),
        )
        if not results:
            raise RuntimeError(f"no op of {tag} finished within the run's deadline")
        return Round(ops, summary, results, judge(self.checker, ops, results))

    def round_budget(self, i: int) -> float:
        """Round i's share of the time left: an equal part per round of
        the plan not yet run."""
        return self.remaining() / (len(self.rounds) - i)

    def run_rounds(self) -> tuple[list["Round"], float]:
        """Every round untraced, in order, and the median set-up time of
        SETUP_REPS fresh interpreters before each round. Spread over the
        run, the samples are not all caught by one busy spell of the host."""
        rounds, setup = [], []
        for i in range(len(self.rounds)):
            setup += [self.setup_sample() for _ in range(SETUP_REPS)]
            rounds.append(self.run_round(i, False, self.round_budget(i)))
        return rounds, statistics.median(setup)


@dataclass
class Round:
    ops: list[plans.Op]
    summary: dict
    results: list[dict]
    failed: dict[int, list[str]]


def judge(checker: checks.Checker, ops, results) -> dict[int, list[str]]:
    failed = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        problems = checker.check(op, res)
        if problems:
            failed[i] = problems
    passed = [(i, op, res) for i, (op, res) in enumerate(zip(ops, results)) if i not in failed]
    for i, problem in checker.oracle_sample(passed).items():
        failed[i] = [problem]
    return failed


def round_metrics(workload: str, checker, rnd: Round) -> dict[str, float]:
    """The per-workload numbers (sweep_cases_per_s, ...), plus the
    generic work rate, tail latency and memory every workload reports,
    for one round."""
    ops, results = rnd.ops, rnd.results
    times = [r["t"] for r in results]
    op_seconds = sum(times)
    out = dict.fromkeys(WORKLOAD_METRICS, 0.0)
    if workload == "sweep":
        work = sum(checker.sweep_work(op) for op in ops[: len(results)])
        out["sweep_cases_per_s"] = work / op_seconds
    elif workload == "orbit":
        for kind, unit, name in (
            ("build", "blocks", "build_blocks_per_s"),
            ("verify", "triples", "verify_triples_per_s"),
            ("oracle", "triples", "oracle_triples_per_s"),
        ):
            sel = [(op, r) for op, r in zip(ops, results) if op.kind == kind]
            if sel:
                units = sum(checker.orbit_work(op)[unit] for op, _ in sel)
                out[name] = units / sum(r["t"] for _, r in sel)
        # triple incidences built, recounted or classified
        work = sum(checker.orbit_work(op)["triples"] for op in ops[: len(results)])
    else:
        work = len(results)
        out["query_tail_ms"] = 1e3 * tail(times)[0]
        out["queries_per_s"] = work / op_seconds
    out["work_per_s"] = work / op_seconds
    out["op_tail_ms"] = 1e3 * tail(times)[0]
    out["peak_rss_mb"] = rnd.summary["peak_rss_kb"] / 1024
    return out


def median_over_rounds(workload: str, checker, rounds: list[Round]) -> dict[str, float]:
    """Each round's numbers, medianed over the rounds, except op_p50_ms:
    the median of every op of the run, which rests on more ops near the
    middle than a round's median (orbit has two rounds of 38 distinct
    ops). A tail needs ten ops beyond it, so it stays per round."""
    per_round = [round_metrics(workload, checker, rnd) for rnd in rounds]
    out = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    out["op_p50_ms"] = 1e3 * statistics.median(r["t"] for rnd in rounds for r in rnd.results)
    if workload == "queries":
        out["query_p50_ms"] = out["op_p50_ms"]
    return out


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )


def report_rounds(rounds: list[Round]) -> tuple[int, int]:
    """Print failures, and rounds cut short by the run's deadline;
    (attempted, failed). An op that did not run is neither."""
    attempted = failed = 0
    for i, rnd in enumerate(rounds):
        attempted += len(rnd.results)
        failed += len(rnd.failed)
        if len(rnd.results) < len(rnd.ops):
            print(
                f"INCOMPLETE round {i}: {len(rnd.results)} of {len(rnd.ops)} ops ran"
                " within its share of the run's deadline",
                file=sys.stderr,
            )
        for j, problems in list(rnd.failed.items())[:3]:
            for p in problems:
                print(f"FAILED op ({' '.join(rnd.ops[j].argv)}): {p}", file=sys.stderr)
    return attempted, failed


def run(args: argparse.Namespace, root: Path) -> int:
    r = Runner(root, args.workload, args.seed, args.seconds)
    r.work.mkdir(parents=True, exist_ok=True)
    try:
        if not args.trace:
            rounds, setup = r.run_rounds()
            m = median_over_rounds(args.workload, r.checker, rounds)
            m["setup_s"] = setup
            attempted, failed = report_rounds(rounds)
            print(
                f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds,"
                f" {attempted} ops, {failed} failed; medians over rounds:"
            )
            print(f"  fail_frac              {failed / max(1, attempted):14.6g}")
            for name, unit in {**END_TO_END, **WORKLOAD_METRICS}.items():
                if m[name]:
                    print(f"  {name:22s} {m[name]:14.6g} {unit}")
            times = [res["t"] for res in rounds[0].results]
            _, pct, beyond = tail(times)
            print(f"  op_tail_ms is p{pct:.2f} of {len(times)} ops per round, {beyond} beyond it")
            slowest = sorted(range(len(times)), key=lambda i: -times[i])[:3]
            for i in slowest:
                print(f"  round 0 slow op {times[i]:9.4f} s  {' '.join(rounds[0].ops[i].argv)}")
            emit(not failed, attempted, failed, m, END_TO_END)
            return 0

        # round 0 gets the same time as in an untraced run
        rounds = [r.run_round(0, False, r.round_budget(0))]
        traced = r.run_round(0, True, r.remaining() * 0.7)
        micro, _ = r.worker("micro", "micro", r.remaining())
        m = dict.fromkeys(PER_LAYER, 0.0)
        layers = traced.summary["layers"]
        m.update({k: v for k, v in layers.items() if k in PER_LAYER})
        m.update(micro)
        e2e = median_over_rounds(args.workload, r.checker, rounds)
        m.update({k: v for k, v in e2e.items() if k in WORKLOAD_METRICS})
        cand = m["search.candidates"]
        m["search.hit_ratio"] = m["search.hits"] / cand if cand else 0.0
        base_s = rounds[0].summary["op_seconds"]
        traced_s = traced.summary["op_seconds"]
        m["trace.overhead_s"] = traced_s - base_s
        attempted, failed = report_rounds([*rounds, traced])
        print(f"workload {args.workload} seed {args.seed}: round 0 traced, {len(traced.results)} ops")
        print(
            f"  round 0 op time untraced {base_s:.4f} s, traced {traced_s:.4f} s,"
            f" tracing overhead {m['trace.overhead_s']:.4f} s"
        )
        print("  layer      self s    share of traced op time")
        for layer in tracing.LAYERS:
            s = layers.get(f"{layer}.self_s", 0.0)
            print(f"  {layer:9s} {s:9.4f}  {100 * s / traced_s:6.2f} %")
        print("  micro row                             now   ROADMAP baseline")
        for name, ref in ROADMAP_BASELINE.items():
            print(f"  {name:33s} {m[name]:10.4g}  {ref:10.4g} {MICRO_METRICS[name]}")
        emit(not failed, attempted, failed, m, PER_LAYER)
        return 0
    finally:
        shutil.rmtree(r.work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=plans.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "psldesigns" / "cli.py").is_file():
        print("error: run from a psldesigns checkout (src/psldesigns not found)", file=sys.stderr)
        return 2
    try:
        return run(args, root)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
