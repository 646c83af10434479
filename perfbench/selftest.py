"""The benchmark's own tests. Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps them out of the package's default test collection.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import checks
import oracle
import plans
import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- op lists ---------------------------------------------------------------


def _plan(workload: str, seed: int) -> list[list[plans.Op]]:
    return plans.make_plan(workload, seed, BENCH["run_seconds"])


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_seed_gives_identical_op_list(workload):
    def argvs(seed):
        return [[op.argv for op in ops] for ops in _plan(workload, seed)]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_every_round_has_the_same_mix(workload):
    mixes = [sorted(op.kind for op in ops) for seed in (1, 2) for ops in _plan(workload, seed)]
    assert all(mix == mixes[0] for mix in mixes)


def test_orbit_covers_the_planned_mix():
    ops = _plan("orbit", 3)[0]
    jobs = {(op.info["q"], op.info["k"]) for op in ops if op.kind == "build"}
    assert {(41, 10), (61, 5), (181, 10), (121, 10), (125, 31)} <= jobs
    degrees = {oracle.prime_power(q)[1] for q, _ in jobs}
    assert degrees == {1, 2, 3}
    assert sum(op.kind == "oracle" for op in ops) == 2


def test_queries_take_equal_kind_shares_and_half_extension_fields():
    ops = _plan("queries", 3)[0]
    kinds = {kind: sum(op.kind == kind for op in ops) for kind in ("check", "seq", "lift")}
    assert max(kinds.values()) - min(kinds.values()) <= 2
    fields = [int(op.argv[1]) for op in ops if op.kind != "lift"]
    ext = sum(not oracle.is_prime(q) for q in fields)
    assert abs(ext - len(fields) / 2) <= 2
    assert all(int(op.argv[2]) <= 64 for op in ops)


# -- the standalone oracle ----------------------------------------------------


def test_oracle_known_hits():
    assert oracle.gives_design(661, 5)
    assert 661 in oracle.sweep_hits(5, 700)
    assert oracle.sweep_hits(34, 6529) == [613, 3877, 6529]


def test_oracle_nonzero_sums_behind_the_reference_row():
    assert oracle.delta_sum_direct(1973, 34) == 136
    assert oracle.delta_sum_direct(2789, 34) == -272


def test_oracle_orbit_size_and_counting_identity():
    assert oracle.orbit_size(181, 10) == 148239
    assert oracle.orbit_size(41, 10) == 1722
    assert oracle.counting_identity(1722, 10, 18, 42)
    assert not oracle.counting_identity(1722, 10, 17, 42)


def test_oracle_imports_nothing_from_the_package():
    tree = ast.parse((HERE / "oracle.py").read_text())
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not any(m.startswith("psldesigns") for m in modules)


# -- metric names and statistics ---------------------------------------------


def test_printed_metric_names_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10) and pct == 90.0
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0, 0)


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["gf.field_for_order", 1.0, 4.0, 0, 0],
        ["gf.make_prime_field", 2.0, 3.0, 1, 0],
        ["design.expand_orbit", 5.0, 9.0, 0, 0],
    ]
    out = tracing.summarize(spans, {})
    assert out["cli.main.self_s"] == 3.0
    assert out["gf.self_s"] == 3.0
    assert out["design.self_s"] == 4.0
    assert out["gf.field_for_order.s"] == 3.0
    assert out["gf.field_for_order.calls"] == 1


# -- output checks ------------------------------------------------------------


def test_checker_rejects_a_wrong_query_answer():
    chk = checks.Checker("queries", 0)
    ops = plans.make_plan("queries", 0, 1)[0]
    op = next(o for o in ops if o.kind == "check")
    ent = chk.entries[op.info["entry"]]
    good = {"rc": ent["rc"], "out": json.dumps(ent["out"]), "exc": None}
    assert chk.check(op, good) == []
    wrong = dict(ent["out"], gives_design=not ent["out"]["gives_design"])
    assert chk.check(op, dict(good, out=json.dumps(wrong)))
    assert chk.check(op, dict(good, exc="Traceback ..."))


def test_malformed_output_counts_as_failed():
    chk = checks.Checker("queries", 0)
    ops = plans.make_plan("queries", 0, 1)[0][:2]
    results = [{"rc": 0, "out": "garbage", "exc": None}] * 2
    assert set(run.judge(chk, ops, results)) == {0, 1}


def test_oracle_sample_catches_a_wrong_decision():
    chk = checks.Checker("queries", 0)
    op = plans.Op(["check", "41", "10", "--json"], "check")
    out = {"gives_design": False, "delta_sum": 0}
    problems = chk.oracle_sample([(0, op, {"rc": 1, "out": json.dumps(out), "exc": None})])
    assert 0 in problems
    out = {"gives_design": True, "delta_sum": 0}
    assert chk.oracle_sample([(0, op, {"rc": 0, "out": json.dumps(out), "exc": None})]) == {}


def test_checker_rejects_a_dropped_sweep_row():
    chk = checks.Checker("sweep", 0)
    op = plans.Op([], "table", {"bound": 3000})
    rc, rows = chk.expected_sweep(op)
    assert chk.check(op, {"rc": rc, "out": json.dumps(rows), "exc": None}) == []
    assert chk.check(op, {"rc": rc, "out": json.dumps(rows[1:]), "exc": None})


def test_checker_rejects_a_wrong_orbit_size():
    chk = checks.Checker("orbit", 0)
    op = plans.Op(["build", "41", "10", "--out", "d.txt"], "build", {"q": 41, "k": 10})
    assert chk.check(op, {"rc": 0, "out": "42 10 18 1722 -> d.txt\n", "exc": None}) == []
    assert chk.check(op, {"rc": 0, "out": "42 10 18 1723 -> d.txt\n", "exc": None})


def test_orbit_work_uses_oracle_sizes():
    chk = checks.Checker("orbit", 0)
    op = plans.Op([], "verify", {"q": 181, "k": 10})
    assert chk.orbit_work(op) == {"blocks": 148239, "triples": 148239 * comb(10, 3)}


def test_peak_rss_counts_only_the_worker():
    # resident in this process when the child is started
    ballast = b"\x01" * (96 * 2**20)
    proc = subprocess.run(
        [sys.executable, "-c", "import worker; print(worker.peak_rss_kb())"],
        cwd=HERE, capture_output=True, text=True, check=True,
    )
    assert len(ballast) and 0 < int(proc.stdout) < 64 * 1024


# -- end to end ---------------------------------------------------------------


def _bench(cwd: Path, workload: str, trace: int, seconds: int = 1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_smoke_runs_every_workload(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = _bench(ROOT, "orbit", 1)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["design.blocks_expanded"] > 0


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "queries", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
