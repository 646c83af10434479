"""Tests for tools/bench_pairs.py: spread, compare and summarize, which
turn alternating before/after runs into the medians, quartiles and pair
wins of a BENCH_*.json file, time_call, the child of a --call round, and
compare_ops's `moved` rule, a sign test per key with Holm's correction."""

import importlib.util
import math
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _run(work, p50, attempted=10, failed=0, correct=True):
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "metrics": {"work_per_s": work, "op_p50_ms": p50},
    }


def test_spread_is_the_inclusive_median_and_quartiles():
    assert bench_pairs.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}
    assert bench_pairs.spread([3.0, 1.0]) == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert bench_pairs.spread([5, 1, 4, 2, 3]) == {"median": 3, "q1": 2, "q3": 4}


def test_summarize_counts_wins_by_each_metrics_better_direction():
    """A higher work_per_s and a lower op_p50_ms win; a tie counts for
    neither side; attempted and failed ops are summed per side, and the
    runs not `correct` counted, whether or not any op failed in them."""
    pairs = [
        {"base": _run(100, 50), "head": _run(120, 40, failed=1, correct=False)},
        {"base": _run(100, 50, attempted=12, correct=False), "head": _run(101, 60)},
        {"base": _run(130, 45), "head": _run(130, 46, attempted=9, failed=2)},
    ]
    out = bench_pairs.summarize(pairs, END_TO_END)
    work, p50 = out["metrics"]["work_per_s"], out["metrics"]["op_p50_ms"]
    assert work["pairs_won"] == {"base": 0, "head": 2}
    assert p50["pairs_won"] == {"base": 2, "head": 1}
    assert (work["unit"], work["better"], work["bound"]) == ("1/s", "higher", 0.25)
    assert work["base"] == {"median": 100, "q1": 100, "q3": 115}
    assert p50["head"] == {"median": 46, "q1": 43, "q3": 53}
    assert out["ops"] == {
        "base": {"attempted": 32, "failed": 0, "incorrect_runs": 1},
        "head": {"attempted": 29, "failed": 3, "incorrect_runs": 1},
    }


def test_summarize_of_a_single_pair():
    """One pair gives each side its own value as median and both
    quartiles, and the pair to whichever side reads better."""
    out = bench_pairs.summarize([{"base": _run(90, 30), "head": _run(80, 30)}], END_TO_END)
    assert out["metrics"]["work_per_s"]["base"] == {"median": 90, "q1": 90, "q3": 90}
    assert out["metrics"]["work_per_s"]["head"] == {"median": 80, "q1": 80, "q3": 80}
    assert out["metrics"]["work_per_s"]["pairs_won"] == {"base": 1, "head": 0}
    assert out["metrics"]["op_p50_ms"]["pairs_won"] == {"base": 0, "head": 0}
    assert out["ops"]["base"]["incorrect_runs"] == out["ops"]["head"]["incorrect_runs"] == 0


def test_time_call_times_each_repetition_in_a_child():
    """A call's child imports the package from the checkout's src, runs
    the setup once with stdout sent to os.devnull, and records wall and
    CPU time around each repetition; the metrics are their medians in
    milliseconds."""
    checkout = _PATH.parent.parent
    setup = "from psldesigns import cli\nimport time"
    expr = "cli.main(['lift', '3', '4', '3']) or time.sleep(0.01)"
    out = bench_pairs.time_call(checkout, setup, expr, 3)
    assert len(out["wall_s"]) == len(out["cpu_s"]) == 3
    assert all(wall >= 0.01 and 0 <= cpu <= wall for wall, cpu in zip(out["wall_s"], out["cpu_s"]))
    assert out["metrics"] == {
        "wall_ms": 1e3 * sorted(out["wall_s"])[1],
        "cpu_ms": 1e3 * sorted(out["cpu_s"])[1],
    }


def test_compare_of_call_rounds_counts_the_lower_time():
    """Call rounds are compared as pairs are, by CALL_METRICS: the lower
    wall and CPU time win, and there are no op counts."""
    rounds = [
        {side: {"metrics": {"wall_ms": w, "cpu_ms": c}} for side, (w, c) in zip(("base", "head"), r)}
        for r in (((10, 9), (8, 9)), ((12, 11), (9, 10)), ((7, 6), (9, 8)))
    ]
    out = bench_pairs.compare(rounds, bench_pairs.CALL_METRICS)
    assert out["wall_ms"]["pairs_won"] == {"base": 1, "head": 2}
    assert out["cpu_ms"]["pairs_won"] == {"base": 1, "head": 1}
    assert out["wall_ms"]["head"] == {"median": 9, "q1": 8.5, "q3": 9}
    assert (out["cpu_ms"]["unit"], out["cpu_ms"]["better"], out["cpu_ms"]["bound"]) == ("ms", "lower", None)


def test_ops_plan_keys_perfbench_ops_by_kind_and_field():
    """The plan child runs perfbench/plans.py in the checkout: a sweep
    round's five ops keyed by kind, an orbit op by kind, q and k."""
    checkout = _PATH.parent.parent
    rounds = bench_pairs.ops_plan(checkout, "sweep", 1, 15)
    assert [[op["key"] for op in ops] for ops in rounds] == [
        ["table", "k13pp", "pair", "thm510", "thm1326"]
    ] * 5
    assert rounds[0][3]["argv"][:2] == ["thm510", "--pmax"]
    orbit = bench_pairs.ops_plan(checkout, "orbit", 1, 1)
    assert orbit[0][0]["key"] == "build 29 7" and orbit[0][1]["key"] == "verify 29 7"


def test_ops_plan_keys_queries_ops_by_stratum():
    """A queries op is keyed by its universe stratum, which splits check
    and seq between prime and extension fields; in the first round the
    stratum agrees with the op's kind and with trial division of q."""
    checkout = _PATH.parent.parent
    rounds = bench_pairs.ops_plan(checkout, "queries", 1, 5)
    strata = {"check-prime", "check-ext", "seq-prime", "seq-ext", "lift"}
    assert {op["key"] for ops in rounds for op in ops} == strata
    for op in rounds[0]:
        kind, _, fields = op["key"].partition("-")
        assert op["argv"][0] == kind
        if fields:
            q = int(op["argv"][1])
            assert (fields == "prime") == all(q % d for d in range(2, math.isqrt(q) + 1))


def test_run_ops_runs_each_round_in_a_perfbench_worker():
    """A plan of two small ops in two rounds: one worker per round, each
    op's time and stdout hash recorded under its key, in plan order, and
    the per-key median time as the metric."""
    checkout = _PATH.parent.parent
    ops = [
        {"argv": ["lift", "3", "4", "3"], "key": "lift"},
        {"argv": ["check", "41", "10"], "key": "check 41 10"},
    ]
    out = bench_pairs.run_ops(checkout, [ops, ops])
    assert set(out["ops"]) == {"lift", "check 41 10"}
    for key, rec in out["ops"].items():
        assert len(rec["t_ms"]) == 2 and all(t > 0 for t in rec["t_ms"])
        assert len(set(rec["out_sha1"])) == 1 and len(rec["out_sha1"][0]) == 12
        assert out["metrics"][key] == sum(rec["t_ms"]) / 2
    assert out["ops"]["lift"]["out_sha1"] != out["ops"]["check 41 10"]["out_sha1"]


def _ops_side(times, sha="a"):
    return {
        "ops": {key: {"t_ms": [t], "out_sha1": [sha]} for key, t in times.items()},
        "metrics": dict(times),
    }


def test_compare_ops_names_the_ops_that_moved():
    """Per key, the lower median time wins a pair and the sign test reads
    the split; `moved` names the keys that Holm's correction rejects,
    here the key faster in all 8 pairs and the one slower in all 8
    (p = 2**-7 each, below 0.05/3 and 0.05/2), not the one that moved
    in 6 of 8 (p = 0.29). same_stdout is false if one pair's outputs
    differ."""
    base = [{"fast": 10 + i, "level": 5 + i % 3, "slow": 7 + i % 2} for i in range(8)]
    head = [{"fast": 6 + i, "level": 5 + (i + 1) % 3 + (i > 5), "slow": 9 + i} for i in range(8)]
    pairs = [{"base": _ops_side(b), "head": _ops_side(h)} for b, h in zip(base, head)]
    pairs[2]["head"]["ops"]["slow"]["out_sha1"] = ["b"]
    out = bench_pairs.compare_ops(pairs)
    assert out["moved"] == {"fast": "lower", "slow": "higher"}
    assert out["metrics"]["fast"]["pairs_won"] == {"base": 0, "head": 8}
    assert out["metrics"]["fast"]["sign_p"] == out["metrics"]["slow"]["sign_p"] == 2**-7
    assert out["metrics"]["fast"]["base"] == {"median": 13.5, "q1": 11.75, "q3": 15.25}
    assert out["metrics"]["level"]["pairs_won"] == {"base": 6, "head": 2}
    assert out["metrics"]["level"]["sign_p"] == 2 * (1 + 8 + 28) / 2**8
    assert [out["metrics"][k]["same_stdout"] for k in ("fast", "level", "slow")] == [True, True, False]
    assert out["metrics"]["slow"]["unit"] == "ms"
    # at 6 pairs no key can pass Holm's first step for 3 keys: 2**-5 > 0.05/3
    assert bench_pairs.compare_ops(pairs[:6])["moved"] == bench_pairs.TOO_FEW_PAIRS


def test_sign_test_p_is_the_two_sided_binomial_tail():
    """p = 2 P(X <= min(lower, higher)) for X ~ Bin(n, 1/2), capped at 1;
    ties take no part, so an all-tied key reads 1."""
    assert bench_pairs.sign_test_p(11, 0) == bench_pairs.sign_test_p(0, 11) == 2**-10
    assert bench_pairs.sign_test_p(9, 1) == 2 * 11 / 2**10
    assert bench_pairs.sign_test_p(5, 5) == bench_pairs.sign_test_p(0, 0) == 1
    assert bench_pairs.sign_test_p(3, 1) == 2 * 5 / 16


def test_holm_steps_down_until_a_p_value_is_too_large():
    """The i-th smallest of m p-values is rejected while each so far is at
    most alpha / (m - i): 0.01 <= 0.05/4 and 0.016 <= 0.05/3, then
    0.03 > 0.05/2 stops the walk, so 0.04 is kept too."""
    p = {"a": 0.03, "b": 0.01, "c": 0.04, "d": 0.016}
    assert bench_pairs.holm(p, 0.05) == ["b", "d"]
    assert bench_pairs.holm({"a": 0.02}, 0.05) == ["a"]
    assert bench_pairs.holm({}, 0.05) == []


def _signed_p_values(lower_counts, n):
    """The sign test's p-value for each count of pairs in which the head
    was lower, out of n untied pairs."""
    table = [bench_pairs.sign_test_p(x, n - x) for x in range(n + 1)]
    return [table[x] for x in lower_counts]


def test_moved_names_an_iid_key_in_at_most_5_percent_of_draws():
    """1,000 draws of 38 keys (orbit's count) whose base and head values
    are i.i.d.: the sign test with Holm's correction names a key in at
    most 5 % of the draws, at 11 pairs, the fewest it reads, and at 20."""
    rng = np.random.default_rng(4242)
    keys = [f"k{i}" for i in range(38)]
    for n in (11, 20):
        base, head = rng.standard_normal((2, 1000, 38, n))
        lower = (head < base).sum(axis=2)
        named = sum(
            bool(bench_pairs.holm(dict(zip(keys, _signed_p_values(row, n))), bench_pairs.MOVED_ALPHA))
            for row in lower.tolist()
        )
        assert named <= 50, (n, named)


def test_a_key_shifted_in_every_pair_is_named_once_the_pairs_allow():
    """38 keys of i.i.d. times, one of them shifted down by its own
    interquartile range in every pair: at 10 pairs no key could pass
    Holm's first step (2**-9 > 0.05/38), so `moved` says so; at 11 the
    shifted key is named, and no other."""
    rng = np.random.default_rng(4343)
    keys = [f"k{i:02d}" for i in range(38)]
    base, head = 10 + rng.standard_normal((2, 11, 38))
    head[:, 7] = base[:, 7] - 1.35  # the standard normal's interquartile range
    pairs = [
        {"base": _ops_side(dict(zip(keys, b))), "head": _ops_side(dict(zip(keys, h)))}
        for b, h in zip(base.tolist(), head.tolist())
    ]
    assert bench_pairs.compare_ops(pairs[:10])["moved"] == bench_pairs.TOO_FEW_PAIRS
    assert bench_pairs.compare_ops(pairs)["moved"] == {"k07": "lower"}
