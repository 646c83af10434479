"""End-to-end tests of the command-line interface (in-process)."""

import contextlib
import json
import time
import tracemalloc

import numpy as np
import pytest
from scalar_oracles import sweep_csv, sweep_json, sweep_row_dicts

from psldesigns import cli, design, gf, projline, search, starter


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_design(capsys):
    code, out, _ = _run(capsys, "check", "41", "10")
    assert code == 0
    assert "q=41 k=10 e=4 (even)" in out
    assert "gives_design: True" in out
    assert "lambda: 18" in out
    assert "delta_sum: 0" in out
    assert "sequence (alpha=6): +1,-1,+1" in out


def test_check_non_design(capsys):
    code, out, _ = _run(capsys, "check", "17", "4")
    assert code == 1
    assert "gives_design: False" in out
    assert "lambda: n/a" in out
    assert "delta_sum: 4" in out
    assert "sequence: n/a (k = 0 mod 4)" in out


def test_check_odd_cofactor(capsys):
    code, out, _ = _run(capsys, "check", "13", "4")
    assert code == 0
    assert "e=3 (odd)" in out
    assert "lambda: 3" in out
    assert "delta_sum: n/a (odd cofactor)" in out


def test_check_invalid_input(capsys):
    code, _, err = _run(capsys, "check", "41", "7")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = _run(capsys, "check", "24", "5")
    assert code == 2
    assert err.startswith("error:")


def test_check_k_out_of_range(capsys):
    # the range check runs before the divisibility test, so k = 0 is an
    # input error rather than a division by zero
    for k in ("0", "-5", "3", "40"):
        code, _, err = _run(capsys, "check", "41", k)
        assert code == 2
        assert err.startswith("error:") and "outside the range" in err


def test_check_json(capsys):
    code, out, _ = _run(capsys, "check", "41", "10", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "q": 41,
        "k": 10,
        "e": 4,
        "e_parity": "even",
        "alpha": 6,
        "gives_design": True,
        "lambda": 18,
        "delta_sum": 0,
        "sequence": [1, -1, 1],
        "sequence_convention": "even2mod4",
    }


def test_check_computes_the_signed_count_once(capsys, monkeypatch):
    """One delta_sum per even-cofactor check, none for an odd cofactor."""
    calls = []
    real = starter.delta_sum
    monkeypatch.setattr(starter, "delta_sum", lambda ctx: calls.append(ctx.spec.q) or real(ctx))
    for argv, want in ((("41", "10"), [41]), (("17", "4"), [17]), (("13", "4"), [])):
        calls.clear()
        _run(capsys, "check", *argv)
        assert calls == want, argv


def test_build_and_verify(capsys, tmp_path):
    path = str(tmp_path / "d41_10.txt")
    code, out, _ = _run(capsys, "build", "41", "10", "--out", path)
    assert code == 0
    assert out.strip() == f"42 10 18 1722 -> {path}"
    with open(path) as fh:
        assert fh.readline().strip() == "42 10 18 1722"

    code, out, _ = _run(capsys, "verify", path)
    assert code == 0
    assert "match: True" in out

    code, out, _ = _run(capsys, "verify", path, "--t", "2")
    assert code == 0
    assert "recomputed lambda: 90" in out


def test_verify_detects_corruption(capsys, tmp_path):
    path = str(tmp_path / "d.txt")
    assert cli.main(["build", "41", "10", "--out", path]) == 0
    capsys.readouterr()
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[6] = lines[5]  # duplicated block, another dropped: coverage non-flat
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    code, out, _ = _run(capsys, "verify", path)
    assert code == 1
    assert "match: False" in out


def _verify_text(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    return _run(capsys, "verify", str(path))


def test_verify_rejects_point_out_of_range(capsys, tmp_path):
    code, out, err = _verify_text(capsys, tmp_path, "4 3 0 1\nNOT-A-3-DESIGN\n0 1 4\n")
    assert (code, out) == (2, "")
    assert err.startswith("error: block 1 has a point outside the range 0..3")


def test_verify_rejects_negative_point(capsys, tmp_path):
    code, out, err = _verify_text(capsys, tmp_path, "4 3 0 1\nNOT-A-3-DESIGN\n-1 0 1\n")
    assert (code, out) == (2, "")
    assert err.startswith("error: block 1 has a point outside the range 0..3")


def test_verify_rejects_unsorted_block(capsys, tmp_path):
    # the same block twice, once unsorted: an unsorted block is ranked
    # wrongly by the recount, so it must be refused before counting
    text = "4 3 0 2\nNOT-A-3-DESIGN\n2 1 0\n0 1 2\n"
    code, out, err = _verify_text(capsys, tmp_path, text)
    assert (code, out) == (2, "")
    assert err.startswith("error: block 1 is not 3 distinct points in increasing order")


def test_verify_refuses_a_recount_over_the_cap(capsys, tmp_path):
    # one block under a header of 10^6 points: the counter list for
    # C(10^6, 3) triples used to raise MemoryError with a traceback
    cap = str(design.MAX_RECOUNT_SUBSETS)
    for t in ("3", "2"):
        path = tmp_path / "huge.txt"
        path.write_text("1000000 3 1 1\n1 2 3\n")
        code, out, err = _run(capsys, "verify", str(path), "--t", t)
        assert (code, out) == (2, ""), t
        assert err.startswith("error:") and f"1..{cap} of the recount cap" in err, t
    # two points have no triples: refused rather than an IndexError
    code, out, err = _verify_text(capsys, tmp_path, "2 1 1 1\n0\n")
    assert (code, out) == (2, "")
    assert "has C(2, 3) = 0 3-subsets" in err


def test_verify_refuses_blocks_smaller_than_t(capsys, tmp_path):
    # a block of one point covers no pair: refused, not a 2-design with
    # lambda 0
    path = tmp_path / "short.txt"
    path.write_text("2 1 1 1\n0\n")
    code, out, err = _run(capsys, "verify", str(path), "--t", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: blocks of 1 points contain no 2-subsets")


def test_verify_refuses_a_point_beyond_int64(capsys, tmp_path):
    for block in ("0 1 99999999999999999999", "-99999999999999999999 0 1"):
        code, out, err = _verify_text(capsys, tmp_path, f"4 3 0 1\nNOT-A-3-DESIGN\n{block}\n")
        assert (code, out) == (2, ""), block
        assert err == f"error: block 1 has a point outside the range 0..3: {block}\n"


def test_verify_refuses_a_negative_lambda(capsys, tmp_path):
    # with the flag line this header once passed as a non-design and
    # verify exited 0 with "match: True"
    for flag in ("NOT-A-3-DESIGN\n", ""):
        code, out, err = _verify_text(capsys, tmp_path, f"14 4 -2 1\n{flag}0 1 2 3\n")
        assert (code, out) == (2, ""), flag
        assert err == "error: malformed header: negative lambda: '14 4 -2 1'\n"


def test_verify_counts_repeated_blocks_as_a_multiset(capsys, tmp_path):
    # a non-simple design is still a t-design: d13 with every block twice
    # is a 3-(14, 4, 6) design with 546 blocks
    path = str(tmp_path / "d13.txt")
    assert cli.main(["build", "13", "4", "--out", path]) == 0
    capsys.readouterr()
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "14 4 3 273"
    doubled = ["14 4 6 546"] + [ln for ln in lines[1:] for _ in (0, 1)]
    with open(path, "w") as fh:
        fh.write("\n".join(doubled) + "\n")
    code, out, _ = _run(capsys, "verify", path)
    assert code == 0
    assert "recomputed lambda: 6" in out and "match: True" in out
    code, out, _ = _run(capsys, "verify", path, "--t", "2")
    assert code == 0
    assert "recomputed lambda: 36" in out


def test_memory_error_exits_2(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_verify", exhausted)
    code, out, err = _run(capsys, "verify", "any.txt")
    assert (code, out, err) == (2, "", "error: MemoryError\n")


def test_memory_error_exits_2_after_the_parser_is_built(capsys, monkeypatch):
    # the parser is built once per process; a handler replaced after that
    # is still the one that runs
    assert _run(capsys, "check", "41", "5")[0] == 0
    test_memory_error_exits_2(capsys, monkeypatch)


def test_text_is_rendered_from_the_json_answer(capsys, monkeypatch):
    # the renderer is looked up at call time, after the parser is built
    code, out, _ = _run(capsys, "check", "41", "10", "--json")
    seen = []
    monkeypatch.setattr(cli, "text_check", seen.append)
    assert _run(capsys, "check", "41", "10") == (code, "", "")
    assert seen == [json.loads(out)]


def test_reused_parser_keeps_no_options_from_earlier_calls(capsys):
    code, out, _ = _run(capsys, "check", "41", "5", "--alpha", "7", "--json")
    assert (code, json.loads(out)["alpha"]) == (0, 7)
    code, out, _ = _run(capsys, "check", "41", "5", "--json")
    assert (code, json.loads(out)["alpha"]) == (0, 6)


def test_reused_parser_matches_fresh_parsers(capsys):
    argvs = (["sweep", "--table", "--qmax", "3000"], ["sweep", "--k", "5", "--qmax", "3000"])
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(_run(capsys, *argv))
    cli._build_parser.cache_clear()
    reused = [_run(capsys, *argv) for argv in argvs]
    assert reused == fresh
    assert fresh[1][0] == 0 and fresh[1][1].startswith("41 61 ")


def test_build_non_design_file(capsys, tmp_path):
    path = str(tmp_path / "nd.txt")
    code, out, _ = _run(capsys, "build", "17", "4", "--out", path)
    assert code == 0
    assert f"[{design.NON_DESIGN_FLAG}]" in out
    with open(path) as fh:
        head = fh.readline().strip()
        flag = fh.readline().strip()
    assert head == "18 4 0 306"
    assert flag == design.NON_DESIGN_FLAG
    # verification of an honest non-design file succeeds
    code, out, _ = _run(capsys, "verify", path)
    assert code == 0


def test_build_budget_exceeded(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PSL_DESIGNS_BUDGET", "10")
    path = str(tmp_path / "never.txt")
    code, _, err = _run(capsys, "build", "41", "10", "--out", path)
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("raw", ["0", "-5"])
def test_build_non_positive_budget_is_bad_input(capsys, tmp_path, monkeypatch, raw):
    monkeypatch.setenv("PSL_DESIGNS_BUDGET", raw)
    path = tmp_path / "never.txt"
    code, out, err = _run(capsys, "build", "13", "4", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: PSL_DESIGNS_BUDGET is not a positive integer: '{raw}'\n"
    assert not path.exists()


def test_build_over_budget_refused_before_permutations(capsys, tmp_path, monkeypatch):
    """An orbit that cannot fit the default budget is refused before the
    O(q) point permutations are built, with the same message."""
    def no_permutation(spec, g):
        raise AssertionError("built a point permutation")

    monkeypatch.delenv("PSL_DESIGNS_BUDGET", raising=False)
    monkeypatch.setattr(projline, "point_permutation", no_permutation)
    path = tmp_path / "never.txt"
    code, out, err = _run(capsys, "build", "1000003", "6", "--out", str(path))
    assert (code, out, err) == (2, "", "error: orbit exceeds block budget of 1000000\n")
    assert not path.exists()


def test_seq(capsys):
    code, out, _ = _run(capsys, "seq", "3797", "13", "--alpha", "128")
    assert code == 0
    assert out.strip() == "alpha=128: -1,+1,-1,+1,+1,-1"
    code, out, _ = _run(capsys, "seq", "3797", "13", "--json")
    data = json.loads(out)
    assert data["sequence"] == [1, 1, -1, 1, -1, -1]
    assert data["convention"] == "odd"
    assert data["gives_design"] is True


def test_sweep_single_k(capsys):
    code, out, _ = _run(capsys, "sweep", "--k", "5", "--qmax", "700")
    assert code == 0
    assert out.strip() == "41 61 241 281 421 601 641 661"


def test_sweep_csv(capsys):
    code, out, _ = _run(capsys, "sweep", "--k", "5", "--qmax", "100", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,k_mod_24,q,p,n,e_parity,lambda,gives_design"
    assert lines[1] == "5,5,41,41,1,even,3,True"
    assert lines[2] == "5,5,61,61,1,even,3,True"


def test_sweep_json(capsys):
    code, out, _ = _run(capsys, "sweep", "--k", "5", "--qmax", "100", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["q"] for r in rows] == [41, 61]
    assert all(r["gives_design"] for r in rows)


def test_sweep_table(capsys):
    code, out, _ = _run(capsys, "sweep", "--table", "--qmax", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(search.SWEEP_TABLE_KS)
    assert lines[0] == "k=5 (mod 24: 5): 41 61"


def test_sweep_pair(capsys):
    code, out, _ = _run(capsys, "sweep", "--pair", "5", "10", "--qmax", "2000")
    assert code == 0
    assert "coincide up to the bound" in out
    code, out, _ = _run(capsys, "sweep", "--pair", "17", "34", "--qmax", "1000")
    assert code == 1
    assert "diverge at 613" in out


def test_sweep_requires_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--qmax", "100"])
    assert exc.value.code == 2


def test_sweep_rejects_bad_arguments(capsys):
    for argv in (
        ["sweep", "--k", "0", "--qmax", "100"],
        ["sweep", "--k", "3", "--qmax", "1000"],
        ["sweep", "--k", "5", "--qmax", "-5"],
        ["sweep", "--pair", "5", "3", "--qmax", "1000"],
        ["sweep", "--k", "3", "--qmax", "1000", "--json"],
        ["sweep", "--k", "3", "--qmax", "1000", "--csv"],
        ["sweep", "--k", "5", "--qmax", "-5", "--json"],
        ["sweep", "--k", "5", "--qmax", "-5", "--csv"],
        ["sweep", "--table", "--qmax", "0", "--json"],
        ["sweep", "--k", "13", "--prime-powers", "--qmax", "-1", "--csv"],
        ["thm510", "--pmax", "-3"],
        ["thm1326", "--pmax", "0"],
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv


def test_thm510_command(capsys):
    code, out, _ = _run(capsys, "thm510", "--pmax", "700", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_consistent"] is True
    assert data["primes_checked"] == 14
    assert data["hits"] == [41, 61, 241, 281, 421, 601, 641, 661]


def test_thm1326_command(capsys):
    code, out, _ = _run(capsys, "thm1326", "--pmax", "4000", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_consistent"] is True
    assert data["hits"] == [3121, 3797]


def test_lift_command(capsys):
    code, out, _ = _run(capsys, "lift", "29", "13", "3")
    assert code == 0
    assert "(29, 13) base: False" in out
    assert "(24389, 13) lifted (n=3): True" in out
    assert "consistent with lifting rule: True" in out
    code, _, err = _run(capsys, "lift", "41", "5", "0")
    assert code == 2
    assert "positive" in err


def test_lift_rejects_bad_fields(capsys):
    # 41^7 is over the field size limit and 12 is not a prime power:
    # both are input errors, not a verdict on the lifting rule
    code, out, err = _run(capsys, "lift", "41", "5", "7")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "size limit" in err
    code, out, err = _run(capsys, "lift", "12", "5", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "not a prime power" in err


def test_lift_refuses_an_oversize_degree_before_the_power(capsys):
    # 41^n for n in the millions used to be built digit by digit, and then
    # failed on its decimal string instead of on the size limit
    for n in ("32", "300000", "10000000"):
        start = time.perf_counter()
        code, out, err = _run(capsys, "lift", "41", "5", n)
        assert time.perf_counter() - start < 1.0, n
        assert (code, out) == (2, ""), n
        assert err == f"error: q = 41^{n} exceeds the size limit {gf.DEFAULT_Q_LIMIT}\n"


def test_field_commands_refuse_oversize_q_before_factorising(capsys, monkeypatch):
    def no_factorize(m):
        raise AssertionError(f"factorised {m}")

    monkeypatch.setattr(gf, "factorize", no_factorize)
    q = str(2**61 - 1)  # a prime: trial division would take about 2^30 steps
    for argv in (["check", q, "5"], ["seq", q, "5", "--json"], ["lift", q, "5", "1"]):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "exceeds the size limit" in err, argv


def test_field_commands_refuse_q_below_one_as_not_a_prime_power(capsys):
    # q = 0 and q < 0 get the message of q = 1, not that of gf.factorize
    cases = (["check", "0", "5"], ["check", "-7", "5"], ["oracle", "0"], ["lift", "0", "5", "2"])
    for argv in cases:
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {argv[1]} is not a prime power\n", argv


def test_oracle_command(capsys):
    code, out, _ = _run(capsys, "oracle", "13")
    assert code == 0
    assert "364 triples in 2 orbits" in out
    assert "agreement: True" in out
    code, out, _ = _run(capsys, "oracle", "29", "--trials", "50", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["triples"] == 4060
    assert data["classifier_mismatches"] == 0
    assert data["covariance_failures"] == 0
    assert data["seed"] == cli.DEFAULT_SEED


def test_oracle_reports_a_covariance_failure(capsys, monkeypatch):
    """With every trial's map replaced by z -> 2z, which has the nonsquare
    determinant 2 in GF(13), so it lies in PGL(2,13) outside PSL(2,13) and
    swaps the two triple orbits, every covariance trial fails while the
    classifier still agrees, and the oracle exits 1 with agreement
    false."""
    real = projline.sample_trials

    def scaling(tables, rng, trials):
        for elems, triples in real(tables, rng, trials):
            yield np.broadcast_to([2, 0, 0, 1], elems.shape), triples

    monkeypatch.setattr(projline, "sample_trials", scaling)
    code, out, _ = _run(capsys, "oracle", "13", "--trials", "40", "--json")
    data = json.loads(out)
    assert code == 1
    assert (data["classifier_mismatches"], data["covariance_failures"]) == (0, 40)
    assert data["agreement"] is False
    code, out, _ = _run(capsys, "oracle", "13", "--trials", "40")
    assert code == 1 and "agreement: False" in out


def test_oracle_rejects_bad_q(capsys):
    code, _, err = _run(capsys, "oracle", "19")
    assert code == 2
    assert "1 mod 4" in err
    code, _, err = _run(capsys, "oracle", "97")
    assert code == 2
    assert "oracle limit" in err


def test_oracle_rejects_negative_trials(capsys):
    code, out, err = _run(capsys, "oracle", "13", "--trials", "-5")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--trials" in err
    code, out, _ = _run(capsys, "oracle", "13", "--trials", "0")
    assert code == 0 and "covariance failures: 0/0" in out


def test_oracle_errors_come_in_order(capsys):
    """A negative --trials first, then q over the limit, then q = 3 mod 4."""
    for argv, message in (
        (("97", "--trials", "-5"), "--trials"),
        (("67", "--trials", "-5"), "--trials"),
        (("67",), "oracle limit"),
        (("19",), "1 mod 4"),
    ):
        code, out, err = _run(capsys, "oracle", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and message in err, argv


def test_oracle_memory_does_not_grow_with_trials(capsys):
    """The trials are drawn and checked a chunk at a time: 20,000 of them
    peak under 3 MiB, where holding them all at once takes about 7 MiB."""
    tracemalloc.start()
    try:
        code, out, _ = _run(capsys, "oracle", "13", "--trials", "20000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "covariance failures: 0/20000" in out
    assert peak < 3 * 2**20, peak


_SWEEP_MODES = (
    (["--table"], search.SWEEP_TABLE_KS, False),
    *((["--k", str(k)], (k,), False) for k in search.SWEEP_TABLE_KS),
    (["--k", "13", "--prime-powers"], (13,), True),
)


@pytest.mark.parametrize("bound", [40, 60, 300, 3000, 50000])
def test_sweep_rows_match_the_reference_renderer(capsys, bound):
    """The streamed --json and --csv bytes are those of one dict per row
    passed to json.dumps and csv.DictWriter."""
    for flags, ks, pp in _SWEEP_MODES:
        rows = sweep_row_dicts(ks, bound, pp)
        for fmt, render in (("--json", sweep_json), ("--csv", sweep_csv)):
            argv = ["sweep", *flags, "--qmax", str(bound), fmt]
            assert _run(capsys, *argv) == (0, render(rows), ""), argv


def test_sweep_rows_empty_and_partly_empty(capsys):
    """What the reference cases at 40 and 60 cover: at 40 no k has a
    candidate, which prints an empty list or the CSV header alone; at 60
    empty k blocks lie between and after non-empty ones, which only the
    non-empty blocks may separate."""
    assert _run(capsys, "sweep", "--table", "--qmax", "40", "--json") == (0, "[]\n", "")
    header = "k,k_mod_24,q,p,n,e_parity,lambda,gives_design\r\n"
    assert _run(capsys, "sweep", "--table", "--qmax", "40", "--csv") == (0, header, "")
    sizes = [len(b) for b in search.sweep_rows(search.SWEEP_TABLE_KS, 60)]
    assert sizes[:4] == [1, 1, 1, 0] and sizes.count(0) > 1


class _Discard:
    """A stdout that keeps only the number of characters written."""

    size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_sweep_rows_stream_in_bounded_memory():
    """--json, --csv and text write their rows one block chunk at a time
    from the blocks' columns, so memory holds neither the output nor a row
    per candidate: the table to 200,000 peaks under 2.5 MiB, where
    rendering every row at once takes 7.2 MiB for JSON and 3.5 MiB for
    CSV; `--k 5 --json` to 2,000,000 (18,586 rows, 2.05 MiB of output)
    under 2 MiB, where holding a SweepEntry per row and every row's string
    took 8.6 MiB; and `--k 5` in text to 10,000,000 under 2 MiB, where
    holding every hit as a Python int took 4.4 MiB."""
    rows = sweep_row_dicts(search.SWEEP_TABLE_KS, 200000)
    cases = [
        (["--table", "--qmax", "200000", fmt], len(render(rows)), 2.5)
        for fmt, render in (("--json", sweep_json), ("--csv", sweep_csv))
    ] + [
        (["--k", "5", "--qmax", "2000000", "--json"], 2_152_243, 2),
        (["--k", "5", "--qmax", "10000000"], 326_177, 2),
    ]
    for argv, size, mib in cases:
        sink = _Discard()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(["sweep", *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, sink.size) == (0, size), argv
        assert peak < mib * 2**20, (argv, peak)


def test_sweep_renders_without_a_sweep_entry(capsys, monkeypatch):
    """Every rendering of the table, and of one k with prime powers, reads
    the blocks' columns: with search.SweepEntry replaced by a function
    that raises, text, --csv and --json print what they print with it."""
    argvs = [
        ["sweep", *mode, "--qmax", "30000", *fmt]
        for mode in (["--table"], ["--k", "13", "--prime-powers"])
        for fmt in ([], ["--csv"], ["--json"])
    ]
    want = [_run(capsys, *argv) for argv in argvs]
    assert all(code == 0 and out and not err for code, out, err in want)

    def refused(*args):
        raise AssertionError(f"SweepEntry{args}")

    monkeypatch.setattr(search, "SweepEntry", refused)
    for argv, expected in zip(argvs, want):
        assert _run(capsys, *argv) == expected, argv


def test_sweep_rejects_options_its_mode_ignores(capsys):
    for argv, flag in (
        (["--pair", "5", "10", "--k", "5"], "--k"),
        (["--pair", "5", "10", "--prime-powers"], "--prime-powers"),
        (["--pair", "5", "10", "--csv"], "--csv"),
        (["--pair", "5", "10", "--table", "--json"], "--table"),
        (["--table", "--k", "3"], "--k"),
        (["--k", "5", "--table", "--csv"], "--k"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", *argv, "--qmax", "100"])
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and f"cannot be combined with {flag}" in err, argv
    # every mode still takes the options it uses
    code, out, _ = _run(capsys, "sweep", "--k", "5", "--qmax", "100", "--csv", "--json")
    assert code == 0 and json.loads(out)[0]["q"] == 41


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_threads_option_is_gone(capsys):
    """Every scan runs in the calling process; --threads is a usage error."""
    for argv in (
        ["sweep", "--k", "5", "--qmax", "700", "--threads", "2"],
        ["thm510", "--pmax", "700", "--threads", "2"],
        ["thm1326", "--pmax", "700", "--threads", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threads" in err and "Traceback" not in err


def _assert_alpha_refused(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith("error:") and "outside the range 1 <= alpha" in err, argv


def test_check_rejects_alpha_out_of_range(capsys):
    # 47 = 6 mod 41 and 60 truncates to the encoding 11 of GF(49): both
    # used to be accepted and reported as given
    for alpha in ("47", "41", "-6", "0"):
        _assert_alpha_refused(capsys, ["check", "41", "5", "--alpha", alpha])
    _assert_alpha_refused(capsys, ["check", "49", "8", "--alpha", "60", "--json"])
    # in range but of the wrong order: still refused, for that reason
    code, _, err = _run(capsys, "check", "41", "5", "--alpha", "40")
    assert code == 2 and "does not generate" in err


def test_seq_rejects_alpha_out_of_range(capsys):
    _assert_alpha_refused(capsys, ["seq", "41", "5", "--alpha", "47"])
    _assert_alpha_refused(capsys, ["seq", "49", "8", "--alpha", "60", "--json"])


def test_build_rejects_alpha_out_of_range(capsys, tmp_path):
    out = tmp_path / "d.txt"
    _assert_alpha_refused(capsys, ["build", "49", "8", "--alpha", "60", "--out", str(out)])
    _assert_alpha_refused(capsys, ["build", "41", "5", "--alpha", "47", "--out", str(out)])
    assert not out.exists()


def test_sweep_bound_over_size_limit(capsys, monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(search, "sieve_primes", no_sieve)
    monkeypatch.setattr(search, "_progression_primes", lambda m, bound: no_sieve(bound))
    big = str(gf.DEFAULT_Q_LIMIT + 1)
    for argv in (
        ["sweep", "--k", "5", "--qmax", big],
        ["sweep", "--table", "--qmax", big],
        ["sweep", "--table", "--qmax", big, "--csv"],
        ["sweep", "--table", "--qmax", big, "--json"],
        ["sweep", "--k", "5", "--qmax", big, "--json"],
        ["sweep", "--k", "13", "--prime-powers", "--qmax", big, "--csv"],
        ["sweep", "--pair", "5", "10", "--qmax", big],
        ["thm1326", "--pmax", big],
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "exceeds the size limit" in err, argv

