"""Tests for the sweep, pair-coincidence, lift, and equivalence scans."""

import math
import tracemalloc

import numpy as np
import pytest

from psldesigns import cli, gf, search, starter
from scalar_oracles import prime_flags, sweep_row_dicts


def test_sieve_primes_against_naive():
    naive = [
        n for n in range(2, 301) if all(n % d for d in range(2, math.isqrt(n) + 1))
    ]
    assert search.sieve_primes(300) == naive
    assert search.sieve_primes(1) == []


def test_sieve_primes_is_the_progression_sieve_at_m_1():
    """sieve_primes is empty below 2, equals the full sieve up to 10**6,
    and refuses a limit its base primes cannot sieve."""
    assert [search.sieve_primes(n) for n in (-1, 0, 1, 2)] == [[], [], [], [2]]
    assert search.sieve_primes(10**6) == np.flatnonzero(prime_flags(10**6)).tolist()
    with pytest.raises(ValueError, match="exceeds the size limit"):
        search.sieve_primes(2**31 + 1)


def _progression(m, bound):
    return [q for seg in search._progression_primes(m, bound) for q in seg.tolist()]


def test_progression_sieve_matches_prime_flags(monkeypatch):
    """The primes q = 1 mod m of the progression sieve are those of the
    full sieve, at bounds past the square of the smallest prime
    p = 1 mod m (17, 41, 53, 101, 233 and 1061), which must not strike
    itself, and for segments of 1, 7 and 1000 values of j."""
    flags = prime_flags(1_200_000)
    moduli = (8, 20, 52, 100, 116, 212)
    for bound in (1682, 60_000, 1_200_000):
        primes = np.flatnonzero(flags[: bound + 1])
        for m in moduli:
            assert _progression(m, bound) == primes[primes % m == 1].tolist(), (m, bound)
    assert [_progression(m, 1_200_000)[0] for m in moduli] == [17, 41, 53, 101, 233, 1061]
    want = [_progression(m, 5000) for m in moduli]
    entries = search.sweep_entries(13, 30000, include_prime_powers=True)
    for rows in (1, 7, 1000):
        monkeypatch.setattr(search, "SIEVE_SEGMENT", rows)
        assert [_progression(m, 5000) for m in moduli] == want, rows
        assert search.sweep_entries(13, 30000, include_prime_powers=True) == entries
    assert _progression(20, 1) == _progression(20, 21) == []


def test_largest_bound_holds_one_segment(monkeypatch, capsys):
    """sweep_entries, thm_equivalence_sweep and the CLI at the largest
    accepted bound 2**31 - 1, stopped after their first segment: they
    answer for the primes 1 + 20j with j <= SIEVE_SEGMENT, hold no array
    that grows with the bound (a flag per integer would be 2 GiB, one per
    j 107 MB), and exit 0 without a traceback."""
    real = search._progression_primes
    segments = []

    def first_segment(m, bound):
        segments.append(next(real(m, bound)))
        yield segments[-1]

    monkeypatch.setattr(search, "_progression_primes", first_segment)
    top = 2**31 - 1
    tracemalloc.start()
    try:
        entries = search.sweep_entries(5, top)
        rep = search.thm_equivalence_sweep("thm510", top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    for argv in (["sweep", "--k", "5", "--qmax", str(top)], ["thm510", "--pmax", str(top)]):
        assert cli.main(argv) == 0, argv
        assert "Traceback" not in capsys.readouterr().err
    end = 1 + 20 * search.SIEVE_SEGMENT
    primes = np.flatnonzero(prime_flags(end))
    want = primes[primes % 20 == 1].tolist()
    assert len(segments) == 4 and all(seg.tolist() == want for seg in segments)
    assert (rep.checked, rep.all_consistent) == (len(want), True)
    monkeypatch.undo()
    assert entries == search.sweep_entries(5, end)
    assert rep.hits == search.thm_equivalence_sweep("thm510", end).hits


def test_enumerate_prime_powers():
    pps = search.enumerate_prime_powers(25000)
    for entry in [(2, 3, 8), (5, 2, 25), (3, 3, 27), (29, 3, 24389)]:
        assert entry in pps
    assert all(p**n == q for p, n, q in pps)
    assert pps == sorted(pps, key=lambda t: t[2])
    assert search.enumerate_prime_powers(10) == [
        (2, 1, 2), (3, 1, 3), (2, 2, 4), (5, 1, 5), (7, 1, 7),
        (2, 3, 8), (3, 2, 9),
    ]


def test_sweep_modulus():
    assert search.sweep_modulus(5) == 20
    assert search.sweep_modulus(10) == 20
    assert search.sweep_modulus(13) == 52
    assert search.sweep_modulus(4) == 8
    assert search.sweep_modulus(6) == 12


def test_sweep_k5_frozen():
    res = search.sweep(5, 700)
    assert (res.k, res.bound) == (5, 700)
    assert res.hits == (41, 61, 241, 281, 421, 601, 641, 661)
    # the prime-power candidates below 700 for k = 5 are 81, 121 and 361,
    # and none of them is a hit
    entries = search.sweep_entries(5, 700, include_prime_powers=True)
    assert [e.q for e in entries if e.n > 1] == [81, 121, 361]
    assert search.sweep(5, 700, include_prime_powers=True).hits == res.hits
    assert search.sweep(5, 1000).hits == res.hits + (701, 821, 881)


def test_sweep_k34_frozen():
    assert search.sweep(34, 6529).hits == (613, 3877, 6529)


def test_sweep_inadmissible_k_is_empty():
    assert search.sweep(12, 2000).hits == ()


def test_sweep_entries_fields():
    entries = search.sweep_entries(5, 200)
    assert [e.q for e in entries] == [41, 61, 101, 181]
    for e in entries:
        assert (e.k, e.p, e.n) == (5, e.q, 1)
        assert e.e == (e.q - 1) // 5 and e.e % 2 == 0
        assert e.lam == (3 if e.gives_design else None)
    assert [e.gives_design for e in entries] == [True, True, False, False]


def test_sweep_chunking_never_changes_entries(monkeypatch):
    """Kernel chunks of 1 row, of 7 rows and of more rows than there are
    candidates give the same sweep entries and equivalence reports; the
    k = 13 sweep with prime powers mixes kernel rows with extension
    fields."""
    cases = [(5, 3000, False), (13, 30000, True), (58, 20000, False)]
    want = [search.sweep_entries(k, q_max, pp) for k, q_max, pp in cases]
    assert [len(w) for w in want] == [48, 148, 46]
    assert any(ent.n > 1 for ent in want[1])
    scans = [("thm510", 3000), ("thm1326", 30000)]
    want_scans = [search.thm_equivalence_sweep(name, p_max) for name, p_max in scans]
    # the scans check the prime candidates of the k = 5 and k = 13 sweeps
    assert [rep.checked for rep in want_scans] == [48, 140]
    for rows in (1, 7, 10**6):
        monkeypatch.setattr(search, "DECIDE_CHUNK_ROWS", rows)
        got = [search.sweep_entries(k, q_max, pp) for k, q_max, pp in cases]
        assert got == want, rows
        got = [search.thm_equivalence_sweep(name, p_max) for name, p_max in scans]
        assert got == want_scans, rows


def test_sweep_bound_over_size_limit_refused_before_sieving(monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(search, "sieve_primes", no_sieve)
    monkeypatch.setattr(search, "_progression_primes", lambda m, bound: no_sieve(bound))
    big = gf.DEFAULT_Q_LIMIT + 1
    calls = [
        lambda: search.sweep_entries(5, big),
        lambda: search.sweep(13, big, include_prime_powers=True),
        lambda: search.sweep_rows(search.SWEEP_TABLE_KS, big),
        lambda: search.verify_pair_coincidence(5, 10, big),
        lambda: search.thm_equivalence_sweep("thm510", big),
        lambda: search.sweep_entries(5, 10**12),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="exceeds the size limit"):
            call()


def test_sweep_rows_shape():
    """One block per k, each that k's sweep_entries list; the reference
    renderer turns the blocks into rows of the CSV/JSON columns."""
    blocks = list(search.sweep_rows([5, 17], 100))
    assert blocks == [search.sweep_entries(5, 100), search.sweep_entries(17, 100)]
    assert [len(b) for b in blocks] == [2, 0]
    assert blocks[0][0] == search.SweepEntry(5, 41, 41, 1, 8, True, 3)
    rows = sweep_row_dicts([5, 17], 100)
    assert len(rows) == 2
    cols = ["k", "k_mod_24", "q", "p", "n", "e_parity", "lambda", "gives_design"]
    for row in rows:
        assert list(row) == cols
    assert rows[0] == {
        "k": 5, "k_mod_24": 5, "q": 41, "p": 41, "n": 1,
        "e_parity": "even", "lambda": 3, "gives_design": True,
    }


def test_sweep_rows_checks_every_argument_before_the_first_block(monkeypatch):
    """A refused sweep_rows call decides nothing: the k and bound checks
    all run before the first block, and the blocks are decided lazily."""
    calls = []
    real = search.sweep_entries
    monkeypatch.setattr(search, "sweep_entries", lambda *a: calls.append(a) or real(*a))
    for ks, bound, message in (
        ([5, 3], 100, "outside the range k > 3"),
        ([5, 10], -5, "must be positive"),
        (search.SWEEP_TABLE_KS, gf.DEFAULT_Q_LIMIT + 1, "exceeds the size limit"),
    ):
        with pytest.raises(ValueError, match=message):
            search.sweep_rows(ks, bound)
    assert calls == []
    blocks = search.sweep_rows([5, 10], 100)
    assert calls == []
    next(blocks)
    assert calls == [(5, 100, False)]


def test_pair_divergences_frozen():
    scan = search.verify_pair_coincidence(5, 13, 100)
    assert (scan.first_divergence, scan.coincide) == (41, False)
    assert scan.hits1 == (41, 61) and scan.hits2 == ()
    assert search.verify_pair_coincidence(17, 34, 1000).first_divergence == 613
    assert search.verify_pair_coincidence(29, 58, 2500).first_divergence == 1973
    scan = search.verify_pair_coincidence(25, 50, 2000)
    assert scan.first_divergence == 1601
    assert scan.hits1 == (601,) and scan.hits2 == (601, 1601)


def test_pair_coincidence_frozen():
    scan = search.verify_pair_coincidence(5, 10, 2000)
    assert scan.coincide
    assert scan.hits1 == scan.hits2
    assert scan.hits1[:8] == (41, 61, 241, 281, 421, 601, 641, 661)
    scan = search.verify_pair_coincidence(13, 26, 5000)
    assert scan.coincide
    assert scan.hits1 == (3121, 3797, 4993)


def test_coincident_pair_report():
    # every pair (k, 2k) with k <= 30 that passes the mod-24 filter, to 3000
    admissible = starter.admissible_k
    ks = [k for k in range(4, 31) if admissible(k) and admissible(2 * k)]
    assert ks == [5, 13, 17, 25, 29]
    scans = [search.verify_pair_coincidence(k, 2 * k, 3000) for k in ks]
    assert [s.first_divergence for s in scans] == [None, None, 613, 1601, 1973]


def test_lift_check_frozen():
    res = search.lift_check(29, 13, 3)
    assert (res.base, res.lifted_q, res.lifted) == (False, 24389, True)
    assert res.consistent

    res = search.lift_check(41, 5, 2)
    assert (res.base, res.lifted) == (True, False)
    assert res.consistent

    res = search.lift_check(41, 5, 3)
    assert (res.base, res.lifted) == (True, True)
    assert res.consistent

    res = search.lift_check(19, 6, 2)
    assert (res.base, res.lifted) == (True, False)
    assert res.consistent

    # 7 divides neither 40 nor 41^3 - 1: not a starter pair, so False
    res = search.lift_check(41, 7, 3)
    assert (res.base, res.lifted) == (False, False)

    with pytest.raises(ValueError):
        search.lift_check(41, 5, 0)


def test_lift_check_refuses_a_pair_before_building_its_field(monkeypatch):
    """(3^19, 4) fails 4 | q - 1, so lift 3 4 19 answers False without
    GF(3^19): a build of that field fails the test."""
    build = gf.make_extension_field

    def guarded(p, n):
        if (p, n) == (3, 19):
            raise AssertionError("built GF(3^19)")
        return build(p, n)

    monkeypatch.setattr(gf, "make_extension_field", guarded)
    want = search.LiftCheck(3, 4, 19, base=False, lifted_q=3**19, lifted=False)
    assert search.lift_check(3, 4, 19) == want
    # a q that names no odd field still raises, as before
    with pytest.raises(ValueError, match="must be odd"):
        search.lift_check(2, 5, 3)
    with pytest.raises(ValueError, match="not a prime power"):
        search.lift_check(12, 5, 2)


def test_thm510_equivalence_sweep():
    rep = search.thm_equivalence_sweep("thm510", 1000)
    assert rep.checked == 19
    assert rep.disagreements == ()
    assert rep.all_consistent
    assert rep.hits == (41, 61, 241, 281, 421, 601, 641, 661, 701, 821, 881)


def test_thm1326_equivalence_sweep():
    rep = search.thm_equivalence_sweep("thm1326", 5000)
    assert rep.checked == 27
    assert rep.disagreements == ()
    assert rep.hits == (3121, 3797, 4993)


def test_thm_equivalence_sweep_unknown_name():
    with pytest.raises(ValueError):
        search.thm_equivalence_sweep("thm999", 100)
