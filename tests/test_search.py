"""Tests for the sweep, pair-coincidence, lift, and equivalence scans."""

import collections
import math
import sys
import tracemalloc

import numpy as np
import pytest

from psldesigns import cli, gf, search, starter
from scalar_oracles import prime_flags, sweep_entries_by_row, sweep_row_dicts


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


def test_every_sweep_candidate_has_an_even_cofactor():
    """q = 1 mod lcm(4, 2k) makes every cofactor e = (q-1)/k even, so one
    lambda, (k-1)(k-2)/4, covers every hit of a sweep: every row of the
    14 table sweeps up to 3*10^5, prime powers included."""
    rows = powers = 0
    for k in search.SWEEP_TABLE_KS:
        entries = search.sweep_entries(k, 300_000, include_prime_powers=True)
        rows += len(entries)
        powers += sum(ent.n > 1 for ent in entries)
        for ent in entries:
            assert ent.e * k == ent.q - 1 and ent.e % 2 == 0, (k, ent.q)
            assert ent.lam == ((k - 1) * (k - 2) // 4 if ent.gives_design else None)
    assert (rows, powers) == (13_983, 235)


def test_sweep_chunking_never_changes_entries(monkeypatch, capsys):
    """Kernel chunks of 1 row, of 7 rows and of more rows than there are
    candidates give the same sweep entries and equivalence reports; the
    k = 13 sweep with prime powers mixes kernel rows with extension
    fields. Text, --csv and --json of the table and of k = 13 with prime
    powers to 8000, written a block chunk at a time, print the same bytes,
    and some chunks of 1 and of 7 rows of the k = 13 block hold no hit."""
    cases = [(5, 3000, False), (13, 30000, True), (58, 20000, False)]
    want = [search.sweep_entries(k, q_max, pp) for k, q_max, pp in cases]
    assert [len(w) for w in want] == [48, 148, 46]
    assert any(ent.n > 1 for ent in want[1])
    scans = [("thm510", 3000), ("thm1326", 30000)]
    want_scans = [search.thm_equivalence_sweep(name, p_max) for name, p_max in scans]
    # the scans check the prime candidates of the k = 5 and k = 13 sweeps
    assert [rep.checked for rep in want_scans] == [48, 140]
    argvs = [
        ["sweep", *mode, "--qmax", "8000", *fmt]
        for mode in (["--table"], ["--k", "13", "--prime-powers"])
        for fmt in ([], ["--csv"], ["--json"])
    ]

    def printed():
        return [(cli.main(argv), *capsys.readouterr()) for argv in argvs]

    want_printed = printed()
    assert all(code == 0 and out and not err for code, out, err in want_printed)
    for rows in (1, 7, 10**6):
        monkeypatch.setattr(search, "DECIDE_CHUNK_ROWS", rows)
        got = [search.sweep_entries(k, q_max, pp) for k, q_max, pp in cases]
        assert got == want, rows
        got = [search.thm_equivalence_sweep(name, p_max) for name, p_max in scans]
        assert got == want_scans, rows
        (block,) = search.sweep_rows([13], 8000, True)
        hits = [int(ok.sum()) for *_, ok in block.chunks()]
        assert sum(hits) == 5 and (0 in hits) == (rows < 10**6), rows
        assert printed() == want_printed, rows


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
    """One block per k, whose rows expand to that k's sweep_entries list;
    the reference renderer turns the entries into rows of the CSV/JSON
    columns."""
    blocks = list(search.sweep_rows([5, 17], 100))
    expanded = [b.entries() for b in blocks]
    assert expanded == [search.sweep_entries(5, 100), search.sweep_entries(17, 100)]
    assert [len(b) for b in blocks] == [2, 0]
    assert expanded[0][0] == search.SweepEntry(5, 41, 41, 1, 8, True, 3)
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
    all run before the first block, and the blocks are decided lazily,
    the first one for one k or for one pair (k, 2k) in a single pass."""
    calls = []
    for name in ("decide_prime_batch", "decide_pair_batch"):
        real = getattr(starter, name)
        probe = lambda k, qs, name=name, real=real: calls.append((name, k)) or real(k, qs)
        monkeypatch.setattr(starter, name, probe)
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
    assert calls == [("decide_pair_batch", 5)]
    next(blocks)  # k = 10 from the columns the pair pass held
    assert calls == [("decide_pair_batch", 5)]
    calls.clear()
    blocks = search.sweep_rows([5, 17], 100)
    assert calls == []
    next(blocks)
    assert calls == [("decide_prime_batch", 5)]


@pytest.mark.parametrize("bound", [20, 300, 20_000, 10**6])
def test_sweep_rows_equal_the_per_k_sweeps(bound):
    """The blocks' rows, and sweep_entries of each k, equal the entries
    that the oracle builds one row at a time from each k's own kernel
    chunks, whether a k is decided alone, first of its pair, or from the
    columns its partner's pass held: the table, a pair asked for in
    reverse, one k, and a pair with an unpaired k after it, without and
    with prime powers. Bound 20 is below every candidate."""
    sets = (search.SWEEP_TABLE_KS, [10, 5], [5], [13, 26, 5])
    for pp in (False, True):
        want = {k: sweep_entries_by_row(k, bound, pp) for k in search.SWEEP_TABLE_KS}
        for ks in sets:
            got = [b.entries() for b in search.sweep_rows(ks, bound, pp)]
            assert got == [want[k] for k in ks], ks
        for k in search.SWEEP_TABLE_KS:
            assert search.sweep_entries(k, bound, pp) == want[k], (k, pp)
    assert (sum(map(len, want.values())) == 0) == (bound == 20)


def test_every_expanded_block_row_has_an_even_cofactor():
    """The renderers print every row's e_parity as even and one lambda
    per k: every row of the table's blocks to 3*10^5, paired, unpaired
    and prime-power rows alike, expands to an even e = (q-1)/k, and each
    hit to the block's lambda, (k-1)(k-2)/4."""
    rows = 0
    for block in search.sweep_rows(search.SWEEP_TABLE_KS, 300_000, True):
        k = block.k
        for ent in block.entries():
            assert ent.e * k == ent.q - 1 and ent.e % 2 == 0, (k, ent.q)
            assert ent.lam == ((k - 1) * (k - 2) // 4 if ent.gives_design else None)
        rows += len(block)
    assert rows == 13_983


def test_sweep_rows_keep_no_yielded_block(monkeypatch):
    """Once the next block is asked for, sweep_rows holds no reference to
    the one before, a paired or an unpaired one, so a consumer that drops
    a block frees it while the next is built."""
    monkeypatch.setattr(search, "DECIDE_CHUNK_ROWS", 7)
    blocks = search.sweep_rows([5, 17, 10, 37], 20_000)
    first = next(blocks)
    for _ in range(3):
        block = next(blocks)
        assert sys.getrefcount(first) == 2  # first and getrefcount's argument
        first = block
    assert len(first) > 0


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


# odd k whose pair (k, 2k) sweeps one candidate set, the primes q = 1 mod 4k
ONE_TABLE_KS = (5, 7, 13, 17, 25, 29, 37, 41, 49, 53)


def _two_sweeps(k1, k2, q_max):
    """The pair scan as two independent sweeps give it."""
    h1, h2 = search.sweep(k1, q_max).hits, search.sweep(k2, q_max).hits
    diff = set(h1) ^ set(h2)
    return search.PairScan(k1, k2, q_max, h1, h2, min(diff) if diff else None)


def test_one_table_pair_route_equals_two_sweeps(monkeypatch):
    """An odd k and 2k are decided together from one order-2k table per
    prime, with no SweepEntry built, and the scan equals two sweeps' for
    ten odd k up to 20000, also with kernel chunks of 7 rows and sieve
    segments of 50 values of j, so that hits fall on both sides of
    their boundaries."""
    want = {k: _two_sweeps(k, 2 * k, 20000) for k in ONE_TABLE_KS}
    assert [want[k].first_divergence for k in ONE_TABLE_KS] == [
        None, None, None, 613, 1601, 1973, 3109, 2789, 1373, 13781,
    ]
    assert len(want[5].hits1) == 143 and len(want[49].hits2) == 5

    def no_entries(*args):
        raise AssertionError(f"sweep_entries{args}")

    monkeypatch.setattr(search, "sweep_entries", no_entries)
    got = {k: search.verify_pair_coincidence(k, 2 * k, 20000) for k in ONE_TABLE_KS}
    assert got == want
    segments = []
    real = search._progression_primes

    def counted(m, bound):
        for seg in real(m, bound):
            segments.append(seg.size)
            yield seg

    monkeypatch.setattr(search, "DECIDE_CHUNK_ROWS", 7)
    monkeypatch.setattr(search, "SIEVE_SEGMENT", 50)
    monkeypatch.setattr(search, "_progression_primes", counted)
    for k in (5, 13, 17):
        segments.clear()
        assert search.verify_pair_coincidence(k, 2 * k, 20000) == want[k], k
        assert len(segments) > 1 and max(segments) > 7, k


def test_pair_scan_takes_one_route_in_either_order(monkeypatch):
    """(2k, k) is decided by decide_pair_batch(k) calls only, as (k, 2k)
    is, and equals two sweeps for the ten odd k; a pair of unrelated k
    reads each k's decide_prime_batch chunks and equals two sweeps too.
    Neither calls sweep_entries or sweep."""
    want = {k: _two_sweeps(2 * k, k, 20000) for k in ONE_TABLE_KS}
    unrelated = {pair: _two_sweeps(*pair, 20000) for pair in ((5, 13), (10, 26))}
    assert [unrelated[p].first_divergence for p in unrelated] == [41, 41]

    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name}{args}")

        return call

    for name in ("sweep_entries", "sweep"):
        monkeypatch.setattr(search, name, refused(name))
    calls = []
    for name in ("decide_prime_batch", "decide_pair_batch"):
        real = getattr(starter, name)
        probe = lambda k, qs, name=name, real=real: calls.append((name, k)) or real(k, qs)
        monkeypatch.setattr(starter, name, probe)
    for k in ONE_TABLE_KS:
        calls.clear()
        assert search.verify_pair_coincidence(2 * k, k, 20000) == want[k], k
        assert calls and set(calls) == {("decide_pair_batch", k)}, k
    for pair, scan in unrelated.items():
        calls.clear()
        assert search.verify_pair_coincidence(*pair, 20000) == scan, pair
        assert set(calls) == {("decide_prime_batch", k) for k in pair}, pair


def test_pair_refused_before_any_sweep(monkeypatch):
    """verify_pair_coincidence checks k1, then the bound, then k2, with
    the sweep's own messages, before it sieves anything, so a refused k2
    costs no sweep of k1."""

    def no_sieve(m, bound):
        raise AssertionError(f"sieved 1 mod {m} up to {bound}")

    monkeypatch.setattr(search, "_progression_primes", no_sieve)
    for args, message in (
        ((5, 3, 20_000_000), "k = 3 is outside"),
        ((5, 3, gf.DEFAULT_Q_LIMIT - 1), "k = 3 is outside"),
        ((3, 5, 20_000_000), "k = 3 is outside"),
        ((2, 3, 0), "k = 2 is outside"),
        ((5, 3, 0), "the bound must be positive"),
        ((5, 3, gf.DEFAULT_Q_LIMIT + 1), "exceeds the size limit"),
        ((13, 26, gf.DEFAULT_Q_LIMIT + 1), "exceeds the size limit"),
    ):
        with pytest.raises(ValueError, match=message):
            search.verify_pair_coincidence(*args)


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


def test_prime_powers_are_decided_from_their_subfield(monkeypatch):
    """Every prime-power candidate q = p^n <= 3*10**6 of the 14 table k:
    the block's verdict, taken from GF(p^d), d = ord_k(p) and n = d*m, is
    the scalar context's on the canonical GF(q). The candidates fall in
    the classes {m even: 291, unitary: 290, m odd with d < n: 12,
    d = n: 7}, and only the last two build a field: GF(p^d), none of them
    GF(q) itself when d < n. At k = 13 to 450,000 (perfbench's k13pp op)
    that is 3 fields for 23 candidates."""
    classes = collections.Counter()
    built, hits = [], []
    make = starter.make_starter_context
    monkeypatch.setattr(
        starter, "make_starter_context", lambda spec, *a: built.append(spec.q) or make(spec, *a)
    )
    for k in search.SWEEP_TABLE_KS:
        built.clear()
        block = search._block(k, (), 3 * 10**6, True)
        want_built = []
        for q, p, n, ok in zip(*(c.tolist() for c in (block.q, block.p, block.n, block.ok))):
            d, m = starter.subfield_degrees(p, n, k)
            assert d * m == n and pow(p, d, k) == 1 and all(pow(p, j, k) != 1 for j in range(1, d))
            unitary = d % 2 == 0 and pow(p, d // 2, k) == k - 1
            label = "m even" if m % 2 == 0 else "unitary" if unitary else "d < n" if d < n else "d = n"
            classes[label] += 1
            want_built += [p**d] * (label in ("d < n", "d = n"))
            hits += [(q, k)] * ok
            assert ok == starter.gives_design(make(gf.field_for_order(q), k)), (q, k)
        assert built == want_built, k
    assert classes == {"m even": 291, "unitary": 290, "d < n": 12, "d = n": 7}
    assert {(29**3, 13), (29**3, 26), (113**3, 13), (113**3, 26)} <= set(hits)
    built.clear()
    block = search._block(13, (), 450_000, True)
    assert (len(block), len(built)) == (23, 3)
