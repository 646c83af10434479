"""Tests for the starter-block decision layer."""

import dataclasses
import itertools
import math
import random
import re

import numpy as np
import pytest

from psldesigns import gf, search, starter

from scalar_oracles import (
    OrbitRep,
    delta_of_rep,
    delta_sum_brute,
    dihedral_orbit_reps,
    element_order,
    element_tables,
    has_representation,
    rep_gaps,
)


def _ctx(q, k, alpha=None):
    return starter.make_starter_context(gf.field_for_order(q), k, alpha=alpha)


def _small_primes(limit):
    return [p for p in range(3, limit + 1) if all(p % d for d in range(2, p))]


def test_context_fields(f41):
    ctx = starter.make_starter_context(f41, 5)
    assert (ctx.k, ctx.e, ctx.alpha) == (5, 8, 6)
    assert ctx.beta == 10
    assert ctx.block == (1, 10, 18, 16, 37)
    assert element_order(f41, ctx.beta) == 5
    assert ctx.block[0] == 1 and len(set(ctx.block)) == 5
    assert ctx.chi_table[0] == 0
    assert len(ctx.chi_table) == 5
    assert set(ctx.chi_table[1:]) <= {1, -1}
    # block is the subgroup listed in exponent order
    assert ctx.block[2] == gf.mul(f41, ctx.beta, ctx.beta)


def test_context_validation(f41):
    with pytest.raises(ValueError, match="does not divide"):
        starter.make_starter_context(f41, 7)
    with pytest.raises(ValueError, match="outside the range"):
        starter.make_starter_context(f41, 2)
    with pytest.raises(ValueError, match="outside the range"):
        starter.make_starter_context(f41, 40)
    f19 = gf.make_prime_field(19)
    with pytest.raises(ValueError, match="1 mod 4"):
        starter.make_starter_context(f19, 9)  # e = 2 but 19 = 3 mod 4
    starter.make_starter_context(f19, 6)  # e = 3, fine
    with pytest.raises(ValueError, match="does not generate"):
        starter.make_starter_context(f41, 5, alpha=2)


@pytest.mark.parametrize(("q", "k"), [(41, 5), (25, 6), (125, 31)])
def test_explicit_alpha_is_accepted_exactly_when_it_generates(q, k):
    """An explicit alpha passes exactly when the power-route oracle gives
    it order q - 1; every other element is refused with the same message.
    GF(27) has no valid k (13, the only divisor of 26 in range, leaves
    an even cofactor with q = 3 mod 4), so GF(125) stands for n = 3."""
    spec = gf.field_for_order(q)
    accepted = set()
    for a in range(1, q):
        if element_order(spec, a) == q - 1:
            assert starter.make_starter_context(spec, k, alpha=a).alpha == a
            accepted.add(a)
        else:
            msg = f"alpha = {a} does not generate GF({q})*"
            with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
                starter.make_starter_context(spec, k, alpha=a)
    # GF(q)* is cyclic, so it has phi(q - 1) generators
    assert len(accepted) == sum(math.gcd(j, q - 1) == 1 for j in range(q - 1))
    for a in (0, q):
        with pytest.raises(ValueError, match="outside the range"):
            starter.make_starter_context(spec, k, alpha=a)


def test_alpha_override_changes_table_not_block(f41):
    base = starter.make_starter_context(f41, 5)
    other = starter.make_starter_context(f41, 5, alpha=7)
    assert set(base.block) == set(other.block)
    assert other.beta in base.block
    # a case where the table itself moves
    spec = gf.make_prime_field(3797)
    a = starter.make_starter_context(spec, 13)
    b = starter.make_starter_context(spec, 13, alpha=128)
    assert set(a.block) == set(b.block)
    assert a.chi_table != b.chi_table


def _assert_matches_element_route(spec, k, alpha=None):
    """make_starter_context against the per-element mul/sub/chi loop,
    entry by entry, with every entry a Python int."""
    ctx = starter.make_starter_context(spec, k, alpha=alpha)
    block, table = element_tables(spec, k, ctx.beta)
    assert ctx.block == tuple(block), (spec.q, k, alpha)
    assert ctx.chi_table == tuple(table), (spec.q, k, alpha)
    assert all(type(x) is int for x in ctx.block + ctx.chi_table)


def _valid_ks(q, ks):
    out = []
    for k in ks:
        try:
            starter.starter_cofactor(q, k)
        except ValueError:
            continue
        out.append(k)
    return out


def test_array_context_matches_the_element_route_to_2000():
    """Every odd prime power q <= 2000, at every k that starter_cofactor
    accepts, with the canonical alpha. Where n >= 2 also with alpha^j for
    the least j > 1 prime to q - 1."""
    pairs = {1: 0, 2: 0}  # by n = 1 or n >= 2
    for q in range(5, 2001, 2):
        fac = gf.factorize(q)
        if len(fac) != 1:
            continue
        spec = gf.field_for_order(q)
        j = next(j for j in range(2, q) if math.gcd(j, q - 1) == 1)
        other = gf.power(spec, spec.alpha, j)
        for k in _valid_ks(q, range(4, q - 1)):
            _assert_matches_element_route(spec, k)
            if spec.n > 1:
                _assert_matches_element_route(spec, k, alpha=other)
            pairs[min(spec.n, 2)] += 1
    assert pairs == {1: 2052, 2: 271}


def test_array_context_matches_the_element_route_in_larger_fields():
    """Sampled k in GF(3^11), GF(509^2) and GF(13^5), every valid k <= 64
    in GF(46337^2), whose p^2 is the largest the int64 arithmetic meets
    below the size limit at n >= 2, and every valid k <= 200 in the prime
    fields 2^31 - 1, 2147483629 and 2147483587, where one product of two
    entries comes near 2^62. The two long tables, k = 7702 in GF(3^11)
    and k = 30941 in GF(13^5), are checked at sampled exponents m by the
    power route: block[m] = beta^m and chi_table[m] = chi(1 - beta^m)."""
    rng = random.Random(12)
    cases = {
        (3, 11): [46],  # q = 3 mod 4 wants e odd: k = 46 or 7702
        (509, 2): rng.sample(_valid_ks(509**2, range(4, 3000)), 8),
        (13, 5): [4, 6, 12],  # q - 1 = 4 * 3 * 30941
        (46337, 2): _valid_ks(46337**2, range(4, 65)),
        (2**31 - 1, 1): _valid_ks(2**31 - 1, range(4, 201)),
        (2147483629, 1): _valid_ks(2147483629, range(4, 201)),
        (2147483587, 1): _valid_ks(2147483587, range(4, 201)),
    }
    assert cases[46337, 2] == [4, 6, 8, 12, 16, 24, 32, 48, 64]
    assert cases[2**31 - 1, 1] == [6, 14, 18, 22, 42, 62, 66, 126, 154, 186, 198]
    assert cases[2147483629, 1] == [4, 6, 9, 12, 18, 36]
    assert cases[2147483587, 1] == [6]
    for (p, n), ks in cases.items():
        spec = gf.make_extension_field(p, n)
        for k in ks:
            _assert_matches_element_route(spec, k)
    for (p, n), k in (((3, 11), 7702), ((13, 5), 30941)):
        spec = gf.make_extension_field(p, n)
        ctx = starter.make_starter_context(spec, k)
        assert len(set(ctx.block)) == k
        assert all(type(x) is int for x in ctx.block + ctx.chi_table)
        for m in [1, k // 2, k - 1] + rng.sample(range(1, k), 100):
            b = gf.power(spec, ctx.beta, m)
            assert ctx.block[m] == b, (spec.q, k, m)
            assert ctx.chi_table[m] == gf.chi(spec, gf.sub(spec, 1, b)), (spec.q, k, m)


def test_reflection_identity(f41, f61, f25):
    """chi(1 - beta^m) == chi(1 - beta^(k-m)) whenever the cofactor is even."""
    for spec, k in [(f41, 5), (f41, 10), (f61, 10), (f25, 6)]:
        ctx = starter.make_starter_context(spec, k)
        assert ctx.e % 2 == 0
        for m in range(1, k):
            assert ctx.chi_table[m] == ctx.chi_table[k - m]


def test_dihedral_orbit_reps_small():
    with pytest.raises(ValueError):
        dihedral_orbit_reps(3)
    r5 = dihedral_orbit_reps(5)
    assert [(r.kind, r.i, r.j, r.length) for r in r5] == [
        ("B", 1, 2, 5),
        ("B", 2, 4, 5),
    ]
    r6 = dihedral_orbit_reps(6)
    assert [(r.kind, r.length) for r in r6] == [("A", 12), ("B", 6), ("C", 2)]
    r10 = dihedral_orbit_reps(10)
    kinds = [r.kind for r in r10]
    assert kinds.count("A") == 4 and kinds.count("B") == 4 and len(r10) == 8


def test_orbit_rep_lengths_cover_all_triples():
    for k in range(4, 61):
        reps = dihedral_orbit_reps(k)
        assert sum(r.length for r in reps) == math.comb(k, 3)


def test_orbit_reps_match_explicit_closure():
    """Compare against literal dihedral orbits on 3-subsets of Z/k."""
    for k in range(4, 17):
        orbits = {}
        for t in itertools.combinations(range(k), 3):
            if t in orbits:
                continue
            orbit = set()
            for s in range(k):
                shifted = [(x + s) % k for x in t]
                orbit.add(tuple(sorted(shifted)))
                orbit.add(tuple(sorted((-x) % k for x in shifted)))
            for u in orbit:
                orbits[u] = orbit
        distinct = {id(o): o for o in orbits.values()}
        reps = dihedral_orbit_reps(k)
        assert len(reps) == len(distinct)
        for rep in reps:
            orbit = orbits[(0, rep.i, rep.j)]
            assert len(orbit) == rep.length


def test_rep_gaps():
    rep = OrbitRep("A", 1, 5, 20)
    assert rep_gaps(rep, 10) == (1, 4, 5)
    for k in (7, 12, 26):
        for r in dihedral_orbit_reps(k):
            assert sum(rep_gaps(r, k)) == k


def test_delta_of_rep_frozen(f41):
    ctx5 = starter.make_starter_context(f41, 5)
    b1, b2 = dihedral_orbit_reps(5)
    assert delta_of_rep(ctx5, b1) == -1
    assert delta_of_rep(ctx5, b2) == 1
    ctx10 = starter.make_starter_context(f41, 10)
    rep = OrbitRep("A", 1, 5, 20)
    assert delta_of_rep(ctx10, rep) == 1


def test_delta_requires_even_cofactor(f13):
    ctx = starter.make_starter_context(f13, 4)  # e = 3
    rep = dihedral_orbit_reps(4)[0]
    with pytest.raises(ValueError):
        delta_of_rep(ctx, rep)
    with pytest.raises(ValueError):
        starter.delta_sum(ctx)


def test_delta_sum_frozen(f41, f17, f9, f25, f49):
    assert starter.delta_sum(starter.make_starter_context(f41, 5)) == 0
    assert starter.delta_sum(starter.make_starter_context(f41, 10)) == 0
    assert starter.delta_sum(_ctx(101, 5)) == -10
    assert starter.delta_sum(starter.make_starter_context(f17, 4)) == 4
    assert starter.delta_sum(starter.make_starter_context(f9, 4)) == 4
    for k, want in [(4, 4), (6, -20), (12, -4)]:
        assert starter.delta_sum(starter.make_starter_context(f25, k)) == want
    for k, want in [(4, 4), (6, 20), (8, 56), (12, 28), (24, 104)]:
        assert starter.delta_sum(starter.make_starter_context(f49, k)) == want


def test_delta_sum_matches_brute(f41, f17, f25, f49):
    cases = [(f41, 5), (f41, 10), (f17, 4), (f25, 6), (f25, 12), (f49, 24)]
    for spec, k in cases:
        ctx = starter.make_starter_context(spec, k)
        assert starter.delta_sum(ctx) == delta_sum_brute(ctx)
    ctx = _ctx(101, 5)
    assert starter.delta_sum(ctx) == delta_sum_brute(ctx) == -10


def test_delta_sum_three_routes():
    """The convolution, the dihedral orbit sum and the brute-force triple
    sum agree at every even-cofactor (q, k) with q <= 700; the O(k^3)
    brute force runs where k <= 30."""
    pairs = brute = 0
    for p, n, q in search.enumerate_prime_powers(700):
        if p == 2 or q % 4 != 1:
            continue
        spec = gf.field_for_order(q)
        for k in range(4, q - 1):
            if (q - 1) % k or ((q - 1) // k) % 2:
                continue
            ctx = starter.make_starter_context(spec, k)
            want = starter.delta_sum(ctx)
            by_orbits = sum(
                rep.length * delta_of_rep(ctx, rep)
                for rep in dihedral_orbit_reps(k)
            )
            assert by_orbits == want, (q, k)
            pairs += 1
            if k <= 30:
                assert delta_sum_brute(ctx) == want, (q, k)
                brute += 1
    assert (pairs, brute) == (478, 287)


def test_gives_design(f13, f17, f41, f9):
    assert starter.gives_design(starter.make_starter_context(f13, 4))  # e odd
    assert starter.gives_design(starter.make_starter_context(f41, 5))
    assert starter.gives_design(starter.make_starter_context(f41, 10))
    assert not starter.gives_design(starter.make_starter_context(f17, 4))
    assert not starter.gives_design(starter.make_starter_context(f9, 4))
    assert not starter.gives_design(_ctx(101, 5))
    f19 = gf.make_prime_field(19)
    assert starter.gives_design(starter.make_starter_context(f19, 6))


def test_char_sequence_frozen(f41, f61):
    cs = starter.char_sequence(starter.make_starter_context(f41, 5))
    assert (cs.convention, cs.entries) == ("odd", (1, -1))
    cs = starter.char_sequence(starter.make_starter_context(f41, 10))
    assert (cs.convention, cs.entries) == ("even2mod4", (1, -1, 1))
    cs = starter.char_sequence(starter.make_starter_context(f61, 5))
    assert (cs.convention, cs.entries) == ("odd", (-1, 1))
    cs = starter.char_sequence(_ctx(53, 13))
    assert (cs.convention, cs.entries) == ("odd", (1, 1, -1, -1, -1, -1))
    cs = starter.char_sequence(_ctx(3797, 26))
    assert (cs.convention, cs.entries) == ("even2mod4", (1, 1, -1, 1, -1, -1, -1))


def test_char_sequence_rejects_k_0_mod_4(f41, f25):
    for spec, k in [(f41, 4), (f25, 4), (f41, 8)]:
        with pytest.raises(ValueError):
            starter.char_sequence(starter.make_starter_context(spec, k))


def test_char_sequence_shapes_and_last_entry(f41, f25):
    for q, k in [(41, 10), (3797, 26), (25, 6), (53, 13), (61, 5)]:
        spec = gf.field_for_order(q)
        ctx = starter.make_starter_context(spec, k)
        cs = starter.char_sequence(ctx)
        if k % 2:
            assert len(cs.entries) == (k - 1) // 2
        else:
            assert len(cs.entries) == k // 4 + 1
            # the final entry is chi(2), via beta^(k/2) = -1
            assert cs.entries[-1] == gf.chi(spec, gf.embed(spec, 2))


def test_odd_entries_factor_through_even():
    """chi_table[l] == chi_table[2l] * chi_table[l + k/2] for odd l != k/2."""
    for q, k in [(41, 10), (25, 6), (3797, 26), (61, 10)]:
        ctx = starter.make_starter_context(gf.field_for_order(q), k)
        t = ctx.chi_table
        for ell in range(1, k, 2):
            if ell == k // 2:
                continue
            assert t[ell] == t[2 * ell % k] * t[(ell + k // 2) % k]


def test_admissible_k():
    assert all(starter.admissible_k(k) for k in (5, 10, 13, 17, 25, 26, 29, 34, 37, 41, 49))
    assert not any(starter.admissible_k(k) for k in (4, 6, 7, 8, 12, 14, 100))


def test_lambda_formula():
    assert starter.lambda_formula(4, 3) == 3
    assert starter.lambda_formula(5, 8) == 3
    assert starter.lambda_formula(10, 4) == 18
    assert starter.lambda_formula(13, 4) == 33
    assert starter.lambda_formula(26, 146) == 150
    with pytest.raises(ValueError):
        starter.lambda_formula(8, 2)
    with pytest.raises(ValueError):
        starter.lambda_formula(4, 2)


def test_thm510_frozen(f41, f61):
    for spec in (f41, f61):
        c = starter.thm510_conditions(spec)
        assert c.values() == [True] * 7
    c = starter.thm510_conditions(gf.make_prime_field(101))
    assert c.values() == [False] * 7


def test_thm510_prime_power(f29):
    f81 = gf.make_extension_field(3, 4)
    c = starter.thm510_conditions(f81)
    assert (c.c6, c.c7) == (None, None)
    assert c.values() == [False] * 5
    with pytest.raises(ValueError, match="not 1 mod 20"):
        starter.thm510_conditions(f29)


def test_thm510_alpha_override(f41):
    assert starter.thm510_conditions(f41, alpha=7) == starter.thm510_conditions(f41)


def test_thm1326_frozen(f41):
    r = starter.thm1326_condition(gf.make_prime_field(53))
    assert (r.holds, r.sequence.entries) == (False, (1, 1, -1, -1, -1, -1))
    r = starter.thm1326_condition(gf.make_prime_field(157))
    assert (r.holds, r.sequence.entries) == (False, (-1, 1, -1, -1, -1, -1))
    r = starter.thm1326_condition(gf.make_prime_field(3121))
    assert (r.holds, r.sequence.entries) == (True, (1, -1, 1, 1, -1, -1))
    r = starter.thm1326_condition(gf.make_prime_field(3797))
    assert (r.holds, r.sequence.entries) == (True, (1, 1, -1, 1, -1, -1))
    r = starter.thm1326_condition(gf.make_prime_field(3797), alpha=128)
    assert (r.holds, r.sequence.entries) == (True, (-1, 1, -1, 1, 1, -1))
    with pytest.raises(ValueError):
        starter.thm1326_condition(f41)


def test_seq_13_patterns():
    assert len(starter.SEQ_13_PATTERNS) == 8
    for s in starter.SEQ_13_PATTERNS:
        assert tuple(-v for v in s) in starter.SEQ_13_PATTERNS
        assert len(s) == 6 and set(s) <= {1, -1}


def _primitive_roots(q):
    spec = gf.make_prime_field(q)
    g = spec.alpha
    return [
        gf.power(spec, g, j) for j in range(1, q - 1) if math.gcd(j, q - 1) == 1
    ]


def test_alpha_independence_direct_small():
    """Every generator gives the same delta sum, for all q <= 200."""
    for q in _small_primes(200):
        if q % 4 != 1:
            continue
        spec = gf.make_prime_field(q)
        for k in range(4, q - 1):
            if (q - 1) % k or ((q - 1) // k) % 2:
                continue
            sums = {
                starter.delta_sum(starter.make_starter_context(spec, k, alpha=a))
                for a in _primitive_roots(q)
            }
            assert len(sums) == 1


def test_alpha_substitution_permutes_table():
    """Replacing alpha by another generator sends chi_table[m] to
    chi_table[j*m mod k] for the unit j with beta' = beta^j."""
    for q, k in [(41, 5), (41, 10), (61, 5), (101, 5), (53, 13)]:
        spec = gf.make_prime_field(q)
        base = starter.make_starter_context(spec, k)
        for a in _primitive_roots(q):
            other = starter.make_starter_context(spec, k, alpha=a)
            j = next(
                j for j in range(1, k) if gf.power(spec, base.beta, j) == other.beta
            )
            assert math.gcd(j, k) == 1
            for m in range(1, k):
                assert other.chi_table[m] == base.chi_table[j * m % k]


def test_alpha_independence_via_permutations():
    """Exhaustive over q <= 2000 (k <= 60): permuting the table by any unit
    multiplier leaves the delta sum unchanged, so no generator choice can
    alter the outcome."""
    for q in _small_primes(2000):
        if q % 4 != 1:
            continue
        spec = gf.make_prime_field(q)
        for k in range(4, min(q - 2, 60) + 1):
            if (q - 1) % k or ((q - 1) // k) % 2:
                continue
            ctx = starter.make_starter_context(spec, k)
            want = starter.delta_sum(ctx)
            for j in range(2, k):
                if math.gcd(j, k) != 1:
                    continue
                table = tuple(
                    0 if m == 0 else ctx.chi_table[j * m % k] for m in range(k)
                )
                permuted = dataclasses.replace(ctx, chi_table=table)
                assert starter.delta_sum(permuted) == want


def test_sequence_determines_delta_sum():
    """Two subgroups with the same reduced sequence have the same sum."""
    seen = {}
    for q in _small_primes(3000):
        for k in (5, 10, 13, 26):
            if (q - 1) % math.lcm(4, 2 * k):
                continue
            if not 3 < k < q - 1:
                continue
            ctx = starter.make_starter_context(gf.make_prime_field(q), k)
            key = (k, starter.char_sequence(ctx).entries)
            value = starter.delta_sum(ctx)
            assert seen.setdefault(key, value) == value


def test_decide_prime_batch_matches_scalar_and_brute():
    """The batched kernel against the scalar context at every prime
    candidate q <= 20000 of each table k, and against the brute-force
    triple sum where k <= 30."""
    primes = search.sieve_primes(20000)
    rows = brute = 0
    for k in search.SWEEP_TABLE_KS:
        m = search.sweep_modulus(k)
        qs = [q for q in primes if q % m == 1]
        got = starter.decide_prime_batch(k, qs).tolist()
        for q, ok in zip(qs, got):
            ctx = _ctx(q, k)
            assert ok == starter.gives_design(ctx), (q, k)
            if k <= 30:
                assert ok == (delta_sum_brute(ctx) == 0), (q, k)
                brute += 1
        rows += len(qs)
    assert (rows, brute) == (1200, 924)


def test_decide_prime_batch_odd_cofactor_and_validation():
    # an odd cofactor is always a design
    assert starter.decide_prime_batch(4, [13, 37]).tolist() == [True, True]
    assert starter.decide_prime_batch(5, []).tolist() == []
    with pytest.raises(ValueError, match="does not divide"):
        starter.decide_prime_batch(5, [41, 43])
    with pytest.raises(ValueError, match="outside the range"):
        starter.decide_prime_batch(3, [41])
    with pytest.raises(ValueError, match="size limit"):
        starter.decide_prime_batch(5, [2**31 + 13])  # = 1 mod 20


def test_powmod_matches_pow_at_the_int64_edge():
    """Products of residues below 2**31 stay below 2**62: the vectorised
    square-and-multiply agrees with pow on the primes just below 2**31."""
    ps = [p for p in range(2**31 - 1, 2**31 - 400, -2) if gf.factorize(p) == ((p, 1),)]
    assert ps[0] == 2**31 - 1 and len(ps) >= 10
    rng = random.Random(5)
    for p in ps:
        bases = [p - 1, p - 2, 2**31 - 2, 0, 1] + [rng.randrange(p) for _ in range(20)]
        exps = [p - 2, (p - 1) // 2, 0, 1, 2**31 - 1] + [rng.randrange(p) for _ in range(20)]
        got = starter._powmod(np.array(bases), np.array(exps), p).tolist()
        assert got == [pow(b, x, p) for b, x in zip(bases, exps)]
    # per-row moduli and exponents broadcast against a (rows, columns) base
    mods = np.array(ps[:3])[:, None]
    base = np.array([[2, 3, p - 1] for p in ps[:3]])
    got = starter._powmod(base, (mods - 1) // 2, mods)
    want = [[pow(b, (p - 1) // 2, p) for b in row] for p, row in zip(ps, base.tolist())]
    assert got.tolist() == want


def test_decide_prime_batch_near_the_size_limit():
    """Prime candidates just below 2**31 decide as the scalar path does."""
    k = 5
    below = range(2**31 - 7, 0, -20)  # q = 1 mod 20
    qs = list(itertools.islice((q for q in below if gf.factorize(q) == ((q, 1),)), 12))
    got = starter.decide_prime_batch(k, qs).tolist()
    assert got == [starter.gives_design(_ctx(q, k)) for q in qs]
    assert True in got and False in got


def test_thm510_batch_matches_scalar_conditions():
    """The batched c1..c7 against thm510_conditions at every prime
    p = 1 mod 20 below 3000, with hits and non-hits among them."""
    ps = [p for p in search.sieve_primes(3000) if p % 20 == 1]
    got = starter.thm510_batch(ps).tolist()
    want = [starter.thm510_conditions(gf.make_prime_field(p)).values() for p in ps]
    assert got == want
    assert len(ps) == 48 and [True] * 7 in got and [False] * 7 in got


def test_thm1326_batch_matches_scalar_condition():
    """The batched (holds, d13, d26) against thm1326_condition and the
    scalar contexts at k = 13 and k = 26, at every prime p = 1 mod 52
    below 3000 and at the hits 3121, 3797 and 4993."""
    ps = [p for p in search.sieve_primes(3000) if p % 52 == 1] + [3121, 3797, 4993]
    got = starter.thm1326_batch(ps).tolist()
    want = [
        [
            starter.thm1326_condition(gf.make_prime_field(p)).holds,
            starter.gives_design(_ctx(p, 13)),
            starter.gives_design(_ctx(p, 26)),
        ]
        for p in ps
    ]
    assert got == want
    assert len(ps) == 21 and got[-3:] == [[True] * 3] * 3


def test_scan_batches_validate_their_primes():
    assert starter.thm510_batch([]).shape == (0, 7)
    assert starter.thm1326_batch([]).shape == (0, 3)
    with pytest.raises(ValueError, match="does not divide"):
        starter.thm510_batch([41, 53])
    with pytest.raises(ValueError, match="requires q = 1 mod 4"):
        starter.thm510_batch([41, 31])
    with pytest.raises(ValueError, match="does not divide"):
        starter.thm1326_batch([41])
    with pytest.raises(ValueError, match="requires q = 1 mod 4"):
        starter.thm1326_batch([79])  # = 1 mod 26
    with pytest.raises(ValueError, match="size limit"):
        starter.thm510_batch([2**31 + 13])


def test_cofactor_check_matches_starter_cofactor(monkeypatch):
    """The vector check flags exactly the (q, k) that starter_cofactor
    refuses and returns its e elsewhere, for every odd q < 2000 and every
    3 < k < q - 1; the first flagged q raises starter_cofactor's error."""
    oracle = starter.starter_cofactor
    flagged = []
    monkeypatch.setattr(starter, "starter_cofactor", lambda q, k: flagged.append((q, k)))
    odd = np.arange(7, 2000, 2)
    pairs = refused = 0
    for k in range(4, 1998):
        qs = odd[odd - 1 > k]
        flagged.clear()
        want = []
        for q, e in zip(qs.tolist(), starter._cofactors(k, qs).tolist()):
            try:
                assert oracle(q, k) == e, (q, k)
            except ValueError:
                want.append((q, k))
        assert flagged == want, k
        pairs, refused = pairs + qs.size, refused + len(want)
    assert pairs == 995006 and 0 < refused < pairs
    monkeypatch.undo()
    for k, qs in ((5, [41, 61, 43, 31]), (5, [41, 31, 43]), (3, [41]), (40, [41])):
        with pytest.raises(ValueError) as want:
            oracle(next(q for q in qs if not _passes(oracle, q, k)), k)
        with pytest.raises(ValueError) as got:
            starter._cofactors(k, np.array(qs))
        assert str(got.value) == str(want.value)


def _passes(check, q, k):
    try:
        check(q, k)
    except ValueError:
        return False
    return True


# the primes r | k, written out so as not to share gf.factorize
_PRIME_DIVISORS = {4: (2,), 10: (2, 5), 26: (2, 13), 34: (2, 17), 50: (2, 5), 58: (2, 29)}


def test_order_k_elements_have_order_exactly_k():
    """At every prime q = 1 mod k below 30000, including the rows where
    x**e has y**(k/2) = 1 and the -1 repair applies."""
    primes = search.sieve_primes(30000)
    for k, divisors in _PRIME_DIVISORS.items():
        qs = np.array([q for q in primes if q % k == 1])
        e = (qs - 1) // k
        beta = starter._order_k_elements(k, qs, e).tolist()
        for q, b in zip(qs.tolist(), beta):
            assert pow(b, k, q) == 1, (q, k)
            assert all(pow(b, k // r, q) != 1 for r in divisors), (q, k)
        repaired = sum(pow(2, (q - 1) // 2, q) == 1 for q in qs.tolist())
        assert qs.size > 100 and (k == 4 or repaired > 0), k


def test_pair_tables_match_prime_tables():
    """The order-k table taken as the even columns of the order-2k table
    gives _prime_tables(k)'s signed counts and decisions, and is the
    character table of beta_2k^2, which has order k."""
    primes = search.sieve_primes(60000)
    for k in (5, 13, 17, 25, 29):
        qs = [q for q in primes if q % (4 * k) == 1]
        q, beta, tk, t2k = starter._pair_tables(k, qs)
        assert tk.shape == (len(qs), k)
        _, _, want = starter._prime_tables(k, qs)
        assert starter._signed_count(tk).tolist() == starter._signed_count(want).tolist()
        got = (starter._signed_count(tk) == 0).tolist()
        assert got == starter.decide_prime_batch(k, qs).tolist()
        d2k = (starter._signed_count(t2k) == 0).tolist()
        assert d2k == starter.decide_prime_batch(2 * k, qs).tolist()
        for p, b, row in zip(qs, beta.tolist(), tk.tolist()):
            assert pow(b, k, p) == 1 and b != 1  # k is prime or 25
            assert k != 25 or pow(b, 5, p) != 1
            chi = [0] + [1 if pow(1 - pow(b, m, p), (p - 1) // 2, p) == 1 else -1
                         for m in range(1, k)]
            assert row == chi, (p, k)


def test_batched_cornacchia_matches_the_scalar_search():
    """All 4,466 (p, c) cases with p = 1 mod 20 below 200000 and c in
    {20, 100}, from either square root of -c, against has_representation,
    and thm510_batch's c6/c7 against it too."""
    sqrt_mod = pytest.importorskip("sympy.ntheory").sqrt_mod

    ps = [p for p in search.sieve_primes(200000) if p % 20 == 1]
    q = np.array(ps)
    rows = starter.thm510_batch(ps)
    cases = 0
    for col, c in ((5, 20), (6, 100)):
        want = [has_representation(p, c) for p in ps]
        root = np.array([sqrt_mod(-c % p, p) for p in ps])
        assert starter._represented(q, root, c).tolist() == want
        assert starter._represented(q, q - root, c).tolist() == want
        assert (~rows[:, col]).tolist() == want
        assert True in want and False in want
        cases += len(ps)
    assert cases == 4466


def test_batched_cornacchia_matches_sympy_near_the_size_limit():
    """A seeded sample of primes p = 1 mod 20 up to 2**31 against sympy's
    cornacchia, through thm510_batch's own roots of -20 and -100."""
    isprime = pytest.importorskip("sympy").isprime
    cornacchia = pytest.importorskip("sympy.solvers.diophantine.diophantine").cornacchia

    rng = random.Random(20)
    ps = set()
    while len(ps) < 150:
        p = rng.randrange(2 * 10**5, 2**31) // 20 * 20 + 1
        if isprime(p):
            ps.add(p)
    ps = sorted(ps)
    rows = starter.thm510_batch(ps)
    for col, c in ((5, 20), (6, 100)):
        want = [not cornacchia(1, c, p) for p in ps]
        assert rows[:, col].tolist() == want
        assert True in want and False in want
    # all seven conditions still agree there
    assert (rows.all(axis=1) == rows.any(axis=1)).all()
