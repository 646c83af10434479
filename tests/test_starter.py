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
    char_sequence as scalar_char_sequence,
    delta_of_rep,
    delta_sum_brute,
    dihedral_orbit_reps,
    element_order,
    element_tables,
    has_representation,
    is_square,
    order_k_elements,
    poly_chi,
    poly_power,
    rep_gaps,
    sub,
    thm510_conditions,
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
            b = poly_power(spec, ctx.beta, m)
            assert ctx.block[m] == b, (spec.q, k, m)
            assert ctx.chi_table[m] == poly_chi(spec, sub(spec, 1, b)), (spec.q, k, m)


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
            assert cs.entries[-1] == poly_chi(spec, 2 % spec.p)


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


def test_thm510_explicit_alpha_on_a_prime_power():
    """An explicit alpha on GF(81) is refused with the starter context's
    messages, and another generator gives the same values."""
    f81 = gf.make_extension_field(3, 4)
    for alpha, msg in [
        (0, "alpha = 0 is outside the range 1 <= alpha < q = 81"),
        (1, "alpha = 1 does not generate GF(81)*"),
        (81, "alpha = 81 is outside the range 1 <= alpha < q = 81"),
    ]:
        with pytest.raises(ValueError, match=re.escape(msg) + "$"):
            starter.thm510_conditions(f81, alpha=alpha)
    other = gf.power(f81, f81.alpha, 7)  # 7 is prime to 80
    assert other != f81.alpha
    assert starter.thm510_conditions(f81, alpha=other) == starter.thm510_conditions(f81)


def test_thm510_conditions_match_scalar_oracle_on_prime_powers():
    """The batch-row answer against the scalar route at every proper prime
    power q = 1 mod 20 up to 10^6, and at 101^3, 181^3 and 41^5. Each
    reduction case occurs: p = 1 mod 5 with n odd (hits and non-hits),
    n even, and p of order 2 or 4 mod 5."""
    qs = [q for _, n, q in search.enumerate_prime_powers(10**6) if n > 1 and q % 20 == 1]
    assert len(qs) == 91
    qs += [101**3, 181**3, 41**5]
    got = {}
    for q in qs:
        spec = gf.field_for_order(q)
        got[q] = starter.thm510_conditions(spec)
        assert got[q] == thm510_conditions(spec), q
    assert all(got[q].values() == [True] * 5 for q in (41**3, 61**3, 41**5))
    misses = (101**3, 181**3, 41**2, 19**2, 3**4, 7**4)
    assert all(got[q].values() == [False] * 5 for q in misses)


def test_thm510_conditions_make_no_scalar_field_op(monkeypatch):
    """With the scalar mul, inv, power and chi made to raise,
    thm510_conditions still answers on GF(41), GF(81) and GF(41^3)."""
    specs = [gf.field_for_order(q) for q in (41, 81, 41**3)]
    want = [starter.thm510_conditions(spec) for spec in specs]

    def scalar_op(*args):
        raise AssertionError("a scalar gf op was called")

    for name in ("mul", "inv", "power", "chi"):
        monkeypatch.setattr(gf, name, scalar_op)
    assert [starter.thm510_conditions(spec) for spec in specs] == want


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


def test_thm1326_on_degree_3_fields():
    """On GF(p^3) with p of order 3 mod 13 no subfield decides the pair:
    the sequence test against the starter contexts at k = 13 and 26."""
    for q, holds in [(29**3, True), (61**3, False), (113**3, True)]:
        spec = gf.field_for_order(q)
        assert starter.thm1326_condition(spec).holds is holds, q
        for k in (13, 26):
            assert starter.gives_design(starter.make_starter_context(spec, k)) is holds, (q, k)


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
    """The batched c1..c7 against the scalar oracle thm510_conditions at
    every prime p = 1 mod 20 below 3000, with hits and non-hits among
    them."""
    ps = [p for p in search.sieve_primes(3000) if p % 20 == 1]
    got = starter.thm510_batch(ps).tolist()
    want = [thm510_conditions(gf.make_prime_field(p)).values() for p in ps]
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
_PRIME_DIVISORS = {
    4: (2,), 10: (2, 5), 15: (3, 5), 21: (3, 7), 26: (2, 13), 34: (2, 17), 50: (2, 5),
    58: (2, 29),
}


def test_char_sequence_matches_the_convention_rules():
    """starter.char_sequence, read at the plan's basis, against the
    conventions' own rules (scalar_oracles.char_sequence) at every valid
    (q, k), k != 0 mod 4, of every odd prime power q < 400, each with the
    canonical generator and with alpha = alpha_0^j, j the least j > 1
    prime to q - 1, which changes the sequence at 181 of the 226 pairs."""
    cases = changed = 0
    for p, _, q in search.enumerate_prime_powers(399):
        if p == 2:
            continue
        spec = gf.field_for_order(q)
        j = next(j for j in itertools.count(2) if math.gcd(j, q - 1) == 1)
        other = gf.power(spec, spec.alpha, j)
        for k in range(5, q - 1):
            if k % 4 == 0 or (q - 1) % k or ((q - 1) // k % 2 == 0 and q % 4 != 1):
                continue
            seqs = []
            for alpha in (None, other):
                ctx = starter.make_starter_context(spec, k, alpha=alpha)
                seqs.append(starter.char_sequence(ctx))
                assert seqs[-1] == scalar_char_sequence(ctx), (q, k, alpha)
            cases += 1
            changed += seqs[0] != seqs[1]
    assert (cases, changed) == (226, 181)


def test_order_k_elements_have_order_exactly_k():
    """At every prime q = 1 mod k below 30000."""
    primes = search.sieve_primes(30000)
    for k, divisors in _PRIME_DIVISORS.items():
        qs = np.array([q for q in primes if q % k == 1])
        e = (qs - 1) // k
        beta = starter._order_k_elements(k, qs, e).tolist()
        for q, b in zip(qs.tolist(), beta):
            assert pow(b, k, q) == 1, (q, k)
            assert all(pow(b, k // r, q) != 1 for r in divisors), (q, k)
        assert qs.size > 100, k


def _last_primes_1_mod(k, count, bound):
    """The last count primes q = 1 mod k below bound, ascending: a window
    of the progression below bound, each q with a prime factor below
    isqrt(bound) struck."""
    width = count * k * 40
    start = bound - width + (1 - (bound - width)) % k
    qs = np.arange(start, bound, k)
    keep = np.ones(qs.size, dtype=bool)
    for p in search.sieve_primes(math.isqrt(bound)):
        if k % p:
            keep[(-start * pow(k, -1, p)) % p :: p] = False
    qs = qs[keep]
    assert qs.size >= count
    return qs[-count:]


def _qualifies(k, x, q, divisors):
    """Whether x**e has order k mod q."""
    y = pow(x, (q - 1) // k, q)
    return all(pow(y, k // r, q) != 1 for r in divisors)


def test_order_k_elements_match_the_one_x_loop():
    """The grouped search (x = 2, then x = 3..10, 11..18, ... eight at a
    time) takes the one-x loop's beta on every row, for k with one, two
    and three prime divisors, where composite x matter, at the primes
    q = 1 mod k below 30000 and the last 2048 below 10**8. Some rows find
    no x <= 10 and reach the later groups."""
    divisors = {**_PRIME_DIVISORS, 5: (5,), 13: (13,), 30: (2, 3, 5)}
    primes = np.array(search.sieve_primes(30000))
    past_ten = {}
    for k in (4, 5, 10, 13, 15, 21, 26, 30, 50, 58):
        qs = np.concatenate([primes[primes % k == 1], _last_primes_1_mod(k, 2048, 10**8)])
        e = (qs - 1) // k
        got = starter._order_k_elements(k, qs, e)
        assert got.tolist() == order_k_elements(k, qs, e).tolist(), k
        past_ten[k] = sum(
            not any(_qualifies(k, x, q, divisors[k]) for x in range(2, 11))
            for q in qs.tolist()
        )
    assert past_ten[4] > 0 and past_ten[15] > 0, past_ten


def test_powmod_edge_shapes():
    """A zero-size chunk, all-zero exponents, a scalar base against array
    moduli (as _order_k_elements calls it), and a (rows, 1) exponent
    against a (rows, columns) base."""
    empty = np.zeros(0, dtype=np.int64)
    assert starter._powmod(empty, empty, empty).shape == (0,)
    got = starter._powmod(np.arange(3, 11), empty[:, None], empty[:, None] + 7)
    assert got.shape == (0, 8)
    got = starter._powmod(np.array([0, 1, 5, 40, 2**31 - 2]), np.zeros(5, np.int64), 2**31 - 1)
    assert got.tolist() == [1] * 5
    qs = np.array([41, 61, 101, 2**31 - 1])
    got = starter._powmod(2, (qs - 1) // 4, qs)
    assert got.tolist() == [pow(2, (q - 1) // 4, q) for q in qs.tolist()]
    base = np.array([[2, 3, 5], [7, 11, 13], [0, 2**31 - 2, 1]])
    exp = np.array([[10], [0], [2**31 - 3]])
    mod = np.array([[41], [61], [2**31 - 1]])
    got = starter._powmod(base, exp, mod)
    want = [[pow(b, x[0], m[0]) for b in row] for row, x, m in zip(base.tolist(), exp.tolist(), mod.tolist())]
    assert got.tolist() == want


def test_is_square_is_the_jacobi_symbol():
    """The Jacobi symbol by binary reciprocity against Euler's criterion on
    the 200 primes just below 2**31 of each class mod 8 (q = 1, 3, 5, 7),
    at a = 1, q - 1, the powers of 2 below q and random a, and against
    sympy's jacobi_symbol on every fifth of those rows and on odd
    composite moduli near 2**31; on each broadcast shape the callers use:
    (rows, columns) against (rows, 1), rows against rows, and empty."""
    jacobi_symbol = pytest.importorskip("sympy").jacobi_symbol
    rng = np.random.default_rng(37)
    qs = _last_primes_1_mod(2, 200, 2**31)
    assert set((qs % 8).tolist()) == {1, 3, 5, 7}
    a = np.concatenate([
        np.ones((qs.size, 1), np.int64),
        qs[:, None] - 1,
        np.broadcast_to(2 ** np.arange(1, 31), (qs.size, 30)),
        rng.integers(1, qs[:, None], (qs.size, 12)),
    ], axis=1)
    got = starter._is_square(a, qs[:, None])
    assert got.shape == a.shape
    assert got.tolist() == is_square(a, qs[:, None]).tolist()
    assert starter._is_square(a[:, -1], qs).tolist() == got[:, -1].tolist()
    want = [[jacobi_symbol(x, q) == 1 for x in row] for row, q in zip(a[::5].tolist(), qs[::5].tolist())]
    assert got[::5].tolist() == want
    odd = rng.integers(2**30, 2**31, 400) | 1
    b = rng.integers(1, odd)
    keep = np.gcd(b, odd) == 1
    want = [jacobi_symbol(x, n) == 1 for x, n in zip(b[keep].tolist(), odd[keep].tolist())]
    assert starter._is_square(b[keep], odd[keep]).tolist() == want
    assert 0 < sum(want) < len(want)
    empty = np.zeros((0, 1), np.int64)
    assert starter._is_square(np.zeros((0, 3), np.int64), empty + 7).shape == (0, 3)
    assert starter._is_square(empty[:, 0], empty[:, 0] + 7).shape == (0,)


def test_least_nonresidue_matches_a_brute_loop():
    """At every prime q = 1 (mod 4) below 10**5 and the last 2048 below
    2**31: the least x with x**((q-1)/2) = -1, and x**((q-1)/4) is a root
    of -1."""
    primes = np.array(search.sieve_primes(10**5))
    qs = np.concatenate([primes[primes % 4 == 1], _last_primes_1_mod(4, 2048, 2**31)])
    got = starter._least_nonresidue(qs)
    for q, x in zip(qs.tolist(), got.tolist()):
        assert x == next(y for y in itertools.count(2) if pow(y, (q - 1) // 2, q) == q - 1), q
    i = starter._powmod(got, (qs - 1) // 4, qs)
    assert (i * i % qs == qs - 1).all()
    assert qs.size > 4000 and got.max() > 20


def test_thm510_i_is_the_order_4_search_element():
    """thm510_batch's root of -1, x**((q-1)/4) for the least non-residue
    x, is _order_k_elements(4, ...)'s element at every prime q = 1 (mod 20)
    below 10**7: the least x whose power has order 4 is the least
    non-residue. So c6 and c7 are those of the element search. They do
    not depend on the root either: with x replaced by q - x, which gives
    -i where q = 5 (mod 8), c6 and c7 are unchanged below 10**6."""
    rows = 0
    for qs in search._progression_primes(20, 10**7):
        i = starter._powmod(starter._least_nonresidue(qs), (qs - 1) // 4, qs)
        assert i.tolist() == starter._order_k_elements(4, qs, (qs - 1) // 4).tolist()
        assert (i * i % qs == qs - 1).all()
        rows += qs.size
    assert rows == 82_950
    qs = np.array([q for q in search.sieve_primes(10**6) if q % 20 == 1])
    want = starter.thm510_batch(qs)
    real = starter._least_nonresidue
    try:
        starter._least_nonresidue = lambda q: q - real(q)
        got = starter.thm510_batch(qs)
    finally:
        starter._least_nonresidue = real
    assert got.tolist() == want.tolist()
    assert (qs % 8 == 5).sum() > 4000 and not want[:, 5:].all() and want[:, 5:].any()


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


def _fold(y, k):
    """The column of the order-k table equal to column y (t[k-m] = t[m])."""
    return min(y % k, k - y % k)


def test_euler_plan_pins_its_basis_and_covers_every_column():
    """Euler's criterion runs on k // 4 columns m < k/2 of every even k:
    2 at k = 10, 6 at k = 26 and 14 at k = 58, where t[k/2] = chi(2)
    needs none; odd k keeps all (k-1)/2. Every step is a folded doubling
    relation {f(2x), f(x), f(x + k/2)} on columns known before it, and
    basis and steps give each column once."""
    sizes = {k: len(starter._euler_plan(k)[0]) for k in (10, 26, 58, 13)}
    assert sizes == {10: 2, 26: 6, 58: 14, 13: 6}
    for k in range(4, 130):
        basis, steps = starter._euler_plan(k)
        assert k % 2 or len(basis) == k // 4, k
        relations = {
            tuple(sorted((_fold(2 * x, k), _fold(x, k), _fold(x + k // 2, k))))
            for x in range(1, k) if k % 2 == 0 and 2 * x != k
        }
        known = set(basis)
        assert list(basis) == sorted(known)
        for c, a, b in steps:
            assert tuple(sorted((c, a, b))) in relations, (k, c)
            assert {a, b} <= known and c not in known, (k, c)
            known.add(c)
        assert sorted(known) == list(range(1, (k + 1) // 2)), k


def test_euler_plan_spans_the_identity_space():
    """An oracle sharing no code with the plan: at every even k <= 36, all
    +-1 assignments to the columns 1..k/2 that satisfy every folded
    doubling relation t[f(2m)] = t[f(m)] * t[f(m + k/2)]. There are
    2^(len(basis) + [k = 2 mod 4]) of them (for k = 0 mod 4 the relation
    at m = k/4 forces chi(2) = 1), and the basis values with chi(2) give
    back each one through the steps."""
    for k in range(4, 37, 2):
        half = k // 2
        bits = (np.arange(2**half)[:, None] >> np.arange(half)) & 1
        ok = np.ones(len(bits), dtype=bool)
        for m in range(1, k):
            if m != half:
                cols = [_fold(2 * m, k), _fold(m, k), _fold(m + half, k)]
                ok &= (bits[:, [c - 1 for c in cols]].sum(axis=1) % 2) == 0
        t = np.zeros((int(ok.sum()), half + 1), dtype=np.int64)
        t[:, 1:] = 1 - 2 * bits[ok]
        basis, steps = starter._euler_plan(k)
        free = list(basis) + [half] * (k % 4 == 2)
        assert len(t) == 2 ** len(free), k
        assert len({tuple(row) for row in t[:, free].tolist()}) == len(t), k
        rebuilt = np.zeros_like(t)
        rebuilt[:, basis] = t[:, basis]
        rebuilt[:, half] = t[:, half]
        for c, a, b in steps:
            rebuilt[:, c] = rebuilt[:, a] * rebuilt[:, b]
        assert (rebuilt == t).all(), k


def test_prime_tables_run_euler_on_the_basis_only(monkeypatch):
    """_prime_tables calls _is_square once, on len(basis) columns."""
    widths = []
    is_square = starter._is_square

    def recording(a, q):
        widths.append(a.shape[-1])
        return is_square(a, q)

    monkeypatch.setattr(starter, "_is_square", recording)
    primes = np.array(search.sieve_primes(20000))
    for k, want in ((10, 2), (26, 6), (58, 14)):
        widths.clear()
        starter._prime_tables(k, primes[primes % search.sweep_modulus(k) == 1])
        assert widths == [want] == [len(starter._euler_plan(k)[0])], k


def test_prime_tables_match_euler_at_every_column():
    """_prime_tables at every even k <= 64, whose tables take most
    columns from the doubling steps and t[k/2] from q mod 8, against
    pow(1 - beta^m, (q-1)/2, q) on the batch's own beta at every column:
    at each prime q = 1 mod lcm(4, 2k) below 20000, and at the three
    largest below 2**31."""
    primes = np.array(search.sieve_primes(20000))
    rows = 0
    for k in range(4, 65, 2):
        m = search.sweep_modulus(k)
        below = range((2**31 - 2) // m * m + 1, 0, -m)
        top = itertools.islice((q for q in below if gf.factorize(q) == ((q, 1),)), 3)
        qs = primes[primes % m == 1].tolist() + list(top)
        _, beta, t = starter._prime_tables(k, qs)
        for q, b, row in zip(qs, beta.tolist(), t.tolist()):
            chi = [1 if pow(1 - pow(b, j, q), (q - 1) // 2, q) == 1 else -1
                   for j in range(1, k)]
            assert row == [0] + chi, (q, k)
        rows += len(qs)
    assert rows == 4253


def test_prime_tables_at_k_2_mod_4_square_to_the_odd_order_tables():
    """At every k = 2 mod 4 from 10 to 62 and every sweep candidate below
    10**6: beta^2 is _prime_tables(k/2)'s beta, and the even columns of
    the order-k table are its order-k/2 table."""
    primes = np.array(search.sieve_primes(10**6))
    for k in range(10, 63, 4):
        qs = primes[primes % search.sweep_modulus(k) == 1]
        _, beta, t = starter._prime_tables(k, qs)
        _, root, half = starter._prime_tables(k // 2, qs)
        assert qs.size > 100, k
        assert (beta * beta % qs).tolist() == root.tolist(), k
        assert t[:, ::2].tolist() == half.tolist(), k


def test_prime_tables_search_no_order_2_mod_4(monkeypatch):
    """For k = 2 mod 4 the element search runs at the odd order k/2, so no
    batch op asks _order_k_elements for an order k = 2 mod 4."""
    orders = []
    real = starter._order_k_elements
    monkeypatch.setattr(
        starter, "_order_k_elements", lambda k, *a: orders.append(k) or real(k, *a)
    )
    primes = np.array(search.sieve_primes(20000))
    for k in range(4, 65):
        starter.decide_prime_batch(k, primes[primes % search.sweep_modulus(k) == 1])
    for k in (5, 13, 29):
        starter.decide_pair_batch(k, primes[primes % (4 * k) == 1])
    starter.thm510_batch(primes[primes % 20 == 1])
    starter.thm1326_batch(primes[primes % 52 == 1])
    assert set(range(5, 33, 2)) | {4} <= set(orders)
    assert [k for k in orders if k % 4 == 2] == []


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
