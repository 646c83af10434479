import hashlib
import math
import random
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from psldesigns import gf, search

from scalar_oracles import (
    add,
    element_from_coeffs,
    element_order,
    is_irreducible,
    neg,
    norm,
    poly_chi,
    poly_inv,
    poly_mul,
    poly_power,
    sub,
)


def test_factorize():
    assert gf.factorize(24389) == ((29, 3),)
    assert gf.factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert gf.factorize(41) == ((41, 1),)
    assert gf.factorize(1) == ()
    with pytest.raises(ValueError):
        gf.factorize(0)


# 1, 2, the square of the largest prime below isqrt(2^31), and the limit
# 2^31 with the prime 2^31 - 1 below it
FACTORIZE_EDGES = (1, 2, 46_337**2, 2**31 - 1, 2**31)


def _factorize_sample():
    rng = random.Random(2031)
    return [rng.randrange(1, 2**31) for _ in range(300)] + list(FACTORIZE_EDGES)


def test_factorize_rebuilds_m_from_primes():
    for m in _factorize_sample():
        fac = gf.factorize(m)
        prod = 1
        for f, mult in fac:
            assert mult >= 1 and all(f % d for d in range(2, math.isqrt(f) + 1)), m
            prod *= f**mult
        assert prod == m
        assert [f for f, _ in fac] == sorted({f for f, _ in fac})
    assert gf.factorize(46_337**2) == ((46_337, 2),)
    assert gf.factorize(2**31) == ((2, 31),)
    assert gf.factorize(2**31 - 1) == ((2**31 - 1, 1),)


def test_factorize_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _factorize_sample():
        assert dict(gf.factorize(m)) == sympy.factorint(m), m


def test_factorize_refuses_m_over_the_size_limit():
    """The prime list covers every m up to the limit and no further, so a
    larger m is refused rather than mis-factored."""
    for m in (2**31 + 1, 46_349**2, 2**61 - 1):
        with pytest.raises(ValueError, match="exceeds the size limit"):
            gf.factorize(m)


def test_prime_field_spec(f41):
    assert (f41.p, f41.n, f41.q) == (41, 1, 41)
    assert f41.alpha == 6
    assert gf.make_prime_field(13).alpha == 2
    assert gf.make_prime_field(61).alpha == 2
    # primality comes from factorize: every odd prime below 50 builds a
    # field, every other m >= 1 is refused
    odd_primes = {3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for m in range(1, 50):
        if m in odd_primes:
            assert gf.make_prime_field(m).q == m
        elif m != 2:
            with pytest.raises(ValueError, match="is not prime"):
                gf.make_prime_field(m)
    with pytest.raises(ValueError, match="must be odd"):
        gf.make_prime_field(2)
    with pytest.raises(ValueError):
        gf.make_prime_field(0)
    assert gf.make_prime_field(3121).q == 3121
    with pytest.raises(ValueError, match="is not prime"):
        gf.make_prime_field(3127)  # 53 * 59


def test_extension_field_spec(f9, f25, f49):
    # lex-smallest monic irreducible modulus, low-degree coefficients first
    assert f9.modulus == (1, 0, 1)  # x^2 + 1
    assert f9.alpha == 4
    assert f9.q == 9
    for spec in (f9, f25, f49):
        assert element_order(spec, spec.alpha) == spec.q - 1
    with pytest.raises(ValueError):
        gf.make_extension_field(4, 2)
    with pytest.raises(ValueError):
        gf.make_extension_field(3, 0)
    with pytest.raises(ValueError):
        gf.make_extension_field(3, 30)  # over the size limit


def test_extension_field_holds_its_frobenius_and_reduction_arrays(f41, f25, f49):
    """make_extension_field builds the Frobenius matrix and the reduction
    rows once, as read-only int64 arrays; a spec without them, or with
    other arrays, still equals and hashes as the field. Prime fields hold
    neither."""
    assert f41.frobenius is None and f41.reduction is None
    for spec in (f25, f49, gf.make_extension_field(5, 6)):
        held = {"frobenius": gf._frobenius_columns(spec), "reduction": gf._reduction_rows(spec)}
        for name, want in held.items():
            got = getattr(spec, name)
            assert got.dtype == np.int64 and not got.flags.writeable, name
            assert np.array_equal(got, want), name
        bare = replace(spec, frobenius=None, reduction=None)
        assert bare == spec and hash(bare) == hash(spec)
        with pytest.raises(ValueError):
            spec.reduction[0, 0] = 1


def _sympy_irreducible(coeffs, p):
    """Irreducibility of a polynomial over GF(p), coefficients low degree
    first, by sympy: an oracle that shares no code with gf."""
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(coeffs[::-1], sympy.Symbol("x"), modulus=p).is_irreducible


def test_extension_modulus_is_minimal_irreducible(f9, f25):
    # no lex-smaller monic polynomial of the same degree is irreducible
    more = [gf.make_extension_field(p, n) for p, n in ((3, 5), (5, 3), (7, 3), (3, 7))]
    for spec in (f9, f25, *more):
        p, n = spec.p, spec.n
        assert len(spec.modulus) == n + 1 and spec.modulus[-1] == 1
        for cs in product(range(p), repeat=n):
            if cs >= spec.modulus[:n]:
                break
            assert not _sympy_irreducible(list(cs) + [1], p)
        assert _sympy_irreducible(list(spec.modulus), p)


def test_is_irreducible_matches_sympy():
    """Rabin's test on a trial spec agrees with sympy on every monic
    polynomial of these degrees, 1,023 in all. The 147 reducible ones
    with x**q == x are decided by the unit step alone."""
    tested = unit_step_only = 0
    for p, degrees in ((3, range(2, 6)), (5, (2, 3)), (7, (2, 3)), (11, (2,))):
        for n in degrees:
            for cs in product(range(p), repeat=n):
                trial = gf.FieldSpec(p=p, n=n, modulus=(*cs, 1), q=p**n, alpha=0)
                irreducible = is_irreducible(trial)
                assert irreducible == _sympy_irreducible(trial.modulus, p), trial
                tested += 1
                unit_step_only += not irreducible and gf.power(trial, p, p**n) == p
    assert (tested, unit_step_only) == (1023, 147)


# (p, n) -> the modulus and generator of GF(p^n). The first three were
# recorded from the walk that stepped through every modulus with a zero
# constant term as well, the last two from the search that decided the
# unit step of Rabin's test by Euclid's gcd
LARGE_FIELDS = {
    (3, 19): ((1,) + (0,) * 16 + (1, 2, 1), 3),
    (5, 13): ((1,) + (0,) * 10 + (2, 3, 1), 8),
    (7, 11): ((1,) + (0,) * 9 + (4, 1), 8),
    (46337, 2): ((1, 1, 1), 46341),
    (13, 8): ((1, 0, 0, 0, 0, 0, 2, 1, 1), 17),
}


@pytest.mark.parametrize(("p", "n"), list(LARGE_FIELDS))
def test_large_extension_field_is_unchanged_and_fast(p, n):
    """Fields near the size limit keep their modulus and generator, and
    build in well under 2 s. They are read from the field table; the
    modulus walk that wrote it starts at constant term 1, and starting at
    0 it stepped through p^(n-1) tuples divisible by x first, about 40 s
    for GF(3^19)."""
    gf.make_extension_field.cache_clear()
    start = time.perf_counter()
    spec = gf.make_extension_field(p, n)
    assert time.perf_counter() - start < 2
    assert (spec.modulus, spec.alpha) == LARGE_FIELDS[p, n]
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly(spec.modulus[::-1], sympy.Symbol("x"), modulus=p)
    assert poly.is_irreducible


def test_fresh_extension_field_runs_no_search(monkeypatch):
    """A fresh GF(5^12) reads its modulus and generator from the table and
    makes one gf.power call, the Frobenius image x**p; the search calls it
    for every trial modulus and trial generator."""
    gf.make_extension_field.cache_clear()
    calls = []
    power = gf.power

    def counted(spec, a, e):
        calls.append((a, e))
        return power(spec, a, e)

    monkeypatch.setattr(gf, "power", counted)
    spec = gf.make_extension_field(5, 12)
    assert calls == [(5, 5)]
    assert len(spec.frobenius) == spec.n == 12


def test_alpha_is_smallest_generator(f9, f25, f49):
    for spec in (f9, f25, f49):
        for a in range(2, spec.alpha):
            assert element_order(spec, a) != spec.q - 1


def _odd_extension_fields(limit):
    """GF(p^n) for every odd prime power p^n <= limit with n >= 2, in
    increasing order of p^n."""
    for p, n, _ in search._powers_of(search._base_primes(limit), limit, 2):
        if p > 2:
            yield gf.make_extension_field(p, n)


def test_extension_fields_up_to_a_million_are_unchanged():
    """Every odd p^n <= 10^6 with n >= 2 keeps its modulus and generator:
    the digest of (p, n, modulus, alpha) was recorded on the modulus
    search that ran Euclid's gcd."""
    gf.make_extension_field.cache_clear()
    rows = sorted((s.p, s.n, s.modulus, s.alpha) for s in _odd_extension_fields(10**6))
    assert len(rows) == 218
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "3a2ac071bfa0d263f99dd70311339914936a97150f5a8c0554754ae4eb90dfa3"


def test_extension_generator_search_from_p_matches_search_from_2():
    """The generator search of GF(p^n), n >= 2, starts at p: no constant
    below p has order q - 1. For every odd prime power q <= 20,000 a
    search from 2 by element_order, the power route, finds the same
    alpha as the norm-based generator test."""
    fields = list(_odd_extension_fields(20_000))
    assert len(fields) == 53
    for spec in fields:
        from_2 = next(
            a for a in range(2, spec.q) if element_order(spec, a) == spec.q - 1
        )
        assert spec.alpha == from_2 >= spec.p, (spec.p, spec.n)


def test_field_for_order():
    assert gf.field_for_order(41).n == 1
    s = gf.field_for_order(49)
    assert (s.p, s.n) == (7, 2)
    assert gf.field_for_order(24389).p == 29
    for bad in (12, 2, 8, 1):
        with pytest.raises(ValueError):
            gf.field_for_order(bad)


def test_field_for_order_refuses_oversize_q_before_factorising(monkeypatch):
    """A q over the size limit is refused without trial division, which
    would take about 2^30 steps for the prime 2^61 - 1."""

    def no_factorize(m):
        raise AssertionError(f"factorised {m}")

    monkeypatch.setattr(gf, "factorize", no_factorize)
    for q in (2**61 - 1, gf.DEFAULT_Q_LIMIT + 11, 3**20):
        with pytest.raises(ValueError, match="exceeds the size limit"):
            gf.field_for_order(q)


def test_coeffs_roundtrip(f49):
    for a in range(f49.q):
        cs = gf.element_coeffs(f49, a)
        assert len(cs) == 2
        assert element_from_coeffs(f49, cs) == a


def test_field_axioms_exhaustive(f9):
    q = f9.q
    for a in range(q):
        assert add(f9, a, neg(f9, a)) == 0
        assert gf.mul(f9, a, 1) == a
        if a:
            assert gf.mul(f9, a, gf.inv(f9, a)) == 1
    for a in range(q):
        for b in range(q):
            assert add(f9, a, b) == add(f9, b, a)
            assert gf.mul(f9, a, b) == gf.mul(f9, b, a)
            assert sub(f9, a, b) == add(f9, a, neg(f9, b))


def test_field_axioms_random(f41, f25, f49):
    rng = random.Random(7)
    for spec in (f41, f25, f49):
        q = spec.q
        for _ in range(300):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert gf.mul(spec, a, add(spec, b, c)) == add(
                spec, gf.mul(spec, a, b), gf.mul(spec, a, c)
            )
            assert gf.mul(spec, gf.mul(spec, a, b), c) == gf.mul(
                spec, a, gf.mul(spec, b, c)
            )


def test_inv_zero_raises(f41):
    with pytest.raises(ValueError):
        gf.inv(f41, 0)


def test_power(f41, f25):
    higher = [gf.make_extension_field(p, n) for p, n in ((3, 3), (5, 3), (3, 5), (7, 4))]
    for spec in (f41, f25, *higher):
        rng = random.Random(3)
        for _ in range(100):
            a = rng.randrange(1, spec.q)
            e = rng.randrange(-20, 40)
            direct = 1
            for _ in range(abs(e)):
                direct = poly_mul(spec, direct, a)
            if e < 0:
                direct = poly_inv(spec, direct)
            assert gf.power(spec, a, e) == direct
    assert gf.power(f41, 0, 0) == 1
    for spec in (f25, *higher):
        assert gf.power(spec, 0, 0) == 1 and gf.power(spec, 0, 5) == 0


def test_one_row_ops_match_the_polynomial_route(f9, f25, f49):
    """gf.mul, power, inv and chi, the one-row cases of the coefficient
    arrays, equal the polynomial route: mul at every pair of GF(9),
    GF(25), GF(27) and GF(49) and at 2,000 random pairs of each
    LARGE_FIELDS field, and power, inv and chi at every element of the
    small fields and at 0 and three sampled elements of the large ones.
    power is checked at e = 0, 1, 2, q - 2, q - 1, q and 2**40 + 3, at
    e = -1 and -q, and also on a trial spec without Frobenius columns, as
    Rabin's test builds it."""
    rng = random.Random(39)
    cases = [
        (spec, list(product(range(spec.q), repeat=2)), range(spec.q))
        for spec in (f9, f25, gf.make_extension_field(3, 3), f49)
    ]
    for p, n in LARGE_FIELDS:
        spec = gf.make_extension_field(p, n)
        pairs = [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(2000)]
        cases.append((spec, pairs, [0] + [a for a, _ in pairs[:3]]))
    for spec, pairs, elements in cases:
        q = spec.q
        trial = gf.FieldSpec(p=spec.p, n=spec.n, modulus=spec.modulus, q=q, alpha=0)
        assert all(gf.mul(spec, a, b) == poly_mul(spec, a, b) for a, b in pairs), q
        for a in elements:
            for e in (0, 1, 2, q - 2, q - 1, q, 2**40 + 3) + ((-1, -q) if a else ()):
                want = poly_power(spec, a, e)
                assert gf.power(spec, a, e) == gf.power(trial, a, e) == want, (q, a, e)
            if a:
                assert gf.inv(spec, a) == poly_inv(spec, a), (q, a)
                assert gf.chi(spec, a) == poly_chi(spec, a), (q, a)


def test_power_fermat_in_gf_3_11():
    """a^(q-1) = 1, a^q = a and Euler's criterion on a seeded sample of
    GF(3^11)*."""
    spec = gf.make_extension_field(3, 11)
    rng = random.Random(11)
    for a in rng.sample(range(1, spec.q), 40):
        assert gf.power(spec, a, spec.q - 1) == 1
        assert gf.power(spec, a, spec.q) == a
        euler = gf.power(spec, a, (spec.q - 1) // 2)
        assert euler == (1 if gf.chi(spec, a) == 1 else neg(spec, 1))


def test_order_parts_refuses_as_field_for_order():
    assert gf.order_parts(41) == (41, 1)
    assert gf.order_parts(3**19) == (3, 19)
    for bad in (12, 2, 8, 1, 0, -7, 2**31 + 1):
        with pytest.raises(ValueError) as parts:
            gf.order_parts(bad)
        with pytest.raises(ValueError) as field:
            gf.field_for_order(bad)
        assert str(parts.value) == str(field.value)
    # a q < 1 is refused as q = 1 is, not by factorize
    for bad in (1, 0, -7):
        with pytest.raises(ValueError, match=f"^{bad} is not a prime power$"):
            gf.order_parts(bad)


def test_x_multiples_give_exactly_count_rows(f41, f25):
    """Row i is x**i * y, checked against poly_mul; count 0 gives no row, and
    the reduction rows x**n, ..., x**(2n-2) are empty on a prime field."""
    f27 = gf.make_extension_field(3, 3)
    for spec, count in ((f41, 1), (f25, 2), (f27, 5)):
        y = spec.alpha
        for c in range(count + 1):
            rows = gf._x_multiples(spec, gf.element_coeffs(spec, y), c)
            assert rows.shape == (c, spec.n) and rows.dtype == np.int64
            for i, row in enumerate(gf.encode_rows(spec, rows)):
                assert row == poly_mul(spec, poly_power(spec, spec.p, i), y)
    assert gf._x_multiples(f25, [3, 4], 0).shape == (0, 2)
    assert gf._reduction_rows(f41).shape == (0, 1)
    for spec in (f25, f27):
        red = gf._reduction_rows(spec)
        assert red.shape == (spec.n - 1, spec.n)
        x = spec.p  # the encoding of the element x
        assert gf.encode_rows(spec, red) == [
            poly_power(spec, x, spec.n + i) for i in range(spec.n - 1)
        ]


def _naive_order(spec, a):
    x, n = a, 1
    while x != 1:
        x = gf.mul(spec, x, a)
        n += 1
    return n


def test_element_order_oracle(f41, f9, f25):
    for spec in (f41, f9, f25):
        for a in range(1, spec.q):
            assert element_order(spec, a) == _naive_order(spec, a)
    with pytest.raises(ValueError):
        element_order(f41, 0)


def test_chi_square_oracle_primes():
    for p in (13, 17, 29, 41, 61, 101, 197):
        spec = gf.make_prime_field(p)
        squares = {pow(x, 2, p) for x in range(1, p)}
        for a in range(1, p):
            assert gf.chi(spec, a) == (1 if a in squares else -1)


def test_chi_square_oracle_extensions(f9, f25, f49):
    for spec in (f9, f25, f49):
        squares = {poly_mul(spec, x, x) for x in range(1, spec.q)}
        for a in range(1, spec.q):
            assert gf.chi(spec, a) == (1 if a in squares else -1)
    with pytest.raises(ValueError):
        gf.chi(f9, 0)


def test_chi_multiplicative_random(f13, f29, f41, f61, f25):
    rng = random.Random(11)
    for spec in (f13, f29, f41, f61, f25):
        for _ in range(2000):
            a = rng.randrange(1, spec.q)
            b = rng.randrange(1, spec.q)
            assert gf.chi(spec, gf.mul(spec, a, b)) == gf.chi(spec, a) * gf.chi(
                spec, b
            )


def test_field_cache():
    assert gf.make_prime_field(41) is gf.make_prime_field(41)
    assert gf.make_extension_field(3, 2) is gf.make_extension_field(3, 2)


def _sampled_large_fields():
    rng = random.Random(509)
    for p, n in ((509, 2), (3, 11), (13, 5)):
        spec = gf.make_extension_field(p, n)
        yield spec, [rng.randrange(1, spec.q) for _ in range(200)]


def _euler(spec, a):
    return 1 if poly_power(spec, a, (spec.q - 1) // 2) == 1 else -1


def test_norm_chi_and_inv_match_the_power_route():
    """chi is Euler's criterion a**((q-1)/2) and N(a) = a**((q-1)/(p-1)),
    both powers by the polynomial route, on every nonzero element of every
    odd GF(p^n) <= 2000, n >= 2, and on samples of three larger fields.
    inv is the power route a**(q-2) itself, so it is checked by
    a * inv(a) = 1 there instead, the product by the polynomial route."""
    fields = [(spec, range(1, spec.q)) for spec in _odd_extension_fields(2000)]
    assert len(fields) == 21
    for spec, elements in fields + list(_sampled_large_fields()):
        r = (spec.q - 1) // (spec.p - 1)
        for a in elements:
            assert gf.chi(spec, a) == _euler(spec, a), (spec.q, a)
            assert poly_mul(spec, a, gf.inv(spec, a)) == 1, (spec.q, a)
            assert norm(spec, a) == poly_power(spec, a, r), (spec.q, a)


def test_norm_is_multiplicative_into_the_prime_field(f13, f9, f25, f49):
    rng = random.Random(13)
    specs = [f13, f9, f25, f49] + [spec for spec, _ in _sampled_large_fields()]
    for spec in specs:
        p = spec.p
        assert norm(spec, 1) == 1
        for _ in range(200):
            a, b = rng.randrange(1, spec.q), rng.randrange(1, spec.q)
            na, nb = norm(spec, a), norm(spec, b)
            assert 1 <= na < p and 1 <= nb < p
            assert norm(spec, gf.mul(spec, a, b)) == na * nb % p
        # on GF(p) inside GF(p^n) the norm is c**n
        for c in range(1, p):
            assert norm(spec, c) == pow(c, spec.n, p)


def test_full_order_test_matches_element_order(f41, f9, f25, f49):
    """The generator test agrees with the least m where a**m == 1 on
    every element, and refuses 0."""
    more = [gf.make_extension_field(p, n) for p, n in ((3, 3), (3, 5), (13, 2))]
    for spec in (f41, f9, f25, f49, *more):
        for a in range(spec.q):
            full = a != 0 and element_order(spec, a) == spec.q - 1
            assert gf._has_full_order(spec, a) == full, (spec.q, a)


def test_full_order_test_matches_sympy_on_prime_fields():
    """_has_full_order and element_order both take gf.power, so the
    generator test is also held to sympy, which shares no code with gf:
    is_primitive_root on every element of a few prime fields, and the
    smallest primitive root, make_prime_field's alpha, on 300 primes."""
    ntheory = pytest.importorskip("sympy.ntheory")
    for p in (3, 5, 7, 13, 41, 101, 257, 1009):
        spec = gf.make_prime_field(p)
        assert not gf._has_full_order(spec, 0)
        for a in range(1, p):
            assert gf._has_full_order(spec, a) == ntheory.is_primitive_root(a, p), (p, a)
    primes = search.sieve_primes(10**6)
    rng = random.Random(1009)
    for p in rng.sample(primes[1:], 300):
        assert gf.make_prime_field(p).alpha == ntheory.primitive_root(p), p
