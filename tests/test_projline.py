"""Tests for the PSL(2,q) action on the projective line."""

import itertools
import math
import random

import numpy as np
import pytest

from psldesigns import design, gf, projline, starter

from scalar_oracles import (
    add,
    apply,
    canonicalize,
    compose,
    delta_extended as poly_delta_extended,
    delta_finite,
    identity,
    inverse,
    neg,
    poly_chi,
    poly_inv,
    poly_mul,
    poly_power,
    random_element,
    sub,
)

# every q = 1 mod 4 up to the oracle limit
ORACLE_QS = (5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61)


def _apply_to_triple(spec, g, triple):
    pm = projline.point_permutation(spec, g)
    return tuple(sorted(pm[z] for z in triple))


def _by_triple(labels, v):
    """(triple, label) for every 3-subset of range(v), reading labels at the
    colex rank x + C(y,2) + C(z,3) of each triple."""
    for t in itertools.combinations(range(v), 3):
        yield t, labels[t[0] + math.comb(t[1], 2) + math.comb(t[2], 3)]


# --- oracle: the tuple-and-set orbit closure that the label array replaced


def _scalar_triple_orbits(spec):
    """{sorted triple: +1 or -1} by breadth-first closure over sets of
    tuples, +1 on the orbit of {inf, 0, 1} and -1 on that of
    {inf, 0, alpha}."""
    q = spec.q
    perms = [projline.point_permutation(spec, g) for g in projline.psl_generators(spec)]

    def closure(start):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for t in frontier:
                for pm in perms:
                    u = tuple(sorted((pm[t[0]], pm[t[1]], pm[t[2]])))
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return seen

    plus = closure((0, 1, q))
    minus = closure((0, spec.alpha, q))
    assert not plus & minus and len(plus) + len(minus) == math.comb(q + 1, 3)
    return {**dict.fromkeys(plus, 1), **dict.fromkeys(minus, -1)}


def test_canonicalize_scalar_invariance(f41):
    rng = random.Random(17)
    for _ in range(50):
        g = random_element(f41, rng)
        s = rng.randrange(1, 41)
        scaled = canonicalize(
            f41,
            gf.mul(f41, s, g.a),
            gf.mul(f41, s, g.b),
            gf.mul(f41, s, g.c),
            gf.mul(f41, s, g.d),
        )
        assert scaled == g


def test_canonicalize_rejects_bad_determinant(f13, f41):
    with pytest.raises(ValueError):
        canonicalize(f13, 1, 2, 2, 4)
    # 6 generates GF(41)*, so det = 6 is a nonsquare
    with pytest.raises(ValueError):
        canonicalize(f41, 6, 0, 0, 1)


def test_group_axioms_random(f41, f9):
    rng = random.Random(5)
    for spec in (f41, f9):
        e = identity(spec)
        for _ in range(25):
            g = random_element(spec, rng)
            h = random_element(spec, rng)
            k = random_element(spec, rng)
            assert compose(spec, g, e) == g
            assert compose(spec, e, g) == g
            assert compose(spec, g, inverse(spec, g)) == e
            left = compose(spec, compose(spec, g, h), k)
            right = compose(spec, g, compose(spec, h, k))
            assert left == right


def test_apply_examples(f13, f41):
    inf13 = f13.q
    w = canonicalize(f13, 0, 1, 1, 0)  # z -> 1/z
    assert apply(f13, w, 0) == inf13
    assert apply(f13, w, inf13) == 0
    assert apply(f13, w, 5) == gf.inv(f13, 5)

    shear = canonicalize(f13, 1, 1, 0, 1)  # z -> z + 1
    assert apply(f13, shear, inf13) == inf13
    assert apply(f13, shear, 12) == 0

    scale = canonicalize(f41, 36, 0, 0, 1)  # z -> 36 z, 36 a square
    assert apply(f41, scale, 1) == 36


def test_action_is_homomorphism(f13, f9):
    rng = random.Random(23)
    for spec in (f13, f9):
        for _ in range(10):
            g = random_element(spec, rng)
            h = random_element(spec, rng)
            gh = compose(spec, g, h)
            for z in range(spec.q + 1):
                assert apply(spec, gh, z) == apply(spec, g, apply(spec, h, z))


def test_point_permutation_is_bijection(f29, f25):
    rng = random.Random(41)
    for spec in (f29, f25):
        for _ in range(20):
            g = random_element(spec, rng)
            pm = projline.point_permutation(spec, g)
            assert sorted(pm) == list(range(spec.q + 1))


def test_group_order(f13):
    # square-determinant matrices up to scalars: q(q^2 - 1)/2 = 1092 of them,
    # acting faithfully on the 14 points
    mats = itertools.product(range(13), repeat=4)
    squares = {x * x % 13 for x in range(1, 13)}
    square = [m for m in mats if (m[0] * m[3] - m[1] * m[2]) % 13 in squares]
    group = {canonicalize(f13, *m) for m in square}
    assert len(group) == 1092
    assert len({tuple(projline.point_permutation(f13, g)) for g in group}) == 1092


def test_delta_finite_frozen(f41):
    """The scalar delta_finite and projline.delta_extended on the same
    finite triples of GF(41)."""
    for sign in (delta_finite, projline.delta_extended):
        assert sign(f41, (1, 10, 18)) == -1
        assert sign(f41, (1, 18, 37)) == 1


def test_delta_finite_order_independence(f41):
    rng = random.Random(3)
    for _ in range(100):
        pts = rng.sample(range(41), 3)
        want = delta_finite(f41, tuple(sorted(pts)))
        rng.shuffle(pts)
        assert delta_finite(f41, tuple(pts)) == want
        assert projline.delta_extended(f41, tuple(pts)) == want


def test_delta_finite_validation(f13, f41, f9):
    """Repeated points and q = 3 (mod 4) raise on both routes; a point
    outside range(q + 1) raises in projline.delta_extended, naming the
    range, before any table is built."""
    f19 = gf.make_prime_field(19)
    for sign in (delta_finite, projline.delta_extended):
        with pytest.raises(ValueError, match="distinct"):
            sign(f41, (1, 1, 2))
        with pytest.raises(ValueError, match="not 1 mod 4"):
            sign(f19, (1, 2, 3))
    with pytest.raises(ValueError, match="finite"):
        delta_finite(f41, (1, 2, 41))
    # 41 is infinity on PG(1,41): the sign through it is chi(1 - 2) = chi(-1)
    assert projline.delta_extended(f41, (1, 2, 41)) == 1
    projline.field_tables.cache_clear()
    for spec, triple in (
        (f13, (-1, 0, 1)),
        (f13, (-13, 0, 1)),
        (f13, (0, 1, 15)),
        (f13, (0, 1, 14)),
        (f41, (1, 2, 42)),
        (f9, (-1, 0, 1)),
    ):
        with pytest.raises(ValueError, match=rf"range\(q \+ 1\) = range\({spec.q + 1}\)"):
            projline.delta_extended(spec, triple)
    assert projline.field_tables.cache_info().currsize == 0


def test_delta_extended_reference_triples(f13, f29, f41, f9, f25):
    """The two reference triples carry the signs that name the orbits."""
    for spec in (f13, f29, f41, f9, f25):
        inf = spec.q
        assert projline.delta_extended(spec, (inf, 0, 1)) == 1
        assert projline.delta_extended(spec, (inf, 0, spec.alpha)) == -1


def test_delta_extended_agrees_on_finite_triples(f29):
    rng = random.Random(9)
    for _ in range(200):
        t = tuple(rng.sample(range(29), 3))
        assert projline.delta_extended(f29, t) == delta_finite(f29, t)


def test_delta_is_invariant_under_group(f13, f29, f41, f25):
    rng = random.Random(77)
    for spec in (f13, f29, f41, f25):
        pts = list(range(spec.q + 1))
        for _ in range(5):
            g = random_element(spec, rng)
            for _ in range(20):
                t = tuple(rng.sample(pts, 3))
                image = _apply_to_triple(spec, g, t)
                assert projline.delta_extended(spec, image) == projline.delta_extended(
                    spec, t
                )


def test_scaling_by_nonsquare_flips_sign(f41):
    """z -> cz with chi(c) = -1 lies outside PSL and swaps the orbits."""
    rng = random.Random(13)
    square = gf.mul(f41, 2, 2)
    nonsquare = f41.alpha
    assert gf.chi(f41, nonsquare) == -1
    inf = f41.q
    for _ in range(50):
        t = tuple(rng.sample(range(41), 2)) + (inf,)
        if rng.random() < 0.5:
            t = tuple(rng.sample(range(41), 3))
        d = projline.delta_extended(f41, t)
        scaled = tuple(gf.mul(f41, nonsquare, z) if z != inf else inf for z in t)
        assert projline.delta_extended(f41, scaled) == -d
        scaled = tuple(gf.mul(f41, square, z) if z != inf else inf for z in t)
        assert projline.delta_extended(f41, scaled) == d


def test_brute_force_orbits_q13(f13):
    labels = projline.brute_force_triple_orbits(f13)
    assert len(labels) == math.comb(14, 3)
    sizes = {1: 0, -1: 0}
    for t, sign in _by_triple(labels, 14):
        sizes[sign] += 1
        assert projline.delta_extended(f13, t) == sign
    assert sizes == {1: 182, -1: 182}


def test_brute_force_orbits_extension_field(f9):
    labels = projline.brute_force_triple_orbits(f9)
    assert len(labels) == math.comb(10, 3)
    for t, sign in _by_triple(labels, 10):
        assert projline.delta_extended(f9, t) == sign


def test_brute_force_orbits_q29(f29):
    labels = projline.brute_force_triple_orbits(f29)
    assert len(labels) == math.comb(30, 3)
    assert all(projline.delta_extended(f29, t) == s for t, s in _by_triple(labels, 30))


def test_brute_force_orbits_rejects():
    f19 = gf.make_prime_field(19)
    with pytest.raises(ValueError):
        projline.brute_force_triple_orbits(f19)
    f97 = gf.make_prime_field(97)
    with pytest.raises(ValueError, match="oracle limit"):
        projline.brute_force_triple_orbits(f97)


@pytest.fixture(scope="module", params=ORACLE_QS, ids=str)
def small_field(request):
    return gf.field_for_order(request.param)


def test_closure_labels_match_the_scalar_closure(small_field):
    labels = projline.brute_force_triple_orbits(small_field)
    assert labels.dtype == np.int8
    want = _scalar_triple_orbits(small_field)
    assert dict(_by_triple(labels.tolist(), small_field.q + 1)) == want


def test_colex_triples_are_ranked_in_order():
    for v in (3, 4, 10, 62):
        rows = projline.colex_triples(v)
        ranks = [t[0] + math.comb(t[1], 2) + math.comb(t[2], 3) for t in rows.tolist()]
        assert ranks == list(range(math.comb(v, 3)))
        assert sorted(map(tuple, rows.tolist())) == list(itertools.combinations(range(v), 3))
        assert np.array_equal(projline.triple_ranks(rows), np.arange(len(rows)))


# every odd prime power up to the oracle limit, GF(27) among them
TABLE_QS = tuple(
    q for q in range(3, projline.DEFAULT_ORACLE_LIMIT + 1, 2) if len(gf.factorize(q)) == 1
)


def test_field_tables_match_the_scalar_ops():
    """The table sum, difference, product, inverse and chi at every pair
    of every odd q <= 64 are those of the scalar ops, the last three by
    the polynomial route; the product is 0 exactly when a factor is."""
    assert len(TABLE_QS) == 21 and {9, 25, 27, 49} <= set(TABLE_QS)
    for q in TABLE_QS:
        spec = gf.field_for_order(q)
        tab = projline.field_tables(spec)
        a, b = (x.ravel() for x in np.indices((q, q)))
        pairs = list(zip(a.tolist(), b.tolist()))
        assert tab.add(a, b).tolist() == [add(spec, x, y) for x, y in pairs]
        assert tab.sub(a, b).tolist() == [sub(spec, x, y) for x, y in pairs]
        assert tab.mul(a, b).tolist() == [poly_mul(spec, x, y) for x, y in pairs]
        nonzero = np.arange(1, q)
        assert tab.inv(nonzero).tolist() == [poly_inv(spec, x) for x in range(1, q)]
        assert tab.chi(nonzero).tolist() == [poly_chi(spec, x) for x in range(1, q)]


def test_expand_orbit_builds_the_field_tables_once(monkeypatch):
    """field_tables keeps the last field's tables, read-only, so the six
    generator permutations of a GF(125) orbit share one gf.power_rows
    call, after psl_generators' own power_rows(alpha, 3): the orbit of
    the finite points, the 126 complements of a point."""
    spec = gf.field_for_order(125)
    calls = []
    real = gf.power_rows
    monkeypatch.setattr(gf, "power_rows", lambda *args: calls.append(args[1:]) or real(*args))
    projline.field_tables.cache_clear()
    assert len(design.expand_orbit(spec, range(125))) == 126
    assert calls == [(spec.alpha, 3), (spec.alpha, 124)]
    tab = projline.field_tables(spec)
    assert len(calls) == 2
    for table in (tab.exp, tab.log, tab.digits, tab.weights):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_tables_and_contexts_make_no_scalar_field_op(monkeypatch):
    """field_tables, the array action (point_permutation, apply_to_points,
    expand_orbit), the signs and trials of the oracle, and
    make_starter_context, on prime and extension fields, with the scalar
    mul, inv and chi made to raise: the same results as with them in
    place."""
    specs = [gf.field_for_order(q) for q in (25, 27, 61)]
    pairs = [(gf.field_for_order(q), k) for q, k in ((41, 10), (1009, 42), (2**31 - 1, 14))]

    def run(spec):
        tab = projline.field_tables(spec)
        gens = projline.psl_generators(spec)
        rows = projline.colex_triples(spec.q + 1)
        elems, triples = next(projline.sample_trials(tab, random.Random(spec.q), 50))
        return (
            [tab.exp, tab.log, tab.digits],
            [projline.point_permutation(spec, g) for g in gens],
            [projline.apply_to_points(tab, elems, triples), elems, triples],
            [projline.triple_signs(tab, rows)],
            [design.expand_orbit(spec, (0, 1, spec.q))],
        )

    want = [run(spec) for spec in specs]
    contexts = [starter.make_starter_context(spec, k) for spec, k in pairs]

    def scalar_op(*args):
        raise AssertionError("a scalar gf op was called")

    for name in ("mul", "inv", "chi"):
        monkeypatch.setattr(gf, name, scalar_op)
    for spec, parts in zip(specs, want):
        for got, expected in zip(run(spec), parts):
            assert all(map(np.array_equal, got, expected)), spec.q
    for (spec, k), expected in zip(pairs, contexts):
        assert starter.make_starter_context(spec, k) == expected


def test_generators_are_the_canonical_transvections():
    """psl_generators builds z -> z + x and z -> z/(xz + 1), x = alpha**t
    for t < n, directly: each is what canonicalize makes of the
    transvection's matrix, on every odd prime power q <= 64 and on
    GF(5^3), GF(3^5) and GF(3^6)."""
    for q in TABLE_QS + (125, 243, 729):
        spec = gf.field_for_order(q)
        want = []
        for t in range(spec.n):
            x = poly_power(spec, spec.alpha, t)
            want += [canonicalize(spec, 1, x, 0, 1), canonicalize(spec, 1, 0, x, 1)]
        assert projline.psl_generators(spec) == want, q


def test_generators_make_no_scalar_field_op(monkeypatch):
    """With the scalar mul, chi, inv and power made to raise,
    psl_generators still builds the same generators on GF(61) and
    GF(125): alpha**t for t < n are the rows of one gf.power_rows."""
    specs = [gf.field_for_order(q) for q in (61, 125)]
    want = [projline.psl_generators(spec) for spec in specs]

    def scalar_op(*args):
        raise AssertionError("a scalar gf op was called")

    for name in ("mul", "chi", "inv", "power"):
        monkeypatch.setattr(gf, name, scalar_op)
    assert [projline.psl_generators(spec) for spec in specs] == want


def test_triple_signs_match_delta_extended_on_every_triple(small_field):
    """triple_signs and projline.delta_extended, its one-row case, equal
    the scalar sign by the polynomial route on every triple."""
    spec = small_field
    tab = projline.field_tables(spec)
    rows = projline.colex_triples(spec.q + 1)
    want = [poly_delta_extended(spec, t) for t in rows.tolist()]
    assert projline.triple_signs(tab, rows).tolist() == want
    assert [projline.delta_extended(spec, t) for t in rows.tolist()] == want
    # the sign of a triple does not depend on the order of its points
    shuffled = np.random.default_rng(spec.q).permuted(rows, axis=1)
    assert projline.triple_signs(tab, shuffled).tolist() == want


@pytest.mark.parametrize("seed", [20250841, 7])
def test_sampled_trials_are_those_of_random_element(f29, f25, seed, monkeypatch):
    monkeypatch.setattr(projline, "ORACLE_CHUNK_TRIALS", 64)
    for spec in (f29, f25):
        tab = projline.field_tables(spec)
        chunks = list(projline.sample_trials(tab, random.Random(seed), 200))
        assert [len(elems) for elems, _ in chunks] == [64, 64, 64, 8]
        elems, triples = (np.concatenate(part) for part in zip(*chunks))
        assert elems.shape == (200, 4) and triples.shape == (200, 3)
        rng = random.Random(seed)
        pts = list(range(spec.q + 1))
        for row, t in zip(elems.tolist(), triples.tolist()):
            assert canonicalize(spec, *row) == random_element(spec, rng)
            assert t == rng.sample(pts, 3)


def test_apply_to_points_matches_apply(f13, f9, f25):
    rng = random.Random(3)
    for spec in (f13, f9, f25):
        tab = projline.field_tables(spec)
        elems = [random_element(spec, rng) for _ in range(30)]
        # a map fixing infinity (c = 0) and z -> -1/z, which swaps it with 0
        minus_one = neg(spec, 1)
        elems += [identity(spec), canonicalize(spec, 0, 1, minus_one, 0)]
        mats = np.array([(g.a, g.b, g.c, g.d) for g in elems])
        points = np.tile(np.arange(spec.q + 1), (len(elems), 1))
        images = projline.apply_to_points(tab, mats, points)
        want = [[apply(spec, g, z) for z in range(spec.q + 1)] for g in elems]
        assert images.tolist() == want


# every odd prime power up to 400, and every odd prime up to 2000
PERMUTATION_QS = sorted(
    {q for q in range(3, 401, 2) if len(gf.factorize(q)) == 1}
    | {p for p in range(3, 2001, 2) if gf.factorize(p) == ((p, 1),)}
)


def test_point_permutation_matches_apply_on_every_generator():
    """Checked twice: each generator's permutation is the scalar apply of
    every point, at every q of PERMUTATION_QS."""
    assert len(PERMUTATION_QS) == 314 and {243, 343, 361, 1999} <= set(PERMUTATION_QS)
    for q in PERMUTATION_QS:
        spec = gf.field_for_order(q)
        for g in projline.psl_generators(spec):
            want = [apply(spec, g, z) for z in range(q + 1)]
            assert projline.point_permutation(spec, g) == want, (q, g)


@pytest.mark.parametrize("q", [3**6, 3**8, 29**3])
def test_point_permutation_matches_apply_on_large_extensions(q):
    """The permutation of every generator of GF(3^6), GF(3^8) and GF(29^3)
    at 500 seeded points, infinity among them, is the scalar apply's."""
    spec = gf.field_for_order(q)
    points = [q, 0, 1] + random.Random(q).sample(range(q), 497)
    for g in projline.psl_generators(spec):
        perm = projline.point_permutation(spec, g)
        assert [perm[z] for z in points] == [apply(spec, g, z) for z in points], g
