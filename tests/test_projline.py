"""Tests for the PSL(2,q) action on the projective line."""

import math
import random

import pytest

from psldesigns import gf, projline


def _apply_to_triple(spec, g, triple):
    pm = projline.point_permutation(spec, g)
    return tuple(sorted(pm[z] for z in triple))


def test_canonicalize_scalar_invariance(f41):
    rng = random.Random(17)
    for _ in range(50):
        g = projline.random_element(f41, rng)
        s = rng.randrange(1, 41)
        scaled = projline.canonicalize(
            f41,
            gf.mul(f41, s, g.a),
            gf.mul(f41, s, g.b),
            gf.mul(f41, s, g.c),
            gf.mul(f41, s, g.d),
        )
        assert scaled == g


def test_canonicalize_rejects_bad_determinant(f13, f41):
    with pytest.raises(ValueError):
        projline.canonicalize(f13, 1, 2, 2, 4)
    # 6 generates GF(41)*, so det = 6 is a nonsquare
    with pytest.raises(ValueError):
        projline.canonicalize(f41, 6, 0, 0, 1)


def test_group_axioms_random(f41, f9):
    rng = random.Random(5)
    for spec in (f41, f9):
        e = projline.identity(spec)
        for _ in range(25):
            g = projline.random_element(spec, rng)
            h = projline.random_element(spec, rng)
            k = projline.random_element(spec, rng)
            assert projline.compose(spec, g, e) == g
            assert projline.compose(spec, e, g) == g
            assert projline.compose(spec, g, projline.inverse(spec, g)) == e
            left = projline.compose(spec, projline.compose(spec, g, h), k)
            right = projline.compose(spec, g, projline.compose(spec, h, k))
            assert left == right


def test_apply_examples(f13, f41):
    inf13 = f13.q
    w = projline.canonicalize(f13, 0, 1, 1, 0)  # z -> 1/z
    assert projline.apply(f13, w, 0) == inf13
    assert projline.apply(f13, w, inf13) == 0
    assert projline.apply(f13, w, 5) == gf.inv(f13, 5)

    shear = projline.canonicalize(f13, 1, 1, 0, 1)  # z -> z + 1
    assert projline.apply(f13, shear, inf13) == inf13
    assert projline.apply(f13, shear, 12) == 0

    scale = projline.canonicalize(f41, 36, 0, 0, 1)  # z -> 36 z, 36 a square
    assert projline.apply(f41, scale, 1) == 36


def test_action_is_homomorphism(f13, f9):
    rng = random.Random(23)
    for spec in (f13, f9):
        for _ in range(10):
            g = projline.random_element(spec, rng)
            h = projline.random_element(spec, rng)
            gh = projline.compose(spec, g, h)
            for z in projline.all_points(spec):
                assert projline.apply(spec, gh, z) == projline.apply(
                    spec, g, projline.apply(spec, h, z)
                )


def test_point_permutation_is_bijection(f29, f25):
    rng = random.Random(41)
    for spec in (f29, f25):
        for _ in range(20):
            g = projline.random_element(spec, rng)
            pm = projline.point_permutation(spec, g)
            assert sorted(pm) == list(projline.all_points(spec))


def test_group_order(f13):
    assert projline.group_order(f13) == 1092


def test_delta_finite_frozen(f41):
    assert projline.delta_finite(f41, (1, 10, 18)) == -1
    assert projline.delta_finite(f41, (1, 18, 37)) == 1


def test_delta_finite_order_independence(f41):
    rng = random.Random(3)
    for _ in range(100):
        pts = rng.sample(range(41), 3)
        want = projline.delta_finite(f41, tuple(sorted(pts)))
        rng.shuffle(pts)
        assert projline.delta_finite(f41, tuple(pts)) == want


def test_delta_finite_validation(f41):
    with pytest.raises(ValueError):
        projline.delta_finite(f41, (1, 1, 2))
    with pytest.raises(ValueError):
        projline.delta_finite(f41, (1, 2, 41))
    f19 = gf.make_prime_field(19)
    with pytest.raises(ValueError):
        projline.delta_finite(f19, (1, 2, 3))


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
        assert projline.delta_extended(f29, t) == projline.delta_finite(f29, t)


def test_delta_is_invariant_under_group(f13, f29, f41, f25):
    rng = random.Random(77)
    for spec in (f13, f29, f41, f25):
        pts = list(projline.all_points(spec))
        for _ in range(5):
            g = projline.random_element(spec, rng)
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
    for t, sign in labels.items():
        sizes[sign] += 1
        assert projline.delta_extended(f13, t) == sign
    assert sizes == {1: 182, -1: 182}


def test_brute_force_orbits_extension_field(f9):
    labels = projline.brute_force_triple_orbits(f9)
    assert len(labels) == math.comb(10, 3)
    for t, sign in labels.items():
        assert projline.delta_extended(f9, t) == sign


def test_brute_force_orbits_q29(f29):
    labels = projline.brute_force_triple_orbits(f29)
    assert len(labels) == math.comb(30, 3)
    assert all(projline.delta_extended(f29, t) == s for t, s in labels.items())


def test_brute_force_orbits_rejects():
    f19 = gf.make_prime_field(19)
    with pytest.raises(ValueError):
        projline.brute_force_triple_orbits(f19)
    f97 = gf.make_prime_field(97)
    with pytest.raises(ValueError, match="oracle limit"):
        projline.brute_force_triple_orbits(f97)
