"""The projective line PG(1,q) and the PSL(2,q) action on it.

A point is an integer in [0, q]: a finite point is its field encoding and
the point at infinity is q itself. Plain integer order is therefore the
canonical point order (finite points by encoding, infinity last) and points
serialize as themselves in design files.

Group elements are 2x2 matrices with square determinant acting by
z -> (a*z + b)/(c*z + d), held in a canonical form so that equal maps
compare equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from psldesigns import gf

DEFAULT_ORACLE_LIMIT = 64


def all_points(spec: gf.FieldSpec) -> range:
    return range(spec.q + 1)


@dataclass(frozen=True)
class GroupElem:
    """Canonical representative of an element of PSL(2,q)."""

    a: int
    b: int
    c: int
    d: int


def canonicalize(spec: gf.FieldSpec, a: int, b: int, c: int, d: int) -> GroupElem:
    """Canonical form of a matrix with nonzero square determinant.

    Scales so the first nonzero entry of (a, b, c, d) is 1. Two matrices
    induce the same map of the projective line exactly when they are
    proportional, so they canonicalize identically iff their maps agree.
    """
    det = gf.sub(spec, gf.mul(spec, a, d), gf.mul(spec, b, c))
    if det == 0:
        raise ValueError("matrix is singular")
    if gf.chi(spec, det) != 1:
        raise ValueError("determinant is not a square, so not in PSL(2,q)")
    s = gf.inv(spec, a or b)  # a = b = 0 would make the matrix singular
    return GroupElem(*(gf.mul(spec, s, x) for x in (a, b, c, d)))


def identity(spec: gf.FieldSpec) -> GroupElem:
    return GroupElem(1, 0, 0, 1)


def compose(spec: gf.FieldSpec, g: GroupElem, h: GroupElem) -> GroupElem:
    """Canonical product, so apply(compose(g,h), z) == apply(g, apply(h, z))."""
    return canonicalize(
        spec,
        gf.add(spec, gf.mul(spec, g.a, h.a), gf.mul(spec, g.b, h.c)),
        gf.add(spec, gf.mul(spec, g.a, h.b), gf.mul(spec, g.b, h.d)),
        gf.add(spec, gf.mul(spec, g.c, h.a), gf.mul(spec, g.d, h.c)),
        gf.add(spec, gf.mul(spec, g.c, h.b), gf.mul(spec, g.d, h.d)),
    )


def inverse(spec: gf.FieldSpec, g: GroupElem) -> GroupElem:
    return canonicalize(spec, g.d, gf.neg(spec, g.b), gf.neg(spec, g.c), g.a)


def apply(spec: gf.FieldSpec, g: GroupElem, z: int) -> int:
    """Image of a point under the linear fractional transformation g."""
    q = spec.q
    if z == q:
        if g.c == 0:
            return q
        return gf.mul(spec, g.a, gf.inv(spec, g.c))
    den = gf.add(spec, gf.mul(spec, g.c, z), g.d)
    if den == 0:
        return q
    num = gf.add(spec, gf.mul(spec, g.a, z), g.b)
    return gf.mul(spec, num, gf.inv(spec, den))


def point_permutation(spec: gf.FieldSpec, g: GroupElem) -> list[int]:
    """The permutation of [0..q] induced by g, as a lookup table."""
    return [apply(spec, g, z) for z in all_points(spec)]


def psl_generators(spec: gf.FieldSpec) -> list[GroupElem]:
    """Transvections generating PSL(2,q).

    For prime fields the two unit transvections suffice; for GF(p^n) the
    shears by alpha**t for t < n are added, since 1, alpha, ...,
    alpha**(n-1) span the field over GF(p).
    """
    gens = []
    for t in range(spec.n):
        x = gf.power(spec, spec.alpha, t)
        gens.append(canonicalize(spec, 1, x, 0, 1))
        gens.append(canonicalize(spec, 1, 0, x, 1))
    return gens


def group_order(spec: gf.FieldSpec) -> int:
    """|PSL(2,q)| = q(q^2 - 1)/2 for odd q."""
    q = spec.q
    return (q + 1) * q * (q - 1) // 2


def random_element(spec: gf.FieldSpec, rng) -> GroupElem:
    """Random canonical element by rejection sampling on the determinant."""
    q = spec.q
    while True:
        a, b, c, d = (rng.randrange(q) for _ in range(4))
        det = gf.sub(spec, gf.mul(spec, a, d), gf.mul(spec, b, c))
        if det != 0 and gf.chi(spec, det) == 1:
            return canonicalize(spec, a, b, c, d)


# ---------------------------------------------------------------------------
# the two orbits on 3-subsets (q = 1 mod 4 only)


def _require_two_orbit_regime(spec: gf.FieldSpec) -> None:
    if spec.q % 4 != 1:
        raise ValueError(
            f"q = {spec.q} is not 1 mod 4; there is a single orbit on triples "
            "and the triple sign is undefined"
        )


def delta_finite(spec: gf.FieldSpec, triple) -> int:
    """Orbit sign chi((z1-z2)(z2-z3)(z3-z1)) of three distinct finite points.

    Well-defined on unordered triples only when q = 1 (mod 4), where
    chi(-1) = 1; other q raise.
    """
    _require_two_orbit_regime(spec)
    z1, z2, z3 = triple
    if len({z1, z2, z3}) != 3:
        raise ValueError("points must be distinct")
    if max(z1, z2, z3) >= spec.q:
        raise ValueError("points must be finite")
    prod = gf.mul(
        spec,
        gf.mul(spec, gf.sub(spec, z1, z2), gf.sub(spec, z2, z3)),
        gf.sub(spec, z3, z1),
    )
    return gf.chi(spec, prod)


def delta_extended(spec: gf.FieldSpec, triple) -> int:
    """Orbit sign of any 3-subset of PG(1,q).

    +1 on the orbit of {inf, 0, 1} and -1 on the orbit of {inf, 0, alpha};
    a triple through infinity gets chi(x - y), which is checked against the
    brute-force orbit classification in the test suite.
    """
    pts = sorted(triple)
    if len(set(pts)) != 3:
        raise ValueError("points must be distinct")
    if pts[2] == spec.q:
        _require_two_orbit_regime(spec)
        return gf.chi(spec, gf.sub(spec, pts[0], pts[1]))
    return delta_finite(spec, pts)


def brute_force_triple_orbits(
    spec: gf.FieldSpec, limit: int = DEFAULT_ORACLE_LIMIT
) -> dict[tuple[int, int, int], int]:
    """Classify every 3-subset of PG(1,q) by explicit orbit closure.

    Returns {sorted triple: +1 or -1}, where +1 marks the orbit of
    {inf, 0, 1} and -1 the orbit of {inf, 0, alpha}. The two closures must
    partition all C(q+1, 3) triples or this raises. Exponential-ish in
    spirit and capped by `limit`; it exists to check delta_extended, not to
    be fast.
    """
    q = spec.q
    if q > limit:
        raise ValueError(f"q = {q} exceeds the oracle limit {limit}")
    _require_two_orbit_regime(spec)
    perms = [point_permutation(spec, g) for g in psl_generators(spec)]

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
    minus = closure(tuple(sorted((0, spec.alpha, q))))
    if plus & minus or len(plus) + len(minus) != math.comb(q + 1, 3):
        raise RuntimeError("closure did not split the triples into two orbits")
    labels = dict.fromkeys(plus, 1)
    labels.update(dict.fromkeys(minus, -1))
    return labels
