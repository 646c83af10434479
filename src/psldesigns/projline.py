"""The projective line PG(1,q) and the PSL(2,q) action on it.

A point is an integer in [0, q]: a finite point is its field encoding and
the point at infinity is q itself. Plain integer order is therefore the
canonical point order (finite points by encoding, infinity last) and points
serialize as themselves in design files.

Group elements are 2x2 matrices with square determinant acting by
z -> (a*z + b)/(c*z + d), held in a canonical form, scaled so that the
first nonzero entry is 1, so that equal maps compare equal. The package
only applies elements, and by one route: apply_to_points, on arrays,
through GF(q)'s O(q) exp, log and digit tables (field_tables);
point_permutation is that on all q + 1 points. The orbit sign of a
3-subset is computed by one route too: triple_signs on the same tables,
of which delta_extended is the one-row case. The scalar apply,
canonicalize, the group law itself (compose, inverse, identity),
random_element and the scalar orbit sign are test oracles, in
tests/scalar_oracles.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from psldesigns import gf

# the oracle's brute-force closure labels all C(q+1, 3) triples, a byte each
DEFAULT_ORACLE_LIMIT = 64
# covariance trials drawn and checked per chunk, so that memory does not
# grow with the number of trials
ORACLE_CHUNK_TRIALS = 1 << 12


@dataclass(frozen=True)
class GroupElem:
    """Canonical representative of an element of PSL(2,q)."""

    a: int
    b: int
    c: int
    d: int


def psl_generators(spec: gf.FieldSpec) -> list[GroupElem]:
    """Transvections generating PSL(2,q), z -> z + x and z -> z/(xz + 1).

    For prime fields the two unit transvections suffice; for GF(p^n) the
    shears by x = alpha**t for t < n, the rows of one gf.power_rows, are
    added, since 1, alpha, ..., alpha**(n-1) span the field over GF(p). Each has determinant 1 and
    first entry 1, so it is built in canonical form.
    """
    gens = []
    for x in gf.encode_rows(spec, gf.power_rows(spec, spec.alpha, spec.n)):
        gens.append(GroupElem(1, x, 0, 1))
        gens.append(GroupElem(1, 0, x, 1))
    return gens


# ---------------------------------------------------------------------------
# the two orbits on 3-subsets (q = 1 mod 4 only)


def _require_two_orbit_regime(spec: gf.FieldSpec) -> None:
    if spec.q % 4 != 1:
        raise ValueError(
            f"q = {spec.q} is not 1 mod 4; there is a single orbit on triples "
            "and the triple sign is undefined"
        )


def delta_extended(spec: gf.FieldSpec, triple) -> int:
    """Orbit sign of a 3-subset of PG(1,q), q = 1 (mod 4): triple_signs of
    one row, +1 on the orbit of {inf, 0, 1} and -1 on the orbit of
    {inf, 0, alpha}. Points outside range(q + 1) raise before any table
    is built; the field's O(q) tables are built on first use, as
    point_permutation builds them."""
    if len(set(triple)) != 3:
        raise ValueError("points must be distinct")
    if not all(z in range(spec.q + 1) for z in triple):
        raise ValueError(f"points must lie in range(q + 1) = range({spec.q + 1})")
    _require_two_orbit_regime(spec)
    return int(triple_signs(field_tables(spec), np.array([triple]))[0])


def triple_ranks(rows: np.ndarray) -> np.ndarray:
    """Colex rank x + C(y,2) + C(z,3) of each row x < y < z, a bijection
    from the 3-subsets of range(v) onto range(C(v,3))."""
    x, y, z = rows.T
    return x + y * (y - 1) // 2 + z * (z - 1) * (z - 2) // 6


def colex_triples(v: int) -> np.ndarray:
    """Every 3-subset of range(v) as an increasing row, row r the subset of
    colex rank r: z is the largest point with C(z,3) <= r, and y the
    largest with C(y,2) <= r - C(z,3)."""
    pts = np.arange(v)
    r = np.arange(math.comb(v, 3))
    z = np.searchsorted(pts * (pts - 1) * (pts - 2) // 6, r, side="right") - 1
    r -= z * (z - 1) * (z - 2) // 6
    y = np.searchsorted(pts * (pts - 1) // 2, r, side="right") - 1
    return np.stack([r - y * (y - 1) // 2, y, z], axis=1)


def brute_force_triple_orbits(spec: gf.FieldSpec) -> np.ndarray:
    """Classify every 3-subset of PG(1,q) by explicit orbit closure.

    Returns an int8 label per triple, indexed by colex rank (see
    triple_ranks): +1 on the orbit of {inf, 0, 1} and -1 on the orbit of
    {inf, 0, alpha}. Each orbit is closed breadth-first under the
    generators' point permutations, one level of triples at a time. The
    two closures must partition all C(q+1, 3) triples or this raises.
    Capped at DEFAULT_ORACLE_LIMIT, since the labels take C(q+1, 3) bytes;
    it exists to check delta_extended and triple_signs.
    """
    q = spec.q
    if q > DEFAULT_ORACLE_LIMIT:
        raise ValueError(f"q = {q} exceeds the oracle limit {DEFAULT_ORACLE_LIMIT}")
    _require_two_orbit_regime(spec)
    perms = np.array([point_permutation(spec, g) for g in psl_generators(spec)])
    labels = np.zeros(math.comb(q + 1, 3), dtype=np.int8)
    split = "closure did not split the triples into two orbits"
    for sign, start in ((1, (0, 1, q)), (-1, (0, spec.alpha, q))):
        level = np.array([start])
        while len(level):
            ranks, first = np.unique(triple_ranks(level), return_index=True)
            found = labels[ranks]
            if (found == -sign).any():
                raise RuntimeError(split)
            new = found == 0
            labels[ranks[new]] = sign
            level = np.sort(perms[:, level[first[new]]].reshape(-1, 3), axis=1)
    if not labels.all():
        raise RuntimeError(split)
    return labels


# ---------------------------------------------------------------------------
# the group action and the orbit sign on arrays, through O(q) tables


@dataclass(frozen=True, eq=False)
class FieldTables:
    """GF(q) as O(q) arrays: exp[i] = alpha**i for i < 2(q - 1), then 0 up
    to index 4(q - 1); log inverts exp on the nonzero encodings and sets
    log[0] = 2(q - 1), so a sum of two logs lands in the zeros exactly when
    a factor is 0; digits[a] @ weights == a, in base p. The ops broadcast
    over arrays of encodings; inv and chi are undefined at 0."""

    p: int
    q: int
    exp: np.ndarray
    log: np.ndarray
    digits: np.ndarray
    weights: np.ndarray

    def add(self, a, b):
        return (self.digits[a] + self.digits[b]) % self.p @ self.weights

    def sub(self, a, b):
        return (self.digits[a] - self.digits[b]) % self.p @ self.weights

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        return self.exp[self.q - 1 - self.log[a]]

    def chi(self, a):
        return 1 - 2 * (self.log[a] & 1)


@functools.lru_cache(maxsize=1)
def field_tables(spec: gf.FieldSpec) -> FieldTables:
    """The tables from one gf.power_rows(alpha, q - 1), with no scalar gf
    op (Lidl and Niederreiter, Finite Fields, ch. 9): row i, the digits of
    alpha**i, encodes to exp[i], and is scattered to digits[exp[i]]. The
    last field's tables are kept, read-only, so the 2n generator
    permutations of an orbit share one build."""
    q = spec.q
    rows = gf.power_rows(spec, spec.alpha, q - 1)
    weights = spec.p ** np.arange(spec.n)
    powers = rows @ weights
    log = np.full(q, 2 * (q - 1))
    log[powers] = np.arange(q - 1)
    digits = np.zeros((q, spec.n), dtype=np.int64)
    digits[powers] = rows
    exp = np.concatenate([powers, powers, np.zeros(2 * q - 1, dtype=np.int64)])
    for table in (exp, log, digits, weights):
        table.flags.writeable = False
    return FieldTables(spec.p, q, exp, log, digits, weights)


def triple_signs(tables: FieldTables, rows: np.ndarray) -> np.ndarray:
    """The sign of each row of three distinct points, from the tables:
    chi((x - y)(y - z)(z - x)) on a finite row, and chi(x - y) on a row
    {x, y, inf}, which the tests hold to the brute-force orbit
    classification. It is the orbit sign only for q = 1 (mod 4), where
    chi(-1) = 1; unlike delta_extended, it does not check that."""
    x, y, z = np.sort(rows, axis=1).T
    at_inf = z == tables.q
    z = np.where(at_inf, 0, z)  # any finite index; the sign is chi(x - y)
    xy = tables.sub(x, y)
    prod = tables.mul(tables.mul(xy, tables.sub(y, z)), tables.sub(z, x))
    return tables.chi(np.where(at_inf, xy, prod))


def apply_to_points(
    tables: FieldTables, elems: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """The images of points under linear fractional maps: row i of points
    mapped by the matrix (a, b, c, d) in row i of elems."""
    q = tables.q
    a, b, c, d = (elems[:, i, None] for i in range(4))
    at_inf = points == q
    z = np.where(at_inf, 0, points)
    # inf -> a/c, z -> (az + b)/(cz + d), and a zero denominator -> inf
    num = np.where(at_inf, a, tables.add(tables.mul(a, z), b))
    den = np.where(at_inf, c, tables.add(tables.mul(c, z), d))
    return np.where(den == 0, q, tables.mul(num, tables.inv(den)))


def point_permutation(spec: gf.FieldSpec, g: GroupElem) -> list[int]:
    """The permutation of [0..q] induced by g: apply_to_points on every point."""
    elems, points = np.array([[g.a, g.b, g.c, g.d]]), np.arange(spec.q + 1)[None, :]
    return apply_to_points(field_tables(spec), elems, points)[0].tolist()


def sample_trials(tables: FieldTables, rng, trials: int):
    """The covariance trials of the oracle, ORACLE_CHUNK_TRIALS at a time,
    as pairs of an (m, 4) array of matrices (a, b, c, d) with nonzero
    square determinant and an (m, 3) array of distinct points.

    Each matrix is drawn by rejection sampling on the determinant, four
    rng.randrange(q) calls per attempt, then its points by
    rng.sample(points, 3); the tests hold this to a scalar random_element
    drawing from the same seed. The matrices are the drawn ones, not their
    canonical forms. Determinants are read off q x q lists, small at this q.
    """
    q = tables.q
    x = np.arange(q)
    mul, sub = tables.mul(x[:, None], x).tolist(), tables.sub(x[:, None], x).tolist()
    chi = tables.chi(x).tolist()
    pts = list(range(q + 1))
    randrange, chunk = rng.randrange, ORACLE_CHUNK_TRIALS
    for lo in range(0, trials, chunk):
        elems, triples = [], []
        for _ in range(min(chunk, trials - lo)):
            while True:
                a, b, c, d = randrange(q), randrange(q), randrange(q), randrange(q)
                det = sub[mul[a][d]][mul[b][c]]
                if det != 0 and chi[det] == 1:
                    break
            elems.append((a, b, c, d))
            triples.append(rng.sample(pts, 3))
        yield np.array(elems).reshape(-1, 4), np.array(triples).reshape(-1, 3)
