"""Scalar oracles that the package's fast paths are checked against.

None of this is reached by the command line or the library. It is kept
here, in the tests, as the independent second route of the "checked
twice" rule:

- element_order is the least m with a**m == 1 by the power route,
  against which gf._has_full_order, the norm-route generator test of the
  generator search and of an explicit alpha, is tested;
- element_tables builds a starter context's block and chi table one
  field op per entry, against the coefficient-array route of
  starter.make_starter_context;
- delta_sum_brute sums the orbit sign over all C(k,3) triples of the
  block, against the convolution starter.delta_sum;
- dihedral_orbit_reps, rep_gaps and delta_of_rep sum the sign over the
  dihedral orbits of 3-subsets of a cyclic group, a third route to it;
- canonicalize scales a matrix with square determinant to its canonical
  form, against which projline.psl_generators, built canonical, is
  tested; random_element, compose, inverse and identity are the group
  law on canonical matrices, against which projline.sample_trials,
  apply and apply_to_points are tested;
- sweep_row_dicts, sweep_json and sweep_csv render sweep rows through
  one dict per row, json.dumps and csv.DictWriter, against which the
  CLI's streamed `sweep --json` and `--csv` output is tested;
- prime_flags is the full sieve of Eratosthenes, a flag per integer,
  against which the progression sieve search._progression_primes, and
  search.sieve_primes on top of it, are tested;
- has_representation searches y for m = x^2 + c*y^2, against which the
  batched Cornacchia descent starter._represented, and with it c6/c7 of
  starter.thm510_batch and thm510_conditions, is tested.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from psldesigns import gf, projline, search
from psldesigns.projline import GroupElem
from psldesigns.starter import StarterContext

# ---------------------------------------------------------------------------
# the multiplicative order by the power route


def element_order(spec: gf.FieldSpec, a: int) -> int:
    """Least m >= 1 with a**m == 1; divides q - 1."""
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    m = spec.q - 1
    for f, _ in gf.factorize(m):
        while m % f == 0 and gf.power(spec, a, m // f) == 1:
            m //= f
    return m


# ---------------------------------------------------------------------------
# a starter context one field op per entry


def element_tables(spec: gf.FieldSpec, k: int, beta: int) -> tuple[list, list]:
    """(block, chi table) one field op per entry, on any field: the oracle
    of the coefficient-array route of starter.make_starter_context."""
    block = [1]
    for _ in range(k - 1):
        block.append(gf.mul(spec, block[-1], beta))
    return block, [0] + [gf.chi(spec, gf.sub(spec, 1, b)) for b in block[1:]]


# ---------------------------------------------------------------------------
# dihedral orbits of 3-subsets of a cyclic group, and the brute-force sum


@dataclass(frozen=True)
class OrbitRep:
    """Representative {1, beta^i, beta^j} of a dihedral orbit of 3-subsets.

    kind 'A': three distinct exponent gaps, orbit length 2k.
    kind 'B': exactly two equal gaps ({1, beta^i, beta^2i}), length k.
    kind 'C': three equal gaps (only when 3 | k), length k/3.
    """

    kind: str
    i: int
    j: int
    length: int


def dihedral_orbit_reps(k: int) -> list[OrbitRep]:
    """Orbit representatives of the dihedral group of order 2k acting on
    3-subsets of exponents mod k. Lengths always sum to C(k, 3)."""
    if k < 4:
        raise ValueError(f"k = {k} is too small")
    reps = []
    # gaps d1 < d2 < d3 with d1 + d2 + d3 = k; rep exponents (0, d1, d1+d2)
    for d1 in range(1, (k - 3) // 3 + 1):
        for d2 in range(d1 + 1, (k - d1 - 1) // 2 + 1):
            reps.append(OrbitRep("A", d1, d1 + d2, 2 * k))
    for i in range(1, (k + 1) // 2):
        if 3 * i != k:
            reps.append(OrbitRep("B", i, 2 * i, k))
    if k % 3 == 0:
        reps.append(OrbitRep("C", k // 3, 2 * k // 3, k // 3))
    return reps


def rep_gaps(rep: OrbitRep, k: int) -> tuple[int, int, int]:
    """The cyclic exponent gaps (i, j-i, k-j) of a representative."""
    return (rep.i, rep.j - rep.i, k - rep.j)


def delta_of_rep(ctx: StarterContext, rep: OrbitRep) -> int:
    """Triple sign of a representative, constant on its dihedral orbit.

    The sign of {1, beta^i, beta^j} factors as the product of
    chi(1 - beta^g) over the three exponent gaps g. Only meaningful for an
    even cofactor, where the sign does not depend on the representative.
    """
    if ctx.e % 2:
        raise ValueError("triple signs are not orbit invariants for odd e")
    t = ctx.chi_table
    d1, d2, d3 = rep_gaps(rep, ctx.k)
    return t[d1] * t[d2] * t[d3]


def delta_sum_brute(ctx: StarterContext) -> int:
    """O(k^3) oracle for delta_sum: direct sign sum over all triples."""
    if ctx.e % 2:
        raise ValueError("the signed count is only defined for even e")
    return sum(
        projline.delta_finite(ctx.spec, t)
        for t in itertools.combinations(ctx.block, 3)
    )


# ---------------------------------------------------------------------------
# the group law on canonical elements of PSL(2,q)


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


def random_element(spec: gf.FieldSpec, rng) -> GroupElem:
    """Random canonical element by rejection sampling on the determinant."""
    q = spec.q
    while True:
        a, b, c, d = (rng.randrange(q) for _ in range(4))
        det = gf.sub(spec, gf.mul(spec, a, d), gf.mul(spec, b, c))
        if det != 0 and gf.chi(spec, det) == 1:
            return canonicalize(spec, a, b, c, d)


# ---------------------------------------------------------------------------
# sweep rows through dicts, json.dumps and csv.DictWriter

ROW_FIELDS = ("k", "k_mod_24", "q", "p", "n", "e_parity", "lambda", "gives_design")


def sweep_row_dicts(ks, q_max: int, include_prime_powers: bool = False) -> list[dict]:
    """One dict per candidate q, in the column order of ROW_FIELDS."""
    rows = []
    for k in ks:
        for ent in search.sweep_entries(k, q_max, include_prime_powers):
            rows.append(
                {
                    "k": ent.k,
                    "k_mod_24": ent.k % 24,
                    "q": ent.q,
                    "p": ent.p,
                    "n": ent.n,
                    "e_parity": "even" if ent.e % 2 == 0 else "odd",
                    "lambda": ent.lam if ent.lam is not None else "",
                    "gives_design": ent.gives_design,
                }
            )
    return rows


def sweep_json(rows: list[dict]) -> str:
    """What `sweep --json` prints for the rows."""
    return json.dumps(rows) + "\n"


def sweep_csv(rows: list[dict]) -> str:
    """What `sweep --csv` prints for the rows."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=ROW_FIELDS)
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# the full sieve, and the representation search by y


def prime_flags(limit: int) -> np.ndarray:
    """Sieve of Eratosthenes: flags[n] is true exactly for the primes
    n <= limit (an empty array for limit < 0)."""
    flags = np.ones(max(limit + 1, 0), dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(max(limit, 0)) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return flags


def has_representation(m: int, c: int) -> bool:
    """Does m = x^2 + c*y^2 for integers x, y?"""
    y = 0
    while c * y * y <= m:
        r = m - c * y * y
        s = math.isqrt(r)
        if s * s == r:
            return True
        y += 1
    return False
