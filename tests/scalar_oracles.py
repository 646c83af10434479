"""Scalar oracles that the package's fast paths are checked against.

None of this is reached by the command line or the library. It is kept
here, in the tests, as the independent second route of the "checked
twice" rule:

- _ptrim, _pmulmod, _frobenius_image and norm are the polynomial
  arithmetic of GF(p^n) on coefficient lists, moved from gf unchanged,
  and poly_mul, poly_power, poly_inv and poly_chi are gf's scalar ops as
  they were on it: products by _pmulmod, inv as a**(q-2), and chi as
  Euler's criterion on the norm. They are the oracle of gf's coefficient
  arrays and of gf.mul, gf.power, gf.inv and gf.chi, the arrays' one-row
  cases, and every oracle below multiplies through them on GF(p^n), so
  none shares the matrix route it checks; on GF(p) they take the builtin
  path, as gf does. norm reads the field's stored Frobenius columns,
  which the tests hold to poly_power by N(a) = a**((q-1)/(p-1)).
  element_from_coeffs, add, neg and sub are gf's scalar encoding and
  additive ops, moved from it unchanged, against which the digit tables
  of projline.field_tables are tested;
- delta_finite and delta_extended are the orbit sign of a 3-subset of
  PG(1,q), chi((z1-z2)(z2-z3)(z3-z1)) on finite points and chi(x - y) on
  {x, y, inf}, one triple at a time by the polynomial route, so they
  share no table with projline.triple_signs and projline.delta_extended,
  its one-row case, which they check. They are moved from projline
  unchanged but for the poly_* ops;
- element_order is the least m with a**m == 1, found by poly_power on
  the divisors of q - 1, against which gf._has_full_order, the generator
  test of the generator searches and of an explicit alpha, is tested; the
  tests also hold them to sympy and to repeated multiplication;
- is_irreducible, Rabin's test, and search_extension_field, the search
  for the smallest monic irreducible modulus and the smallest generator
  of GF(p^n), wrote the field table that gf.make_extension_field reads,
  and tools/field_table.py checks the table against them. They are moved
  from gf.make_extension_field unchanged, except that Rabin's test powers
  by poly_power; the generator search still takes gf._has_full_order;
- element_tables builds a starter context's block and chi table one
  field op per entry, against the coefficient-array route of
  starter.make_starter_context;
- delta_sum_brute sums the orbit sign chi((z1-z2)(z2-z3)(z3-z1)) over
  all C(k,3) triples of the block, by the polynomial route, against the
  convolution starter.delta_sum;
- dihedral_orbit_reps, rep_gaps and delta_of_rep sum the sign over the
  dihedral orbits of 3-subsets of a cyclic group, a third route to it;
- canonicalize scales a matrix with square determinant to its canonical
  form, against which projline.psl_generators, built canonical, is
  tested; random_element, compose, inverse and identity are the group
  law on canonical matrices, against which projline.sample_trials and
  apply are tested; apply maps one point through the scalar ops above,
  against which projline.apply_to_points and point_permutation, the
  array route on GF(q)'s exp and log tables, are tested. It is moved
  from the package unchanged but for the poly_* ops;
- sweep_entries_by_row builds a sweep's SweepEntry list one entry at a
  time from the kernel's prime chunks (prime_entries), with the
  extension-field rows merged by a sort on q (with_prime_powers),
  against search.SweepBlock, whose columns every sweep renders and
  whose entries() search.sweep_entries returns. prime_entries and
  with_prime_powers are moved from the package unchanged;
- sweep_row_dicts, sweep_json and sweep_csv render sweep rows through
  one dict per row, json.dumps and csv.DictWriter, against which the
  CLI's streamed `sweep --json` and `--csv` output is tested;
- prime_flags is the full sieve of Eratosthenes, a flag per integer,
  against which the progression sieve search._progression_primes, and
  search.sieve_primes on top of it, are tested;
- has_representation searches y for m = x^2 + c*y^2, against which the
  batched Cornacchia descent starter._represented, and with it c6/c7 of
  starter.thm510_batch, is tested;
- thm510_conditions evaluates c1..c5 on any field with two starter
  contexts and the scalar ops above (_quadratic_root_nonsquare checks c4),
  and takes c6/c7 from thm510_batch on a prime field. It is the oracle
  of starter.thm510_batch, and of starter.thm510_conditions, which reads
  every answer off a batch row. It is moved from the package unchanged,
  except that gf.embed(spec, m), since deleted, is written m % spec.p,
  and that it multiplies by the poly_* ops;
- order_k_elements tries one x at a time, x = 2, 3, ..., on the rows
  still left, against starter._order_k_elements, which tries x = 3..10,
  11..18, ... eight at a time and must take the same first x on every
  row. It is moved from the package unchanged, except that _powmod is
  starter._powmod;
- is_square is Euler's criterion, a**((q-1)/2) == 1 by starter._powmod,
  against starter._is_square, the Jacobi symbol by binary reciprocity.
  It is moved from the package unchanged;
- char_sequence picks the reduced sequence's entries by its two
  conventions' rules (m = 1..(k-1)/2 for odd k; even m < k/2, then
  chi(2), for k = 2 mod 4), against starter.char_sequence, which reads
  them at the basis of starter._euler_plan. It is moved from the package
  unchanged.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from psldesigns import gf, search, starter
from psldesigns.projline import GroupElem
from psldesigns.starter import (
    CharSequence,
    StarterContext,
    Thm510Conditions,
    _powmod,
    gives_design,
    make_starter_context,
    thm510_batch,
)

# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists, low degree first


def _ptrim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmulmod(a: list, b: list, f, p: int) -> list:
    """a * b reduced mod the monic polynomial f."""
    if not a or not b:
        return []
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    # each coefficient is reduced mod p once: as the leading term it is
    # cleared, and the n low ones at the end (Python ints do not overflow)
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(n):
                prod[i - n + j] -= c * f[j]
    return _ptrim([c % p for c in prod[:n]])


def _frobenius_image(spec: gf.FieldSpec, ca: list) -> list:
    """The coefficients of a**p from those of a (n >= 2)."""
    img = [0] * spec.n
    for c, col in zip(ca, spec.frobenius):
        if c:
            for j, m in enumerate(col):
                img[j] += c * m
    return _ptrim([x % spec.p for x in img])


def norm(spec: gf.FieldSpec, a: int) -> int:
    """N(a) = a * a**p * ... * a**(p**(n-1)) = a**((q-1)/(p-1)), an element
    of GF(p); N(a) = a on a prime field."""
    if spec.n == 1:
        return a
    p, f = spec.p, spec.modulus
    full = conj = _ptrim(gf.element_coeffs(spec, a))
    for _ in range(spec.n - 1):
        conj = _frobenius_image(spec, conj)
        full = _pmulmod(full, conj, f, p)
    assert len(full) <= 1, "the norm lies in GF(p)"
    return full[0] if full else 0


# ---------------------------------------------------------------------------
# the scalar ops by the polynomial route


def element_from_coeffs(spec: gf.FieldSpec, coeffs) -> int:
    """Encoding of a coefficient sequence (low degree first, len <= n)."""
    v = 0
    for c in reversed(list(coeffs)):
        v = v * spec.p + c % spec.p
    return v


def add(spec: gf.FieldSpec, a: int, b: int) -> int:
    if spec.n == 1:
        return (a + b) % spec.p
    p = spec.p
    ca, cb = gf.element_coeffs(spec, a), gf.element_coeffs(spec, b)
    return element_from_coeffs(spec, [(x + y) % p for x, y in zip(ca, cb)])


def neg(spec: gf.FieldSpec, a: int) -> int:
    if spec.n == 1:
        return -a % spec.p
    p = spec.p
    return element_from_coeffs(spec, [-c % p for c in gf.element_coeffs(spec, a)])


def sub(spec: gf.FieldSpec, a: int, b: int) -> int:
    if spec.n == 1:
        return (a - b) % spec.p
    return add(spec, a, neg(spec, b))


def poly_mul(spec: gf.FieldSpec, a: int, b: int) -> int:
    if spec.n == 1:
        return (a * b) % spec.p
    ca = _ptrim(gf.element_coeffs(spec, a))
    cb = _ptrim(gf.element_coeffs(spec, b))
    return element_from_coeffs(spec, _pmulmod(ca, cb, spec.modulus, spec.p))


def poly_inv(spec: gf.FieldSpec, a: int) -> int:
    """a**-1; on GF(p^n), a**(q-2)."""
    if a == 0:
        raise ValueError("0 has no multiplicative inverse")
    if spec.n == 1:
        return pow(a, -1, spec.p)
    return poly_power(spec, a, spec.q - 2)


def poly_power(spec: gf.FieldSpec, a: int, e: int) -> int:
    """a**e by square-and-multiply on the coefficients, decoded and encoded
    once; negative e inverts first."""
    if e < 0:
        return poly_power(spec, poly_inv(spec, a), -e)
    if spec.n == 1:
        return pow(a, e, spec.p)
    p, f = spec.p, spec.modulus
    base, result = _ptrim(gf.element_coeffs(spec, a)), [1]
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        e >>= 1
        if e:
            base = _pmulmod(base, base, f, p)
    return element_from_coeffs(spec, result)


def poly_chi(spec: gf.FieldSpec, a: int) -> int:
    """Quadratic character: +1 on nonzero squares, -1 on nonsquares.

    chi(a) = chi_p(N(a)), Euler's criterion on the norm in GF(p), since
    (q-1)/2 = ((q-1)/(p-1)) * (p-1)/2. chi(0) is undefined and raises.
    """
    if a == 0:
        raise ValueError("chi(0) is undefined")
    p = spec.p
    r = pow(norm(spec, a), (p - 1) // 2, p)
    if r == 1:
        return 1
    assert r == p - 1  # the only other square root of 1
    return -1


# ---------------------------------------------------------------------------
# the orbit sign of a 3-subset of PG(1,q), one triple at a time


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
    prod = poly_mul(
        spec,
        poly_mul(spec, sub(spec, z1, z2), sub(spec, z2, z3)),
        sub(spec, z3, z1),
    )
    return poly_chi(spec, prod)


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
        return poly_chi(spec, sub(spec, pts[0], pts[1]))
    return delta_finite(spec, pts)


# ---------------------------------------------------------------------------
# the multiplicative order by the power route


def element_order(spec: gf.FieldSpec, a: int) -> int:
    """Least m >= 1 with a**m == 1; divides q - 1."""
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    m = spec.q - 1
    for f, _ in gf.factorize(m):
        while m % f == 0 and poly_power(spec, a, m // f) == 1:
            m //= f
    return m


# ---------------------------------------------------------------------------
# the modulus and generator search that wrote the extension field table


def is_irreducible(spec: gf.FieldSpec) -> bool:
    """Rabin's test of the modulus f of a trial spec: x**q == x mod f, and
    h = x**(p**(n/l)) - x is a unit mod f for every prime l | n. Once
    x**q == x, GF(p)[x]/(f) is a product of fields GF(p^d) with d | n
    (Lidl and Niederreiter, Finite Fields, ch. 3), so h is a unit, that
    is gcd(h, f) = 1, exactly when h**(q-1) == 1. x is encoded as p."""
    p, n, q = spec.p, spec.n, spec.q
    if poly_power(spec, p, q) != p:
        return False
    for ell, _ in gf.factorize(n):
        h = sub(spec, poly_power(spec, p, p ** (n // ell)), p)
        if poly_power(spec, h, q - 1) != 1:
            return False
    return True


def search_extension_field(p: int, n: int) -> tuple[tuple[int, ...], int]:
    """(modulus, alpha) of GF(p^n), n >= 2, by search: the lexicographically
    smallest monic irreducible of degree n, comparing coefficient tuples
    low degree first, and the smallest encoding of order q - 1. Each
    candidate modulus is a trial spec (alpha 0, no Frobenius columns) that
    is_irreducible reads only for p, n, q and the modulus."""
    q = p**n
    # c0 starts at 1: a zero constant term makes the polynomial divisible by x
    trials = (
        gf.FieldSpec(p=p, n=n, modulus=(*cs, 1), q=q, alpha=0)
        for cs in itertools.product(range(1, p), *[range(p)] * (n - 1))
    )
    spec = next(filter(is_irreducible, trials))  # irreducibles of every degree exist
    spec = replace(spec, frobenius=gf._frobenius_columns(spec))
    # below p every encoding is a constant of GF(p), whose order divides
    # p - 1 < q - 1, so the generator search starts at p
    return spec.modulus, next(a for a in range(p, q) if gf._has_full_order(spec, a))


# ---------------------------------------------------------------------------
# a starter context one field op per entry


def element_tables(spec: gf.FieldSpec, k: int, beta: int) -> tuple[list, list]:
    """(block, chi table) one field op per entry, on any field: the oracle
    of the coefficient-array route of starter.make_starter_context."""
    block = [1]
    for _ in range(k - 1):
        block.append(poly_mul(spec, block[-1], beta))
    return block, [0] + [poly_chi(spec, sub(spec, 1, b)) for b in block[1:]]


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
    """O(k^3) oracle for delta_sum: direct sum of the sign
    chi((z1-z2)(z2-z3)(z3-z1)) over all triples of the block, each product
    by the polynomial route. The k^2 differences are taken once, and chi
    once per distinct product."""
    if ctx.e % 2:
        raise ValueError("the signed count is only defined for even e")
    spec, block = ctx.spec, ctx.block
    diff = [[sub(spec, a, b) for b in block] for a in block]
    chi = functools.cache(functools.partial(poly_chi, spec))
    return sum(
        chi(poly_mul(spec, poly_mul(spec, diff[i][j], diff[j][m]), diff[m][i]))
        for i, j, m in itertools.combinations(range(len(block)), 3)
    )


# ---------------------------------------------------------------------------
# the group law on canonical elements of PSL(2,q)


def canonicalize(spec: gf.FieldSpec, a: int, b: int, c: int, d: int) -> GroupElem:
    """Canonical form of a matrix with nonzero square determinant.

    Scales so the first nonzero entry of (a, b, c, d) is 1. Two matrices
    induce the same map of the projective line exactly when they are
    proportional, so they canonicalize identically iff their maps agree.
    """
    det = sub(spec, poly_mul(spec, a, d), poly_mul(spec, b, c))
    if det == 0:
        raise ValueError("matrix is singular")
    if poly_chi(spec, det) != 1:
        raise ValueError("determinant is not a square, so not in PSL(2,q)")
    s = poly_inv(spec, a or b)  # a = b = 0 would make the matrix singular
    return GroupElem(*(poly_mul(spec, s, x) for x in (a, b, c, d)))


def identity(spec: gf.FieldSpec) -> GroupElem:
    return GroupElem(1, 0, 0, 1)


def compose(spec: gf.FieldSpec, g: GroupElem, h: GroupElem) -> GroupElem:
    """Canonical product, so apply(compose(g,h), z) == apply(g, apply(h, z))."""
    return canonicalize(
        spec,
        add(spec, poly_mul(spec, g.a, h.a), poly_mul(spec, g.b, h.c)),
        add(spec, poly_mul(spec, g.a, h.b), poly_mul(spec, g.b, h.d)),
        add(spec, poly_mul(spec, g.c, h.a), poly_mul(spec, g.d, h.c)),
        add(spec, poly_mul(spec, g.c, h.b), poly_mul(spec, g.d, h.d)),
    )


def inverse(spec: gf.FieldSpec, g: GroupElem) -> GroupElem:
    return canonicalize(spec, g.d, neg(spec, g.b), neg(spec, g.c), g.a)


def random_element(spec: gf.FieldSpec, rng) -> GroupElem:
    """Random canonical element by rejection sampling on the determinant."""
    q = spec.q
    while True:
        a, b, c, d = (rng.randrange(q) for _ in range(4))
        det = sub(spec, poly_mul(spec, a, d), poly_mul(spec, b, c))
        if det != 0 and poly_chi(spec, det) == 1:
            return canonicalize(spec, a, b, c, d)


def apply(spec: gf.FieldSpec, g: GroupElem, z: int) -> int:
    """Image of a point under the linear fractional transformation g."""
    q = spec.q
    if z == q:
        if g.c == 0:
            return q
        return poly_mul(spec, g.a, poly_inv(spec, g.c))
    den = add(spec, poly_mul(spec, g.c, z), g.d)
    if den == 0:
        return q
    num = add(spec, poly_mul(spec, g.a, z), g.b)
    return poly_mul(spec, num, poly_inv(spec, den))


# ---------------------------------------------------------------------------
# the order-k element search, one x at a time, and Euler's criterion


def order_k_elements(k: int, qs: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Per row, an element of order k in GF(q)* for prime q = k*e + 1: the
    first y = x**e, x = 2, 3, ..., with y**(k/r) != 1 for every prime
    r | k (y**k = x**(q-1) = 1 holds already). A primitive root x < q
    always qualifies, so no factorisation of q - 1 is needed.
    """
    beta = np.zeros_like(qs)
    todo = np.arange(qs.size)
    x = 2
    while todo.size:
        q = qs[todo]
        y = _powmod(x, e[todo], q)
        ok = np.ones(todo.size, dtype=bool)
        for r, _ in gf.factorize(k):
            ok &= _powmod(y, k // r, q) != 1
        beta[todo[ok]] = y[ok]
        todo = todo[~ok]
        x += 1
    return beta


def is_square(a: np.ndarray, q) -> np.ndarray:
    """Euler's criterion elementwise, for a != 0 mod the prime q."""
    return _powmod(a, (q - 1) // 2, q) == 1


# ---------------------------------------------------------------------------
# sweep entries one row at a time


def prime_entries(k: int, q: np.ndarray, ok: np.ndarray) -> list[search.SweepEntry]:
    """SweepEntry rows for prime q from the columns q (int64) and ok
    (bool). Every candidate has q = 1 mod lcm(4, 2k) and so an even e:
    one lambda, asked for only when there is a hit, covers every hit."""
    e = (q - 1) // k
    lam = starter.lambda_formula(k, int(e[0])) if ok.any() else None
    return [
        search.SweepEntry(k, x, x, 1, ex, okx, lam if okx else None)
        for x, ex, okx in zip(q.tolist(), e.tolist(), ok.tolist())
    ]


def with_prime_powers(
    k: int, q_max: int, entries: list[search.SweepEntry]
) -> list[search.SweepEntry]:
    """entries, the prime rows of k's sweep, with the extension-field
    candidates q = p^n <= q_max, n >= 2, each decided by the scalar
    context, merged in q order."""
    m = search.sweep_modulus(k)
    for p, n, q in search._powers_of(search._base_primes(q_max), q_max, 2):
        if q % m == 1:
            ctx = starter.make_starter_context(gf.field_for_order(q), k)
            ok = starter.gives_design(ctx)
            lam = starter.lambda_formula(k, ctx.e) if ok else None
            entries.append(search.SweepEntry(k, q, p, n, ctx.e, ok, lam))
    entries.sort(key=lambda ent: ent.q)
    return entries


def sweep_entries_by_row(
    k: int, q_max: int, include_prime_powers: bool = False
) -> list[search.SweepEntry]:
    """k's sweep entries from its kernel chunks, one entry at a time."""
    entries = []
    decide = functools.partial(starter.decide_prime_batch, k)
    for qs, oks in search._decided(decide, search.sweep_modulus(k), q_max):
        entries += prime_entries(k, qs, oks)
    return with_prime_powers(k, q_max, entries) if include_prime_powers else entries


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


# ---------------------------------------------------------------------------
# the k in {5, 10} conditions by scalar field ops


def _quadratic_root_nonsquare(spec: gf.FieldSpec, beta: int) -> bool:
    """Whether the roots of x^2 - 4x - 1 are nonsquares.

    The roots are 2 +/- s with s = beta*(1-beta)^2*(1+beta), which
    squares to 5 when beta has order 5. Both quadratic roots are checked
    (their characters agree).
    """
    five = 5 % spec.p
    s = poly_mul(
        spec,
        poly_mul(spec, beta, poly_power(spec, sub(spec, 1, beta), 2)),
        add(spec, 1, beta),
    )
    assert poly_mul(spec, s, s) == five
    two = 2 % spec.p
    roots = (add(spec, two, s), sub(spec, two, s))
    theta0 = add(
        spec,
        poly_mul(spec, two, add(spec, poly_power(spec, beta, 4), beta)),
        3 % spec.p,
    )
    assert theta0 in roots
    for th in roots:
        # th^2 - 4*th - 1 == 0
        val = sub(spec, sub(spec, poly_mul(spec, th, th), poly_mul(spec, 4 % spec.p, th)), 1)
        assert val == 0
    return any(poly_chi(spec, th) == -1 for th in roots)


def thm510_conditions(spec: gf.FieldSpec, alpha: int | None = None) -> Thm510Conditions:
    """Evaluate all seven design characterizations for k in {5, 10}.

    Requires q = 1 (mod 20). The outcome does not depend on the choice of
    generator alpha. On a prime field c6 and c7 are thm510_batch's.
    """
    q = spec.q
    if q % 20 != 1:
        raise ValueError(f"q = {q} is not 1 mod 20")
    ctx5 = make_starter_context(spec, 5, alpha=alpha)
    ctx10 = make_starter_context(spec, 10, alpha=alpha)
    beta = ctx5.beta
    five = 5 % spec.p
    c1 = gives_design(ctx5)
    c2 = gives_design(ctx10)
    c3 = poly_chi(spec, add(spec, 1, beta)) == -1
    c4 = _quadratic_root_nonsquare(spec, beta)
    c5 = poly_power(spec, five, (q - 1) // 4) != 1
    c6 = c7 = None
    if spec.n == 1:
        c6, c7 = thm510_batch([q])[0, 5:].tolist()
    return Thm510Conditions(q, c1, c2, c3, c4, c5, c6, c7)


# ---------------------------------------------------------------------------
# the reduced character sequence by its conventions' rules


def char_sequence(ctx: StarterContext) -> CharSequence:
    k, t = ctx.k, ctx.chi_table
    if k % 2 == 1:
        return CharSequence(tuple(t[m] for m in range(1, (k - 1) // 2 + 1)), "odd")
    if k % 4 == 2:
        # beta^(k/2) = -1, so t[k/2] = chi(2)
        entries = tuple(t[m] for m in range(2, k // 2, 2)) + (t[k // 2],)
        return CharSequence(entries, "even2mod4")
    raise ValueError("no character sequence is defined for k = 0 mod 4")
