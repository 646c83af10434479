"""Exact arithmetic in odd-characteristic finite fields GF(p^n).

Elements are canonical integers in [0, q): the element whose residue
polynomial is c0 + c1*x + ... + c_{n-1}*x^{n-1} is encoded as
sum(c_i * p**i), so prime-field arithmetic is plain arithmetic mod p.
The encoding fixes a total order on elements, which makes generator
selection, modulus selection and every file format deterministic.

GF(p^n) multiplies one way: by the matrix of multiplication by b, whose
row j is x**j * b (Lidl and Niederreiter, Finite Fields, ch. 2). The
coefficient arrays apply it to many rows at once; mul, power and chi are
their one-row cases, with a builtin path on prime fields. The package
adds and subtracts digit by digit on arrays, in projline's field tables
and the starter contexts; the scalar add, neg and sub are test oracles,
in tests/scalar_oracles.py.

All operations are pure functions of (spec, operands); FieldSpec is frozen
and hashable, so concurrent readers need no coordination.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

DEFAULT_Q_LIMIT = 2**31
# the modulus and generator of every odd p**n <= DEFAULT_Q_LIMIT with
# n >= 2, one line "p n c0 ... c_{n-1} alpha" per field, sorted by q;
# tools/field_table.py writes it and checks it against the search in
# tests/scalar_oracles.py
EXT_FIELD_TABLE = os.path.join(os.path.dirname(__file__), "ext_fields.txt")


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of GF(q) = GF(p^n).

    modulus: the monic degree-n modulus as coefficients (c0, ..., c_{n-1}, 1),
      low degree first; empty for prime fields.
    alpha: canonical generator of the multiplicative group, the smallest
      encoding of order q - 1.
    frobenius: the columns of the Frobenius map a -> a**p as a GF(p)-linear
      map, column i the coefficients of x**(i*p) mod the modulus; empty for
      prime fields. A function of (p, modulus), so it takes no part in
      equality.
    """

    p: int
    n: int
    modulus: tuple[int, ...]
    q: int
    alpha: int
    frobenius: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)


@lru_cache(maxsize=None)
def _small_primes() -> tuple[int, ...]:
    """The primes up to isqrt(DEFAULT_Q_LIMIT), enough to factor any m up
    to the limit; sieved once, on first use."""
    n = math.isqrt(DEFAULT_Q_LIMIT)
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return tuple(np.flatnonzero(np.frombuffer(sieve, np.uint8)).tolist())


@lru_cache(maxsize=None)
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of 1 <= m <= DEFAULT_Q_LIMIT as
    ((prime, multiplicity), ...), by trial division by primes."""
    if m < 1:
        raise ValueError(f"cannot factorize {m}")
    check_size(m)
    out = []
    for f in _small_primes():
        if f * f > m:
            break
        if m % f == 0:
            mult = 0
            while m % f == 0:
                m //= f
                mult += 1
            out.append((f, mult))
    if m > 1:
        out.append((m, 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# element encoding


def element_coeffs(spec: FieldSpec, a: int) -> list[int]:
    """Residue-polynomial coefficients (c0, ..., c_{n-1}) of an encoding."""
    cs = []
    for _ in range(spec.n):
        a, c = divmod(a, spec.p)
        cs.append(c)
    return cs


# ---------------------------------------------------------------------------
# field operations


def mul(spec: FieldSpec, a: int, b: int) -> int:
    """a * b; on GF(p^n), a's coefficient row times the matrix of b."""
    if spec.n == 1:
        return (a * b) % spec.p
    m = _x_multiples(spec, element_coeffs(spec, b), spec.n)
    return encode_rows(spec, np.array([element_coeffs(spec, a)]) @ m % spec.p)[0]


def inv(spec: FieldSpec, a: int) -> int:
    """a**-1; on GF(p^n), a**(q-2)."""
    if a == 0:
        raise ValueError("0 has no multiplicative inverse")
    if spec.n == 1:
        return pow(a, -1, spec.p)
    return power(spec, a, spec.q - 2)


def power(spec: FieldSpec, a: int, e: int) -> int:
    """a**e; negative e inverts first. On GF(p^n) a**e is row 0 of M**e,
    M the matrix of a, by square-and-multiply on the row, with M squared
    as power_rows squares it."""
    if e < 0:
        return power(spec, inv(spec, a), -e)
    if spec.n == 1:
        return pow(a, e, spec.p)
    p = spec.p
    m = _x_multiples(spec, element_coeffs(spec, a), spec.n)
    row = np.eye(1, spec.n, dtype=np.int64)  # the element 1
    while e:
        if e & 1:
            row = row @ m % p
        e >>= 1
        if e:
            m = m @ m % p
    return encode_rows(spec, row)[0]


def chi(spec: FieldSpec, a: int) -> int:
    """Quadratic character: +1 on nonzero squares, -1 on nonsquares, by
    Euler's criterion on GF(p) and chi_rows of a's row (Euler's criterion
    on the norm) on GF(p^n). chi(0) is undefined and raises."""
    if a == 0:
        raise ValueError("chi(0) is undefined")
    if spec.n > 1:
        return chi_rows(spec, np.array([element_coeffs(spec, a)]))[0]
    p = spec.p
    r = pow(a, (p - 1) // 2, p)
    if r == 1:
        return 1
    assert r == p - 1  # the only other square root of 1
    return -1


# ---------------------------------------------------------------------------
# coefficient arrays on GF(p^n), GF(p) the case n = 1: one element per row
# of an int64 array, its coefficients low degree first, each in [0, p). The
# arithmetic is exact: at n = 1 a product of two entries is below 2**62, and
# at n >= 2 p**2 < 2**31, so every sum of n products stays below 2**63.


def _x_multiples(spec: FieldSpec, row: list, count: int) -> np.ndarray:
    """(count, n) int64: the coefficient row of an element y, then those
    of x*y, x**2*y, ... mod the modulus, each a shift of the one before."""
    p, f = spec.p, spec.modulus
    rows = []
    for _ in range(count):
        rows.append(row)
        lead = row[-1]
        row = [(lo - lead * c) % p for lo, c in zip([0] + row[:-1], f)]
    return np.array(rows, dtype=np.int64).reshape(count, spec.n)


def _reduction_rows(spec: FieldSpec) -> np.ndarray:
    """(n - 1, n): x**n, ..., x**(2n-2) mod the modulus; (0, 1) on GF(p)."""
    low = [-c % spec.p for c in spec.modulus[: spec.n]]
    return _x_multiples(spec, low, spec.n - 1)


def _mulmod_rows(
    spec: FieldSpec, a: np.ndarray, b: np.ndarray, red: np.ndarray
) -> np.ndarray:
    """The row-wise products of two (rows, n) coefficient arrays: the
    polynomial products, reduced mod p and then mod the modulus by one
    matrix product with red = _reduction_rows(spec)."""
    p, n = spec.p, spec.n
    prod = np.zeros((len(a), 2 * n - 1), dtype=np.int64)
    for i in range(n):
        prod[:, i : i + n] += a[:, i : i + 1] * b
    prod %= p
    return (prod[:, :n] + prod[:, n:] @ red) % p


def power_rows(spec: FieldSpec, a: int, k: int) -> np.ndarray:
    """a**0, ..., a**(k-1) as a (k, n) coefficient array. Multiplication
    by a**h is the n x n matrix whose row j is x**j * a**h, so rows
    [h, 2h) are rows [0, h) times it, and squaring it doubles h."""
    p = spec.p
    m = _x_multiples(spec, element_coeffs(spec, a), spec.n)
    out = np.zeros((k, spec.n), dtype=np.int64)
    out[0, 0] = 1
    h = 1
    while h < k:
        out[h : 2 * h] = out[: min(h, k - h)] @ m % p
        h *= 2
        if h < k:
            m = m @ m % p
    return out


def encode_rows(spec: FieldSpec, rows: np.ndarray) -> list[int]:
    """The encodings of the rows of a coefficient array, as Python ints."""
    return (rows @ spec.p ** np.arange(spec.n, dtype=np.int64)).tolist()


def chi_rows(spec: FieldSpec, rows: np.ndarray) -> list[int]:
    """chi of every row of a coefficient array of nonzero elements, as
    Python ints: the norms of all rows at once, from the n - 1 Frobenius
    conjugates (row times the stored matrix), then Euler's criterion in
    GF(p) per row, as chi does one element at a time."""
    p, n = spec.p, spec.n
    frob = np.array(spec.frobenius, dtype=np.int64)
    red = _reduction_rows(spec)
    conj = full = rows
    for _ in range(n - 1):
        conj = conj @ frob % p
        full = _mulmod_rows(spec, full, conj, red)
    assert not full[:, 1:].any(), "the norm lies in GF(p)"
    half = (p - 1) // 2
    return [1 if pow(x, half, p) == 1 else -1 for x in full[:, 0].tolist()]


# ---------------------------------------------------------------------------
# field construction


def check_size(q: int) -> None:
    """Refuse a field order over DEFAULT_Q_LIMIT."""
    if q > DEFAULT_Q_LIMIT:
        raise ValueError(f"q = {q} exceeds the size limit {DEFAULT_Q_LIMIT}")


def _has_full_order(spec: FieldSpec, a: int) -> bool:
    """a generates GF(q)*: a != 0 and a**((q-1)/f) != 1 for every prime
    f | q - 1."""
    if a == 0:
        return False
    q1 = spec.q - 1
    return all(power(spec, a, q1 // f) != 1 for f, _ in factorize(q1))


@lru_cache(maxsize=None)
def make_prime_field(p: int) -> FieldSpec:
    """GF(p) for an odd prime p, with the smallest primitive root."""
    if factorize(p) != ((p, 1),):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        raise ValueError("the field order must be odd")
    spec = FieldSpec(p=p, n=1, modulus=(), q=p, alpha=0)
    return replace(spec, alpha=next(a for a in range(2, p) if _has_full_order(spec, a)))


def _table_entry(p: int, n: int) -> tuple[tuple[int, ...], int]:
    """(modulus, alpha) of GF(p^n) off its line of EXT_FIELD_TABLE. The
    file is scanned from the start to that line, and none of it is kept."""
    key = f"{p} {n} "
    with open(EXT_FIELD_TABLE) as table:
        for line in table:
            if line.startswith(key):
                *cs, alpha = map(int, line.split()[2:])
                return (*cs, 1), alpha
    raise RuntimeError(f"GF({p}^{n}) is missing from {EXT_FIELD_TABLE}")


def _frobenius_columns(spec: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """Column i of the Frobenius map is (x**p)**i, and x is encoded as p."""
    cols = power_rows(spec, power(spec, spec.p, spec.p), spec.n).tolist()
    return tuple(map(tuple, cols))


@lru_cache(maxsize=None)
def make_extension_field(p: int, n: int) -> FieldSpec:
    """GF(p^n) with the smallest modulus and generator.

    The modulus is the lexicographically smallest monic irreducible of
    degree n over GF(p), comparing coefficient tuples low degree first,
    and alpha the smallest encoding of order q - 1. Both are read from
    EXT_FIELD_TABLE, which holds every field within the size limit; the
    Frobenius columns are computed. n == 1 delegates to make_prime_field.
    """
    if n < 1:
        raise ValueError(f"invalid extension degree {n}")
    if n == 1:
        return make_prime_field(p)
    if p == 2 or factorize(p) != ((p, 1),):
        raise ValueError(f"{p} is not an odd prime")
    q = p**n
    check_size(q)
    modulus, alpha = _table_entry(p, n)
    spec = FieldSpec(p=p, n=n, modulus=modulus, q=q, alpha=alpha)
    return replace(spec, frobenius=_frobenius_columns(spec))


def order_parts(q: int) -> tuple[int, int]:
    """(p, n) with q = p**n, for an odd prime power q within the size
    limit, without building the field; any other q raises what
    make_prime_field or make_extension_field would. A q over the size
    limit is refused before it is factorised, which takes up to isqrt(q)
    trial divisions, and a q < 1 before factorize can refuse it."""
    check_size(q)
    fac = factorize(q) if q >= 1 else ()
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, n = fac[0]
    if p == 2:  # as make_prime_field and make_extension_field refuse it
        raise ValueError("the field order must be odd" if n == 1 else "2 is not an odd prime")
    return p, n


def field_for_order(q: int) -> FieldSpec:
    """The field of order q (q an odd prime power, see order_parts)."""
    p, n = order_parts(q)
    if n == 1:
        return make_prime_field(p)
    return make_extension_field(p, n)
