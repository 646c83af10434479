"""Exact arithmetic in odd-characteristic finite fields GF(p^n).

Elements are canonical integers in [0, q): the element whose residue
polynomial is c0 + c1*x + ... + c_{n-1}*x^{n-1} is encoded as
sum(c_i * p**i), so prime-field arithmetic is plain arithmetic mod p.
The encoding fixes a total order on elements, which makes generator
selection, modulus selection and every file format deterministic.

All operations are pure functions of (spec, operands); FieldSpec is frozen
and hashable, so concurrent readers need no coordination.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

DEFAULT_Q_LIMIT = 2**31


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
    return tuple(i for i, flag in enumerate(sieve) if flag)


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
# polynomial helpers over GF(p); coefficient lists, low degree first


def _ptrim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _psub(a: list, b: list, p: int) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _ptrim(out)


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


def _ppowmod(a: list, e: int, f, p: int) -> list:
    result = [1]
    base = a[:]
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        e >>= 1
        if e:
            base = _pmulmod(base, base, f, p)
    return result


def _pmod(a: list, b: list, p: int) -> list:
    a = a[:]
    binv = pow(b[-1], -1, p)
    db = len(b)
    while len(a) >= db:
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * binv) % p
        shift = len(a) - db
        for j in range(db - 1):
            a[shift + j] = (a[shift + j] - c * b[j]) % p
        a.pop()
    return _ptrim(a)


def _pgcd(a: list, b: list, p: int) -> list:
    a, b = a[:], b[:]
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(f: list, p: int) -> bool:
    """Rabin test: x^(p^n) == x mod f, and x^(p^(n/l)) - x coprime to f
    for every prime l dividing n."""
    n = len(f) - 1
    if n < 1:
        return False
    x = [0, 1]
    if _psub(_ppowmod(x, p**n, f, p), x, p):
        return False
    for ell, _ in factorize(n):
        g = _pgcd(_psub(_ppowmod(x, p ** (n // ell), f, p), x, p), f, p)
        if len(g) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# element encoding


def element_coeffs(spec: FieldSpec, a: int) -> list[int]:
    """Residue-polynomial coefficients (c0, ..., c_{n-1}) of an encoding."""
    cs = []
    for _ in range(spec.n):
        a, c = divmod(a, spec.p)
        cs.append(c)
    return cs


def element_from_coeffs(spec: FieldSpec, coeffs) -> int:
    """Encoding of a coefficient sequence (low degree first, len <= n)."""
    v = 0
    for c in reversed(list(coeffs)):
        v = v * spec.p + c % spec.p
    return v


def embed(spec: FieldSpec, m: int) -> int:
    """The image of the rational integer m in the field (a constant)."""
    return m % spec.p


# ---------------------------------------------------------------------------
# field operations


def add(spec: FieldSpec, a: int, b: int) -> int:
    if spec.n == 1:
        return (a + b) % spec.p
    p = spec.p
    ca, cb = element_coeffs(spec, a), element_coeffs(spec, b)
    return element_from_coeffs(spec, [(x + y) % p for x, y in zip(ca, cb)])


def neg(spec: FieldSpec, a: int) -> int:
    if spec.n == 1:
        return -a % spec.p
    p = spec.p
    return element_from_coeffs(spec, [-c % p for c in element_coeffs(spec, a)])


def sub(spec: FieldSpec, a: int, b: int) -> int:
    if spec.n == 1:
        return (a - b) % spec.p
    return add(spec, a, neg(spec, b))


def mul(spec: FieldSpec, a: int, b: int) -> int:
    if spec.n == 1:
        return (a * b) % spec.p
    ca = _ptrim(element_coeffs(spec, a))
    cb = _ptrim(element_coeffs(spec, b))
    return element_from_coeffs(spec, _pmulmod(ca, cb, spec.modulus, spec.p))


def _frobenius_image(spec: FieldSpec, ca: list) -> list:
    """The coefficients of a**p from those of a (n >= 2)."""
    img = [0] * spec.n
    for c, col in zip(ca, spec.frobenius):
        if c:
            for j, m in enumerate(col):
                img[j] += c * m
    return _ptrim([x % spec.p for x in img])


def _norm_parts(spec: FieldSpec, a: int) -> tuple[int, list]:
    """(N(a), a**p * ... * a**(p**(n-1))) for n >= 2, the second as
    coefficients; each conjugate is the Frobenius image of the one before."""
    p, f = spec.p, spec.modulus
    ca = _ptrim(element_coeffs(spec, a))
    rest = conj = _frobenius_image(spec, ca)
    for _ in range(spec.n - 2):
        conj = _frobenius_image(spec, conj)
        rest = _pmulmod(rest, conj, f, p)
    full = _pmulmod(ca, rest, f, p)
    assert len(full) <= 1, "the norm lies in GF(p)"
    return (full[0] if full else 0), rest


def norm(spec: FieldSpec, a: int) -> int:
    """N(a) = a * a**p * ... * a**(p**(n-1)) = a**((q-1)/(p-1)), an element
    of GF(p); N(a) = a on a prime field."""
    if spec.n == 1:
        return a
    return _norm_parts(spec, a)[0]


def inv(spec: FieldSpec, a: int) -> int:
    """a**-1; on GF(p^n), (a**p * ... * a**(p**(n-1))) / N(a)."""
    if a == 0:
        raise ValueError("0 has no multiplicative inverse")
    p = spec.p
    if spec.n == 1:
        return pow(a, -1, p)
    na, rest = _norm_parts(spec, a)
    s = pow(na, -1, p)
    return element_from_coeffs(spec, [c * s for c in rest])


def power(spec: FieldSpec, a: int, e: int) -> int:
    """a**e by square-and-multiply on the coefficients, decoded and encoded
    once; negative e inverts first."""
    if e < 0:
        return power(spec, inv(spec, a), -e)
    if spec.n == 1:
        return pow(a, e, spec.p)
    ca = _ptrim(element_coeffs(spec, a))
    return element_from_coeffs(spec, _ppowmod(ca, e, spec.modulus, spec.p))


def chi(spec: FieldSpec, a: int) -> int:
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

_FIELD_CACHE: dict[tuple[int, int], FieldSpec] = {}


def check_size(q: int) -> None:
    """Refuse a field order over DEFAULT_Q_LIMIT."""
    if q > DEFAULT_Q_LIMIT:
        raise ValueError(f"q = {q} exceeds the size limit {DEFAULT_Q_LIMIT}")


def _has_full_order(spec: FieldSpec, a: int) -> bool:
    """a generates GF(q)*: a != 0 and a**((q-1)/f) != 1 for every prime
    f | q - 1. For f | p - 1 that power is N(a)**((p-1)/f), taken in
    GF(p); only the primes of (q-1)/(p-1) prime to p - 1 need the
    field's own power."""
    if a == 0:
        return False
    p, q1 = spec.p, spec.q - 1
    na = norm(spec, a)
    fs = [f for f, _ in factorize(q1)]
    if any(pow(na, (p - 1) // f, p) == 1 for f in fs if (p - 1) % f == 0):
        return False
    return all(power(spec, a, q1 // f) != 1 for f in fs if (p - 1) % f)


def _smallest_generator(spec: FieldSpec) -> int:
    # below p every encoding is a constant of GF(p), whose order divides
    # p - 1 < q - 1 when n > 1, so the search of an extension starts at p
    for a in range(2 if spec.n == 1 else spec.p, spec.q):
        if _has_full_order(spec, a):
            return a
    raise RuntimeError(f"no generator found in GF({spec.q})")  # unreachable


def make_prime_field(p: int) -> FieldSpec:
    """GF(p) for an odd prime p, with the smallest primitive root."""
    cached = _FIELD_CACHE.get((p, 1))
    if cached is not None:
        return cached
    if factorize(p) != ((p, 1),):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        raise ValueError("the field order must be odd")
    spec = FieldSpec(p=p, n=1, modulus=(), q=p, alpha=0)
    spec = replace(spec, alpha=_smallest_generator(spec))
    _FIELD_CACHE[(p, 1)] = spec
    return spec


def make_extension_field(p: int, n: int) -> FieldSpec:
    """GF(p^n) with the smallest modulus and generator.

    The modulus is the lexicographically smallest monic irreducible of
    degree n over GF(p), comparing coefficient tuples low degree first, so
    construction is reproducible without polynomial tables. n == 1
    delegates to make_prime_field.
    """
    if n < 1:
        raise ValueError(f"invalid extension degree {n}")
    if n == 1:
        return make_prime_field(p)
    if p == 2 or factorize(p) != ((p, 1),):
        raise ValueError(f"{p} is not an odd prime")
    q = p**n
    check_size(q)
    cached = _FIELD_CACHE.get((p, n))
    if cached is not None:
        return cached
    modulus = None
    # c0 starts at 1: a zero constant term makes the polynomial divisible by x
    for cs in itertools.product(range(1, p), *[range(p)] * (n - 1)):
        f = list(cs) + [1]
        if _is_irreducible(f, p):
            modulus = tuple(f)
            break
    assert modulus is not None  # irreducibles of every degree exist
    spec = FieldSpec(p=p, n=n, modulus=modulus, q=q, alpha=0)
    # column i of the Frobenius map is (x**p)**i, and x is encoded as p
    cols = power_rows(spec, power(spec, p, p), n).tolist()
    spec = replace(spec, frobenius=tuple(map(tuple, cols)))
    spec = replace(spec, alpha=_smallest_generator(spec))
    _FIELD_CACHE[(p, n)] = spec
    return spec


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
