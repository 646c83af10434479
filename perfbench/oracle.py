"""Standalone integer oracle for the benchmark's output checks.

Imports nothing from psldesigns. It re-decides the starter criterion for
a prime q by the definition: the order-k subgroup B of GF(q)* starts a
3-design when the cofactor e = (q-1)/k is odd, and otherwise exactly when
the Legendre-symbol sum of (x-y)(y-z)(z-x) over all C(k,3) 3-subsets of B
vanishes. It also gives the orbit size |PSL(2,q)|/(k or 2k) and the
counting identity b*C(k,3) = lambda*C(v,3) used to check built designs.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, isqrt, lcm


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if flags[i]]


def prime_powers_upto(limit: int) -> list[tuple[int, int, int]]:
    """All prime powers p^n <= limit as (p, n, q), sorted by q."""
    out = []
    for p in primes_upto(limit):
        q, n = p, 1
        while q <= limit:
            out.append((p, n, q))
            q *= p
            n += 1
    out.sort(key=lambda t: t[2])
    return out


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 by trial division."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            mult = 0
            while m % f == 0:
                m //= f
                mult += 1
            out.append((f, mult))
        f += 1 if f == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, n) with q = p^n, or None when q is not a prime power."""
    fac = factorize(q) if q > 1 else []
    return fac[0] if len(fac) == 1 else None


def is_prime(m: int) -> bool:
    """Miller-Rabin with the first seven prime bases, exact for
    m < 341,550,071,728,321."""
    if m < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17)
    if m in bases:
        return True
    if any(m % b == 0 for b in bases):
        return False
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def primitive_root(p: int) -> int:
    """Smallest generator of GF(p)* for an odd prime p."""
    ells = [ell for ell, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in ells):
            return g
    raise ValueError(f"{p} is not an odd prime")


def legendre(a: int, p: int) -> int:
    """(a/p) by Euler's criterion; a must be nonzero mod p."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise ValueError(f"{a} is 0 mod {p}")


def subgroup(p: int, k: int) -> list[int]:
    """The order-k subgroup of GF(p)*; k must divide p - 1."""
    if (p - 1) % k:
        raise ValueError(f"k = {k} does not divide {p - 1}")
    beta = pow(primitive_root(p), (p - 1) // k, p)
    return [pow(beta, i, p) for i in range(k)]


def delta_sum_direct(p: int, k: int) -> int:
    """Sum of chi((x-y)(y-z)(z-x)) over all 3-subsets of the subgroup.

    Orientation-free only when p = 1 (mod 4), where chi(-1) = 1.
    """
    if p % 4 != 1:
        raise ValueError(f"p = {p} is not 1 mod 4")
    block = subgroup(p, k)
    return sum(
        legendre((x - y) * (y - z) * (z - x), p) for x, y, z in combinations(block, 3)
    )


def valid_pair(q: int, k: int) -> bool:
    """Whether (q, k) is a starter configuration the package accepts."""
    if (q - 1) % k or not 3 < k < q - 1:
        return False
    return ((q - 1) // k) % 2 == 1 or q % 4 == 1


def gives_design(p: int, k: int) -> bool:
    """The starter criterion at a prime p, decided from the definition."""
    if not valid_pair(p, k):
        raise ValueError(f"({p}, {k}) is not a valid starter pair")
    if ((p - 1) // k) % 2:
        return True
    return delta_sum_direct(p, k) == 0


def lambda_of(k: int, e: int) -> int:
    """lambda of the design: (k-1)(k-2)/2 for odd e, /4 for even e."""
    return (k - 1) * (k - 2) // (2 if e % 2 else 4)


def psl_order(q: int) -> int:
    return q * (q * q - 1) // 2


def orbit_size(q: int, k: int) -> int:
    """b = |PSL(2,q)| / |Stab|, with the dihedral stabilizer of order k
    (odd cofactor) or 2k (even cofactor)."""
    e = (q - 1) // k
    return psl_order(q) // (k if e % 2 else 2 * k)


def counting_identity(b: int, k: int, lam: int, v: int) -> bool:
    """b * C(k,3) == lambda * C(v,3), which every 3-design satisfies."""
    return b * comb(k, 3) == lam * comb(v, 3)


def sweep_modulus(k: int) -> int:
    return lcm(4, 2 * k)


def sweep_hits(k: int, q_max: int) -> list[int]:
    """Primes q <= q_max with q = 1 mod lcm(4, 2k) whose order-k
    subgroup starts a design, decided by the direct sum."""
    m = sweep_modulus(k)
    return [
        q
        for q in primes_upto(q_max)
        if q % m == 1 and q > k + 1 and delta_sum_direct(q, k) == 0
    ]
