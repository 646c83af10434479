"""The fixed request universe of the `queries` workload.

The universe is a deterministic list of `check`, `seq` and `lift` requests
over primes and prime powers, built without the package. Its expected
outputs are recorded once (record.py); each benchmark run samples its
requests from it by the run's seed.

The mix takes only what the workload's definition states: the three kinds
in equal shares, `check` and `seq` half on primes and half on proper prime
powers (a `lift` always computes in an extension field), k a valid divisor
of q - 1. Within a stratum every request is equally likely. No share is
taken from measured usage. The pools and caps are these choices:

* primes: UNIVERSE_SEED draws q log-uniformly from [10^3, 2^31), the
  package's documented limit, so that each magnitude has the same share;
  then k uniformly from the valid ks.
* prime powers: every odd p^n <= EXT_Q_MAX with n >= 2, with every valid k.
* lifts: every base q (prime or prime power) with q^2 <= EXT_Q_MAX, every
  degree n >= 2 with q^n <= EXT_Q_MAX, and every valid k at q.
* k <= K_MAX everywhere. Without a cap a uniform divisor of q - 1 would
  often be near q/2, and a request costs k characters plus k^2/6 products.
"""

from __future__ import annotations

import math
import random

import oracle

UNIVERSE_SEED = 20251017
# a prime field's set-up (trial-division factorization of q and q - 1)
# grows as sqrt(q)
PRIME_Q_MIN, PRIME_Q_MAX = 10**3, 2**31
# A fresh GF(p^n) searches its generator from 2 upward through the p
# subfield constants, so its set-up grows with p: GF(1601^2) takes 0.09 s,
# and lift 729 14 3 (GF(3^18)) about 10 s. Up to 2^18 a request stays
# below about 0.05 s.
EXT_Q_MAX = 2**18
# just above the largest k of the paper's standard table (58)
K_MAX = 64
# drawn requests per prime stratum, several times what one round takes
PRIME_POOL = 600

# stratum -> share of the requests in one round
STRATA = {
    "check-prime": 1 / 6,
    "check-ext": 1 / 6,
    "seq-prime": 1 / 6,
    "seq-ext": 1 / 6,
    "lift": 1 / 3,
}


def _divisors(m: int) -> list[int]:
    divs = [1]
    for p, mult in oracle.factorize(m):
        divs = [d * p**i for d in divs for i in range(mult + 1)]
    return sorted(divs)


def valid_ks(q: int, seq: bool = False) -> list[int]:
    """k <= K_MAX accepted by the package at q. A sequence is only
    defined for k != 0 mod 4."""
    return [
        k
        for k in _divisors(q - 1)
        if k <= K_MAX and oracle.valid_pair(q, k) and not (seq and k % 4 == 0)
    ]


def _prime_pool(rng: random.Random, kind: str) -> list[list[str]]:
    seen: set[tuple[int, int]] = set()
    out = []
    while len(out) < PRIME_POOL:
        q = int(math.exp(rng.uniform(math.log(PRIME_Q_MIN), math.log(PRIME_Q_MAX))))
        while not oracle.is_prime(q):
            q += 1
        ks = valid_ks(q, seq=kind == "seq")
        if q < PRIME_Q_MAX and ks:
            k = rng.choice(ks)
            if (q, k) not in seen:
                seen.add((q, k))
                out.append([kind, str(q), str(k), "--json"])
    return out


def _odd_prime_powers(limit: int, min_degree: int) -> list[int]:
    return [q for p, n, q in oracle.prime_powers_upto(limit) if p > 2 and n >= min_degree]


def _ext_pool(kind: str) -> list[list[str]]:
    return [
        [kind, str(q), str(k), "--json"]
        for q in _odd_prime_powers(EXT_Q_MAX, 2)
        for k in valid_ks(q, seq=kind == "seq")
    ]


def _lift_pool() -> list[list[str]]:
    out = []
    for q in _odd_prime_powers(math.isqrt(EXT_Q_MAX), 1):
        n = 2
        while q**n <= EXT_Q_MAX:
            out += [["lift", str(q), str(k), str(n), "--json"] for k in valid_ks(q)]
            n += 1
    return out


def build_universe() -> list[tuple[str, list[str]]]:
    """(stratum, argv) pairs: every request of the prime-power and lift
    strata, and PRIME_POOL seeded draws for each prime stratum."""
    rng = random.Random(UNIVERSE_SEED)
    pools = {
        "check-prime": _prime_pool(rng, "check"),
        "check-ext": _ext_pool("check"),
        "seq-prime": _prime_pool(rng, "seq"),
        "seq-ext": _ext_pool("seq"),
        "lift": _lift_pool(),
    }
    return [(stratum, argv) for stratum in STRATA for argv in pools[stratum]]
