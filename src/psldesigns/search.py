"""Parameter sweeps over primes and prime powers for the starter criterion.

The sweep condition q = 1 (mod lcm(4, 2k)) is exactly "k divides q-1, the
cofactor is even, and q = 1 mod 4". Odd-cofactor pairs always give
designs, so the interesting tables fix k and ask which q of this shape
succeed. A sweep sieves the progression q = 1 + j*lcm(4, 2k) itself, one
segment of j at a time, and decides each segment's primes serially in
row chunks by starter.decide_prime_batch; extension-field candidates go
through the scalar starter context. The equivalence scans decide their
primes the same way with batched conditions. Explicit expansion stays in
the design module.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from math import isqrt, lcm
from typing import Iterator, NamedTuple

import numpy as np

from psldesigns import gf, starter

# primes per batched starter call; a chunk holds a few int64 arrays of
# DECIDE_CHUNK_ROWS * k entries
DECIDE_CHUNK_ROWS = 2048
# values of j per segment of a progression sieve over q = 1 + j*m; a
# segment holds one bool per j and the int64 primes found in it
SIEVE_SEGMENT = 2**16


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit: the progression sieve at m = 1, whose base
    primes reach isqrt(gf.DEFAULT_Q_LIMIT), so a larger limit is refused."""
    if limit < 2:
        return []
    _check_bound(limit)
    return np.concatenate(list(_progression_primes(1, limit))).tolist()


def _powers_of(primes, limit: int, n_min: int) -> list[tuple[int, int, int]]:
    """(p, n, p^n) for n >= n_min and p^n <= limit, sorted by p^n."""
    out = []
    for p in primes:
        q, n = p**n_min, n_min
        while q <= limit:
            out.append((p, n, q))
            q *= p
            n += 1
    return sorted(out, key=lambda t: t[2])


def enumerate_prime_powers(limit: int) -> list[tuple[int, int, int]]:
    """All prime powers p^n <= limit as (p, n, q), sorted by q."""
    return _powers_of(sieve_primes(limit), limit, 1)


def _base_primes(bound: int) -> tuple[int, ...]:
    """The primes p <= isqrt(bound), enough to sieve up to bound."""
    small = gf._small_primes()
    return small[: bisect_right(small, isqrt(bound))]


def _progression_primes(m: int, bound: int):
    """The primes q = 1 + j*m <= bound, ascending, as one int64 array per
    SIEVE_SEGMENT values of j >= 1. Each base prime p <= isqrt(bound) with
    p not dividing m strikes the j = -m^-1 (mod p), where p | q, except at
    q = p itself; a prime dividing m divides no q. Only the segment and
    the base primes are held, never a flag per integer."""
    base = [p for p in _base_primes(bound) if m % p]
    first = []  # the first j each base prime strikes
    for p in base:
        j = pow(-m, -1, p)
        first.append(j + p if 1 + j * m == p else j)
    top = (bound - 1) // m
    for lo in range(1, top + 1, SIEVE_SEGMENT):
        flags = np.ones(min(SIEVE_SEGMENT, top + 1 - lo), dtype=bool)
        for p, j in zip(base, first):
            flags[j - lo if j >= lo else (j - lo) % p :: p] = False
        yield np.flatnonzero(flags) * m + (1 + lo * m)


def _decided(decide, m: int, bound: int):
    """(qs, decide(qs)) over the primes q = 1 mod m up to bound, ascending,
    DECIDE_CHUNK_ROWS rows at a time."""
    n = DECIDE_CHUNK_ROWS
    for qs in _progression_primes(m, bound):
        for i in range(0, qs.size, n):
            yield qs[i : i + n], decide(qs[i : i + n])


def _check_bound(bound: int) -> None:
    """A bound names the largest field a scan may reach; it is refused
    before anything of its size is allocated."""
    if bound < 1:
        raise ValueError(f"the bound must be positive, got {bound}")
    if bound > gf.DEFAULT_Q_LIMIT:
        raise ValueError(
            f"the bound {bound} exceeds the size limit {gf.DEFAULT_Q_LIMIT}"
        )


def _check_k(k: int) -> None:
    if k <= 3:
        raise ValueError(f"k = {k} is outside the range k > 3")


def sweep_modulus(k: int) -> int:
    """q must be 1 mod this for the order-k subgroup to have even cofactor
    in a q = 1 mod 4 field: lcm(4, 2k)."""
    return lcm(4, 2 * k)


@dataclass(frozen=True)
class SweepResult:
    k: int
    bound: int
    hits: tuple[int, ...]


class SweepEntry(NamedTuple):
    """Outcome at a single candidate q (a row of the CSV table)."""

    k: int
    q: int
    p: int
    n: int
    e: int
    gives_design: bool
    lam: int | None


def _prime_entries(k: int, q: np.ndarray, ok: np.ndarray) -> list[SweepEntry]:
    """SweepEntry rows for prime q from the columns q (int64) and ok
    (bool). e and lambda are column operations: lambda_formula depends on
    e only through its parity, and is asked only for a parity that has a
    design."""
    e = (q - 1) // k
    par = e % 2
    lam = [
        starter.lambda_formula(k, 2 - x) if (ok & (par == x)).any() else None
        for x in (0, 1)
    ]
    cols = zip(q.tolist(), e.tolist(), par.tolist(), ok.tolist())
    return [
        SweepEntry(k, x, x, 1, ex, okx, lam[px] if okx else None)
        for x, ex, px, okx in cols
    ]


def sweep_entries(
    k: int,
    q_max: int,
    include_prime_powers: bool = False,
) -> list[SweepEntry]:
    """Evaluate the criterion at every candidate q <= q_max with
    q = 1 mod lcm(4, 2k), in increasing q order. Prime candidates come
    from the progression sieve and go through the batched kernel
    DECIDE_CHUNK_ROWS at a time; extension fields go through the scalar
    context."""
    _check_k(k)
    _check_bound(q_max)
    m = sweep_modulus(k)
    # the primes from 1 + m > k + 1 on
    entries = []
    for qs, oks in _decided(partial(starter.decide_prime_batch, k), m, q_max):
        entries += _prime_entries(k, qs, oks)
    if include_prime_powers:
        for p, n, q in _powers_of(_base_primes(q_max), q_max, 2):
            if q % m == 1:
                ctx = starter.make_starter_context(gf.field_for_order(q), k)
                ok = starter.gives_design(ctx)
                lam = starter.lambda_formula(k, ctx.e) if ok else None
                entries.append(SweepEntry(k, q, p, n, ctx.e, ok, lam))
        entries.sort(key=lambda ent: ent.q)
    return entries


def sweep(
    k: int,
    q_max: int,
    include_prime_powers: bool = False,
) -> SweepResult:
    """The ascending q <= q_max (primes by default) where the order-k
    subgroup with even cofactor starts a 3-design. Empty for inadmissible
    k, which is the empirical content of the residue filter."""
    hits = tuple(
        ent.q
        for ent in sweep_entries(k, q_max, include_prime_powers)
        if ent.gives_design
    )
    return SweepResult(k=k, bound=q_max, hits=hits)


SWEEP_TABLE_KS = (5, 10, 13, 17, 25, 26, 29, 34, 37, 41, 49, 50, 53, 58)


def sweep_rows(
    ks: tuple[int, ...] | list[int],
    q_max: int,
    include_prime_powers: bool = False,
) -> Iterator[list[SweepEntry]]:
    """The sweep_entries list of each k in turn, one block per k, each
    decided only when it is asked for. Every k and the bound are checked
    here, before the first block, so a refused sweep has produced
    nothing."""
    for k in ks:
        _check_k(k)
    _check_bound(q_max)
    return (sweep_entries(k, q_max, include_prime_powers) for k in ks)


# ---------------------------------------------------------------------------
# pair coincidence


@dataclass(frozen=True)
class PairScan:
    k1: int
    k2: int
    q_max: int
    hits1: tuple[int, ...]
    hits2: tuple[int, ...]
    first_divergence: int | None

    @property
    def coincide(self) -> bool:
        return self.first_divergence is None


def verify_pair_coincidence(k1: int, k2: int, q_max: int) -> PairScan:
    """Compare the design-giving q of two k values up to q_max.

    Each k is swept over its own candidate shape, so unrelated k diverge
    quickly: k1 = 5 vs k2 = 13 diverges at q = 41, a hit for 5 that is
    not even a candidate for 13. first_divergence is the smallest q in
    the symmetric difference, None if the hit lists agree.
    """
    h1 = sweep(k1, q_max).hits
    h2 = sweep(k2, q_max).hits
    diff = set(h1) ^ set(h2)
    return PairScan(
        k1=k1,
        k2=k2,
        q_max=q_max,
        hits1=h1,
        hits2=h2,
        first_divergence=min(diff) if diff else None,
    )


# ---------------------------------------------------------------------------
# lifting to extension fields


@dataclass(frozen=True)
class LiftCheck:
    q: int
    k: int
    n: int
    base: bool
    lifted_q: int
    lifted: bool

    @property
    def consistent(self) -> bool:
        """Odd-degree lifts preserve the design property; even-degree
        lifts never give one."""
        if self.n % 2 == 0:
            return not self.lifted
        return self.lifted if self.base else True


def _pair_gives_design(q: int, k: int) -> bool:
    """Criterion outcome for (q, k); False (not an error) when the pair
    is not a valid starter configuration in GF(q). A q that names no
    field, or one over the size limit, raises. The field is built only
    for a valid pair."""
    gf.order_parts(q)
    try:
        starter.starter_cofactor(q, k)
    except ValueError:
        return False
    return starter.gives_design(starter.make_starter_context(gf.field_for_order(q), k))


def lift_check(q: int, k: int, n: int) -> LiftCheck:
    """Evaluate the criterion at q and at q^n and report both outcomes."""
    if n < 1:
        raise ValueError(f"lift degree must be positive, got {n}")
    base = _pair_gives_design(q, k)
    # q >= 2 names a field here, so q^n >= 2^n: refuse an over-limit n
    # before the power, whose digits alone grow with n
    if n >= gf.DEFAULT_Q_LIMIT.bit_length():
        raise ValueError(f"q = {q}^{n} exceeds the size limit {gf.DEFAULT_Q_LIMIT}")
    return LiftCheck(q, k, n, base, q**n, _pair_gives_design(q**n, k))


# ---------------------------------------------------------------------------
# equivalence sweeps for the special-k characterizations


@dataclass(frozen=True)
class EquivalenceReport:
    """All-conditions check over every prime p = 1 mod m up to the bound.

    hits are the primes where the (agreeing) conditions are true;
    disagreements would falsify the characterization and are expected to
    stay empty.
    """

    name: str
    bound: int
    checked: int
    hits: tuple[int, ...]
    disagreements: tuple[int, ...]

    @property
    def all_consistent(self) -> bool:
        return not self.disagreements


def thm_equivalence_sweep(name: str, p_max: int) -> EquivalenceReport:
    """Check one characterization at every applicable prime up to p_max.

    name 'thm510': the seven k in {5, 10} conditions at p = 1 mod 20.
    name 'thm1326': sequence test vs the direct criterion at k = 13 and
    k = 26, at p = 1 mod 52; starter.thm510_batch and thm1326_batch.
    """
    if name == "thm510":
        modulus, decide = 20, starter.thm510_batch
    elif name == "thm1326":
        modulus, decide = 52, starter.thm1326_batch
    else:
        raise ValueError(f"unknown equivalence sweep: {name!r}")
    _check_bound(p_max)
    checked, hits, disagreements = 0, [], []
    # a row holds the conditions that must agree at one prime
    for ps, rows in _decided(decide, modulus, p_max):
        every, some = rows.all(axis=1), rows.any(axis=1)
        checked += ps.size
        hits += ps[every].tolist()
        disagreements += ps[some != every].tolist()
    return EquivalenceReport(
        name=name,
        bound=p_max,
        checked=checked,
        hits=tuple(hits),
        disagreements=tuple(disagreements),
    )
