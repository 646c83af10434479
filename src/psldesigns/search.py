"""Parameter sweeps over primes and prime powers for the starter criterion.

The sweep condition q = 1 (mod lcm(4, 2k)) is exactly "k divides q-1, the
cofactor is even, and q = 1 mod 4". Odd-cofactor pairs always give
designs, so the interesting tables fix k and ask which q of this shape
succeed. A sweep sieves up to its bound and reads k's prime candidates
off the sieve as the progression 1 + j*lcm(4, 2k); they are decided
serially in row chunks by starter.decide_prime_batch, and extension-field
candidates by the scalar starter context; the equivalence scans decide
theirs the same way with batched conditions. Explicit expansion stays in
the design module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import isqrt, lcm

import numpy as np

from psldesigns import gf, starter

# Bounds behind the "no further coincident (k, 2k) pair" report.
PAIR_SCAN_K_MAX = 60
PAIR_SCAN_Q_MAX = 2 * 10**5
# primes per batched starter call; a chunk holds a few int64 arrays of
# DECIDE_CHUNK_ROWS * k entries
DECIDE_CHUNK_ROWS = 2048


def prime_flags(limit: int) -> np.ndarray:
    """Sieve of Eratosthenes: flags[n] is true exactly for the primes
    n <= limit (an empty array for limit < 0)."""
    flags = np.ones(max(limit + 1, 0), dtype=bool)
    flags[:2] = False
    for i in range(2, isqrt(max(limit, 0)) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return flags


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit."""
    return np.flatnonzero(prime_flags(limit)).tolist()


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


def _decide_primes(decide, sieve: np.ndarray, m: int) -> tuple[list[int], list]:
    """The primes q = 1 mod m of a prime_flags sieve, ascending, and
    decide(chunk).tolist() over them, DECIDE_CHUNK_ROWS rows at a time."""
    qs, n = np.flatnonzero(sieve[1::m]) * m + 1, DECIDE_CHUNK_ROWS
    rows = [r for i in range(0, qs.size, n) for r in decide(qs[i : i + n]).tolist()]
    return qs.tolist(), rows


def _check_bound(bound: int) -> None:
    """A bound names the largest field a scan may reach; it is refused
    before anything of its size is allocated."""
    if bound < 1:
        raise ValueError(f"the bound must be positive, got {bound}")
    if bound > gf.DEFAULT_Q_LIMIT:
        raise ValueError(
            f"the bound {bound} exceeds the size limit {gf.DEFAULT_Q_LIMIT}"
        )


def sweep_modulus(k: int) -> int:
    """q must be 1 mod this for the order-k subgroup to have even cofactor
    in a q = 1 mod 4 field: lcm(4, 2k)."""
    return lcm(4, 2 * k)


@dataclass(frozen=True)
class SweepResult:
    k: int
    bound: int
    hits: tuple[int, ...]


@dataclass(frozen=True)
class SweepEntry:
    """Outcome at a single candidate q (a row of the CSV table)."""

    k: int
    q: int
    p: int
    n: int
    e: int
    gives_design: bool
    lam: int | None


def _entry(k: int, q: int, p: int, n: int, ok: bool) -> SweepEntry:
    e = (q - 1) // k
    lam = starter.lambda_formula(k, e) if ok else None
    return SweepEntry(k=k, q=q, p=p, n=n, e=e, gives_design=ok, lam=lam)


def sweep_entries(
    k: int,
    q_max: int,
    include_prime_powers: bool = False,
) -> list[SweepEntry]:
    """Evaluate the criterion at every candidate q <= q_max with
    q = 1 mod lcm(4, 2k), in increasing q order. Prime candidates go
    through the batched kernel DECIDE_CHUNK_ROWS at a time; extension
    fields go through the scalar context."""
    if k <= 3:
        raise ValueError(f"k = {k} is outside the range k > 3")
    _check_bound(q_max)
    sieve = prime_flags(q_max)
    m = sweep_modulus(k)
    # the primes from 1 + m > k + 1 on
    qs, oks = _decide_primes(partial(starter.decide_prime_batch, k), sieve, m)
    entries = [_entry(k, q, q, 1, ok) for q, ok in zip(qs, oks)]
    if include_prime_powers:
        small = np.flatnonzero(sieve[: isqrt(q_max) + 1]).tolist()
        for p, n, q in _powers_of(small, q_max, 2):
            if q % m == 1:
                ctx = starter.make_starter_context(gf.field_for_order(q), k)
                entries.append(_entry(k, q, p, n, starter.gives_design(ctx)))
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
) -> list[dict[str, object]]:
    """Flat dict rows for CSV/JSON emission, one per candidate q."""
    rows = []
    for k in ks:
        for ent in sweep_entries(k, q_max, include_prime_powers):
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


def coincident_pair_report(
    k_max: int = PAIR_SCAN_K_MAX,
    q_max: int = PAIR_SCAN_Q_MAX,
) -> list[PairScan]:
    """Scan every admissible pair (k, 2k) with 2k <= k_max for hit-set
    coincidence up to q_max. A bounded observation, not a proof: the
    report states its bounds and nothing beyond them."""
    scans = []
    for k in range(4, k_max // 2 + 1):
        if starter.admissible_k(k) and starter.admissible_k(2 * k):
            scans.append(verify_pair_coincidence(k, 2 * k, q_max))
    return scans


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
    field, or one over the size limit, raises."""
    spec = gf.field_for_order(q)
    try:
        ctx = starter.make_starter_context(spec, k)
    except ValueError:
        return False
    return starter.gives_design(ctx)


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
    # a row holds the conditions that must agree at one prime
    ps, rows = _decide_primes(decide, prime_flags(p_max), modulus)
    return EquivalenceReport(
        name=name,
        bound=p_max,
        checked=len(ps),
        hits=tuple(p for p, row in zip(ps, rows) if all(row)),
        disagreements=tuple(p for p, row in zip(ps, rows) if any(row) != all(row)),
    )
