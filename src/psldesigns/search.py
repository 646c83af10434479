"""Parameter sweeps over primes and prime powers for the starter criterion.

The sweep condition q = 1 (mod lcm(4, 2k)) is exactly "k divides q-1, the
cofactor is even, and q = 1 mod 4". Odd-cofactor pairs always give
designs, so the interesting tables fix k and ask which q of this shape
succeed. A sweep sieves the progression q = 1 + j*lcm(4, 2k) itself, one
segment of j at a time, and decides each segment's primes serially in
row chunks by starter.decide_prime_batch; extension-field candidates go
through the scalar starter context. The equivalence scans decide their
primes the same way with batched conditions. sweep_rows is the one
source of sweep rows: its blocks, one SweepBlock of columns per k, are
what sweep, sweep_entries, verify_pair_coincidence and every rendering
of `sweep` read. A pair (k, 2k) with k odd shares its candidates,
q = 1 mod 4k, so when both are asked for, _blocks decides the prime rows
of both in one pass, from one order-2k table per prime
(starter.decide_pair_batch), in either order. Explicit expansion stays
in the design module.
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


@dataclass(frozen=True, eq=False)
class SweepBlock:
    """One k's sweep rows as columns, in increasing q order: q, p and n
    (int64) and ok (bool), whether q gives a design. Every candidate has
    q = 1 mod lcm(4, 2k) and so an even cofactor: lam, the one lambda of
    every hit, is None when no row is a hit. When every row is prime, p
    is q itself and n a read-only broadcast 1. len() is the row count."""

    k: int
    q: np.ndarray
    p: np.ndarray
    n: np.ndarray
    ok: np.ndarray
    lam: int | None

    def __len__(self) -> int:
        return self.q.size

    def chunks(self) -> Iterator[tuple[np.ndarray, ...]]:
        """The columns q, p, n and ok, DECIDE_CHUNK_ROWS rows at a time."""
        step = DECIDE_CHUNK_ROWS
        for i in range(0, len(self), step):
            yield tuple(c[i : i + step] for c in (self.q, self.p, self.n, self.ok))

    def entries(self) -> list[SweepEntry]:
        """One SweepEntry per row."""
        k, lam = self.k, self.lam
        cols = (self.q.tolist(), self.p.tolist(), self.n.tolist(), self.ok.tolist())
        return [
            SweepEntry(k, q, p, n, (q - 1) // k, ok, lam if ok else None)
            for q, p, n, ok in zip(*cols)
        ]


def _block(k: int, chunks, q_max: int, include_prime_powers: bool) -> SweepBlock:
    """k's SweepBlock from the (q, ok) chunks of its prime rows and, with
    include_prime_powers, the extension-field candidates q = p^n <= q_max,
    n >= 2, merged in q order. One lambda is asked for only when there is
    a hit. A candidate p^n = p^(d*m) is decided from GF(p^d), d = ord_k(p)
    (starter.subfield_degrees): no design for even m (an all +1 table), nor
    for even d with p^(d/2) = -1 (mod k), the unitary case, where every
    triple has one sign; otherwise the scalar context of (p^d, k) decides,
    itself a candidate with an even cofactor, as (q-1)/(p^d-1) is odd."""
    # an empty first chunk gives a k with no candidates empty columns
    q, ok = (np.concatenate(c) for c in zip((np.empty(0, np.int64), np.empty(0, bool)), *chunks))
    p, n = q, np.broadcast_to(np.int64(1), q.shape)  # n = 1 on every row, held once
    if include_prime_powers:
        mod = sweep_modulus(k)
        powers = [t for t in _powers_of(_base_primes(q_max), q_max, 2) if t[2] % mod == 1]
        ext_p, ext_n, ext_q = np.array(powers, dtype=np.int64).reshape(-1, 3).T
        ext_ok = []
        for x, y, _ in powers:
            d, m = starter.subfield_degrees(x, y, k)
            unitary = d % 2 == 0 and pow(x, d // 2, k) == k - 1
            ext_ok.append(m % 2 == 1 and not unitary and _pair_gives_design(x**d, k))
        order = np.argsort(np.concatenate([q, ext_q]))
        q, p, n = (np.concatenate(c)[order] for c in ((q, ext_q), (p, ext_p), (n, ext_n)))
        ok = np.concatenate([ok, np.array(ext_ok, dtype=bool)])[order]
    lam = starter.lambda_formula(k, (int(q[0]) - 1) // k) if ok.any() else None
    return SweepBlock(k, q, p, n, ok, lam)


def sweep_entries(
    k: int,
    q_max: int,
    include_prime_powers: bool = False,
) -> list[SweepEntry]:
    """Evaluate the criterion at every candidate q <= q_max with
    q = 1 mod lcm(4, 2k), in increasing q order: the entries of k's
    sweep_rows block."""
    (block,) = sweep_rows([k], q_max, include_prime_powers)
    return block.entries()


def sweep(
    k: int,
    q_max: int,
    include_prime_powers: bool = False,
) -> SweepResult:
    """The ascending q <= q_max (primes by default) where the order-k
    subgroup with even cofactor starts a 3-design, read off k's
    sweep_rows block. Empty for inadmissible k, which is the empirical
    content of the residue filter."""
    (block,) = sweep_rows([k], q_max, include_prime_powers)
    return SweepResult(k=k, bound=q_max, hits=tuple(block.q[block.ok].tolist()))


SWEEP_TABLE_KS = (5, 10, 13, 17, 25, 26, 29, 34, 37, 41, 49, 50, 53, 58)


def sweep_rows(
    ks: tuple[int, ...] | list[int],
    q_max: int,
    include_prime_powers: bool = False,
) -> Iterator[SweepBlock]:
    """The SweepBlock of each k in turn, the rows that sweep_entries
    expands, each decided only when it is asked for. Every k and the
    bound are checked here, before the first block, so a refused sweep
    has produced nothing.

    An odd k and 2k share their candidates, the primes q = 1 mod 4k, so
    when both are asked for, the first of the two to come decides the
    prime rows of both in one decide_pair_batch pass, and holds the other
    k's q and decision columns, 10 bytes a row, until its block is due."""
    for k in ks:
        _check_k(k)
    _check_bound(q_max)
    return _blocks(ks, q_max, include_prime_powers)


def _partner(k: int) -> int | None:
    """The other k of the pair (k1, 2*k1), k1 odd, that k belongs to."""
    return 2 * k if k % 2 else k // 2 if k % 4 == 2 else None


def _blocks(ks: tuple[int, ...] | list[int], q_max: int, include_prime_powers: bool):
    """sweep_rows's blocks, unchecked. Each pass over the primes
    q = 1 mod sweep_modulus(k1) is one decide_prime_batch pass at k1 = k,
    or, when k's partner comes later in ks, one decide_pair_batch pass at
    the odd k1 of the two, whose columns are k1 and 2*k1. Nothing of a
    block is referenced here once it has been yielded, so that the
    consumer's release of it frees it."""
    held = {}  # k -> the (q, ok) chunks of its prime rows
    for i, k in enumerate(ks):
        if k not in held:
            pair = _partner(k) in ks[i + 1 :]
            k1 = min(k, _partner(k)) if pair else k
            decide = starter.decide_pair_batch if pair else starter.decide_prime_batch
            decided = _decided(partial(decide, k1), sweep_modulus(k1), q_max)
            # one (q, ok) chunk per k of the pass from each decided chunk
            cols = ([(qs, ok) for ok in oks.reshape(qs.size, -1).T] for qs, oks in decided)
            held.update(zip((k1, 2 * k1) if pair else (k,), zip(*cols)))
        yield _block(k, held.pop(k, ()), q_max, include_prime_powers)


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
    not even a candidate for 13. The hit lists are read off the two
    sweep_rows blocks, so an odd k and its double are decided in one pass,
    in either order. k1, the bound and k2 are checked, in that order,
    before anything is decided. first_divergence is the smallest q in the
    symmetric difference, None if the hit lists agree.
    """
    _check_k(k1)
    _check_bound(q_max)
    _check_k(k2)
    h1, h2 = (tuple(b.q[b.ok].tolist()) for b in _blocks((k1, k2), q_max, False))
    diff = set(h1) ^ set(h2)
    return PairScan(k1, k2, q_max, h1, h2, min(diff) if diff else None)


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
