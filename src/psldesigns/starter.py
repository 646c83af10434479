"""Starter-block decisions for cyclic blocks under PSL(2,q).

Let B be the multiplicative subgroup of order k in GF(q), with cofactor
e = (q-1)/k. For e odd the PSL(2,q)-orbit of B is always a 3-design. For
e even (which requires q = 1 mod 4 here) it is one exactly when the signed
count of 3-subsets of B vanishes. The sign of a triple
{beta^a, beta^b, beta^c} is the product of chi(1 - beta^m) over the three
cyclic exponent gaps, so everything reduces to the character table
t[m] = chi(1 - beta^m), m = 1..k-1: the signed count is one
self-convolution of t (delta_sum). Its oracles, the direct sum over all
triples and the sum over the dihedral orbits of 3-subsets of a cyclic
group, live in the tests (tests/scalar_oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from psldesigns import gf

# A design-giving k with even cofactor must fall in these classes mod 24.
# One-directional: membership never replaces the signed count.
ADMISSIBLE_RESIDUES = frozenset({1, 2, 5, 10, 13, 17})


@dataclass(frozen=True)
class StarterContext:
    """A (q, k) pair with its subgroup and character table.

    chi_table[m] = chi(1 - beta**m) for 1 <= m < k, with chi_table[0] = 0
    as an unused sentinel. block lists the subgroup in power order.
    """

    spec: gf.FieldSpec
    k: int
    e: int
    alpha: int
    beta: int
    block: tuple[int, ...]
    chi_table: tuple[int, ...]


def starter_cofactor(q: int, k: int, alpha: int | None = None) -> int:
    """The validity rule for a starter pair, shared by the scalar context
    and the batched kernel; returns the cofactor e = (q-1)/k.

    Requires 3 < k < q-1 and k | q-1. An even cofactor additionally
    requires q = 1 (mod 4); with an odd cofactor any odd q is accepted.
    An explicit alpha must be an element encoding, 1 <= alpha < q.
    """
    if not 3 < k < q - 1:
        raise ValueError(f"k = {k} is outside the range 3 < k < q - 1 = {q - 1}")
    if (q - 1) % k:
        raise ValueError(f"k = {k} does not divide q - 1 = {q - 1}")
    e = (q - 1) // k
    if e % 2 == 0 and q % 4 != 1:
        raise ValueError(
            f"even cofactor e = {e} requires q = 1 mod 4, but q = {q}"
        )
    if alpha is not None and not 1 <= alpha < q:
        raise ValueError(f"alpha = {alpha} is outside the range 1 <= alpha < q = {q}")
    return e


def make_starter_context(
    spec: gf.FieldSpec, k: int, alpha: int | None = None
) -> StarterContext:
    """Build the context for the order-k subgroup of GF(q).

    (q, k, alpha) must pass starter_cofactor. `alpha` overrides the
    canonical generator (it must also have order q-1), which changes the
    character table but never the design outcome.
    """
    q = spec.q
    e = starter_cofactor(q, k, alpha)
    if alpha is None:
        alpha = spec.alpha
    elif not gf._has_full_order(spec, alpha):
        raise ValueError(f"alpha = {alpha} does not generate GF({q})*")
    beta = gf.power(spec, alpha, e)
    block, table = _array_tables(spec, k, beta)
    return StarterContext(
        spec=spec,
        k=k,
        e=e,
        alpha=alpha,
        beta=beta,
        block=tuple(block),
        chi_table=tuple(table),
    )


def _array_tables(spec: gf.FieldSpec, k: int, beta: int) -> tuple[list, list]:
    """(block, chi table) on any field, GF(p) the case n = 1, from one
    (k, n) coefficient array of the powers of beta: the block is its
    encodings, and the table the characters of the rows 1 - beta**m."""
    rows = gf.power_rows(spec, beta, k)
    one_minus = (np.eye(1, spec.n, dtype=np.int64) - rows[1:]) % spec.p
    return gf.encode_rows(spec, rows), [0] + gf.chi_rows(spec, one_minus)


def _signed_count(t: np.ndarray) -> np.ndarray:
    """Signed count of all C(k,3) 3-subsets of the block, per row of a
    2-D int64 array of character tables with k columns (t[:, 0] = 0).

    A 3-subset's sign is t[g1] * t[g2] * t[g3] over its cyclic gaps
    g1 + g2 + g3 = k. Each 3-subset arises from 3 of the k * C(k-1, 2)
    (start, gap composition) pairs, so the count is
    (k/3) * sum_d t[d] * (t*t)[k-d], one self-convolution of the table
    (t[0] = 0 drops the zero gaps). The convolution is one einsum over the
    strided view w[:, d, a] = z[:, d + a] = t[:, k-1-d-a] (zero for
    d + a >= k), so (t*t)[k-1-d] = sum_a t[a] * w[d, a]; the ndarray
    constructor checks that w stays inside z. Exact: int64 values stay
    below k^2.
    """
    rows, k = t.shape
    z = np.zeros((rows, 2 * k - 1), dtype=np.int64)
    z[:, :k] = t[:, ::-1]
    r, c = z.strides
    w = np.ndarray((rows, k - 1, k), np.int64, z, 0, (r, c, c))
    return k * (t[:, 1:] * np.einsum("ra,rda->rd", t, w)).sum(axis=1) // 3


def delta_sum(ctx: StarterContext) -> int:
    """Signed count of all C(k,3) 3-subsets of the block (_signed_count of
    the chi table)."""
    if ctx.e % 2:
        raise ValueError("the signed count is only defined for even e")
    return int(_signed_count(np.asarray(ctx.chi_table, dtype=np.int64)[None, :])[0])


def gives_design(ctx: StarterContext) -> bool:
    """Whether the block's PSL(2,q)-orbit is a 3-design.

    Always true for an odd cofactor (scaling by a nonsquare subgroup
    generator pairs the two triple classes inside the block); for an even
    cofactor, true exactly when the signed count vanishes.
    """
    if ctx.e % 2:
        return True
    return delta_sum(ctx) == 0


# ---------------------------------------------------------------------------
# the batched decision over many prime fields


def _powmod(base: np.ndarray, exp, mod) -> np.ndarray:
    """base**exp % mod elementwise by square-and-multiply on int64 arrays;
    exp and mod broadcast against base. Exact for mod <= 2**31, where
    every product stays below 2**62."""
    base = base % mod
    exp = np.array(exp, dtype=np.int64)  # a copy, shifted in place
    result = np.ones(np.broadcast(base, exp, mod).shape, dtype=np.int64)
    while exp.any():
        result = np.where(exp & 1, result * base % mod, result)
        exp >>= 1
        base = base * base % mod
    return result


def _order_k_elements(k: int, qs: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Per row, an element of order k in GF(q)* for prime q = k*e + 1: the
    first y = x**e, x = 2, 3, ..., with y**(k/r) != 1 for every prime
    r | k (y**k = x**(q-1) = 1 holds already). A primitive root x < q
    always qualifies, so no factorisation of q - 1 is needed.

    For k = 2 mod 4 a y with y**(k/2) = 1 is replaced by -y: k/2 is odd,
    so (-y)**(k/2) = -1, while (-y)**(k/r) = y**(k/r) for every odd prime
    r | k. The order test still decides every row.
    """
    beta = np.zeros_like(qs)
    todo = np.arange(qs.size)
    x = 2
    while todo.size:
        q = qs[todo]
        y = _powmod(x, e[todo], q)
        if k % 4 == 2:
            y = np.where(_powmod(y, k // 2, q) == 1, q - y, y)
        ok = np.ones(todo.size, dtype=bool)
        for r, _ in gf.factorize(k):
            ok &= _powmod(y, k // r, q) != 1
        beta[todo[ok]] = y[ok]
        todo = todo[~ok]
        x += 1
    return beta


def _is_square(a: np.ndarray, q) -> np.ndarray:
    """Euler's criterion elementwise, for a != 0 mod the prime q."""
    return _powmod(a, (q - 1) // 2, q) == 1


def _cofactors(k: int, qs: np.ndarray) -> np.ndarray:
    """starter_cofactor at every q of the int64 array qs at once: the
    cofactors e = (q-1)/k, or starter_cofactor's own error for the first
    q that fails its rule."""
    e, rem = np.divmod(qs - 1, k)
    bad = (k <= 3) | (k >= qs - 1) | (rem != 0) | ((e % 2 == 0) & (qs % 4 != 1))
    for q in qs[bad].tolist():
        starter_cofactor(q, k)
    return e


def _prime_tables(k: int, qs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per prime q of qs: the cofactor e, an element beta of order k and
    the table t[m] = chi(1 - beta^m) (t[:, 0] = 0), as int64 arrays.
    Each q must pass starter_cofactor and gf.check_size. Primality is not
    checked here: the callers take qs from a sieve.

    Only m <= k/2 is powered: with an even cofactor beta is a square and
    chi(-1) = 1 (q = 1 mod 4), so t[k-m] = chi(-beta^-m (1 - beta^m)) =
    t[m]. Odd-cofactor rows, where this may fail, are true in
    decide_prime_batch regardless of their table.
    """
    qs = np.asarray(qs, dtype=np.int64)
    e = _cofactors(k, qs)
    gf.check_size(qs.max(initial=0))
    beta = _order_k_elements(k, qs, e)
    half = k // 2 + 1
    powers = np.ones((qs.size, half), dtype=np.int64)
    for m in range(1, half):
        powers[:, m] = powers[:, m - 1] * beta % qs
    t = np.zeros((qs.size, k), dtype=np.int64)  # t[:, 0] = 0 drops zero gaps
    t[:, 1:half] = np.where(_is_square(1 - powers[:, 1:], qs[:, None]), 1, -1)
    t[:, half:] = t[:, k - half : 0 : -1]
    return e, beta, t


def _pair_tables(k: int, qs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(q, beta, t_k, t_2k) for the scans, where every q = 1 mod 4k and
    both cofactors are even. Only the order-2k table is built: beta_k =
    beta_2k^2, so t_k[m] = chi(1 - beta_2k^(2m)) = t_2k[2m]. qs must pass
    starter_cofactor at k and at 2k."""
    q = np.asarray(qs, dtype=np.int64)
    _cofactors(k, q)
    _, beta2, t2 = _prime_tables(2 * k, q)
    return q, beta2 * beta2 % q, t2[:, ::2], t2


def decide_prime_batch(k: int, qs) -> np.ndarray:
    """gives_design for the order-k subgroup of GF(q) at every prime q of
    qs at once, as a bool array. Any generator of the subgroup will do:
    the signed count is the generator-free sum over all triples. The scalar
    make_starter_context with gives_design is this kernel's oracle."""
    e, _, t = _prime_tables(k, qs)
    return (e % 2 == 1) | (_signed_count(t) == 0)


def admissible_k(k: int) -> bool:
    """Necessary residue condition mod 24 for a design with even cofactor."""
    return k % 24 in ADMISSIBLE_RESIDUES


def lambda_formula(k: int, e: int) -> int:
    """The design parameter lambda: (k-1)(k-2)/2 for e odd, /4 for e even.

    Raises for e even when (k-1)(k-2) is not divisible by 4; such k never
    give designs (cf. admissible_k).
    """
    m = (k - 1) * (k - 2)
    if e % 2:
        return m // 2
    if m % 4:
        raise ValueError(f"(k-1)(k-2) = {m} is not divisible by 4")
    return m // 4


# ---------------------------------------------------------------------------
# reduced character sequences


@dataclass(frozen=True)
class CharSequence:
    """The reduced character sequence deciding the design property.

    convention 'odd' (k odd): entries chi(1-beta^m) for m = 1..(k-1)/2.
    convention 'even2mod4' (k = 2 mod 4): chi(1-beta^m) for even
    m = 2, 4, ..., k/2-1, then chi(2) (every odd-exponent value factors
    through these). No sequence exists for k = 0 mod 4.
    """

    entries: tuple[int, ...]
    convention: str


def char_sequence(ctx: StarterContext) -> CharSequence:
    k, t = ctx.k, ctx.chi_table
    if k % 2 == 1:
        return CharSequence(tuple(t[m] for m in range(1, (k - 1) // 2 + 1)), "odd")
    if k % 4 == 2:
        # beta^(k/2) = -1, so t[k/2] = chi(2)
        entries = tuple(t[m] for m in range(2, k // 2, 2)) + (t[k // 2],)
        return CharSequence(entries, "even2mod4")
    raise ValueError("no character sequence is defined for k = 0 mod 4")


# ---------------------------------------------------------------------------
# the k in {5, 10} equivalences (q = 1 mod 20)


@dataclass(frozen=True)
class Thm510Conditions:
    """The seven equivalent design tests at k in {5, 10}.

    c6/c7 are the integer-representation tests, defined for prime q only
    (None otherwise). All applicable values agree for every valid q; a
    disagreement would falsify the implementation, not the input.
    """

    q: int
    c1: bool  # the order-5 subgroup starts a 3-design
    c2: bool  # the order-10 subgroup starts a 3-design
    c3: bool  # chi(1 + beta) == -1 for beta of order 5
    c4: bool  # the roots of x^2 - 4x - 1 are nonsquares
    c5: bool  # 5 is not a fourth power
    c6: bool | None  # no integers x, y with q = x^2 + 20 y^2
    c7: bool | None  # no integers x, y with q = x^2 + 100 y^2

    def values(self) -> list[bool]:
        out = [self.c1, self.c2, self.c3, self.c4, self.c5]
        if self.c6 is not None:
            out.append(self.c6)
        if self.c7 is not None:
            out.append(self.c7)
        return out


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) elementwise for int64 0 <= n < 2**52: the float
    root, corrected by one step either way."""
    s = np.sqrt(n).astype(np.int64)
    s -= s * s > n
    return s + ((s + 1) * (s + 1) <= n)


def _represented(q: np.ndarray, root: np.ndarray, c: int) -> np.ndarray:
    """Whether q = x^2 + c*y^2 for integers x, y, at every prime q of the
    int64 array q at once, by Cornacchia's descent (Cohen, Alg. 1.5.2):
    root is a square root of -c mod q, per row. Euclid's steps on (q, root)
    run until the remainder r has r^2 < q, and q = x^2 + c*y^2 exactly when
    (q - r^2)/c is then a whole square. Either root of -c gives the same r."""
    a, r = q.copy(), root % q
    live = np.flatnonzero(r * r > q)
    while live.size:
        a[live], r[live] = r[live], a[live] % r[live]
        live = live[r[live] * r[live] > q[live]]
    y2, rem = np.divmod(q - r * r, c)
    return (rem == 0) & (_isqrt(y2) ** 2 == y2)


def _quadratic_root_nonsquare(spec: gf.FieldSpec, beta: int) -> bool:
    """Whether the roots of x^2 - 4x - 1 are nonsquares.

    The roots are 2 +/- s with s = beta*(1-beta)^2*(1+beta), which
    squares to 5 when beta has order 5. Both quadratic roots are checked
    (their characters agree).
    """
    five = gf.embed(spec, 5)
    s = gf.mul(
        spec,
        gf.mul(spec, beta, gf.power(spec, gf.sub(spec, 1, beta), 2)),
        gf.add(spec, 1, beta),
    )
    assert gf.mul(spec, s, s) == five
    two = gf.embed(spec, 2)
    roots = (gf.add(spec, two, s), gf.sub(spec, two, s))
    theta0 = gf.add(
        spec,
        gf.mul(spec, two, gf.add(spec, gf.power(spec, beta, 4), beta)),
        gf.embed(spec, 3),
    )
    assert theta0 in roots
    for th in roots:
        # th^2 - 4*th - 1 == 0
        val = gf.sub(spec, gf.sub(spec, gf.mul(spec, th, th), gf.mul(spec, gf.embed(spec, 4), th)), 1)
        assert val == 0
    return any(gf.chi(spec, th) == -1 for th in roots)


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
    five = gf.embed(spec, 5)
    c1 = gives_design(ctx5)
    c2 = gives_design(ctx10)
    c3 = gf.chi(spec, gf.add(spec, 1, beta)) == -1
    c4 = _quadratic_root_nonsquare(spec, beta)
    c5 = gf.power(spec, five, (q - 1) // 4) != 1
    c6 = c7 = None
    if spec.n == 1:
        c6, c7 = thm510_batch([q])[0, 5:].tolist()
    return Thm510Conditions(q, c1, c2, c3, c4, c5, c6, c7)


def thm510_batch(qs) -> np.ndarray:
    """thm510_conditions(...).values() at every prime q = 1 (mod 20) of
    qs at once, as a (rows, 7) bool array, from the order-10 table alone
    (_pair_tables). c3 is t_10[7], since 1 + beta = 1 + beta_10^2 =
    1 - beta_10^7 (beta_10^5 = -1). c4 and c5 are Euler tests, with
    s = beta(1-beta)^2(1+beta) as the root of 5; none of c3..c5 depends on
    which beta of order 5 is found. c6/c7 are Cornacchia descents with the
    roots 2*i*s of -20 and 10*i of -100, i a root of -1 (an element of
    order 4).
    """
    q, beta, t5, t10 = _pair_tables(5, qs)  # refuses odd q other than 1 mod 20
    s = beta * (1 - beta) % q * (1 - beta) % q * (1 + beta) % q
    roots = ((2 + s) % q, (2 - s) % q)
    theta0 = (2 * (_powmod(beta, 4, q) + beta) + 3) % q
    assert np.all(s * s % q == 5)
    assert np.all((theta0 == roots[0]) | (theta0 == roots[1]))
    assert all(np.all((th * th - 4 * th - 1) % q == 0) for th in roots)
    i = _order_k_elements(4, q, (q - 1) // 4)
    return np.column_stack([
        _signed_count(t5) == 0,
        _signed_count(t10) == 0,
        t10[:, 7] == -1,
        ~_is_square(roots[0], q) | ~_is_square(roots[1], q),
        _powmod(5, (q - 1) // 4, q) != 1,
        ~_represented(q, 2 * i % q * s, 20),
        ~_represented(q, 10 * i, 100),
    ]).astype(bool)


# ---------------------------------------------------------------------------
# the k in {13, 26} sequence test (q = 1 mod 52)

_BASE_13_PATTERNS = (
    (1, 1, -1, 1, -1, -1),
    (1, 1, -1, -1, -1, 1),
    (1, -1, 1, 1, -1, -1),
    (1, -1, 1, -1, -1, 1),
)
SEQ_13_PATTERNS = frozenset(
    _BASE_13_PATTERNS + tuple(tuple(-v for v in s) for s in _BASE_13_PATTERNS)
)


@dataclass(frozen=True)
class Thm1326Result:
    q: int
    holds: bool
    sequence: CharSequence


def thm1326_condition(spec: gf.FieldSpec, alpha: int | None = None) -> Thm1326Result:
    """The k in {13, 26} design test via the six-entry character sequence.

    Requires q = 1 (mod 52). holds is true exactly when the order-13 (and
    equivalently order-26) subgroup starts a 3-design: the sequence must
    fall, up to global sign, among four patterns.
    """
    if spec.q % 52 != 1:
        raise ValueError(f"q = {spec.q} is not 1 mod 52")
    ctx = make_starter_context(spec, 13, alpha=alpha)
    seq = char_sequence(ctx)
    return Thm1326Result(spec.q, seq.entries in SEQ_13_PATTERNS, seq)


def thm1326_batch(qs) -> np.ndarray:
    """(holds, d13, d26) at every prime q = 1 (mod 52) of qs at once, as a
    (rows, 3) bool array: thm1326_condition's pattern test on t[1..6] of
    the k = 13 table, and the kernel's decisions at k = 13, 26, all from
    the order-26 table alone (_pair_tables).
    """
    _, _, t13, t26 = _pair_tables(13, qs)  # refuses odd q other than 1 mod 52
    holds = [tuple(row) in SEQ_13_PATTERNS for row in t13[:, 1:7].tolist()]
    d13, d26 = _signed_count(t13) == 0, _signed_count(t26) == 0
    return np.column_stack([holds, d13, d26]).astype(bool)
