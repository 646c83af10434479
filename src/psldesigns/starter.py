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

import itertools
from dataclasses import astuple, dataclass
from functools import lru_cache

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


def starter_cofactor(q: int, k: int) -> int:
    """The validity rule for a starter pair, shared by the scalar context
    and the batched kernel; returns the cofactor e = (q-1)/k.

    Requires 3 < k < q-1 and k | q-1. An even cofactor additionally
    requires q = 1 (mod 4); with an odd cofactor any odd q is accepted.
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
    return e


def _generator(spec: gf.FieldSpec, alpha: int | None) -> int:
    """The generator of GF(q)* to use: spec.alpha when alpha is None, else
    alpha, which must be an element encoding 1 <= alpha < q of order q-1."""
    if alpha is None:
        return spec.alpha
    if not 1 <= alpha < spec.q:
        raise ValueError(f"alpha = {alpha} is outside the range 1 <= alpha < q = {spec.q}")
    if not gf._has_full_order(spec, alpha):
        raise ValueError(f"alpha = {alpha} does not generate GF({spec.q})*")
    return alpha


def make_starter_context(
    spec: gf.FieldSpec, k: int, alpha: int | None = None
) -> StarterContext:
    """Build the context for the order-k subgroup of GF(q).

    (q, k) must pass starter_cofactor. `alpha` overrides the canonical
    generator (see _generator), which changes the character table but
    never the design outcome.
    """
    e = starter_cofactor(spec.q, k)
    alpha = _generator(spec, alpha)
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
    """base**exp % mod elementwise by left-to-right square-and-multiply on
    int64 arrays; exp and mod broadcast against base, and exp 0 gives 1.
    Exact for mod <= 2**31, where every product stays below 2**62. Each
    step squares in place and multiplies by base only where the row's
    exponent bit is set, into three buffers allocated once."""
    base = np.asarray(base % mod, dtype=np.int64)
    exp = np.asarray(exp, dtype=np.int64)
    result = np.ones(np.broadcast_shapes(base.shape, exp.shape, np.shape(mod)), np.int64)
    bit = np.empty(exp.shape, dtype=np.int64)
    mask = np.empty(exp.shape, dtype=bool)
    for i in reversed(range(int(exp.max(initial=0)).bit_length())):
        np.multiply(result, result, out=result)
        np.remainder(result, mod, out=result)
        np.right_shift(exp, i, out=bit)
        np.bitwise_and(bit, 1, out=bit)
        np.not_equal(bit, 0, out=mask)
        np.multiply(result, base, out=result, where=mask)
        np.remainder(result, mod, out=result, where=mask)
    return result


def _order_k_elements(k: int, qs: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Per row, an element of order k in GF(q)* for prime q = k*e + 1: the
    first y = x**e, x = 2, 3, ..., with y**(k/r) != 1 for every prime
    r | k (y**k = x**(q-1) = 1 holds already). A primitive root x < q
    always qualifies, so no factorisation of q - 1 is needed.

    x = 2 alone, then x = 3..10, 11..18, ..., eight at a time, are the
    columns of one power over the rows still left, and a row takes its
    first column that qualifies, so beta is the first x's on every row.
    """
    beta = np.zeros_like(qs)
    todo = np.arange(qs.size)
    groups = itertools.chain([(2,)], (range(x, x + 8) for x in itertools.count(3, 8)))
    while todo.size:
        q, ex = qs[todo, None], e[todo, None]
        y = _powmod(np.array(next(groups)), ex, q)
        ok = np.ones(y.shape, dtype=bool)
        for r, _ in gf.factorize(k):
            ok &= _powmod(y, k // r, q) != 1
        rows = np.flatnonzero(ok.any(axis=1))
        beta[todo[rows]] = y[rows, ok[rows].argmax(axis=1)]
        todo = np.delete(todo, rows)
    return beta


def _is_square(a: np.ndarray, q) -> np.ndarray:
    """Whether the Jacobi symbol (a | q) is 1, elementwise for odd q < 2**31
    and a prime to q: chi(a) for a prime q. By binary reciprocity (Cohen,
    1.4.2), the sign in bit 1 of t: strip a's 2^v, v the float64 exponent
    of its lowest bit, flip for odd v if n = 3, 5 (mod 8) and if
    a = n = 3 (mod 4), then (a, n) <- (n mod a, a). A finished row (a = 0,
    lowest bit 2**40) runs on as a no-op; live rows are compacted every 8
    steps (every 4 took as long and left more heap behind)."""
    x, n = (np.array(y, dtype=np.int64).ravel() for y in np.broadcast_arrays(a % q, q))
    t, out, rows = np.zeros_like(x), np.zeros_like(x), np.arange(x.size)
    with np.errstate(divide="ignore"):
        while rows.size:
            for _ in range(8):
                low = (x | 2**40) & -(x | 2**40)
                v = (low.astype(np.float64).view(np.int64) >> 52) - 1023
                x >>= v
                t ^= (((n >> 1) ^ n) & (v << 1)) ^ (x & n)
                x, n = n % x, x
            live = x != 0
            out[rows[~live]] = t[~live]
            rows, x, n, t = rows[live], x[live], n[live], t[live]
    return (out & 2 == 0).reshape(np.broadcast_shapes(np.shape(a), np.shape(q)))


def _cofactors(k: int, qs: np.ndarray) -> np.ndarray:
    """starter_cofactor at every q of the int64 array qs at once: the
    cofactors e = (q-1)/k, or starter_cofactor's own error for the first
    q that fails its rule."""
    e, rem = np.divmod(qs - 1, k)
    bad = (k <= 3) | (k >= qs - 1) | (rem != 0) | ((e % 2 == 0) & (qs % 4 != 1))
    for q in qs[bad].tolist():
        starter_cofactor(q, k)
    return e


@lru_cache(maxsize=256)
def _euler_plan(k: int) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """How _prime_tables fills the columns 1 <= m < k/2 of an order-k
    table (m <= k/2 for odd k): the character (_is_square) gives the
    ascending basis columns, then each step (c, a, b) sets t[c] = t[a]*t[b].
    For odd k every column is in the basis.

    For even k, beta^(k/2) = -1 splits 1 - beta^(2m) into
    (1 - beta^m)(1 - beta^(m + k/2)), the doubling relation of cyclotomic
    units (Washington, Cyclotomic Fields, ch. 8), which the symmetry
    t[k-m] = t[m] folds into 1 <= m <= k/2. Column 2j is column j of the
    order-k/2 table of beta^2, so the plan of k/2 with every index doubled
    gives the even columns. For odd k/2, each odd m has k/2 - m even and
    t[m] = t[min(2m, k - 2m)] * t[k/2 - m]. For even k/2, k/2 - m is odd
    too: each odd m <= k/4 joins the basis and t[k/2 - m] = t[2m] * t[m].
    That is k // 4 basis columns, the dimension of the tables the two
    identities allow, less chi(2).
    """
    half = k // 2
    if k % 2:
        return tuple(range(1, half + 1)), ()
    sub_basis, sub_steps = _euler_plan(half)
    basis = [2 * m for m in sub_basis]
    steps = [(2 * c, 2 * a, 2 * b) for c, a, b in sub_steps]
    if half % 2:
        steps += [(m, min(2 * m, k - 2 * m), half - m) for m in range(1, half, 2)]
    else:
        basis += range(1, half // 2 + 1, 2)
        steps += [(half - m, 2 * m, m) for m in range(1, half // 2, 2)]
    return tuple(sorted(basis)), tuple(steps)


def _prime_tables(k: int, qs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per prime q of qs: the cofactor e, an element beta of order k and
    the table t[m] = chi(1 - beta^m) (t[:, 0] = 0), as int64 arrays.
    Each q must pass starter_cofactor and gf.check_size. Primality is not
    checked here: the callers take qs from a sieve. For k = 2 (mod 4) the
    search runs at the odd order k/2, for the root rho = beta^2, and beta
    is -rho^((k+2)/4), the square root of rho whose (k/2)-th power is -1.

    Only m <= k/2 is decided: with an even cofactor beta is a square and
    chi(-1) = 1 (q = 1 mod 4), so t[k-m] = chi(-beta^-m (1 - beta^m)) =
    t[m]. The Jacobi symbol, _is_square, runs on the basis columns of
    _euler_plan only, and its steps give the rest; for even k, t[k/2] =
    chi(2), which q mod 8 gives. Odd-cofactor rows, where the symmetry may
    fail, are true in decide_prime_batch regardless of their table.
    """
    qs = np.asarray(qs, dtype=np.int64)
    e = _cofactors(k, qs)
    gf.check_size(qs.max(initial=0))
    g = 2 if k % 4 == 2 else 1  # k = 2 (mod 4): every basis column is even
    root = _order_k_elements(k // g, qs, g * e)  # beta^g
    beta = root if g == 1 else qs - _powmod(root, (k + 2) // 4, qs)
    basis, steps = _euler_plan(k)
    col = {m: j for j, m in enumerate(basis)}
    x = np.empty((qs.size, len(basis)), dtype=np.int64)  # 1 - beta^m, m in basis
    power = np.ones_like(qs)
    for m in range(g, basis[-1] + 1, g):
        power = power * root % qs
        if m in col:
            x[:, col[m]] = 1 - power
    t = np.zeros((qs.size, k), dtype=np.int64)  # t[:, 0] = 0 drops zero gaps
    t[:, basis] = np.where(_is_square(x, qs[:, None]), 1, -1)
    for c, a, b in steps:
        t[:, c] = t[:, a] * t[:, b]
    if k % 2 == 0:
        t[:, k // 2] = np.where(np.isin(qs % 8, (1, 7)), 1, -1)
    half = k // 2 + 1
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


def decide_pair_batch(k: int, qs) -> np.ndarray:
    """decide_prime_batch at k and at 2k, as the columns of a (rows, 2)
    bool array, at every prime q = 1 (mod 4k) of qs at once, from the
    order-2k table alone (_pair_tables). Both cofactors are even there."""
    _, _, tk, t2k = _pair_tables(k, qs)
    return np.column_stack([_signed_count(tk) == 0, _signed_count(t2k) == 0])


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


def subfield_degrees(p: int, n: int, k: int) -> tuple[int, int]:
    """(d, m), d = ord_k(p) and n = d*m, for the order-k subgroup of GF(p^n),
    which lies in GF(p^d). By transitivity of the norm (Lidl & Niederreiter,
    ch. 2), chi_{p^n} = chi_{p^d}^m there: the table of (p^n, k) is all +1
    for even m and that of (p^d, k) for odd m."""
    d = next(d for d in itertools.count(1) if pow(p, d, k) == 1)
    return d, n // d


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
    """The reduced character sequence deciding the design property: the
    chi table at the basis of _euler_plan, then chi(2) = t[k/2] for even
    k, so its entries decide every other column.

    convention 'odd' (k odd): entries chi(1-beta^m) for m = 1..(k-1)/2.
    convention 'even2mod4' (k = 2 mod 4): chi(1-beta^m) for even
    m = 2, 4, ..., k/2-1, then chi(2). No sequence exists for k = 0 mod 4.
    """

    entries: tuple[int, ...]
    convention: str


def char_sequence(ctx: StarterContext) -> CharSequence:
    k, t = ctx.k, ctx.chi_table
    if k % 4 == 0:
        raise ValueError("no character sequence is defined for k = 0 mod 4")
    entries = [t[m] for m in _euler_plan(k)[0]]
    if k % 2 == 0:
        entries.append(t[k // 2])  # beta^(k/2) = -1, so t[k/2] = chi(2)
    return CharSequence(tuple(entries), "odd" if k % 2 else "even2mod4")


# ---------------------------------------------------------------------------
# the k in {5, 10} equivalences (q = 1 mod 20)


@dataclass(frozen=True)
class Thm510Conditions:
    """The seven equivalent design tests at k in {5, 10}.

    c6/c7 are the integer-representation tests, defined for prime q only
    (None otherwise). All applicable values agree for every valid q; a
    disagreement would falsify the implementation, not the input. On
    GF(p^n), c1..c5 are GF(p)'s for odd n and false for even n.
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
        return [c for c in astuple(self)[1:] if c is not None]


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


def thm510_conditions(spec: gf.FieldSpec, alpha: int | None = None) -> Thm510Conditions:
    """Evaluate all seven design characterizations for k in {5, 10}.

    Requires q = 1 (mod 20). Every value is read off a thm510_batch row;
    an explicit alpha is checked (_generator), but no value depends on it.
    On GF(p) the answer is the row of p; on GF(p^n), n >= 2, c1..c5 are
    the row of p's first five for odd n and all false for even n.

    Why: beta of order 5 lies in GF(p^d), d = ord_5(p) in {1, 2, 4}, and
    d | n as q = 1 (mod 5). For a in GF(p^d), chi_q(a) = chi_{p^d}(a)^(n/d)
    by transitivity of the norm (Lidl & Niederreiter, ch. 2). c1..c5 read
    only such characters; c3, c4 and c5 are each the test
    chi_q(1 + beta) = -1, since 5^((q-1)/4) = chi_q(s) for the root
    s = beta(1-beta)^2(1+beta) of 5, and the root 2(beta + beta^4) + 3 of
    x^2 - 4x - 1 is phi^3, phi = 1 + beta + beta^4 = -beta^2 (1 + beta).
    If n is odd, then d = 1 and p = 1 (mod 20), so each character is its
    value in GF(p). If n/d is even, each is +1 and every test fails. If d
    is 2 or 4, p^(d/2) = -1 (mod 5), the unitary case: the tables are
    c*u^m with c, u = +-1, so the signed counts are +-C(k,3) != 0, and
    chi(1 + beta) = beta^(-(p^(d/2)+1)/2) = 1.
    """
    if spec.q % 20 != 1:
        raise ValueError(f"q = {spec.q} is not 1 mod 20")
    _generator(spec, alpha)
    if spec.n == 1:
        return Thm510Conditions(spec.q, *thm510_batch([spec.q])[0].tolist())
    c = thm510_batch([spec.p])[0, :5].tolist() if spec.n % 2 else [False] * 5
    return Thm510Conditions(spec.q, *c, None, None)


def _least_nonresidue(qs: np.ndarray) -> np.ndarray:
    """The least quadratic non-residue, a prime below sqrt(q) + 1 and so in
    gf._small_primes(), of every prime q = 1 (mod 4) of the int64 array
    qs, with no power: chi(2) = -1 exactly when q = 5 (mod 8), and for odd
    primes x, chi(x) = (q mod x | x) by reciprocity, a lookup mod x."""
    x = np.where(qs % 8 == 5, 2, 0)
    for p in gf._small_primes()[1:]:
        left = np.flatnonzero(x == 0)
        if not left.size:
            break
        x[left[np.bincount(np.arange(p) ** 2 % p, minlength=p)[qs[left] % p] == 0]] = p
    return x


def thm510_batch(qs) -> np.ndarray:
    """thm510_conditions(...).values() at every prime q = 1 (mod 20) of
    qs at once, as a (rows, 7) bool array, from the order-10 table alone
    (_pair_tables). c3 is t_10[7], since 1 + beta = 1 + beta_10^2 =
    1 - beta_10^7 (beta_10^5 = -1). c4 is two Jacobi symbols and c5 one
    power, with s = beta(1-beta)^2(1+beta) the root of 5, so 2 +- s are the
    roots of x^2 - 4x - 1; none of c3..c5 depends on which beta is found.
    c6/c7 are Cornacchia descents with the roots 2*i*s of -20 and 10*i of
    -100, i = x^((q-1)/4) for the least non-residue x, a root of -1.
    """
    q, beta, t5, t10 = _pair_tables(5, qs)  # refuses odd q other than 1 mod 20
    s = beta * (1 - beta) % q * (1 - beta) % q * (1 + beta) % q
    roots = ((2 + s) % q, (2 - s) % q)
    assert np.all(s * s % q == 5)
    i = _powmod(_least_nonresidue(q), (q - 1) // 4, q)
    return np.column_stack([
        _signed_count(t5) == 0,
        _signed_count(t10) == 0,
        t10[:, 7] == -1,
        ~_is_square(np.column_stack(roots), q[:, None]).all(axis=1),
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
