"""The paper's q = 41, k = 10 design against coding theory: its 1,722
blocks are the weight-10 words of the extended binary quadratic-residue
code of length 42, the 3-(42, 10, 18) design of Bonnecaze and Sole. The
code is built here from its definition (MacWilliams and Sloane, ch. 16),
with no projline, design or starter code, so the test checks the orbit
expansion, b, lambda, the point order and the file format in one go.
A census over the primes p = +-1 (mod 8) below 400 shows that q = 41 is
the only starter block among the QR codes' subgroup words that gives a
design."""

import math
from collections import Counter

import numpy as np

from psldesigns import design, gf, starter

P = 41

# the weight distribution of the [42, 21, 10] code
WEIGHTS = {
    0: 1, 10: 1722, 12: 10619, 14: 49815, 16: 157563, 18: 341530, 20: 487326,
    22: 487326, 24: 341530, 26: 157563, 28: 49815, 30: 10619, 32: 1722, 42: 1,
}


def _reduce(w: int, basis: dict[int, int]) -> int:
    """w less every basis word whose leading bit it has in turn: 0 exactly
    when w lies in the span, as the basis words' leading bits differ."""
    while w and (b := basis.get(w.bit_length() - 1)):
        w ^= b
    return w


def _echelon(words) -> dict[int, int]:
    """A GF(2) echelon basis of the span of bitmask words, each basis word
    keyed by its leading bit."""
    basis = {}
    for w in words:
        w = _reduce(w, basis)
        if w:
            basis[w.bit_length() - 1] = w
    return basis


def _extended_qr_basis(p: int, nonresidues: bool = True) -> dict[int, int]:
    """An echelon basis of an extended binary QR code of length p + 1, bit
    z for the point z of GF(p) and bit p for infinity, the overall parity
    bit. The cyclic code is spanned by the p shifts of 1 + sum of x^n over
    the non-residues n mod p, or over the residues."""
    residues = {x * x % p for x in range(1, p)}
    idem = 1 | sum(1 << n for n in range(1, p) if (n in residues) != nonresidues)
    full = (1 << p) - 1
    shifts = []
    for s in range(p):
        w = ((idem << s) | (idem >> (p - s))) & full
        shifts.append(w | (w.bit_count() % 2) << p)
    return _echelon(shifts)


def _extended_qr_words() -> np.ndarray:
    """Every word of the extended code of length 42 as a uint64 bitmask:
    all sums of its basis words, whose count gives its dimension."""
    basis = _extended_qr_basis(P)
    assert len(basis) == 21
    words = np.zeros(1, dtype=np.uint64)
    for b in basis.values():
        words = np.concatenate([words, words ^ np.uint64(b)])
    return words


def _block_masks(blocks: np.ndarray) -> np.ndarray:
    return np.sort(np.bitwise_or.reduce(np.uint64(1) << blocks.astype(np.uint64), axis=1))


def test_q41_design_is_the_weight_10_words_of_the_extended_qr_code():
    words = _extended_qr_words()
    weight = np.bitwise_count(words)
    assert dict(zip(*np.unique(weight, return_counts=True))) == WEIGHTS
    want = np.sort(words[weight == 10])
    built = design.build_design(gf.field_for_order(P), 10)
    assert (built.b, built.lam, built.is_design) == (1722, 18, True)
    assert _block_masks(built.blocks).tolist() == want.tolist()
    parsed = design.parse_design(design.format_design(built))
    assert (parsed.q, parsed.k, parsed.lam, parsed.b) == (P, 10, 18, 1722)
    assert _block_masks(parsed.blocks).tolist() == want.tolist()


def test_subgroup_words_census_finds_one_design():
    """For every prime p = +-1 (mod 8) with 17 <= p < 400 and every k that
    passes starter_cofactor, the order-k subgroup of GF(p)*, as a word
    with its parity bit at infinity, is looked up in both extended QR
    codes. 25 of the 163 words lie in a code, all in the non-residue one:
    the residues themselves (cofactor 2) at the 15 primes p = 1 (mod 8),
    k = (p - 1)/4 at 7 primes, and cofactors 6 and 8 at three pairs.
    decide_prime_batch finds a design at (41, 10) alone, so Bonnecaze and
    Sole's q = 41 design is one coincidence, not a family."""
    primes = [p for p in range(17, 400) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    found, tested = {}, 0
    for p in (p for p in primes if p % 8 in (1, 7)):
        codes = [_extended_qr_basis(p, nonresidues) for nonresidues in (True, False)]
        for k in range(4, p - 1):
            try:
                e = starter.starter_cofactor(p, k)
            except ValueError:
                continue
            tested += 1
            word = sum(1 << x for x in range(1, p) if pow(x, k, p) == 1) | (k % 2) << p
            lies_in = tuple(_reduce(word, code) == 0 for code in codes)
            if any(lies_in):
                found[p, k] = e, lies_in
    assert tested == 163 and len(found) == 25
    assert {lies_in for _, lies_in in found.values()} == {(True, False)}
    assert Counter(e for e, _ in found.values()) == {2: 15, 4: 7, 6: 2, 8: 1}
    assert {p for (p, _), (e, _) in found.items() if e == 2} == {p for p in primes if p % 8 == 1}
    designs = [(p, k) for p, k in found if starter.decide_prime_batch(k, np.array([p]))[0]]
    assert designs == [(41, 10)]
