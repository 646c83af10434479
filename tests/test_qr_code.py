"""The paper's q = 41, k = 10 design against coding theory: its 1,722
blocks are the weight-10 words of the extended binary quadratic-residue
code of length 42, the 3-(42, 10, 18) design of Bonnecaze and Sole. The
code is built here from its definition (MacWilliams and Sloane, ch. 16),
with no projline, design or starter code, so the test checks the orbit
expansion, b, lambda, the point order and the file format in one go."""

import numpy as np

from psldesigns import design, gf

P = 41

# the weight distribution of the [42, 21, 10] code
WEIGHTS = {
    0: 1, 10: 1722, 12: 10619, 14: 49815, 16: 157563, 18: 341530, 20: 487326,
    22: 487326, 24: 341530, 26: 157563, 28: 49815, 30: 10619, 32: 1722, 42: 1,
}


def _extended_qr_words() -> np.ndarray:
    """Every word of the extended code as a uint64 bitmask, bit z for the
    point z of GF(41) and bit 41 for infinity, the overall parity bit.
    The cyclic code is spanned by the 41 shifts of the idempotent
    1 + sum of x^n over the non-residues n mod 41; a GF(2) echelon basis
    (each word reduced by every basis word whose leading bit it has) gives
    its dimension, and all sums of basis words its words."""
    residues = {x * x % P for x in range(1, P)}
    idem = 1 | sum(1 << n for n in range(1, P) if n not in residues)
    full = (1 << P) - 1
    basis = []
    for s in range(P):
        w = ((idem << s) | (idem >> (P - s))) & full
        w |= (bin(w).count("1") % 2) << P
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis = sorted(basis + [w], reverse=True)
    assert len(basis) == 21
    words = np.zeros(1, dtype=np.uint64)
    for b in basis:
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
