"""Tests for orbit expansion, coverage verification, and serialization."""

import dataclasses
import math

import numpy as np
import pytest

from psldesigns import design, gf, projline, search, starter

from scalar_oracles import canonicalize


@pytest.fixture(scope="module")
def d13(f13):
    return design.build_design(f13, 4)


@pytest.fixture(scope="module")
def d17(f17):
    return design.build_design(f17, 4)


def _block(spec, k):
    return starter.make_starter_context(spec, k).block


def _same_design(a, b):
    """Every field equal, the blocks by np.array_equal."""
    fields = ("q", "k", "lam", "is_design")
    return [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields] and (
        np.array_equal(a.blocks, b.blocks)
    )


# --- oracles: the tuple-and-set orbit closure and the nested-loop coverage
# counters that the array path replaced; they share no code with it


def _oracle_orbit(spec, block):
    """The orbit as a sorted list of sorted point tuples, by breadth-first
    closure over a set of tuples."""
    perms = [projline.point_permutation(spec, g) for g in projline.psl_generators(spec)]
    start = tuple(sorted(block))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for blk in frontier:
            for perm in perms:
                img = tuple(sorted(perm[z] for z in blk))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return sorted(seen)


def _oracle_counts(v, blocks, t):
    """Coverage count per t-subset of range(v), colex-ranked, by nested
    loops over each block's pairs or triples."""
    counts = [0] * math.comb(v, t)
    c2 = [math.comb(y, 2) for y in range(v)]
    c3 = [math.comb(z, 3) for z in range(v)]
    for blk in blocks:
        if t == 2:
            for yi in range(1, len(blk)):
                for xi in range(yi):
                    counts[c2[blk[yi]] + blk[xi]] += 1
            continue
        for zi in range(2, len(blk)):
            for yi in range(1, zi):
                for xi in range(yi):
                    counts[c3[blk[zi]] + c2[blk[yi]] + blk[xi]] += 1
    return counts


def _valid_pairs(q_max):
    """Every (q, k) with a valid starter, q <= q_max prime or prime power."""
    pairs = []
    for p, _, q in search.enumerate_prime_powers(q_max):
        if p == 2:
            continue
        spec = gf.field_for_order(q)
        for k in range(1, q):
            try:
                starter.make_starter_context(spec, k)
            except ValueError:
                continue
            pairs.append((q, k))
    return pairs


SMALL_PAIRS = _valid_pairs(50)


def test_small_pairs_cover_primes_and_prime_powers():
    qs = {q for q, _ in SMALL_PAIRS}
    assert {9, 25, 49} <= qs and {13, 17, 29, 37, 41} <= qs
    assert len(SMALL_PAIRS) >= 30


@pytest.mark.parametrize(("q", "k"), SMALL_PAIRS)
def test_array_path_matches_oracles(q, k):
    spec = gf.field_for_order(q)
    block = _block(spec, k)
    want = _oracle_orbit(spec, block)
    blocks = design.expand_orbit(spec, block)
    assert blocks.dtype == np.int64 and blocks.flags.c_contiguous
    assert blocks.tolist() == [list(blk) for blk in want]
    for t in (2, 3):
        counts = _oracle_counts(q + 1, want, t)
        flat = counts[0] if len(set(counts)) == 1 else None
        assert design.verify_t_design(blocks, t) == flat, t
        assert design._coverage_counts(blocks, t, q + 1, 7).tolist() == counts, t


def test_coverage_counts_do_not_depend_on_the_chunk_size(f41, f9):
    for spec, k in ((f41, 10), (f41, 5), (f9, 4)):
        blocks = design.expand_orbit(spec, _block(spec, k))
        for t in (2, 3):
            runs = [design._coverage_counts(blocks, t, spec.q + 1, n) for n in (1, 7, 10**6)]
            assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])


def test_coverage_counts_add_int64_counts_through_intp_ranks(f41, monkeypatch):
    """np.add.at keeps its fast path only with int64 counts and intp
    ranks; into int32 counts it takes about 25 times as long per add."""
    added = []

    class Add:
        def __call__(self, *args, **kwargs):
            return np.add(*args, **kwargs)

        def at(self, counts, ranks, value):
            added.append((counts.dtype, ranks.dtype))
            np.add.at(counts, ranks, value)

    class Numpy:  # numpy, with np.add.at recorded
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    blocks = design.expand_orbit(f41, _block(f41, 10))
    monkeypatch.setattr(design, "np", Numpy())
    for t in (2, 3):
        added.clear()
        assert design._coverage_counts(blocks, t, 42, 100).dtype == np.int64
        assert len(added) == -(-len(blocks) // 100), t
        assert set(added) == {(np.dtype(np.int64), np.dtype(np.intp))}, t


def test_expand_orbit_13_4(f13):
    blocks = design.expand_orbit(f13, _block(f13, 4))
    assert blocks.shape == (273, 4)
    rows = [tuple(blk) for blk in blocks.tolist()]
    assert rows == sorted(set(rows))
    assert (blocks[:, 1:] > blocks[:, :-1]).all()
    assert blocks.min() >= 0 and blocks.max() <= 13


def test_expand_orbit_order_insensitive(f13):
    blk = _block(f13, 4)
    shuffled = (blk[2], blk[0], blk[3], blk[1])
    assert np.array_equal(design.expand_orbit(f13, blk), design.expand_orbit(f13, shuffled))


def test_expand_orbit_rejects_repeats(f13):
    with pytest.raises(ValueError):
        design.expand_orbit(f13, (1, 1, 2, 3))


def test_expand_orbit_budget(f13, monkeypatch):
    """PSL_DESIGNS_BUDGET is the one setting of the budget: an orbit of
    exactly the budget expands, one block more is refused."""
    blk = _block(f13, 4)
    b = len(design.expand_orbit(f13, blk))
    monkeypatch.setenv("PSL_DESIGNS_BUDGET", str(b))
    assert len(design.expand_orbit(f13, blk)) == b
    monkeypatch.setenv("PSL_DESIGNS_BUDGET", str(b - 1))
    with pytest.raises(RuntimeError, match=f"budget of {b - 1}"):
        design.expand_orbit(f13, blk)
    monkeypatch.setenv("PSL_DESIGNS_BUDGET", "10")
    with pytest.raises(RuntimeError, match="budget"):
        design.expand_orbit(f13, blk)
    monkeypatch.setenv("PSL_DESIGNS_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        design.expand_orbit(f13, blk)


def test_expand_orbit_budget_lower_bound(monkeypatch):
    """The orbit of (9, 4) has 15 blocks, exactly the lower bound
    C(10, 3) / (2 * C(4, 3)) that the early refusal uses: a budget of 15
    builds it, and 14 refuses it before any permutation is built."""
    spec = gf.field_for_order(9)
    monkeypatch.setenv("PSL_DESIGNS_BUDGET", "15")
    assert design.build_design(spec, 4).b == 15
    monkeypatch.setenv("PSL_DESIGNS_BUDGET", "14")

    def no_permutation(spec, g):
        raise AssertionError("built a point permutation")

    monkeypatch.setattr(projline, "point_permutation", no_permutation)
    with pytest.raises(RuntimeError, match="budget of 14$"):
        design.build_design(spec, 4)


def test_verify_t_design_frozen(d13, d17):
    assert design.verify_t_design(d13.blocks, 3) == 3
    assert design.verify_t_design(d13.blocks, 2) == 18
    assert design.verify_t_design(d17.blocks, 3) is None
    assert design.verify_t_design(d17.blocks, 2) == 12


def test_verify_t_design_counting_identity(d13):
    lam2 = design.verify_t_design(d13.blocks, 2)
    assert d13.b * math.comb(4, 2) == lam2 * math.comb(14, 2)


def test_verify_t_design_validation(d13):
    with pytest.raises(ValueError):
        design.verify_t_design(d13.blocks, 4)
    with pytest.raises(ValueError):
        design.verify_t_design([], 3)
    with pytest.raises(ValueError, match="recount cap"):
        design.verify_t_design(d13.blocks, 3, v=10**6)
    with pytest.raises(ValueError, match="recount cap"):
        design.verify_t_design([(0, 1)], 3)
    # blocks smaller than t cover nothing: refused, not a design with lambda 0
    with pytest.raises(ValueError, match="no 2-subsets"):
        design.verify_t_design([(0,), (1,)], 2)
    with pytest.raises(ValueError, match="outside the range 0..3"):
        design.verify_t_design([(0, 1, 4)], 3, v=4)
    # the largest orbits the benchmark builds (q = 181) stay under the cap
    assert math.comb(182, 3) <= design.MAX_RECOUNT_SUBSETS


def test_build_design_13_4(d13):
    assert (d13.q, d13.k, d13.lam, d13.b, d13.v) == (13, 4, 3, 273, 14)
    assert d13.is_design
    assert design.verify_design(d13)


def test_build_design_non_design(d17):
    assert (d17.q, d17.k, d17.lam, d17.b) == (17, 4, 0, 306)
    assert not d17.is_design
    assert design.verify_design(d17)


def test_build_design_41_10(f41):
    d = design.build_design(f41, 10)
    assert (d.v, d.k, d.lam, d.b) == (42, 10, 18, 1722)
    assert d.is_design
    assert design.verify_design(d)


def test_build_design_odd_cofactor_k8(f41):
    # e = 5 is odd, so the order-8 subgroup starts a design
    d = design.build_design(f41, 8)
    assert (d.lam, d.b, d.is_design) == (21, 4305, True)
    assert design.verify_design(d)


def test_build_design_q_3_mod_4(f13):
    f19 = gf.make_prime_field(19)
    d = design.build_design(f19, 6)
    assert (d.v, d.lam, d.b, d.is_design) == (20, 10, 570, True)
    assert design.verify_design(d)


def test_verify_design_catches_tampering(d13):
    # duplicate one block in place of another: coverage goes non-flat
    blocks = d13.blocks.copy()
    blocks[0] = blocks[1]
    assert not design.verify_design(dataclasses.replace(d13, blocks=blocks))
    # wrong lambda
    assert not design.verify_design(dataclasses.replace(d13, lam=4))
    # claiming non-design over actually flat blocks
    assert not design.verify_design(
        dataclasses.replace(d13, lam=0, is_design=False)
    )
    # unsorted block
    blocks = d13.blocks.copy()
    blocks[0] = blocks[0][::-1]
    assert not design.verify_design(dataclasses.replace(d13, blocks=blocks))
    # every block twice: flat coverage with lambda doubled, but an orbit
    # never repeats a block
    twice = dataclasses.replace(d13, lam=6, blocks=np.repeat(d13.blocks, 2, axis=0))
    assert design.verify_t_design(twice.blocks, 3) == 6
    assert not design.verify_design(twice)


# (q, k) -> the order of the order-k subgroup block's stabilizer in
# PSL(2,q), |PSL(2,q)| / b by orbit counting
STABILIZER_ORDERS = {
    (13, 4): 4,
    (17, 4): 8,
    (41, 5): 10,
    (41, 10): 20,
    (19, 6): 6,
    (9, 4): 24,
}


def test_stabilizer_order_frozen():
    """|PSL(2,q)| = q(q^2 - 1)/2 is b, the length of the expanded orbit,
    times the recorded stabilizer order."""
    for (q, k), order in STABILIZER_ORDERS.items():
        spec = gf.field_for_order(q)
        b = len(design.expand_orbit(spec, _block(spec, k)))
        assert q * (q * q - 1) // 2 == b * order


@pytest.mark.parametrize(("q", "k"), list(STABILIZER_ORDERS))
def test_block_stabilizer(q, k):
    """The scalings z -> cz and inversions z -> c/z with c in the block,
    kept when their determinant (c, resp. -c) is a square, stabilize the
    block; for k < p they are the whole stabilizer, dihedral of order k
    (odd cofactor) or 2k (even), of the order recorded above. They are
    transitive on the block's points, which with block-transitivity makes
    the design flag-transitive, except at (13, 4)."""
    spec = gf.field_for_order(q)
    block = _block(spec, k)

    elems = set()
    for c in block:
        if gf.chi(spec, c) == 1:
            elems.add(canonicalize(spec, c, 0, 0, 1))
        if gf.chi(spec, gf.neg(spec, c)) == 1:
            elems.add(canonicalize(spec, 0, c, 1, 0))
    perms = [projline.point_permutation(spec, g) for g in elems]
    for pm in perms:
        assert {pm[z] for z in block} == set(block)
    if k < spec.p:
        assert len(elems) == STABILIZER_ORDERS[q, k]

    orbit, frontier = {1}, [1]
    while frontier:
        z = frontier.pop()
        for pm in perms:
            if pm[z] not in orbit:
                orbit.add(pm[z])
                frontier.append(pm[z])
    assert (orbit == set(block)) == ((q, k) != (13, 4))


def test_format_parse_round_trip(d13, d17):
    for d in (d13, d17):
        text = design.format_design(d)
        back = design.parse_design(text)
        rows = np.array(sorted(map(tuple, d.blocks.tolist())))
        assert _same_design(back, dataclasses.replace(d, blocks=rows))
        # rows are written in lexicographic order whatever order they are in
        reordered = dataclasses.replace(d, blocks=d.blocks[::-1][np.r_[1:d.b, 0]])
        assert design.format_design(reordered) == text
    head = design.format_design(d13).splitlines()[0]
    assert head == "14 4 3 273"
    assert design.format_design(d17).splitlines()[1] == design.NON_DESIGN_FLAG


def test_write_read_round_trip(tmp_path, d13):
    path = tmp_path / "out.txt"
    design.write_design(d13, str(path))
    assert _same_design(design.read_design(str(path)), d13)


def test_parse_errors(d13):
    with pytest.raises(ValueError, match="empty"):
        design.parse_design("")
    with pytest.raises(ValueError, match="malformed header"):
        design.parse_design("14 4 3\n")
    with pytest.raises(ValueError, match="malformed header"):
        design.parse_design("14 4 three 273\n")
    with pytest.raises(ValueError, match="expected 2 blocks"):
        design.parse_design("5 3 1 2\n0 1 2\n")
    with pytest.raises(ValueError, match="block of size"):
        design.parse_design("5 3 1 1\n0 1 2 3\n")
    with pytest.raises(ValueError, match="disagree"):
        design.parse_design("5 3 1 1\nNOT-A-3-DESIGN\n0 1 2\n")
    with pytest.raises(ValueError, match="disagree"):
        design.parse_design("5 3 0 1\n0 1 2\n")
    with pytest.raises(ValueError, match="invalid literal for int"):
        design.parse_design("5 3 1 1\n0 x 2\n")
    # a header block count is checked against the lines, never allocated
    with pytest.raises(ValueError, match="expected 10000000000000 blocks, found 1"):
        design.parse_design("5 3 1 10000000000000\n0 1 2\n")
    # a token beyond int64 is refused, not saturated or wrapped
    with pytest.raises(ValueError, match="block 2 has a point outside the range 0..4: 1 2 9{20}$"):
        design.parse_design("5 3 1 2\n0 1 2\n1 2 99999999999999999999\n")
    # Python's int reads 1_0 as 10, numpy does not: refused, not misread
    with pytest.raises(ValueError, match="blocks 1..1 are not whitespace-separated"):
        design.parse_design("12 3 1 1\n0 1_0 11\n")


def test_text_chunks_do_not_change_format_or_parse(d13, d17, monkeypatch):
    texts = [design.format_design(d) for d in (d13, d17)]
    lines = texts[0].splitlines()
    lines[100] = "0 1 2 99999999999999999999"
    bad = "\n".join(lines)
    for size in (1, 7, 64):
        monkeypatch.setattr(design, "TEXT_CHUNK_CHARS", size)
        for d, text in zip((d13, d17), texts):
            assert design.format_design(d) == text
            assert _same_design(design.parse_design(text), d)
        with pytest.raises(ValueError, match="block 100 has a point outside"):
            design.parse_design(bad)
