"""Tests for orbit expansion, coverage verification, and serialization."""

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from psldesigns import design, gf, projline, search, starter

from scalar_oracles import canonicalize, neg


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
    """Every small starter's orbit takes the transversal route, and equals
    the tuple closure row for row; its coverage equals the nested loops'."""
    spec = gf.field_for_order(q)
    block = _block(spec, k)
    want = _oracle_orbit(spec, block)
    e = design._subgroup_cofactor(spec, np.sort(block))
    assert e == (q - 1) // k and design._transversal_rows(q, e) <= design.DEFAULT_BLOCK_BUDGET
    blocks = design.expand_orbit(spec, block)
    # every small pair has v <= 256, so its points fit in uint8
    assert blocks.dtype == np.uint8 and blocks.flags.c_contiguous
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
    """np.add.at keeps its fast path only with intp ranks and an added
    value of the counts' dtype: the Python scalar 1 is taken as int64,
    so into int32 counts it takes about 25 times as long per add."""
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


def test_expand_orbit_refuses_an_empty_block(f13):
    """An empty list reads as a float array, once refused as not integer,
    and an empty int64 array once failed in numpy's reshape: both are
    refused by name."""
    for block in ([], (), np.array([], dtype=np.int64)):
        with pytest.raises(ValueError, match="^block has no points$"):
            design.expand_orbit(f13, block)


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
    # a budget below one block is bad input, not a budget every orbit exceeds
    for raw in ("0", "-5"):
        monkeypatch.setenv("PSL_DESIGNS_BUDGET", raw)
        with pytest.raises(ValueError, match=f"^PSL_DESIGNS_BUDGET is not a positive integer: '{raw}'$"):
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


def test_expand_orbit_refuses_points_off_the_line(f13, monkeypatch):
    """A point outside range(q + 1) is refused before any permutation is
    built: 261 is not read as 261 mod 256 = 5 in the uint8 point type,
    and -1 does not reach an index. A point that is not an integer is
    refused too, not truncated: 1.5 is not read as 1."""

    def no_permutation(spec, g):
        raise AssertionError("built a point permutation")

    with monkeypatch.context() as mp:
        mp.setattr(projline, "point_permutation", no_permutation)
        for block in ([0, 1, 261], [-1, 0, 1], [0, 1, 14]):
            with pytest.raises(ValueError, match=r"^block points must lie in range\(14\)$"):
                design.expand_orbit(f13, block)
        for block in ([0, 1.5, 5], [0.0, 1.0, 5.0], np.array([0, 1, 5], dtype=float)):
            with pytest.raises(ValueError, match=r"^block points must be integers$"):
                design.expand_orbit(f13, block)
    # infinity, the largest point, is on the line
    assert design.expand_orbit(f13, [0, 1, 13]).shape == (182, 3)


def _psl_order(q):
    return q * (q * q - 1) // 2


def _dihedral_order(q, k):
    """|D|, the maps z -> hz and, when H and -1 are squares, z -> h/z."""
    return 2 * k if design._squares_only(q, (q - 1) // k) else k


def _both_routes(spec, k):
    """The transversal and the closure orbit of the order-k subgroup."""
    e = (spec.q - 1) // k
    start = np.sort(np.array(gf.encode_rows(spec, gf.power_rows(spec, gf.power(spec, spec.alpha, e), k))))
    assert design._subgroup_cofactor(spec, start) == e
    return design._transversal_orbit(spec, k, e), design._closure_orbit(spec, start, 10**6)


# (q, k) -> |Stab(H)| where the starter subgroup's stabiliser is larger
# than D: the Baer sublines q = q0**2, k = q0 + 1, stabilised by
# PGL(2, q0) of order q0(q0**2 - 1), and k = 4 at q = 9 and 81. These are
# all such starters with q < 200 (198 of them), and with q < 400 for an
# even cofactor and R <= 400,000 (195).
LARGER_STABILISERS = {
    (9, 4): 24,
    (25, 6): 120,
    (49, 8): 336,
    (81, 4): 24,
    (81, 10): 720,
    (121, 12): 1320,
    (169, 14): 2184,
}
# the census of the routes: every starter with q below this bound
ROUTE_CENSUS_Q = 100


def test_transversal_equals_the_closure_on_every_starter_below_the_bound():
    """On every valid (q, k) with q < ROUTE_CENSUS_Q both routes give the
    same array, the transversal's R rows are |PSL(2,q)|/|D|, and b times
    |Stab(H)| is |PSL(2,q)|, with Stab(H) = D except where
    LARGER_STABILISERS says otherwise."""
    pairs = [(q, k) for q, k in _valid_pairs(ROUTE_CENSUS_Q - 1)]
    assert len(pairs) == 78
    for q, k in pairs:
        spec = gf.field_for_order(q)
        transversal, closure = _both_routes(spec, k)
        assert transversal.dtype == closure.dtype and np.array_equal(transversal, closure), (q, k)
        d = _dihedral_order(q, k)
        assert design._transversal_rows(q, (q - 1) // k) * d == _psl_order(q)
        assert len(closure) * LARGER_STABILISERS.get((q, k), d) == _psl_order(q), (q, k)


@pytest.mark.parametrize(("q", "k"), [qk for qk in LARGER_STABILISERS if qk[0] >= ROUTE_CENSUS_Q])
def test_transversal_drops_the_repeats_of_a_larger_stabiliser(q, k):
    """Past the census bound too, on the Baer sublines (121, 12) and
    (169, 14): the transversal makes |Stab(H)|/|D| copies of each block
    and drops them, and equals the closure."""
    spec = gf.field_for_order(q)
    transversal, closure = _both_routes(spec, k)
    assert np.array_equal(transversal, closure)
    assert len(closure) * LARGER_STABILISERS[q, k] == _psl_order(q)
    assert design._transversal_rows(q, (q - 1) // k) * 2 * k == _psl_order(q)


@pytest.mark.parametrize("q", [7, 9, 11, 13, 19, 27, 31])
def test_transversal_equals_the_closure_on_every_subgroup(q):
    """Every subgroup block, starter or not, k from 1 to q - 1: with q = 3
    (mod 4) and an even cofactor, -1 is not a square and every coset is
    taken (_squares_only is false), and the row counts still give
    |PSL(2,q)|/|D|."""
    spec = gf.field_for_order(q)
    for k in (k for k in range(1, q) if (q - 1) % k == 0):
        transversal, closure = _both_routes(spec, k)
        assert np.array_equal(transversal, closure), (q, k)
        rows = design._transversal_rows(q, (q - 1) // k)
        assert rows * _dihedral_order(q, k) == _psl_order(q) and rows % len(closure) == 0


def test_only_the_subgroup_itself_takes_the_transversal(f13, monkeypatch):
    """_subgroup_cofactor reads the subgroup H = {1, 5, 8, 12} of GF(13)*
    (alpha = 2, e = 3) and nothing else: not a coset of it, a block with 0
    or infinity, nor a block of the wrong size. Those are closed, and
    expand_orbit gives what the closure gives."""
    assert design._subgroup_cofactor(f13, np.array([1, 5, 8, 12])) == 3
    others = ([2, 3, 10, 11], [0, 1, 5, 8], [1, 5, 8, 13], [1, 5, 8, 11], [1, 5, 8])
    for block in others:
        assert design._subgroup_cofactor(f13, np.array(block)) == 0, block

    def no_transversal(*args):
        raise AssertionError("took the transversal")

    monkeypatch.setattr(design, "_transversal_orbit", no_transversal)
    for block in others:
        want = _oracle_orbit(f13, block)
        assert design.expand_orbit(f13, block).tolist() == [list(row) for row in want]


def test_a_budget_below_the_transversal_rows_takes_the_closure(monkeypatch):
    """At (169, 14), a Baer subline, b = 1,105 and R = 86,190: a budget of
    10,000 fits the orbit but not the transversal's rows, so the closure
    builds it, and the array is the one the transversal gives under the
    default budget."""
    spec = gf.field_for_order(169)
    block = _block(spec, 14)
    assert design._transversal_rows(169, 12) == 86190
    taken = []

    def spy(name):
        route = getattr(design, name)

        def traced(*args):
            taken.append(name)
            return route(*args)

        return traced

    for name in ("_transversal_orbit", "_closure_orbit"):
        monkeypatch.setattr(design, name, spy(name))
    default = design.expand_orbit(spec, block)
    monkeypatch.setenv("PSL_DESIGNS_BUDGET", "10000")
    budgeted = design.expand_orbit(spec, block)
    assert taken == ["_transversal_orbit", "_closure_orbit"]
    assert len(default) == 1105 and np.array_equal(default, budgeted)


def test_verify_t_design_frozen(d13, d17):
    assert design.verify_t_design(d13.blocks, 3) == 3
    assert design.verify_t_design(d13.blocks, 2) == 18
    assert design.verify_t_design(d17.blocks, 3) is None
    assert design.verify_t_design(d17.blocks, 2) == 12


def test_verify_t_design_counting_identity(d13):
    lam2 = design.verify_t_design(d13.blocks, 2)
    assert d13.b * math.comb(4, 2) == lam2 * math.comb(14, 2)


def test_verify_t_design_validation(d13, d17):
    with pytest.raises(ValueError):
        design.verify_t_design(d13.blocks, 4)
    with pytest.raises(ValueError):
        design.verify_t_design([], 3)
    with pytest.raises(ValueError, match="recount cap"):
        design.verify_t_design(d13.blocks, 3, v=10**6)
    # non-designs past the cap are refused by it, not answered None by
    # divisibility or the one-triple count
    for blocks in (d17.blocks, [(0, 1, 2)]):
        with pytest.raises(ValueError, match="recount cap"):
            design.verify_t_design(blocks, 3, v=10**6)
    with pytest.raises(ValueError, match="recount cap"):
        design.verify_t_design([(0, 1)], 3)
    # blocks smaller than t cover nothing: refused, not a design with lambda 0
    with pytest.raises(ValueError, match="no 2-subsets"):
        design.verify_t_design([(0,), (1,)], 2)
    with pytest.raises(ValueError, match="outside the range 0..3"):
        design.verify_t_design([(0, 1, 4)], 3, v=4)
    with pytest.raises(ValueError, match=r"got shape \(2, 3, 0\)$"):
        design.verify_t_design(np.zeros((2, 3, 0), dtype=int), 3)
    # the largest orbits the benchmark builds (q = 181) stay under the cap
    assert math.comb(182, 3) <= design.MAX_RECOUNT_SUBSETS


def test_verify_t_design_refuses_rows_that_are_not_increasing():
    """A row that is not increasing would be ranked as some other triple:
    refused with check_blocks's message, as are blocks with no columns,
    before v is read off their points."""
    cases = [
        (
            [[0, 0, 1], [0, 1, 2]],
            "block 1 is not 3 distinct points in increasing order: 0 0 1",
        ),
        (
            [[0, 1, 2], [0, 1, 3], [0, 2, 3], [3, 2, 1]],
            "block 4 is not 3 distinct points in increasing order: 3 2 1",
        ),
        (np.zeros((3, 0), dtype=int), "blocks of 0 points contain no 3-subsets"),
    ]
    for blocks, message in cases:
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            design.verify_t_design(np.asarray(blocks), 3)


def test_verify_t_design_refuses_non_integer_blocks(d13):
    """Points are integers: a float, bool, complex or object array is
    refused by its dtype, never truncated to points it does not hold."""
    floats = [[0.5, 1.7, 2.2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    with pytest.raises(ValueError, match="got dtype float64$"):
        design.verify_t_design(floats, 3)
    for dtype in (bool, np.complex128, object, np.float32):
        with pytest.raises(ValueError, match=f"got dtype {np.dtype(dtype)}$"):
            design.verify_t_design(np.array(floats).astype(dtype), 2)
    # the same four blocks as Python ints, and as every integer dtype
    ints = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    assert design.verify_t_design(ints, 3) == 1
    for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64):
        assert design.verify_t_design(np.array(ints, dtype=dtype), 3) == 1
        assert design.verify_t_design(d13.blocks.astype(dtype), 3) == 3


@pytest.fixture
def recounts(monkeypatch):
    """The v of every _coverage_counts call, in order."""
    seen = []
    coverage_counts = design._coverage_counts

    def spy(blocks, t, v, chunk_rows):
        seen.append(v)
        return coverage_counts(blocks, t, v, chunk_rows)

    monkeypatch.setattr(design, "_coverage_counts", spy)
    return seen


def _early_answer(blocks, t, v):
    """Which of verify_t_design's exact counts answers first, by Python
    ints: "divisibility" when C(v, t) does not divide b*C(k, t), "probe"
    when the blocks through row 0's first t points are not that many,
    else "recount"."""
    lam, rem = divmod(len(blocks) * math.comb(len(blocks[0]), t), math.comb(v, t))
    if rem:
        return "divisibility"
    first = set(blocks[0][:t])
    return "probe" if sum(first <= set(blk) for blk in blocks) != lam else "recount"


def test_verify_t_design_agrees_with_the_nested_loops_on_random_multisets(recounts):
    """Seeded multisets of increasing rows, repeats allowed, with v <= 9,
    k <= 5 and t in {2, 3}: verify_t_design says flat exactly when the
    nested-loop counts are. Half the draws take b a multiple of
    C(v, t)/gcd(C(v, t), C(k, t)), so that the divisibility test passes,
    and the sample holds every route: refused by divisibility, refused
    by the probe, non-designs that pass both, which only the recount
    refuses, and (every k-subset, repeated) designs. _coverage_counts
    runs for the last two alone."""
    rng = np.random.default_rng(45)
    seen = {"divisibility": 0, "probe": 0, "recount": 0, "design": 0}
    for _ in range(600):
        v = int(rng.integers(4, 10))
        t = int(rng.integers(2, 4))
        k = int(rng.integers(t, min(5, v - 1) + 1))
        step = math.comb(v, t) // math.gcd(math.comb(v, t), math.comb(k, t))
        draw = rng.random()
        if draw < 0.05:  # every k-subset, repeated: a design
            rows = np.array(list(itertools.combinations(range(v), k)) * int(rng.integers(1, 3)))
        else:
            b = step * int(rng.integers(1, 4)) if draw < 0.5 else int(rng.integers(1, 13))
            rows = np.sort([rng.choice(v, k, replace=False) for _ in range(b)], axis=1)
        blocks = rows.tolist()
        counts = _oracle_counts(v, blocks, t)
        flat = counts[0] if len(set(counts)) == 1 else None
        recounts.clear()
        assert design.verify_t_design(rows, t, v=v) == flat, (v, k, t, blocks)
        route = _early_answer(blocks, t, v)
        assert flat is None or route == "recount", (v, k, t, blocks)
        assert recounts == ([v] if route == "recount" else []), (v, k, t, blocks)
        seen["design" if flat is not None else route] += 1
    assert min(seen.values()) >= 5, seen


def test_verify_t_design_recounts_only_what_the_exact_counts_pass(recounts):
    """(29, 7) fails divisibility and (53, 13) the probe, with lambda* = 33
    an integer, so neither reaches _coverage_counts; the design (41, 10)
    does, and is recounted."""
    cases = [(29, 7, "divisibility", None), (53, 13, "probe", None), (41, 10, "recount", 18)]
    for q, k, route, lam in cases:
        blocks = design.build_design(gf.field_for_order(q), k).blocks
        assert _early_answer(blocks.tolist(), 3, q + 1) == route
        assert design.verify_t_design(blocks, 3) == lam
        if q == 53:
            assert len(blocks) * math.comb(13, 3) == 33 * math.comb(54, 3)
    assert recounts == [42]


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
        if gf.chi(spec, neg(spec, c)) == 1:
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


@pytest.mark.parametrize(("q", "k"), [(13, 4), (17, 4), (41, 10), (49, 8)])
def test_build_format_parse_keeps_dtype_and_bytes(q, k):
    """Blocks stay in the narrowest point type from the orbit to the file
    and back, and the file text survives a parse and a second format."""
    d = design.build_design(gf.field_for_order(q), k)
    assert d.blocks.dtype == np.uint8
    text = design.format_design(d)
    back = design.parse_design(text)
    assert back.blocks.dtype == np.uint8 and _same_design(back, d)
    assert design.format_design(back) == text
    # each line is its row's points as decimal text, one space apart
    lines = text.splitlines()[1 + (not d.is_design) :]
    assert lines[:50] == [" ".join(map(str, row)) for row in d.blocks[:50].tolist()]


def test_points_past_256_are_uint16():
    """q = 257 is the first field whose points need two bytes: its blocks
    are native uint16 from the orbit through the file, and they verify.
    PSL(2,q) is 2-transitive on the projective line, so every orbit is a
    2-design, with b C(k, 2) = lambda_2 C(v, 2)."""
    d = design.build_design(gf.field_for_order(257), 8)
    native = np.dtype(np.uint16)
    assert d.blocks.dtype == native and d.blocks.dtype.isnative
    assert d.blocks.max() == 257
    back = design.parse_design(design.format_design(d))
    assert back.blocks.dtype == native and back.blocks.dtype.isnative
    assert _same_design(back, d)
    assert design.verify_design(back)
    lam2 = design.verify_t_design(back.blocks, 2)
    assert d.b * math.comb(8, 2) == lam2 * math.comb(258, 2)


def test_format_design_refuses_malformed_blocks(d13):
    """format_design indexes its label table by the points, so a Design
    that fails check_blocks is refused with check_blocks's message."""
    for row, defect in (
        ([3, 2, 1, 0], "is not 4 distinct points in increasing order: 3 2 1 0"),
        ([0, 1, 2, 14], "has a point outside the range 0..13: 0 1 2 14"),
    ):
        blocks = d13.blocks.astype(np.int64)
        blocks[5] = row
        with pytest.raises(ValueError, match=f"^block 6 {defect}$"):
            design.format_design(dataclasses.replace(d13, blocks=blocks))
    with pytest.raises(ValueError, match="^block 1 is not 4 distinct points"):
        design.format_design(dataclasses.replace(d13, blocks=d13.blocks[:, :3]))


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
    # a negative lambda is a malformed header, refused before any block
    for flag in ("NOT-A-3-DESIGN\n", ""):
        with pytest.raises(ValueError, match="^malformed header: negative lambda: '14 4 -2 1'$"):
            design.parse_design(f"14 4 -2 1\n{flag}0 1 2 3\n")
    with pytest.raises(ValueError, match="^malformed header: negative lambda"):
        design.parse_design("14 4 -2 1\nNOT-A-3-DESIGN\n0 1 x\n")
    # Python's int reads 1_0 as 10, numpy does not: refused, not misread,
    # and the refusal names the block and its line with the line break
    int64 = "is not whitespace-separated decimal integers that fit in int64"
    with pytest.raises(ValueError) as refused:
        design.parse_design("12 3 1 1\n0 1_0 11\n")
    assert str(refused.value) == f"block 1 {int64}: '0 1_0 11\\n'"
    # Python's int reads the Arabic-Indic digit three, numpy does not; a
    # non-ASCII chunk has its tokens counted by str.split
    with pytest.raises(ValueError) as refused:
        design.parse_design("14 4 3 2\n0 1 2 3\n0 1 2 \u0663\n")
    assert str(refused.value) == f"block 2 {int64}: '0 1 2 \u0663\\n'"
    # str.splitlines breaks at \x1c, numpy reads no separator there
    with pytest.raises(ValueError) as refused:
        design.parse_design("14 4 3 2\n0 1 2 3\x1c0 1 2 4\n")
    assert str(refused.value) == f"block 1 {int64}: '0 1 2 3\\x1c'"


def test_text_chunks_do_not_change_format_or_parse(d13, d17, monkeypatch):
    texts = [design.format_design(d) for d in (d13, d17)]
    lines = texts[0].splitlines()
    lines[100] = "0 1 2 99999999999999999999"
    bad = "\n".join(lines)
    # a line numpy cannot read is named by its block at every chunk size
    lines[100] = "0 1_0 11 12"
    unread = "\n".join(lines)
    for size in (1, 7, 64, 1000, 1 << 18):
        monkeypatch.setattr(design, "TEXT_CHUNK_CHARS", size)
        for d, text in zip((d13, d17), texts):
            assert design.format_design(d) == text
            assert _same_design(design.parse_design(text), d)
        with pytest.raises(ValueError, match="block 100 has a point outside"):
            design.parse_design(bad)
        with pytest.raises(ValueError) as refused:
            design.parse_design(unread)
        assert str(refused.value) == (
            "block 100 is not whitespace-separated decimal integers that fit "
            "in int64: '0 1_0 11 12\\n'"
        ), size


@pytest.mark.parametrize("size", [64, 1 << 18])
@pytest.mark.parametrize(
    ("early", "late", "message"),
    [
        # the first bad block in file order, whichever chunk holds it
        ("3 2 1 0", "0 1 2 14", "block 3 is not 4 distinct points in increasing order: 3 2 1 0"),
        ("0 1 2 14", "3 2 1 0", "block 3 has a point outside the range 0..13: 0 1 2 14"),
        # a line that is not k integers comes before any block's defect
        ("0 1 2 14", "0 1 x 3", "invalid literal for int() with base 10: 'x'"),
        ("0 1 2 14", "0 1 2", "block of size 3, expected 4: '0 1 2'"),
        ("0 1 2 99999999999999999999", "0 1 2", "block of size 3, expected 4: '0 1 2'"),
    ],
)
def test_parse_refuses_in_the_order_of_parse_then_check_blocks(d13, monkeypatch, size, early, late, message):
    """A point outside range(v) does not fit the narrow rows, so the parse
    refuses it; the refusal is the one the parse and then check_blocks
    gave when the rows were int64, bytes and precedence alike."""
    lines = design.format_design(d13).splitlines()
    lines[3], lines[250] = early, late
    monkeypatch.setattr(design, "TEXT_CHUNK_CHARS", size)
    with pytest.raises(ValueError) as refused:
        design.parse_design("\n".join(lines) + "\n")
    assert str(refused.value) == message


def test_refusing_the_last_block_of_181_10_checks_only_its_chunk_as_ints(monkeypatch):
    """The (181, 10) file with its last block's first point written 1_21
    (121 to Python's int, unreadable to numpy), or its last point 182, is
    refused naming block 148,239. The 148,238 rows before the refused
    chunk are checked as the parse stored them, uint8, and only the
    chunk's own lines as Python ints, with their numbers offset."""
    text = design.format_design(design.build_design(gf.field_for_order(181), 10))
    head, last = text[:-1].rsplit("\n", 1)
    points = last.split()
    checked = []
    real = design.check_blocks
    monkeypatch.setattr(
        design, "check_blocks", lambda b, *a, **kw: checked.append((b.dtype, len(b))) or real(b, *a, **kw)
    )
    for line, message in (
        (
            " ".join(["1_21"] + points[1:]),
            "block 148239 is not 10 distinct points in increasing order: "
            "121 121 128 133 139 157 163 168 175 180",
        ),
        (
            " ".join(points[:-1] + ["182"]),
            "block 148239 has a point outside the range 0..181: "
            "116 121 128 133 139 157 163 168 175 182",
        ),
    ):
        checked.clear()
        with pytest.raises(ValueError) as refused:
            design.parse_design(f"{head}\n{line}\n")
        assert str(refused.value) == message
        (narrow, done), (exact, rows) = checked
        assert (narrow, exact) == (np.uint8, object)
        # a chunk's lines are 20 characters or more
        assert done + rows <= 148239 and rows <= design.TEXT_CHUNK_CHARS // 20 + 1, (done, rows)


def test_refusing_a_block_of_181_10_rereads_in_halves(monkeypatch):
    """At the default chunk size, the (181, 10) file with block 4's or the
    last block's first point written 1_0 is refused in at most 64 token
    counts: the refused chunk is read again in halves down to one line,
    and the lines after that line are counted a chunk at a time."""
    text = design.format_design(design.build_design(gf.field_for_order(181), 10))
    lines = text.splitlines()
    passes = []
    real = design._tokens_per_line
    monkeypatch.setattr(design, "_tokens_per_line", lambda piece: passes.append(1) or real(piece))
    for block in (4, 148239):
        edited = list(lines)
        points = edited[block + 1].split()  # after the header and flag lines
        edited[block + 1] = " ".join(["1_0"] + points[1:])
        passes.clear()
        with pytest.raises(ValueError, match=f"^block {block} is not "):
            design.parse_design("\n".join(edited) + "\n")
        assert len(passes) <= 64, (block, len(passes))


def test_build_and_verify_peaks_at_181_10(tmp_path):
    """The traced heap peaks of the build op (build_design, write_design),
    the verify op (read_design, verify_t_design) and the coverage recount
    at (181, 10), the largest orbit the benchmark builds: 148,239 blocks
    of 10 points that fit in 1.4 MiB as uint8, and 11.3 MiB as int64. The
    file text is one 4.8 MiB string, and the recount's counters are
    7.5 MiB of int64, so a whole-design int64 copy breaks the bounds. The
    orbit is a non-design that verify_t_design refuses by the coverage of
    one triple, so the recount is run on its own."""
    spec = gf.field_for_order(181)
    path = str(tmp_path / "d.txt")
    tracemalloc.start()
    try:
        d = design.build_design(spec, 10)
        design.write_design(d, path)
        del d
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        d = design.read_design(path)
        assert design.verify_t_design(d.blocks, 3, v=d.v) is None
        verify_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        chunk_rows = design.RECOUNT_CHUNK_SUBSETS // math.comb(10, 3)
        assert design._coverage_counts(d.blocks, 3, d.v, chunk_rows).max() == 24
        recount_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.b == 148239
    assert build_peak <= 13 * 2**20, build_peak
    assert verify_peak <= 15 * 2**20, verify_peak
    assert recount_peak <= 15 * 2**20, recount_peak
