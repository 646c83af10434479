"""Explicit block orbits on the projective line and their verification.

A design here is the PSL(2,q)-orbit of a starter block, stored as one
(b, k) array with a block per row, in the narrowest unsigned dtype that
holds the points range(v) (uint8 up to v = 256, then uint16): its points
in increasing order (finite points by field encoding, q for the point at
infinity), the rows in lexicographic order. The orbit of the starter's
subgroup H is built from a transversal of the dihedral group D that
fixes H, sorted once, when its R = |PSL(2,q)|/|D| rows fit the block
budget; any other block, and H past that, is closed breadth-first under
the generators. Both routes give the same array. Verification never
trusts the orbit-transitivity argument that produced the blocks: after
its refusals it settles a non-design by two exact counts, divisibility
of b*C(k, t) by C(v, t) and the coverage of one t-subset, and else
recounts every t-subset's coverage from scratch. All three are counting
alone; no group theory enters.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from math import comb

import numpy as np

from psldesigns import gf, projline, starter

DEFAULT_BLOCK_BUDGET = 10**6
# the most t-subsets a coverage recount may allocate a counter for: one
# int64 each, about 80 MB at the cap (v = 182 needs C(182, 3) = 988,260)
MAX_RECOUNT_SUBSETS = 10**7
# t-subsets ranked per recount chunk, 256 KiB of intp ranks (see README)
RECOUNT_CHUNK_SUBSETS = 1 << 15
# points of transversal images gathered and sorted per chunk, 64 KiB as
# uint8, so that a chunk's rows are sorted in cache
TRANSVERSAL_CHUNK_POINTS = 1 << 16
# design-file text characters parsed, and formatted, per chunk (see README)
TEXT_CHUNK_CHARS = 1 << 18
FORMAT_CHUNK_CHARS = 1 << 15
NON_DESIGN_FLAG = "NOT-A-3-DESIGN"
# the line breaks of str.splitlines; of ASCII, the bytes 10-13 and 28-30,
# and the whitespace of str.split is the bytes 9-13 and 28-32
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


@dataclass(frozen=True, eq=False)
class Design:
    """An expanded block orbit with its claimed parameters.

    lam is the 3-subset coverage count when the orbit is a 3-design and 0
    when it is not (is_design records which case applies). blocks is a
    (b, k) array, one block per row, in _point_dtype(v): build_design
    gives increasing rows in lexicographic order, parse_design the file's
    rows in file order. Designs compare by identity; compare the fields,
    and the blocks with np.array_equal.
    """

    q: int
    k: int
    lam: int
    blocks: np.ndarray
    is_design: bool

    @property
    def v(self) -> int:
        return self.q + 1

    @property
    def b(self) -> int:
        return len(self.blocks)


def _block_budget() -> int:
    raw = os.environ.get("PSL_DESIGNS_BUDGET")
    if raw is None:
        return DEFAULT_BLOCK_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"PSL_DESIGNS_BUDGET is not an integer: {raw!r}")
    if budget < 1:
        raise ValueError(f"PSL_DESIGNS_BUDGET is not a positive integer: {raw!r}")
    return budget


def _point_dtype(v: int) -> np.dtype:
    """The narrowest native unsigned dtype that holds every point of
    range(v), one byte when range(v) is empty; points are int64, so 64
    bits always suffice."""
    return np.min_scalar_type(min(max(v, 1), 2**63) - 1)


def _row_keys(rows: np.ndarray, v: int) -> np.ndarray:
    """One exact key per row of points in range(v): the row's big-endian
    bytes as a single void scalar. Equal keys are equal rows, and keys
    sort as the rows do lexicographically."""
    dtype = _point_dtype(v).newbyteorder(">")
    rows = np.ascontiguousarray(rows, dtype=dtype)
    return rows.view(np.dtype((np.void, rows.shape[1] * dtype.itemsize))).ravel()


def expand_orbit(spec: gf.FieldSpec, block: tuple[int, ...] | list[int]) -> np.ndarray:
    """All distinct images of a block under PSL(2,q), as a (b, k) array
    in _point_dtype(q + 1) of increasing rows in lexicographic order.

    Two routes, chosen on the input, give the same array. When the block
    is exactly the order-k subgroup H of GF(q)* (_subgroup_cofactor) and
    its transversal's row count R (_transversal_rows) is within the
    budget, the orbit is the images of H under a transversal of the
    dihedral group D that fixes it, sorted once (_transversal_orbit). R
    is b times |Stab(H)|/|D|, so b itself except where the stabiliser is
    larger: on a Baer subline (q = q0**2, k = q0 + 1, Stab(H) = PGL(2,q0))
    R/b is q0(q0 - 1)/2, so (169, 14) sorts 86,190 rows for 1,105 blocks.
    Any other block, and H with R over the budget, is closed
    breadth-first under the generators (_closure_orbit).

    Aborts if the orbit would exceed the budget (default 10**6 blocks,
    env PSL_DESIGNS_BUDGET overrides), before any permutation is built
    when the lower bound C(v, 3) / (2 * C(k, 3)) on its size exceeds it:
    blocks of k >= 3 points cover a whole PSL(2,q)-orbit of 3-subsets,
    one of at most two equal ones. An empty block, a point that is not
    an integer, one outside range(v) or a repeated point is refused first.
    """
    budget = _block_budget()
    v = spec.q + 1
    points = np.asarray(block)
    if not points.size:  # before the dtype: an empty list reads as float
        raise ValueError("block has no points")
    if points.dtype.kind not in "iu":  # a cast would truncate 1.5 to 1
        raise ValueError("block points must be integers")
    start = np.sort(points.astype(np.int64))
    if ((start < 0) | (start >= v)).any():
        raise ValueError(f"block points must lie in range({v})")
    if (start[1:] == start[:-1]).any():
        raise ValueError("block has repeated points")
    if len(start) >= 3 and comb(v, 3) > 2 * comb(len(start), 3) * budget:
        raise RuntimeError(f"orbit exceeds block budget of {budget}")
    e = _subgroup_cofactor(spec, start)
    if e and _transversal_rows(spec.q, e) <= budget:
        return _transversal_orbit(spec, len(start), e)
    return _closure_orbit(spec, start, budget)


def _subgroup_cofactor(spec: gf.FieldSpec, start: np.ndarray) -> int:
    """e = (q - 1)/k when the k sorted distinct points of start are
    exactly the order-k subgroup H of GF(q)*, else 0: k divides q - 1,
    and every point is finite, nonzero and has log = 0 (mod e)."""
    q, k = spec.q, len(start)
    if (q - 1) % k or start[0] == 0 or start[-1] == q:
        return 0
    e = (q - 1) // k
    return 0 if (projline.field_tables(spec).log[start] % e).any() else e


def _squares_only(q: int, e: int) -> bool:
    """Whether H (cofactor e) and -1 both lie in the squares of GF(q)*,
    so that a pair {a, b} takes only the cosets tH with t(b - a) a
    square: e even and q = 1 (mod 4). Otherwise every coset has a
    representative t that makes the determinant square."""
    return e % 2 == 0 and q % 4 == 1


def _transversal_rows(q: int, e: int) -> int:
    """R = |PSL(2,q)|/|D|, the rows of _transversal_orbit: C(q + 1, 2)
    unordered pairs {a, b} of PG(1,q), times the cosets tH taken for
    each, e/2 under _squares_only, else e. D, the maps z -> hz and, under
    _squares_only, z -> h/z for h in H, has order 2k, resp. k."""
    return comb(q + 1, 2) * (e // 2 if _squares_only(q, e) else e)


def _transversal_orbit(spec: gf.FieldSpec, k: int, e: int) -> np.ndarray:
    """expand_orbit of the order-k subgroup H of cofactor e, as the images
    of H under a transversal of D (_transversal_rows), with no membership
    test (Cameron, Omidi and Tayfeh-Rezaie, "3-designs from PGL(2,q)",
    Electron. J. Combin. 13 (2006) R50).

    Every element of PSL(2,q) is m_{a,b}(tz) or m_{a,b}(t/z), where
    m_{a,b}(w) = (b*w + a)/(w + 1) sends 0 to a and infinity to b, and H
    is closed under inverses, so the orbit is the images m_{a,b}(tH) over
    the unordered pairs {a, b} and the cosets tH with t(b - a) a square
    (every coset unless _squares_only). With d = a - b, m_{a,b}(w) =
    b + d/(w + 1), and d is taken up to sign; for b = infinity the image
    is tH + a, t a square. So each image is a base set, d/(tH + 1)
    (infinity where w = -1) or tH, translated by a point of GF(q). The
    translates are gathered from one addition table of the field tables,
    TRANSVERSAL_CHUNK_POINTS points at a time, and sorted row by row;
    then one np.lexsort of the rows' narrow columns orders them, and the
    adjacent repeats that a stabiliser larger than D makes are dropped.
    """
    q = spec.q
    tables = projline.field_tables(spec)
    step = 2 if _squares_only(q, e) else 1
    coset_logs = np.arange(e)[:, None] + e * np.arange(k)
    plus_one = tables.add(tables.exp[coset_logs], 1)
    # the logs of 1/(w + 1); 0, a placeholder, where w + 1 = 0
    inv_logs = np.where(plus_one == 0, 0, q - 1 - tables.log[plus_one])
    j, c = np.divmod(np.arange((q - 1) // 2 * e), e)  # d = alpha**j, t = alpha**c
    used = (j + c) % step == 0
    j, c = j[used], c[used]
    finite = np.where(plus_one[c] == 0, q, tables.exp[j[:, None] + inv_logs[c]])
    bases = np.concatenate([finite, tables.exp[coset_logs[::step]]])
    dtype = _point_dtype(q + 1)
    pts = np.arange(q)
    shift = np.full((q, q + 1), q, dtype=dtype)  # row b: z -> z + b, infinity fixed
    shift[:, :q] = tables.add(pts[:, None], pts)
    # the result is allocated before the staged rows, which are freed
    # before the repeats are found: so they leave one free block above the
    # result on the heap, which the file text reuses (an orbit round's
    # peak RSS)
    rows = np.empty((q * len(bases), k), dtype=dtype)
    staged = np.empty_like(rows)
    chunk = max(1, TRANSVERSAL_CHUNK_POINTS // (q * k))
    for lo in range(0, len(bases), chunk):
        part = staged[q * lo : q * (lo + chunk)]
        part[:] = shift[:, bases[lo : lo + chunk]].reshape(-1, k)
        part.sort(axis=1)
    # mode="clip" gathers straight into rows, where the default "raise"
    # would buffer a copy
    np.take(staged, np.lexsort(staged.T[::-1]), axis=0, out=rows, mode="clip")
    del staged
    keys = rows.view(np.dtype((np.void, k * dtype.itemsize))).ravel()
    repeats = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    return np.delete(rows, repeats, axis=0) if repeats.size else rows


def _closure_orbit(spec: gf.FieldSpec, start: np.ndarray, budget: int) -> np.ndarray:
    """expand_orbit of the sorted distinct points start, breadth-first
    over the standard generators, one level at a time: the level's images
    are sorted row by row, and repeats among them and rows already found
    are dropped by exact row key. Aborts past budget blocks."""
    v = spec.q + 1
    perms = np.array(
        [projline.point_permutation(spec, g) for g in projline.psl_generators(spec)],
        dtype=_point_dtype(v),
    )
    frontier = start.astype(perms.dtype)[None, :]
    seen = _row_keys(frontier, v)
    while len(frontier):
        images = perms[:, frontier].reshape(-1, len(start))
        images.sort(axis=1)
        keys, first = np.unique(_row_keys(images, v), return_index=True)
        at = np.searchsorted(seen, keys)
        # a key past the end of seen is larger than every seen key
        new = seen[np.minimum(at, len(seen) - 1)] != keys
        if len(seen) + np.count_nonzero(new) > budget:
            raise RuntimeError(f"orbit exceeds block budget of {budget}")
        seen = np.insert(seen, at[new], keys[new])
        frontier = images[first[new]]
    rows = seen.view(perms.dtype.newbyteorder(">")).reshape(-1, len(start))
    return rows.astype(perms.dtype, copy=False)


def _coverage_counts(
    blocks: np.ndarray, t: int, v: int, chunk_rows: int
) -> np.ndarray:
    """Coverage count of every t-subset of range(v), indexed by colex rank.

    The rank of x1 < ... < xt is the sum of C(xi, i), a bijection onto
    range(C(v, t)). Each chunk of chunk_rows blocks gathers its pair ranks
    once, P[(a, b), :] = x_a + C(x_b, 2) with a row per pair of positions
    a < b in colex order and a column per block, so the pairs below
    position l are the contiguous slice P[:C(l, 2)]. For t = 2 the ranks
    are P; for t = 3 each position l writes that slice plus C(x_l, 3) into
    its rows of one buffer. np.add.at adds the ranks into the counts in
    place, with no C(v, t)-long temporary per chunk. Its fast path needs
    intp ranks and an added value of the counts' dtype: the Python scalar
    1 is taken as int64, so int32 counts would take about 25 times as long
    per add (np.int32(1) would not: about 4 ns an add either way at
    v = 182, numpy 2.4 on a 2-CPU Xeon). Pure counting: no group theory
    enters.
    """
    k = blocks.shape[1]
    a, b = np.triu_indices(k, 1)
    colex = np.lexsort((a, b))
    a, b = a[colex], b[colex]
    pts = np.arange(v, dtype=np.intp)
    c2, c3 = pts * (pts - 1) // 2, pts * (pts - 1) * (pts - 2) // 6
    counts = np.zeros(comb(v, t), dtype=np.int64)
    # the triple ranks of a chunk, a row per triple of positions
    size = comb(k, 3) * min(chunk_rows, len(blocks)) if t == 3 else 0
    buffer = np.empty(size, dtype=np.intp)
    for lo in range(0, len(blocks), chunk_rows):
        cols = blocks[lo : lo + chunk_rows].T.astype(np.intp)
        pairs = cols[a] + c2[cols][b]
        if t == 2:
            np.add.at(counts, pairs.ravel(), 1)
            continue
        ranks = buffer[: comb(k, 3) * cols.shape[1]].reshape(-1, cols.shape[1])
        top = c3[cols]
        for pos in range(2, k):
            below = ranks[comb(pos, 3) : comb(pos + 1, 3)]
            np.add(pairs[: comb(pos, 2)], top[pos], out=below)
        np.add.at(counts, ranks.ravel(), 1)
    return counts


def verify_t_design(
    blocks: np.ndarray,
    t: int,
    v: int | None = None,
) -> int | None:
    """The common coverage count lambda if every t-subset of the point set
    lies in equally many blocks, else None.

    blocks is a (b, k) array of any integer dtype, read without a copy,
    of increasing rows of points in range(v), counted as a multiset: a
    repeated block counts each time. v defaults to one past the largest
    point seen, if any (exact for any orbit of a transitive action, such
    as these). Blocks that are not integers are refused, then rows that
    fail check_blocks, then a v with no t-subsets or with more than
    MAX_RECOUNT_SUBSETS of them, and blocks of fewer than t points, which
    cover no t-subset, all before the counts are allocated.

    Then two exact counts can each settle a non-design before the recount.
    Constant coverage lam needs lam*C(v, t) = b*C(k, t) by double counting,
    so a remainder is a no, read off the shape alone; else the blocks
    through the first t points of row 0 are counted, O(b*k), and a count
    other than that lam is a no. Only blocks that pass both are recounted
    (_coverage_counts), so a design always is. Neither test uses group
    theory, and each answers only None, never a lambda.
    """
    if t not in (2, 3):
        raise ValueError(f"only t = 2 and t = 3 are supported, got {t}")
    blocks = np.asarray(blocks)
    if blocks.ndim != 2 and blocks.shape[:1] != (0,):  # no rows: "no blocks"
        raise ValueError(f"expected a (b, k) array of blocks, got shape {blocks.shape}")
    if not len(blocks):
        raise ValueError("no blocks")
    if blocks.dtype.kind not in "iu":
        raise ValueError(f"blocks must be integer points, got dtype {blocks.dtype}")
    k = blocks.shape[1]
    if v is None and blocks.size:
        v = int(blocks.max()) + 1
    check_blocks(blocks, k, v)
    if v is not None and not 0 < comb(v, t) <= MAX_RECOUNT_SUBSETS:
        raise ValueError(
            f"v = {v} has C({v}, {t}) = {comb(v, t)} {t}-subsets, outside the "
            f"range 1..{MAX_RECOUNT_SUBSETS} of the recount cap"
        )
    if k < t:
        raise ValueError(f"blocks of {k} points contain no {t}-subsets")
    lam, rem = divmod(len(blocks) * comb(k, t), comb(v, t))
    if rem:
        return None
    # the blocks through the first t points of row 0. A row's points are
    # distinct, so it holds at most t of them, and all t when its flat
    # hits, which come in row order, start a run of t equal row numbers
    first = blocks[0, :t]
    hit = blocks == first[0]
    for point in first[1:]:
        hit |= blocks == point
    rows = np.flatnonzero(hit) // k
    if np.count_nonzero(rows[t - 1 :] == rows[: 1 - t]) != lam:
        return None
    chunk_rows = max(1, RECOUNT_CHUNK_SUBSETS // comb(k, t))
    counts = _coverage_counts(blocks, t, v, chunk_rows)
    if (counts == counts[0]).all():
        return int(counts[0])
    return None


# ---------------------------------------------------------------------------
# building and serializing


def build_design(spec: gf.FieldSpec, k: int, alpha: int | None = None) -> Design:
    """Expand the orbit of the order-k subgroup and attach its parameters.

    The design decision comes from the starter criterion; lam is the
    parity-dependent coverage formula, or 0 for a non-design. Use
    verify_design to confirm both against the explicit blocks.
    """
    ctx = starter.make_starter_context(spec, k, alpha=alpha)
    blocks = expand_orbit(spec, ctx.block)
    is_design = starter.gives_design(ctx)
    lam = starter.lambda_formula(k, ctx.e) if is_design else 0
    return Design(q=spec.q, k=k, lam=lam, blocks=blocks, is_design=is_design)


def check_blocks(blocks: np.ndarray, k: int, v: int, offset: int = 0) -> None:
    """Raise ValueError naming the first row of the (b, k) array blocks
    that is not k distinct points of range(v) in increasing order, the
    form the coverage recount relies on, as block offset + 1 + its row.
    Only bool temporaries are made, and rows are reduced one by one only
    to name a bad one."""
    if blocks.shape[1] != k:
        unordered = np.ones(len(blocks), dtype=bool)
        outside = unordered
    elif not blocks.size:
        return
    else:
        increasing = blocks[:, 1:] > blocks[:, :-1]
        outside = (blocks[:, 0] < 0) | (blocks[:, -1] >= v)
        if increasing.all() and not outside.any():
            return
        unordered = ~increasing.all(axis=1)
    bad = np.flatnonzero(unordered | outside)
    if bad.size:
        n = bad[0]
        if unordered[n]:
            defect = f"is not {k} distinct points in increasing order"
        else:
            defect = f"has a point outside the range 0..{v - 1}"
        points = " ".join(map(str, blocks[n].tolist()))
        raise ValueError(f"block {offset + n + 1} {defect}: {points}")


def verify_design(design: Design) -> bool:
    """Recount triple coverage of the stored blocks from scratch.

    The blocks must pass check_blocks and be distinct (an orbit never
    repeats a block). A claimed design must cover every triple exactly lam
    times, which by double counting gives b * C(k,3) = lam * C(v,3); a
    claimed non-design must really have non-flat coverage.
    """
    v = design.v
    try:
        check_blocks(design.blocks, design.k, v)
    except ValueError:
        return False
    if len(np.unique(_row_keys(design.blocks, v))) != design.b:
        return False
    lam = verify_t_design(design.blocks, 3, v=v)
    if design.is_design:
        return lam == design.lam
    return lam is None


def _in_lex_order(rows: np.ndarray) -> bool:
    """Whether each row is lexicographically no larger than the next: at
    the first column where two neighbours differ, the upper one is
    smaller."""
    upper, lower = rows[:-1], rows[1:]
    first = (upper != lower).argmax(axis=1)
    at = np.arange(len(first))
    return bool((upper[at, first] <= lower[at, first]).all())


def format_design(design: Design) -> str:
    """Serialize: header `v k lambda b`, an extra flag line for
    non-designs, then one block per line, rows in lexicographic order.

    The blocks must pass check_blocks. A chunk of rows takes its cells by
    np.take from the points' decimal labels, each with a space (a line
    break in the last column), NUL-padded to V{width} items, and emits
    their bytes with the NULs deleted: exact, as the text is ASCII.
    """
    check_blocks(design.blocks, design.k, design.v)
    head = f"{design.v} {design.k} {design.lam} {design.b}\n"
    if not design.is_design:
        head += NON_DESIGN_FLAG + "\n"
    blocks = design.blocks
    if not blocks.size:
        return head + "\n" * len(blocks)
    if not _in_lex_order(blocks):
        blocks = blocks[np.lexsort(blocks.T[::-1])]
    # the rows are increasing, so the last column holds the largest point,
    # which has the longest label; one separator follows each label
    top = int(blocks[:, -1].max())
    width = 1 + len(str(top))
    spaced, ended = (
        np.array([f"{z}{end}" for z in range(top + 1)], dtype=f"S{width}").view(f"V{width}")
        for end in (" ", "\n")
    )
    chunk_rows = max(1, FORMAT_CHUNK_CHARS // (width * blocks.shape[1]))
    parts = [head]
    for lo in range(0, len(blocks), chunk_rows):
        chunk = blocks[lo : lo + chunk_rows]
        cells = np.take(spaced, chunk)
        cells[:, -1] = np.take(ended, chunk[:, -1])
        parts.append(cells.tobytes().translate(None, b"\0").decode())
    return "".join(parts)


def _line_end(text: str, pos: int) -> int:
    """The offset just past the first line break at or after pos."""
    found = _LINE_BREAK.search(text, pos)
    return found.end() if found else len(text)


def _next_line(text: str, pos: int) -> tuple[str, int]:
    """The first non-blank line of text at or after pos, stripped, and the
    offset just past it; ("", len(text)) if there is none."""
    while pos < len(text):
        end = _line_end(text, pos)
        line = text[pos:end].strip()
        if line:
            return line, end
        pos = end
    return "", pos


def _tokens_per_line(piece: str) -> np.ndarray:
    """How many tokens each line of piece holds, as str.splitlines and
    str.split count them: Python's own count unless piece is ASCII, else
    numpy's, from byte ranges (x - 9 < 5 is 9 <= x <= 13 in wrapping uint8)
    and the non-space bytes that follow a space or start piece."""
    if not piece.isascii():
        return np.array([len(ln.split()) for ln in piece.splitlines()], dtype=np.intp)
    raw = np.frombuffer(piece.encode(), dtype=np.uint8)
    gap = (raw - 9 < 5) | (raw - 28 < 5)
    starts = np.flatnonzero(np.diff(gap, prepend=True) & ~gap)
    line_ends = np.append(np.flatnonzero((raw - 10 < 4) | (raw - 28 < 3)), len(raw))
    return np.diff(np.searchsorted(starts, line_ends), prepend=0)


def _exact_blocks(piece: str, k: int) -> list[list[int]]:
    """The non-blank lines of piece as blocks of Python ints, refusing the
    first line that is not k integers."""
    blocks = []
    for ln in (raw.strip() for raw in piece.splitlines()):
        if ln:
            blk = [int(x) for x in ln.split()]
            if len(blk) != k:
                raise ValueError(f"block of size {len(blk)}, expected {k}: {ln!r}")
            blocks.append(blk)
    return blocks


def _refuse_block_text(bad: tuple | None, outside: tuple | None, k: int, v: int) -> None:
    """Raise the error for the chunks the parse could not keep, each a
    (text, rows before it) pair: bad, the first chunk numpy could not read
    as blocks of k int64 points, and outside, the first chunk before it
    with a point outside range(v). Python's int reads them, and the error
    is the one the parse of bad and then check_blocks give on Python
    integers: the first line of bad that is not k integers, else the first
    block out of order or out of range (a point beyond int64 is out of
    every range), which is in or before outside when there is one. The
    rows before the chunk are checked as they are, and only the chunk's
    own lines as Python ints. Else bad is one block's line, which numpy
    cannot read, and is named."""
    if bad is not None:
        _exact_blocks(bad[0], k)
    piece, done = outside or bad
    check_blocks(done, k, v)
    exact = np.array(_exact_blocks(piece, k), dtype=object).reshape(-1, k)
    check_blocks(exact, k, v, offset=len(done))
    line = piece.splitlines(keepends=True)[-1]
    raise ValueError(
        f"block {len(done) + 1} is not whitespace-separated decimal integers "
        f"that fit in int64: {line!r}"
    )


def _parse_blocks(text: str, pos: int, k: int, v: int, b: int) -> np.ndarray:
    """The non-blank lines of text from pos on as a (b, k) array in
    _point_dtype(v).

    TEXT_CHUNK_CHARS of lines at a time, numpy counts each line's tokens
    and reads the integers as int64. A chunk it cannot read exactly is
    read again in halves, down to one line. The first such line, with the
    line break that ends it, and the first chunk before it with a point
    the rows cannot hold go to _refuse_block_text once the block count
    has been checked against b. A token past int64 saturates to an int64
    limit, which no range(v) holds, so it takes the second route.
    """
    # room for b rows only if the text can hold them (2k characters a
    # row), so that a header cannot make the parse allocate more than that
    fits = b >= 0 and k >= 0 and 2 * max(b, 1) * max(k, 1) <= len(text) - pos + 1
    rows = np.empty((b, k) if fits else (0, 0), dtype=_point_dtype(v))
    found, bad, outside, reread, size = 0, None, None, 0, 1
    while pos < len(text):
        end = _line_end(text, pos + (size if pos < reread else TEXT_CHUNK_CHARS))
        piece = text[pos:end]
        tokens = _tokens_per_line(piece)
        tokens = tokens[tokens > 0]
        if bad is None and len(tokens):
            try:
                values = np.fromstring(piece, dtype=np.int64, sep=" ")
            except ValueError:
                values = None
            if (
                values is None
                or found + len(tokens) > len(rows)
                or (tokens != k).any()
                or values.size != k * len(tokens)
            ):
                if pos >= reread or size > 1:  # read it again in halves, to one line
                    size = max(1, (end - pos if pos >= reread else size) // 2)
                    reread = end
                    continue
                bad, reread = (piece, rows[:found]), pos
            elif values.min() < 0 or values.max() >= v:
                outside = outside or (piece, rows[:found])
            elif outside is None:
                rows[found : found + len(tokens)] = values.reshape(-1, k)
        found += len(tokens)
        pos = end
    if found != b:
        raise ValueError(f"expected {b} blocks, found {found}")
    if bad is not None or outside is not None:
        _refuse_block_text(bad, outside, k, v)
    return rows


def parse_design(text: str) -> Design:
    """Read a design file's text: the header, the optional flag line and
    one block per non-blank line. Each block must be k integers of
    range(v), else check_blocks's message names the first bad block;
    order is otherwise check_blocks's concern."""
    head, pos = _next_line(text, 0)
    if not head:
        raise ValueError("empty design file")
    try:
        v, k, lam, b = map(int, head.split())
    except ValueError:
        raise ValueError(f"malformed header: {head!r}")
    if lam < 0:
        raise ValueError(f"malformed header: negative lambda: {head!r}")
    flag, after = _next_line(text, pos)
    is_design = flag != NON_DESIGN_FLAG
    if not is_design:
        pos = after
    if is_design ^ (lam > 0):
        raise ValueError("header lambda and design flag disagree")
    blocks = _parse_blocks(text, pos, k, v, b)
    return Design(q=v - 1, k=k, lam=lam, blocks=blocks, is_design=is_design)


def write_design(design: Design, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_design(design))


def read_design(path: str) -> Design:
    with open(path) as fh:
        return parse_design(fh.read())
