"""Explicit block orbits on the projective line and their verification.

A design here is the PSL(2,q)-orbit of a starter block, stored as one
(b, k) int64 array with a block per row: its points in increasing order
(finite points by field encoding, q for the point at infinity), the rows
in lexicographic order. Verification recounts t-subset coverage from
scratch and never trusts the orbit-transitivity argument that produced
the blocks.
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
# t-subsets ranked per recount chunk, so each temporary is 2 MiB of int64
RECOUNT_CHUNK_SUBSETS = 1 << 18
# characters of design-file text parsed or formatted per chunk
TEXT_CHUNK_CHARS = 1 << 18
NON_DESIGN_FLAG = "NOT-A-3-DESIGN"
_INT64 = np.iinfo(np.int64)
# the line breaks of str.splitlines; and, by byte value, its ASCII line
# breaks and the ASCII whitespace of str.split
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_BREAK_BYTE = np.array([c in b"\n\x0b\x0c\r\x1c\x1d\x1e" for c in range(256)])
_SPACE_BYTE = np.array([c in b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f " for c in range(256)])


@dataclass(frozen=True, eq=False)
class Design:
    """An expanded block orbit with its claimed parameters.

    lam is the 3-subset coverage count when the orbit is a 3-design and 0
    when it is not (is_design records which case applies). blocks is a
    (b, k) int64 array, one block per row: build_design gives increasing
    rows in lexicographic order, parse_design the file's rows in file
    order. Designs compare by identity; compare the fields, and the blocks
    with np.array_equal.
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
        return int(raw)
    except ValueError:
        raise ValueError(f"PSL_DESIGNS_BUDGET is not an integer: {raw!r}")


def _point_dtype(v: int) -> np.dtype:
    """The narrowest big-endian unsigned dtype that holds every point of
    range(v); points are int64, so 64 bits always suffice."""
    return np.min_scalar_type(min(v, 2**63) - 1).newbyteorder(">")


def _row_keys(rows: np.ndarray, v: int) -> np.ndarray:
    """One exact key per row of points in range(v): the row's big-endian
    bytes as a single void scalar. Equal keys are equal rows, and keys
    sort as the rows do lexicographically."""
    dtype = _point_dtype(v)
    rows = np.ascontiguousarray(rows, dtype=dtype)
    return rows.view(np.dtype((np.void, rows.shape[1] * dtype.itemsize))).ravel()


def expand_orbit(spec: gf.FieldSpec, block: tuple[int, ...] | list[int]) -> np.ndarray:
    """All distinct images of a block under PSL(2,q), as a (b, k) int64
    array of increasing rows in lexicographic order.

    Breadth-first over the standard generators, one level at a time: the
    level's images are sorted row by row, and repeats among them and rows
    already found are dropped by exact row key. Aborts if the orbit would
    exceed the budget (default 10**6 blocks, env PSL_DESIGNS_BUDGET
    overrides), before any permutation is built when the lower bound
    C(v, 3) / (2 * C(k, 3)) on its size exceeds it: blocks of k >= 3 points
    cover a whole PSL(2,q)-orbit of 3-subsets, one of at most two equal ones.
    """
    budget = _block_budget()
    v = spec.q + 1
    start = np.sort(np.asarray(block, dtype=np.int64))
    if (start[1:] == start[:-1]).any():
        raise ValueError("block has repeated points")
    if len(start) >= 3 and comb(v, 3) > 2 * comb(len(start), 3) * budget:
        raise RuntimeError(f"orbit exceeds block budget of {budget}")
    perms = np.array(
        [projline.point_permutation(spec, g) for g in projline.psl_generators(spec)],
        dtype=np.min_scalar_type(spec.q),
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
    return seen.view(_point_dtype(v)).reshape(-1, len(start)).astype(np.int64)


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
    place, with no C(v, t)-long temporary per chunk; its fast path needs
    int64 counts and intp ranks (int32 counts take about 25 times as long
    per add). Pure counting: no group theory enters.
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

    blocks is a (b, k) array of increasing rows of points in range(v),
    counted as a multiset: a repeated block counts each time. v defaults
    to one past the largest point seen (exact for any orbit of a
    transitive action, such as these). A v with no t-subsets, or with more
    than MAX_RECOUNT_SUBSETS of them, is refused before anything is
    allocated, and so are blocks of fewer than t points, which cover no
    t-subset.
    """
    if t not in (2, 3):
        raise ValueError(f"only t = 2 and t = 3 are supported, got {t}")
    blocks = np.asarray(blocks, dtype=np.int64)
    if blocks.ndim != 2 and blocks.size:
        raise ValueError(f"expected a (b, k) array of blocks, got shape {blocks.shape}")
    if not len(blocks):
        raise ValueError("no blocks")
    if v is None:
        v = int(blocks.max()) + 1
    n = comb(v, t)
    if not 0 < n <= MAX_RECOUNT_SUBSETS:
        raise ValueError(
            f"v = {v} has C({v}, {t}) = {n} {t}-subsets, outside the range "
            f"1..{MAX_RECOUNT_SUBSETS} of the recount cap"
        )
    k = blocks.shape[1]
    if k < t:
        raise ValueError(f"blocks of {k} points contain no {t}-subsets")
    if blocks.min() < 0 or blocks.max() >= v:
        raise ValueError(f"a block has a point outside the range 0..{v - 1}")
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


def check_blocks(design: Design) -> None:
    """Raise ValueError naming the first block that is not k distinct
    points of range(v) in increasing order, the form the coverage
    recount relies on."""
    blocks = design.blocks
    if blocks.shape[1] != design.k:
        unordered = np.ones(len(blocks), dtype=bool)
        outside = unordered
    elif not blocks.size:
        return
    else:
        unordered = ~(blocks[:, 1:] > blocks[:, :-1]).all(axis=1)
        outside = (blocks[:, 0] < 0) | (blocks[:, -1] >= design.v)
    bad = np.flatnonzero(unordered | outside)
    if bad.size:
        n = bad[0]
        if unordered[n]:
            defect = f"is not {design.k} distinct points in increasing order"
        else:
            defect = f"has a point outside the range 0..{design.v - 1}"
        points = " ".join(map(str, blocks[n].tolist()))
        raise ValueError(f"block {n + 1} {defect}: {points}")


def verify_design(design: Design) -> bool:
    """Recount triple coverage of the stored blocks from scratch.

    The blocks must pass check_blocks and be distinct (an orbit never
    repeats a block). A claimed design must cover every triple exactly lam
    times and satisfy the counting identity b * C(k,3) = lam * C(v,3); a
    claimed non-design must really have non-flat coverage.
    """
    v = design.v
    try:
        check_blocks(design)
    except ValueError:
        return False
    if len(np.unique(_row_keys(design.blocks, v))) != design.b:
        return False
    lam = verify_t_design(design.blocks, 3, v=v)
    if design.is_design:
        if lam != design.lam:
            return False
        return design.b * comb(design.k, 3) == design.lam * comb(v, 3)
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

    The rows are written a chunk at a time, gathered from a table of the
    chunk's distinct points as decimal text, with no Python object per
    point.
    """
    head = f"{design.v} {design.k} {design.lam} {design.b}\n"
    if not design.is_design:
        head += NON_DESIGN_FLAG + "\n"
    blocks = design.blocks
    if not blocks.size:
        return head + "\n" * len(blocks)
    if not _in_lex_order(blocks):
        blocks = blocks[np.lexsort(blocks.T[::-1])]
    # the longest label is the smallest or the largest point's, and one
    # separator follows each label
    width = 1 + max(len(str(blocks.min())), len(str(blocks.max())))
    chunk_rows = max(1, TEXT_CHUNK_CHARS // (width * blocks.shape[1]))
    parts = [head]
    for lo in range(0, len(blocks), chunk_rows):
        points, index = np.unique(blocks[lo : lo + chunk_rows], return_inverse=True)
        spaced, ended = (
            np.array([f"{z}{end}" for z in points.tolist()], dtype=f"S{width}")
            .view(np.uint8)
            .reshape(-1, width)
            for end in (" ", "\n")
        )
        index = index.reshape(-1, blocks.shape[1])
        cells = np.concatenate([spaced[index[:, :-1]], ended[index[:, -1:]]], axis=1)
        parts.append(cells[cells != 0].tobytes().decode())
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
    str.split count them; numpy counts the runs of non-space bytes of
    ASCII text, and Python counts any other."""
    raw = np.frombuffer(piece.encode(), dtype=np.uint8)
    if (raw > 127).any():
        return np.array([len(ln.split()) for ln in piece.splitlines()], dtype=np.intp)
    gap = _SPACE_BYTE[raw]
    starts = np.flatnonzero(~gap & np.concatenate(([True], gap[:-1])))
    line_ends = np.append(np.flatnonzero(_BREAK_BYTE[raw]), len(raw))
    return np.diff(np.searchsorted(starts, line_ends), prepend=0)


def _refuse_block_text(piece: str, done: np.ndarray, k: int, v: int) -> None:
    """Raise the error for piece, text whose lines numpy could not read as
    blocks of k int64 points; done holds the blocks before it. Python's
    int reads the lines, and the error is the one the parse and then
    check_blocks would give on Python integers: the first line that is not
    k integers, else the first block that is out of order or out of range
    (a point beyond int64 is out of every range)."""
    lines = [ln for ln in (raw.strip() for raw in piece.splitlines()) if ln]
    blocks = []
    for ln in lines:
        blk = [int(x) for x in ln.split()]
        if len(blk) != k:
            raise ValueError(f"block of size {len(blk)}, expected {k}: {ln!r}")
        blocks.append(blk)
    exact = np.array(done.tolist() + blocks, dtype=object).reshape(-1, k)
    check_blocks(Design(q=v - 1, k=k, lam=0, blocks=exact, is_design=False))
    raise ValueError(
        f"blocks {len(done) + 1}..{len(exact)} are not whitespace-separated "
        "decimal integers that fit in int64"
    )


def _parse_blocks(text: str, pos: int, k: int, v: int, b: int) -> np.ndarray:
    """The non-blank lines of text from pos on as a (b, k) int64 array.

    TEXT_CHUNK_CHARS of lines at a time, numpy counts each line's tokens
    and reads the integers. The first chunk it cannot read exactly, or
    that has a point at the int64 limits (where an overflowing token
    saturates), goes to _refuse_block_text once the block count has been
    checked against b.
    """
    # room for b rows only if the text can hold them (2k characters a
    # row), so that a header cannot make the parse allocate more than that
    fits = b >= 0 and k >= 0 and 2 * max(b, 1) * max(k, 1) <= len(text) - pos + 1
    rows = np.empty((b, k) if fits else (0, 0), dtype=np.int64)
    found, bad = 0, None
    while pos < len(text):
        end = _line_end(text, pos + TEXT_CHUNK_CHARS)
        piece = text[pos:end]
        tokens = _tokens_per_line(piece)
        tokens = tokens[tokens > 0]
        if bad is None and len(tokens):
            try:
                values = np.fromstring(piece, dtype=np.int64, sep=" ")
            except ValueError:
                values = None
            if (
                values is not None
                and found + len(tokens) <= len(rows)
                and (tokens == k).all()
                and values.size == k * len(tokens)
                and not np.isin(values, (_INT64.min, _INT64.max)).any()
            ):
                rows[found : found + len(tokens)] = values.reshape(-1, k)
            else:
                bad = (piece, rows[:found])
        found += len(tokens)
        pos = end
    if found != b:
        raise ValueError(f"expected {b} blocks, found {found}")
    if bad is not None:
        _refuse_block_text(*bad, k, v)
    return rows


def parse_design(text: str) -> Design:
    """Read a design file's text: the header, the optional flag line and
    one block per non-blank line. Each block must be k integers; order and
    range are check_blocks's concern."""
    head, pos = _next_line(text, 0)
    if not head:
        raise ValueError("empty design file")
    try:
        v, k, lam, b = map(int, head.split())
    except ValueError:
        raise ValueError(f"malformed header: {head!r}")
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
