"""Explicit block orbits on the projective line and their verification.

A design here is the PSL(2,q)-orbit of a starter block, stored as sorted
point tuples (finite points by field encoding, q for the point at
infinity). Verification recounts t-subset coverage from scratch and never
trusts the orbit-transitivity argument that produced the blocks.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from math import comb

from psldesigns import gf, projline, starter

DEFAULT_BLOCK_BUDGET = 10**6
# the most t-subsets a coverage recount may allocate a counter for: one
# list slot each, about 80 MB at the cap (v = 182 needs C(182, 3) = 988,260)
MAX_RECOUNT_SUBSETS = 10**7
NON_DESIGN_FLAG = "NOT-A-3-DESIGN"


@dataclass(frozen=True)
class Design:
    """An expanded block orbit with its claimed parameters.

    lam is the 3-subset coverage count when the orbit is a 3-design and 0
    when it is not (is_design records which case applies).
    """

    q: int
    k: int
    lam: int
    blocks: tuple[tuple[int, ...], ...]
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


def expand_orbit(
    spec: gf.FieldSpec,
    block: tuple[int, ...] | list[int],
    budget: int | None = None,
) -> list[tuple[int, ...]]:
    """All distinct images of a block under PSL(2,q), breadth-first over
    the standard generators, in lexicographic order. Aborts if the orbit
    would exceed the budget (default 10**6 blocks, env PSL_DESIGNS_BUDGET
    overrides)."""
    if budget is None:
        budget = _block_budget()
    perms = [
        projline.point_permutation(spec, g) for g in projline.psl_generators(spec)
    ]
    start = tuple(sorted(block))
    if len(set(start)) != len(start):
        raise ValueError("block has repeated points")
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for blk in frontier:
            for perm in perms:
                img = tuple(sorted(perm[z] for z in blk))
                if img not in seen:
                    if len(seen) >= budget:
                        raise RuntimeError(
                            f"orbit exceeds block budget of {budget}"
                        )
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return sorted(seen)


def _coverage_counts(
    v: int, blocks, t: int
) -> list[int]:
    """Coverage count per t-subset of range(v), colex-ranked.

    The rank of x1 < ... < xt is sum of C(xi, i), a bijection onto
    range(C(v,t)). Pure counting: no group theory enters.
    """
    counts = [0] * comb(v, t)
    c2 = [comb(y, 2) for y in range(v)]
    if t == 2:
        for blk in blocks:
            for yi in range(1, len(blk)):
                base = c2[blk[yi]]
                for xi in range(yi):
                    counts[base + blk[xi]] += 1
        return counts
    c3 = [comb(z, 3) for z in range(v)]
    for blk in blocks:
        for zi in range(2, len(blk)):
            base_z = c3[blk[zi]]
            for yi in range(1, zi):
                base_yz = base_z + c2[blk[yi]]
                for xi in range(yi):
                    counts[base_yz + blk[xi]] += 1
    return counts


def verify_t_design(
    blocks: list[tuple[int, ...]] | tuple[tuple[int, ...], ...],
    t: int,
    v: int | None = None,
) -> int | None:
    """The common coverage count lambda if every t-subset of the point set
    lies in equally many blocks, else None.

    Blocks must be sorted tuples of distinct points in range(v); v
    defaults to one past the largest point seen (exact for any orbit of a
    transitive action, such as these). A v with no t-subsets, or with more
    than MAX_RECOUNT_SUBSETS of them, is refused before anything is
    allocated.
    """
    if t not in (2, 3):
        raise ValueError(f"only t = 2 and t = 3 are supported, got {t}")
    if not blocks:
        raise ValueError("no blocks")
    if v is None:
        v = max(blk[-1] for blk in blocks) + 1
    n = comb(v, t)
    if not 0 < n <= MAX_RECOUNT_SUBSETS:
        raise ValueError(
            f"v = {v} has C({v}, {t}) = {n} {t}-subsets, outside the range "
            f"1..{MAX_RECOUNT_SUBSETS} of the recount cap"
        )
    counts = _coverage_counts(v, blocks, t)
    first = counts[0]
    if all(c == first for c in counts):
        return first
    return None


# ---------------------------------------------------------------------------
# stabilizers and flag transitivity


@dataclass(frozen=True)
class StabilizerInfo:
    """Setwise stabilizer of a starter block in PSL(2,q).

    order is exact (orbit counting). claimed_structure names the dihedral
    group predicted by the cofactor parity when the k < p hypothesis
    holds; otherwise it is None and warning says why the structural check
    was skipped.
    """

    order: int
    claimed_structure: str | None
    elements: tuple[projline.GroupElem, ...]
    warning: str | None = None


def _setwise_candidates(
    spec: gf.FieldSpec, block: tuple[int, ...]
) -> list[projline.GroupElem]:
    """Dihedral-type stabilizer elements of a subgroup block of GF(q)*:
    scalings z -> c z and inversions z -> c / z with c in the block, kept
    when the determinant (c, resp. -c) is a square."""
    out = []
    for c in block:
        if gf.chi(spec, c) == 1:
            out.append(projline.canonicalize(spec, c, 0, 0, 1))
        if gf.chi(spec, gf.neg(spec, c)) == 1:
            out.append(projline.canonicalize(spec, 0, c, 1, 0))
    return out


def stabilizer_order(
    spec: gf.FieldSpec,
    block: tuple[int, ...],
    b: int | None = None,
) -> StabilizerInfo:
    """Setwise stabilizer of the order-k subgroup block.

    The order is |PSL(2,q)| / b; b comes from expand_orbit unless given.
    Every scaling/inversion candidate is verified to stabilize the block,
    and for k < p the candidates must account for the whole stabilizer
    (the dihedral claim), else a RuntimeError. For k >= p the structural
    check is skipped and a warning attached.
    """
    k = len(block)
    if b is None:
        b = len(expand_orbit(spec, block))
    g_order = projline.group_order(spec)
    if g_order % b:
        raise RuntimeError(f"orbit length {b} does not divide |G| = {g_order}")
    order = g_order // b
    elems = sorted(
        set(_setwise_candidates(spec, block)),
        key=lambda g: (g.a, g.b, g.c, g.d),
    )
    blockset = frozenset(block)
    for g in elems:
        image = frozenset(projline.apply(spec, g, z) for z in block)
        if image != blockset:
            raise RuntimeError(f"candidate {g} does not stabilize the block")
    if k >= spec.p:
        return StabilizerInfo(
            order=order,
            claimed_structure=None,
            elements=tuple(elems),
            warning=f"k = {k} >= p = {spec.p}: dihedral structure not checked",
        )
    e = (spec.q - 1) // k
    claimed = k if e % 2 else 2 * k
    if len(elems) != claimed or order != claimed:
        raise RuntimeError(
            f"stabilizer order {order} with {len(elems)} dihedral elements, "
            f"expected {claimed}"
        )
    return StabilizerInfo(
        order=order,
        claimed_structure=f"dihedral of order {claimed}",
        elements=tuple(elems),
    )


def check_flag_transitive(
    spec: gf.FieldSpec,
    block: tuple[int, ...],
    blocks: list[tuple[int, ...]] | tuple[tuple[int, ...], ...],
) -> bool:
    """Whether the setwise stabilizer of the block is transitive on its
    points (with block-transitivity, that is flag-transitivity).

    Decided by closing the point 1 under the explicit scaling/inversion
    stabilizer elements; blocks must be the expand_orbit output for the
    same block (it fixes the stabilizer order).
    """
    info = stabilizer_order(spec, tuple(sorted(block)), b=len(blocks))
    orbit = {1}
    frontier = [1]
    while frontier:
        z = frontier.pop()
        for g in info.elements:
            w = projline.apply(spec, g, z)
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit == set(block)


# ---------------------------------------------------------------------------
# building and serializing


def build_design(
    spec: gf.FieldSpec,
    k: int,
    alpha: int | None = None,
    budget: int | None = None,
) -> Design:
    """Expand the orbit of the order-k subgroup and attach its parameters.

    The design decision comes from the starter criterion; lam is the
    parity-dependent coverage formula, or 0 for a non-design. Use
    verify_design to confirm both against the explicit blocks.
    """
    ctx = starter.make_starter_context(spec, k, alpha=alpha)
    blocks = expand_orbit(spec, ctx.block, budget=budget)
    is_design = starter.gives_design(ctx)
    lam = starter.lambda_formula(k, ctx.e) if is_design else 0
    return Design(
        q=spec.q, k=k, lam=lam, blocks=tuple(blocks), is_design=is_design
    )


def check_blocks(design: Design) -> None:
    """Raise ValueError naming the first block that is not k distinct
    points of range(v) in increasing order, the form the coverage
    recount relies on."""
    k, v = design.k, design.v
    for n, blk in enumerate(design.blocks, 1):
        if len(blk) != k or not all(map(operator.lt, blk, blk[1:])):
            defect = f"is not {k} distinct points in increasing order"
        elif blk[0] < 0 or blk[-1] >= v:
            defect = f"has a point outside the range 0..{v - 1}"
        else:
            continue
        raise ValueError(f"block {n} {defect}: {' '.join(map(str, blk))}")


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
    if len(set(design.blocks)) != design.b:
        return False
    lam = verify_t_design(design.blocks, 3, v=v)
    if design.is_design:
        if lam != design.lam:
            return False
        return design.b * comb(design.k, 3) == design.lam * comb(v, 3)
    return lam is None


def format_design(design: Design) -> str:
    """Serialize: header `v k lambda b`, an extra flag line for
    non-designs, then one sorted block per line, rows in sorted order."""
    lines = [f"{design.v} {design.k} {design.lam} {design.b}"]
    if not design.is_design:
        lines.append(NON_DESIGN_FLAG)
    for blk in sorted(design.blocks):
        lines.append(" ".join(str(z) for z in blk))
    return "\n".join(lines) + "\n"


def parse_design(text: str) -> Design:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty design file")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError(f"malformed header: {lines[0]!r}")
    try:
        v, k, lam, b = (int(x) for x in head)
    except ValueError:
        raise ValueError(f"malformed header: {lines[0]!r}")
    body = lines[1:]
    is_design = True
    if body and body[0] == NON_DESIGN_FLAG:
        is_design = False
        body = body[1:]
    if is_design ^ (lam > 0):
        raise ValueError("header lambda and design flag disagree")
    if len(body) != b:
        raise ValueError(f"expected {b} blocks, found {len(body)}")
    blocks = []
    for ln in body:
        blk = tuple(int(x) for x in ln.split())
        if len(blk) != k:
            raise ValueError(f"block of size {len(blk)}, expected {k}: {ln!r}")
        blocks.append(blk)
    return Design(q=v - 1, k=k, lam=lam, blocks=tuple(blocks), is_design=is_design)


def write_design(design: Design, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_design(design))


def read_design(path: str) -> Design:
    with open(path) as fh:
        return parse_design(fh.read())
