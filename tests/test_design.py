"""Tests for orbit expansion, coverage verification, and serialization."""

import dataclasses
import math

import pytest

from psldesigns import design, gf, projline, starter


@pytest.fixture(scope="module")
def d13(f13):
    return design.build_design(f13, 4)


@pytest.fixture(scope="module")
def d17(f17):
    return design.build_design(f17, 4)


def _block(spec, k):
    return starter.make_starter_context(spec, k).block


def test_expand_orbit_13_4(f13):
    blocks = design.expand_orbit(f13, _block(f13, 4))
    assert len(blocks) == 273
    assert blocks == sorted(set(blocks))
    for blk in blocks:
        assert len(blk) == 4
        assert list(blk) == sorted(blk)
        assert 0 <= blk[0] and blk[-1] <= 13


def test_expand_orbit_order_insensitive(f13):
    blk = _block(f13, 4)
    shuffled = (blk[2], blk[0], blk[3], blk[1])
    assert design.expand_orbit(f13, blk) == design.expand_orbit(f13, shuffled)


def test_expand_orbit_rejects_repeats(f13):
    with pytest.raises(ValueError):
        design.expand_orbit(f13, (1, 1, 2, 3))


def test_expand_orbit_budget(f13, monkeypatch):
    blk = _block(f13, 4)
    with pytest.raises(RuntimeError, match="budget"):
        design.expand_orbit(f13, blk, budget=10)
    monkeypatch.setenv("PSL_DESIGNS_BUDGET", "10")
    with pytest.raises(RuntimeError, match="budget"):
        design.expand_orbit(f13, blk)
    monkeypatch.setenv("PSL_DESIGNS_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        design.expand_orbit(f13, blk)


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
    blocks = list(d13.blocks)
    blocks[0] = blocks[1]
    assert not design.verify_design(dataclasses.replace(d13, blocks=tuple(blocks)))
    # wrong lambda
    assert not design.verify_design(dataclasses.replace(d13, lam=4))
    # claiming non-design over actually flat blocks
    assert not design.verify_design(
        dataclasses.replace(d13, lam=0, is_design=False)
    )
    # unsorted block
    blocks = list(d13.blocks)
    blocks[0] = tuple(reversed(blocks[0]))
    assert not design.verify_design(dataclasses.replace(d13, blocks=tuple(blocks)))


def test_stabilizer_order_frozen(f13, f17, f41, d13):
    info = design.stabilizer_order(f13, _block(f13, 4), b=d13.b)
    assert info.order == 4
    assert info.claimed_structure == "dihedral of order 4"
    assert len(info.elements) == 4 and info.warning is None

    info = design.stabilizer_order(f41, _block(f41, 5), b=3444)
    assert (info.order, info.claimed_structure) == (10, "dihedral of order 10")
    info = design.stabilizer_order(f41, _block(f41, 10), b=1722)
    assert (info.order, info.claimed_structure) == (20, "dihedral of order 20")
    info = design.stabilizer_order(f17, _block(f17, 4))  # b recomputed
    assert (info.order, info.claimed_structure) == (8, "dihedral of order 8")

    f19 = gf.make_prime_field(19)
    info = design.stabilizer_order(f19, _block(f19, 6), b=570)
    assert (info.order, info.claimed_structure) == (6, "dihedral of order 6")


def test_stabilizer_elements_stabilize(f41):
    block = _block(f41, 10)
    info = design.stabilizer_order(f41, block, b=1722)
    blockset = set(block)
    for g in info.elements:
        assert {projline.apply(f41, g, z) for z in block} == blockset


def test_stabilizer_k_at_least_p_warning(f9):
    block = _block(f9, 4)
    info = design.stabilizer_order(f9, block)
    assert info.order == 24
    assert info.claimed_structure is None
    assert len(info.elements) == 8
    assert "not checked" in info.warning


def test_stabilizer_rejects_bad_orbit_length(f13):
    with pytest.raises(RuntimeError, match="does not divide"):
        design.stabilizer_order(f13, _block(f13, 4), b=5)


def test_check_flag_transitive(f13, f17, f41, f9, d13, d17):
    assert not design.check_flag_transitive(f13, _block(f13, 4), d13.blocks)
    assert design.check_flag_transitive(f17, _block(f17, 4), d17.blocks)
    d = design.build_design(f41, 5)
    assert design.check_flag_transitive(f41, _block(f41, 5), d.blocks)
    d = design.build_design(f41, 10)
    assert design.check_flag_transitive(f41, _block(f41, 10), d.blocks)
    f19 = gf.make_prime_field(19)
    d = design.build_design(f19, 6)
    assert design.check_flag_transitive(f19, _block(f19, 6), d.blocks)
    d9 = design.build_design(f9, 4)
    assert design.check_flag_transitive(f9, _block(f9, 4), d9.blocks)


def test_format_parse_round_trip(d13, d17):
    for d in (d13, d17):
        text = design.format_design(d)
        back = design.parse_design(text)
        assert back == dataclasses.replace(d, blocks=tuple(sorted(d.blocks)))
    head = design.format_design(d13).splitlines()[0]
    assert head == "14 4 3 273"
    assert design.format_design(d17).splitlines()[1] == design.NON_DESIGN_FLAG


def test_write_read_round_trip(tmp_path, d13):
    path = tmp_path / "out.txt"
    design.write_design(d13, str(path))
    assert design.read_design(str(path)) == d13


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
