"""The extension field table that gf.make_extension_field reads: which
fields it lists, the form of each line, and its agreement with the search
in scalar_oracles that wrote it, directly and through tools/field_table.py."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from psldesigns import gf

from scalar_oracles import search_extension_field

TOOL = Path(__file__).resolve().parent.parent / "tools" / "field_table.py"


def _table():
    """(p, n, (c0, ..., c_{n-1}), alpha) for every line, in file order."""
    rows = []
    with open(gf.EXT_FIELD_TABLE) as table:
        for line in table:
            p, n, *cs, alpha = map(int, line.split())
            rows.append((p, n, tuple(cs), alpha))
    return rows


@pytest.fixture(scope="module")
def table():
    return _table()


@pytest.fixture
def field_table(monkeypatch):
    """tools/field_table.py as a module; the sys.path entries it adds are
    dropped after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("field_table", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_table_lists_every_odd_extension_field_once_by_q(table):
    """Exactly the 5,106 odd p^n <= 2^31 with n >= 2, q strictly rising."""
    want = set()
    for p in range(3, 46_341, 2):
        if all(p % d for d in range(3, int(p**0.5) + 1, 2)):
            want.update((p, n) for n in range(2, 32) if p**n <= 2**31)
    assert len(want) == 5106
    orders = [(p, n) for p, n, _, _ in table]
    assert set(orders) == want and len(orders) == len(want)
    qs = [p**n for p, n in orders]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_table_lines_are_well_formed(table):
    """Each modulus has n coefficients below p under its implied leading
    1, so it is monic of degree n, with c0 != 0; and p <= alpha < q."""
    for p, n, cs, alpha in table:
        assert len(cs) == n and all(0 <= c < p for c in cs) and cs[0] != 0, (p, n)
        assert p <= alpha < p**n, (p, n)
    rows = {(p, n): ((*cs, 1), alpha) for p, n, cs, alpha in table}
    for p, n in ((3, 2), (3, 19), (46_337, 2)):
        spec = gf.make_extension_field(p, n)
        assert (spec.modulus, spec.alpha) == rows[p, n]


def test_table_sample_above_a_million_matches_the_search(table):
    """A seeded sample of 50 lines with q > 10^6, below the digest of
    test_gf, regenerated by the search that wrote the table."""
    large = [row for row in table if row[0] ** row[1] > 10**6]
    assert len(large) == 5106 - 218
    for p, n, cs, alpha in random.Random(23).sample(large, 50):
        assert search_extension_field(p, n) == ((*cs, 1), alpha), (p, n)


def test_field_table_check_passes_up_to_a_million(field_table, capsys):
    assert field_table.main(["--check", "--qmax", str(10**6)]) == 0
    assert capsys.readouterr().out == "218 fields with q <= 1000000 match the search\n"


def test_field_table_check_reports_a_changed_line(field_table, tmp_path, monkeypatch, capsys):
    """One alpha changed, one line dropped or one line added: the check
    names the line and exits 1."""
    lines = Path(gf.EXT_FIELD_TABLE).read_text().splitlines(keepends=True)
    assert lines[1:3] == ["5 2 1 1 7\n", "3 3 1 0 2 3\n"]
    head, tail = lines[0], "".join(lines[2:])
    changed = tmp_path / "ext_fields.txt"
    monkeypatch.setattr(gf, "EXT_FIELD_TABLE", str(changed))
    for text, message in (
        (head + "5 2 1 1 8\n" + tail, "line 2: table has 5 2 1 1 8, the search gives 5 2 1 1 7"),
        (head + tail, "line 2: table has 3 3 1 0 2 3, the search gives 5 2 1 1 7"),
        (head + "5 2 1 1 7\n" * 2 + tail, "line 3: table has 5 2 1 1 7, the search gives 3 3 1 0 2 3"),
        (head, "line 2: table has no line, the search gives 5 2 1 1 7"),
        ("".join(lines[:5]) + "1 1 0 0\n", "line 6: table has 1 1 0 0, the search gives no line"),
    ):
        changed.write_text(text)
        assert field_table.main(["--check", "--qmax", "100"]) == 1
        assert capsys.readouterr().out == message + "\n"


def test_field_table_qmax_needs_check(field_table, capsys):
    with pytest.raises(SystemExit) as exc:
        field_table.main(["--qmax", "100"])
    assert exc.value.code == 2
    assert "--qmax needs --check" in capsys.readouterr().err
