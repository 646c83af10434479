"""Golden CLI outputs: the exit code, stdout and stderr of every case below,
byte for byte, as recorded in cli_golden.json.

A case is a list of steps run in one temporary directory. A step is an
argv list, in which "{tmp}" stands for that directory, or a
{"write": name, "text": ...} step that puts a file there. The directory's
path is written back as "{tmp}" in the recorded output.

Re-record after an intended change of output, and review the diff:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from psldesigns import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
BIG = str(2**61 - 1)

NOT_A_DESIGN = {"write": "d.txt", "text": "4 3 1 2\n0 1 2\n0 1 3\n"}
OUT_OF_RANGE = {"write": "bad.txt", "text": "4 3 0 1\nNOT-A-3-DESIGN\n0 1 4\n"}
_VERIFY_EACH_WAY = (
    ["verify", "{tmp}/d.txt"],
    ["verify", "{tmp}/d.txt", "--json"],
    ["verify", "{tmp}/d.txt", "--t", "2"],
    ["verify", "{tmp}/d.txt", "--t", "2", "--json"],
)

CASES: dict[str, list] = {
    # check: even and odd cofactor, k = 0 mod 4, --alpha, an extension field
    "check-even": [["check", "41", "10"], ["check", "41", "10", "--json"]],
    "check-even-non-design": [["check", "29", "7"], ["check", "29", "7", "--json"]],
    "check-k-0-mod-4": [["check", "17", "4"], ["check", "17", "4", "--json"]],
    "check-odd": [["check", "13", "4"], ["check", "13", "4", "--json"]],
    "check-alpha": [
        ["check", "41", "5", "--alpha", "7"],
        ["check", "41", "5", "--alpha", "7", "--json"],
    ],
    "check-extension": [["check", "125", "31"], ["check", "125", "31", "--json"]],
    "check-errors": [
        ["check", "41", "7"],
        ["check", "24", "5"],
        ["check", "41", "5", "--alpha", "47", "--json"],
        ["check", "41"],
    ],
    # seq: a prime field, an extension field, k = 0 mod 4
    "seq-prime": [
        ["seq", "3797", "13", "--alpha", "128"],
        ["seq", "3797", "13", "--json"],
        ["seq", "41", "10"],
    ],
    "seq-extension": [["seq", "125", "31"], ["seq", "25", "6", "--json"]],
    "seq-k-0-mod-4": [["seq", "17", "4"], ["seq", "17", "4", "--json"]],
    # build then verify: a design, a non-design, and files that are neither
    "build-verify-design": [
        ["build", "41", "10", "--out", "{tmp}/d.txt"],
        *_VERIFY_EACH_WAY,
    ],
    "build-verify-non-design": [
        ["build", "17", "4", "--out", "{tmp}/d.txt"],
        *_VERIFY_EACH_WAY,
    ],
    "build-alpha-extension": [
        ["build", "41", "5", "--alpha", "7", "--out", "{tmp}/d.txt"],
        ["build", "25", "6", "--out", "{tmp}/e.txt"],
        ["verify", "{tmp}/e.txt"],
    ],
    "build-errors": [
        ["build", "41", "10"],
        ["build", "41", "5", "--alpha", "47", "--out", "{tmp}/d.txt"],
        ["build", BIG, "5", "--out", "{tmp}/d.txt"],
    ],
    "verify-mismatch": [NOT_A_DESIGN, *_VERIFY_EACH_WAY],
    "verify-errors": [
        ["verify", "{tmp}/missing.txt"],
        ["verify", "{tmp}/missing.txt", "--json"],
        OUT_OF_RANGE,
        ["verify", "{tmp}/bad.txt", "--json"],
        ["verify", "{tmp}/bad.txt", "--t", "4"],
    ],
    # sweep
    "sweep-k": [["sweep", "--k", "5", "--qmax", "700"]],
    "sweep-k-no-hits": [["sweep", "--k", "5", "--qmax", "40"]],
    "sweep-table": [["sweep", "--table", "--qmax", "300"]],
    "sweep-pair-coincide": [
        ["sweep", "--pair", "5", "10", "--qmax", "700"],
        ["sweep", "--pair", "5", "10", "--qmax", "700", "--json"],
    ],
    "sweep-pair-diverge": [
        ["sweep", "--pair", "17", "34", "--qmax", "1000"],
        ["sweep", "--pair", "17", "34", "--qmax", "1000", "--json"],
    ],
    "sweep-prime-powers": [
        ["sweep", "--k", "13", "--prime-powers", "--qmax", "4000"],
        ["sweep", "--k", "5", "--prime-powers", "--qmax", "200", "--json"],
    ],
    "sweep-csv": [
        ["sweep", "--k", "5", "--qmax", "300", "--csv"],
        ["sweep", "--k", "5", "--qmax", "40", "--csv"],
        ["sweep", "--table", "--qmax", "60", "--csv"],
    ],
    "sweep-json": [
        ["sweep", "--k", "5", "--qmax", "300", "--json"],
        ["sweep", "--k", "5", "--qmax", "40", "--json"],
        ["sweep", "--k", "5", "--qmax", "100", "--csv", "--json"],
    ],
    "sweep-errors": [
        ["sweep", "--qmax", "100"],
        ["sweep", "--k", "3", "--qmax", "1000"],
        ["sweep", "--k", "5", "--qmax", "-5"],
        ["sweep", "--pair", "5", "3", "--qmax", "1000"],
        ["sweep", "--k", "5", "--qmax", str(2**31 + 1)],
        ["sweep", "--table", "--qmax", str(2**31 + 1), "--csv"],
    ],
    # rows streamed one k at a time: several k blocks, some of them empty,
    # prime powers among the rows, and refusals before the first byte
    "sweep-table-json": [
        ["sweep", "--table", "--qmax", "300", "--json"],
        ["sweep", "--table", "--qmax", "60", "--json"],
    ],
    "sweep-prime-powers-csv": [["sweep", "--k", "13", "--prime-powers", "--qmax", "4000", "--csv"]],
    "sweep-errors-json": [
        ["sweep", "--k", "3", "--qmax", "1000", "--json"],
        ["sweep", "--table", "--qmax", str(2**31 + 1), "--json"],
    ],
    # the equivalence scans, including bounds below the first prime
    "thm510": [["thm510", "--pmax", "700"], ["thm510", "--pmax", "700", "--json"]],
    "thm1326": [["thm1326", "--pmax", "4000"], ["thm1326", "--pmax", "4000", "--json"]],
    "thm-no-primes": [
        ["thm510", "--pmax", "40"],
        ["thm510", "--pmax", "40", "--json"],
        ["thm1326", "--pmax", "52"],
    ],
    "thm-errors": [["thm510", "--pmax", "-3"], ["thm1326"]],
    # lift
    "lift": [["lift", "29", "13", "3"], ["lift", "29", "13", "3", "--json"]],
    # lifts to GF(3^19) and GF(3^18), extension fields near the size limit
    "lift-large-modulus": [
        ["lift", "3", "4", "19"],
        ["lift", "3", "4", "19", "--json"],
        ["lift", "729", "14", "3"],
        ["lift", "729", "14", "3", "--json"],
    ],
    "lift-errors": [
        ["lift", "41", "5", "0"],
        ["lift", "41", "5", "0", "--json"],
        ["lift", "41", "5", "7"],
        ["lift", "12", "5", "3"],
    ],
    # oracle
    "oracle-13": [["oracle", "13"], ["oracle", "13", "--trials", "40", "--json"]],
    "oracle-25": [["oracle", "25", "--trials", "30", "--seed", "5"]],
    "oracle-errors": [["oracle", "11"], ["oracle", "97", "--json"]],
    # every other q = 1 mod 4 up to the oracle limit, with the default trials
    **{
        f"oracle-{q}": [["oracle", str(q)], ["oracle", str(q), "--json"]]
        for q in (5, 9, 17, 29, 37, 41, 49, 53, 61)
    },
    # size limits and usage errors
    "size-limits": [
        ["check", BIG, "5"],
        ["seq", BIG, "5", "--json"],
        ["lift", BIG, "5", "1"],
        ["thm1326", "--pmax", str(2**31 + 1)],
    ],
    "usage": [
        [],
        ["frobnicate"],
        ["sweep", "--k", "5", "--qmax", "700", "--threads", "2"],
        ["seq", "41"],
        ["sweep", "--k", "5"],
        ["lift", "41", "5"],
        ["oracle", "--json"],
        ["thm510", "--pmax", "x"],
    ],
    # --pair: (k, 2k) pairs with k odd, which share their candidates, a
    # pair of unrelated k, and a refused bound
    "sweep-pair-routes": [
        ["sweep", "--pair", "13", "26", "--qmax", "5000", "--json"],
        ["sweep", "--pair", "7", "14", "--qmax", "3000"],
        ["sweep", "--pair", "5", "13", "--qmax", "100"],
        ["sweep", "--pair", "5", "10", "--qmax", "0"],
    ],
    # GF(3^4), eight generators: a design and a non-design, built and verified
    "build-degree-4": [
        ["build", "81", "16", "--out", "{tmp}/d.txt"],
        ["verify", "{tmp}/d.txt"],
        ["build", "81", "10", "--out", "{tmp}/e.txt"],
        ["verify", "{tmp}/e.txt", "--json"],
    ],
    # the largest field of degree 2, GF(46337^2), and GF(3^19), whose
    # moduli and generators come from the field table
    "extension-fields-near-the-limit": [
        ["check", "2147117569", "6"],
        ["check", "2147117569", "6", "--json"],
        ["seq", "1162261467", "3194"],
        ["check", "1162261467", "3194", "--json"],
    ],
    # the table's pairs (k, 2k) decided in one pass, with prime powers too
    "sweep-table-pairs": [
        ["sweep", "--table", "--csv", "--qmax", "3000"],
        ["sweep", "--table", "--prime-powers", "--json", "--qmax", "3000"],
    ],
    # Baer sublines, whose stabiliser PGL(2, q0) is larger than the
    # dihedral one: (169, 14), whose transversal's 86,190 rows fit the
    # block budget and hold each of the 1,105 blocks 78 times, and
    # (529, 24), whose 1,542,035 do not, so the closure builds its 6,095
    "build-baer-sublines": [
        ["build", "169", "14", "--out", "{tmp}/d.txt"],
        ["verify", "{tmp}/d.txt", "--json"],
        ["build", "529", "24", "--out", "{tmp}/e.txt"],
    ],
    # --pair written even-first, and a pair of unrelated k, as JSON
    "sweep-pair-either-order": [
        ["sweep", "--pair", "10", "5", "--qmax", "3000"],
        ["sweep", "--pair", "10", "5", "--qmax", "3000", "--json"],
        ["sweep", "--pair", "26", "13", "--qmax", "5000", "--json"],
        ["sweep", "--pair", "5", "13", "--qmax", "3000", "--json"],
    ],
    # a non-design that passes the divisibility test (lambda* = 33 is an
    # integer), so that verify reads the coverage of a triple to refuse it
    "build-verify-probe": [
        ["build", "53", "13", "--out", "{tmp}/d.txt"],
        ["verify", "{tmp}/d.txt"],
        ["verify", "{tmp}/d.txt", "--json"],
    ],
}


def run_case(steps: list, tmp: str) -> list[dict]:
    """Run one case's steps in the directory tmp and return what each
    argv step exited with and printed."""
    results = []
    for step in steps:
        if isinstance(step, dict):
            Path(tmp, step["write"]).write_text(step["text"])
            continue
        argv = [a.replace("{tmp}", tmp) for a in step]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        results.append(
            {
                "argv": step,
                "code": code,
                "out": out.getvalue().replace(tmp, "{tmp}"),
                "err": err.getvalue().replace(tmp, "{tmp}"),
            }
        )
    return results


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert list(golden) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_is_unchanged(name, golden, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    monkeypatch.delenv("PSL_DESIGNS_BUDGET", raising=False)
    assert run_case(CASES[name], str(tmp_path)) == golden[name]


def _record() -> None:
    os.environ["COLUMNS"] = "80"
    os.environ.pop("PSL_DESIGNS_BUDGET", None)
    recorded = {}
    for name, steps in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = run_case(steps, tmp)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
