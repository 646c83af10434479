"""Write or check the extension field table, src/psldesigns/ext_fields.txt.

    python3 tools/field_table.py                          # rewrite it
    python3 tools/field_table.py --check                  # check every line
    python3 tools/field_table.py --check --qmax 1000000   # lines with q <= Q

The table has one line "p n c0 ... c_{n-1} alpha" for every odd prime
power q = p^n <= 2^31 with n >= 2, sorted by q. (c0, ..., c_{n-1}, 1) is
the lexicographically smallest monic irreducible of degree n over GF(p),
compared from the constant term up, and alpha the smallest encoding of
order q - 1. Both come from the search in tests/scalar_oracles.py, and
gf.make_extension_field reads them.

--check regenerates the lines with q <= Q (all of them by default) and
exits 1 at the first line that differs from the table, 0 when none does.
Run from the root of the repository.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from psldesigns import gf, search  # noqa: E402
from scalar_oracles import search_extension_field  # noqa: E402


def extension_orders(q_max: int) -> list[tuple[int, int]]:
    """(p, n) for every odd p**n <= q_max with n >= 2, sorted by p**n."""
    powers = search._powers_of(search._base_primes(q_max), q_max, 2)
    return [(p, n) for p, n, _ in powers if p > 2]


def order(line: str) -> int:
    """q = p**n of a table line."""
    p, n = line.split()[:2]
    return int(p) ** int(n)


def table_line(p: int, n: int) -> str:
    modulus, alpha = search_extension_field(p, n)
    return " ".join(map(str, (p, n, *modulus[:n], alpha))) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare, do not write")
    parser.add_argument("--qmax", type=int, default=gf.DEFAULT_Q_LIMIT, help="with --check")
    args = parser.parse_args(argv)
    if not args.check and args.qmax != gf.DEFAULT_Q_LIMIT:
        parser.error("--qmax needs --check: the table covers every q <= 2^31")
    orders = extension_orders(min(args.qmax, gf.DEFAULT_Q_LIMIT))
    if not args.check:
        with open(gf.EXT_FIELD_TABLE, "w") as out:
            out.writelines(table_line(p, n) for p, n in orders)
        print(f"wrote {len(orders)} fields to {gf.EXT_FIELD_TABLE}")
        return 0
    with open(gf.EXT_FIELD_TABLE) as table:
        lines = [line for line in table if order(line) <= args.qmax]
    for i, (p, n) in enumerate(orders):
        want = table_line(p, n)
        if i >= len(lines) or lines[i] != want:
            got = lines[i].rstrip() if i < len(lines) else "no line"
            print(f"line {i + 1}: table has {got}, the search gives {want.rstrip()}")
            return 1
    if len(lines) > len(orders):
        print(f"line {len(orders) + 1}: table has {lines[len(orders)].rstrip()}, the search gives no line")
        return 1
    print(f"{len(orders)} fields with q <= {args.qmax} match the search")
    return 0


if __name__ == "__main__":
    sys.exit(main())
