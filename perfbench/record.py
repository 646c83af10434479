"""Record the expected exit code and parsed output of every op the
workloads can issue. Run once, at the commit that defines the benchmark:

    PYTHONPATH=src python3 perfbench/record.py

It writes perfbench/expected/{sweep.json.gz, orbit.json, queries.jsonl.gz}
and then checks that the compact sweep record reproduces the full outputs
at its bound exactly. Later commits are judged against these files.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import sys
import tempfile

import checks
import plans
import universe
from psldesigns import cli

SWEEP_RECORD_Q_MAX = 2_500_000


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def write_gzip(path, lines: list[str]) -> None:
    # mtime 0 keeps the file identical between recordings of the same data
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        for line in lines:
            gz.write((line + "\n").encode())


def record_sweep() -> dict:
    q = str(SWEEP_RECORD_Q_MAX)
    rec: dict = {"q_max": SWEEP_RECORD_Q_MAX, "table": {}}
    rc, out = run(["sweep", "--table", "--qmax", q, "--json"])
    table_rows = json.loads(out)
    for k in plans.SWEEP_TABLE_KS:
        rows = [r for r in table_rows if r["k"] == k]
        hits = [r for r in rows if r["gives_design"]]
        rec["table"][str(k)] = {
            "hits": [r["q"] for r in hits],
            "lambda": hits[0]["lambda"] if hits else "",
        }
    rc, out = run(["sweep", "--k", "13", "--prime-powers", "--qmax", q, "--json"])
    pp_rows = json.loads(out)
    hits = [r for r in pp_rows if r["gives_design"]]
    rec["k13pp"] = {"hits": [r["q"] for r in hits], "lambda": hits[0]["lambda"]}
    rc, out = run(["sweep", "--pair", "5", "10", "--qmax", q, "--json"])
    pair = json.loads(out)
    rec["pair"] = {"hits1": pair["hits1"], "hits2": pair["hits2"]}
    raw = {"pair": (rc, pair)}
    for name in ("thm510", "thm1326"):
        rc, out = run([name, "--pmax", q, "--json"])
        got = json.loads(out)
        rec[name] = {"hits": got["hits"], "disagreements": got["disagreements"]}
        raw[name] = (rc, got)
    write_gzip(plans.EXPECTED / "sweep.json.gz", [json.dumps(rec)])

    # the compact record must give back the full outputs at its bound
    chk = checks.Checker("sweep", 0)
    bound = SWEEP_RECORD_Q_MAX
    if chk.sweep_rows(plans.SWEEP_TABLE_KS, bound, False) != table_rows:
        raise SystemExit("table record does not reproduce the table output")
    if chk.sweep_rows((13,), bound, True) != pp_rows:
        raise SystemExit("k=13 prime-power record does not reproduce its output")
    for kind in ("pair", "thm510", "thm1326"):
        if chk.expected_sweep(plans.Op([], kind, {"bound": bound})) != raw[kind]:
            raise SystemExit(f"{kind} record does not reproduce its output")
    return rec


def record_orbit() -> dict:
    rec: dict = {"jobs": {}, "oracle": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for q, k in plans.ORBIT_JOBS:
            path = os.path.join(tmp, "d.txt")
            rc, out = run(["build", str(q), str(k), "--out", path])
            build = {"rc": rc, **checks.parse_build_output(out)}
            del build["path"]
            rc, out = run(["verify", path, "--json"])
            got = json.loads(out)
            del got["path"]
            rec["jobs"][f"{q},{k}"] = {"build": build, "verify": {"rc": rc, "out": got}}
    for q in plans.ORBIT_ORACLE_Q:
        rc, out = run(["oracle", str(q), "--json"])
        got = json.loads(out)
        del got["seed"]
        rec["oracle"][str(q)] = {"rc": rc, "out": got}
    with open(plans.EXPECTED / "orbit.json", "w") as fh:
        json.dump(rec, fh, indent=1)
    return rec


def record_queries() -> int:
    lines = []
    for stratum, argv in universe.build_universe():
        rc, out = run(argv)
        lines.append(json.dumps({"stratum": stratum, "argv": argv, "rc": rc, "out": json.loads(out)}))
    write_gzip(plans.EXPECTED / "queries.jsonl.gz", lines)
    return len(lines)


def main() -> int:
    plans.EXPECTED.mkdir(exist_ok=True)
    record_sweep()
    print("sweep recorded", file=sys.stderr)
    record_orbit()
    print("orbit recorded", file=sys.stderr)
    n = record_queries()
    print(f"queries recorded: {n} requests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
