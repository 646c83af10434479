"""Output checks and work counts for every op of a run.

Expected exit codes and parsed --json outputs were recorded once, at the
seed commit, by record.py. Sweep outputs are recorded at the largest
bound as hit lists; the expected output at a smaller bound is the same
rows cut at that bound, since each q is decided on its own. On top of the
record, the standalone integer oracle (oracle.py) re-decides a seeded
sample of prime-field decisions, and checks orbit sizes and the design
counting identity.
"""

from __future__ import annotations

import bisect
import json
import random
from math import comb

import oracle
import plans

NON_DESIGN_FLAG = "[NOT-A-3-DESIGN]"
ORACLE_SAMPLE = 3  # decisions re-decided per round


def parse_build_output(out: str) -> dict | None:
    """The numbers of build's line `v k lambda b ... -> PATH`, or None."""
    head, sep, path = out.strip().rpartition(" -> ")
    fields = head.split()
    if not sep or len(fields) < 4:
        return None
    v, k, lam, b = (int(f) for f in fields[:4])
    return {"v": v, "k": k, "lam": lam, "b": b, "flag": NON_DESIGN_FLAG in fields, "path": path}


class Checker:
    """Judges op results of one workload; sweep_work and orbit_work give
    each op's work units."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random(f"check:{workload}:{seed}")
        if workload == "sweep":
            self.rec = plans.load_sweep_record()
            self.prime_powers = oracle.prime_powers_upto(self.rec["q_max"])
            self.primes = [p for p, n, _ in self.prime_powers if n == 1]
        elif workload == "orbit":
            self.rec = plans.load_orbit_record()
        else:
            self.entries = plans.load_queries_record()

    # -- sweep ---------------------------------------------------------

    def _primes_upto(self, bound: int) -> list[int]:
        return self.primes[: bisect.bisect_right(self.primes, bound)]

    def _candidates(self, k: int, bound: int, prime_powers: bool):
        m = oracle.sweep_modulus(k)
        pool = self.prime_powers if prime_powers else [(p, 1, p) for p in self.primes]
        return [
            (p, n, q) for p, n, q in pool if q <= bound and q % m == 1 and q > k + 1
        ]

    def sweep_rows(self, ks, bound: int, prime_powers: bool) -> list[dict]:
        rows = []
        for k in ks:
            rec = self.rec["k13pp"] if prime_powers else self.rec["table"][str(k)]
            hits = set(rec["hits"])
            for p, n, q in self._candidates(k, bound, prime_powers):
                ok = q in hits
                rows.append(
                    {
                        "k": k,
                        "k_mod_24": k % 24,
                        "q": q,
                        "p": p,
                        "n": n,
                        "e_parity": "even" if (q - 1) // k % 2 == 0 else "odd",
                        "lambda": rec["lambda"] if ok else "",
                        "gives_design": ok,
                    }
                )
        return rows

    def _cut(self, values, bound: int) -> list[int]:
        return [v for v in values if v <= bound]

    def expected_sweep(self, op: plans.Op) -> tuple[int, object]:
        bound = op.info["bound"]
        if op.kind == "table":
            return 0, self.sweep_rows(plans.SWEEP_TABLE_KS, bound, False)
        if op.kind == "k13pp":
            return 0, self.sweep_rows((13,), bound, True)
        if op.kind == "pair":
            h1 = self._cut(self.rec["pair"]["hits1"], bound)
            h2 = self._cut(self.rec["pair"]["hits2"], bound)
            diff = set(h1) ^ set(h2)
            out = {
                "k1": 5,
                "k2": 10,
                "qmax": bound,
                "hits1": h1,
                "hits2": h2,
                "coincide": not diff,
                "first_divergence": min(diff) if diff else None,
            }
            return (0 if not diff else 1), out
        rec = self.rec[op.kind]
        m = 20 if op.kind == "thm510" else 52
        bad = self._cut(rec["disagreements"], bound)
        out = {
            "name": op.kind,
            "bound": bound,
            "primes_checked": sum(1 for p in self._primes_upto(bound) if p % m == 1),
            "all_consistent": not bad,
            "disagreements": bad,
            "hits": self._cut(rec["hits"], bound),
        }
        return (0 if not bad else 1), out

    def sweep_work(self, op: plans.Op) -> int:
        """(k, q) candidates plus equivalence primes decided by the op."""
        bound = op.info["bound"]
        if op.kind == "table":
            return sum(len(self._candidates(k, bound, False)) for k in plans.SWEEP_TABLE_KS)
        if op.kind == "k13pp":
            return len(self._candidates(13, bound, True))
        if op.kind == "pair":
            return len(self._candidates(5, bound, False)) + len(
                self._candidates(10, bound, False)
            )
        m = 20 if op.kind == "thm510" else 52
        return sum(1 for p in self._primes_upto(bound) if p % m == 1)

    # -- orbit ---------------------------------------------------------

    def orbit_work(self, op: plans.Op) -> dict[str, int]:
        if op.kind == "oracle":
            return {"triples": comb(op.info["q"] + 1, 3)}
        q, k = op.info["q"], op.info["k"]
        b = oracle.orbit_size(q, k)
        return {"blocks": b, "triples": b * comb(k, 3)}

    def _check_orbit(self, op: plans.Op, rc, out: str) -> list[str]:
        if op.kind == "oracle":
            q = op.info["q"]
            exp = self.rec["oracle"][str(q)]
            got = json.loads(out)
            problems = []
            if got.pop("seed", None) != int(op.argv[3]):
                problems.append("oracle seed not echoed")
            if (rc, got) != (exp["rc"], exp["out"]):
                problems.append(f"oracle {q}: got rc={rc} {got}")
            if got.get("triples") != comb(q + 1, 3) or got.get("agreement") is not True:
                problems.append(f"oracle {q}: triple count or agreement wrong")
            return problems
        q, k = op.info["q"], op.info["k"]
        exp = self.rec["jobs"][f"{q},{k}"][op.kind]
        v = q + 1
        e = (q - 1) // k
        if op.kind == "build":
            got = parse_build_output(out)
            if got is None or got.pop("path") != op.argv[4]:
                return [f"build {q} {k}: unreadable output {out!r}"]
            got = {"rc": rc, **got}
            problems = [] if got == exp else [f"build {q} {k}: got {got}, want {exp}"]
            b, lam, is_design = got["b"], got["lam"], not got["flag"]
        else:
            got = json.loads(out)
            if got.pop("path", None) != op.argv[1]:
                return [f"verify {q} {k}: path not echoed"]
            problems = [] if (rc, got) == (exp["rc"], exp["out"]) else [
                f"verify {q} {k}: got rc={rc} {got}"
            ]
            b, lam = got["b"], got["recomputed_lambda"]
            is_design = lam is not None
            if not got["match"]:
                problems.append(f"verify {q} {k}: recount does not match header")
        if b != oracle.orbit_size(q, k):
            problems.append(f"{q} {k}: b = {b}, oracle {oracle.orbit_size(q, k)}")
        if is_design and not (
            lam == oracle.lambda_of(k, e) and oracle.counting_identity(b, k, lam, v)
        ):
            problems.append(f"{q} {k}: b*C(k,3) != lambda*C(v,3) with lambda {lam}")
        return problems

    # -- queries -------------------------------------------------------

    def _check_query(self, op: plans.Op, rc, out: str) -> list[str]:
        exp = self.entries[op.info["entry"]]
        got = json.loads(out)
        if (rc, got) != (exp["rc"], exp["out"]):
            return [f"{' '.join(op.argv)}: got rc={rc} {got}"]
        return []

    # -- all -----------------------------------------------------------

    def check(self, op: plans.Op, result: dict) -> list[str]:
        """Problems with one op's result; empty when it is correct."""
        if result.get("exc"):
            return [f"{' '.join(op.argv)} raised:\n{result['exc']}"]
        rc, out = result["rc"], result["out"]
        try:
            if self.workload == "sweep":
                exp_rc, exp_out = self.expected_sweep(op)
                got = json.loads(out)
                if (rc, got) != (exp_rc, exp_out):
                    return [f"{' '.join(op.argv)}: rc={rc}, output differs from record"]
                return []
            if self.workload == "orbit":
                return self._check_orbit(op, rc, out)
            return self._check_query(op, rc, out)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"{' '.join(op.argv)}: unreadable output ({exc}): {out[:200]!r}"]

    def oracle_sample(self, passed: list[tuple[int, plans.Op, dict]]) -> dict[int, str]:
        """Re-decide a seeded sample of the prime-field decisions in the
        outputs of ops that passed check(), by the direct Legendre sum;
        returns {op index: problem}."""
        decisions = []  # (op index, p, k, decided gives_design, delta_sum or None)
        for i, op, res in passed:
            if self.workload == "sweep" and op.kind == "table":
                rows = json.loads(res["out"])
                for row in self.rng.sample(rows, min(ORACLE_SAMPLE, len(rows))):
                    decisions.append((i, row["q"], row["k"], row["gives_design"], None))
            elif self.workload == "queries" and op.kind in ("check", "lift"):
                q, k = int(op.argv[1]), int(op.argv[2])
                if oracle.is_prime(q):
                    got = json.loads(res["out"])
                    if op.kind == "check":
                        decisions.append((i, q, k, got["gives_design"], got["delta_sum"]))
                    else:
                        decisions.append((i, q, k, got["base"], None))
        if self.workload == "queries":
            decisions = self.rng.sample(decisions, min(ORACLE_SAMPLE, len(decisions)))
        problems = {}
        for i, p, k, decided, dsum in decisions:
            want = oracle.gives_design(p, k)
            if decided != want:
                problems[i] = f"oracle: ({p}, {k}) gives_design is {want}, op said {decided}"
            elif dsum is not None and dsum != oracle.delta_sum_direct(p, k):
                problems[i] = f"oracle: ({p}, {k}) delta sum differs from {dsum}"
        return problems
