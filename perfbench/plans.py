"""Op lists of the three workloads, made from (workload, seed, seconds).

An op is one `psldesigns.cli.main(argv)` call. A plan is a list of
rounds, each a list of ops run in its own fresh interpreter; run.py
reports the median over rounds, so a few seconds of interference from
other processes on the host move one round, not the result. The same
seed and seconds always give the same plan; the program only ever sees
the argv lists. The sweep and queries rounds are sized so that all rounds
take about `seconds` on a 2-core host with Python 3.11; the orbit job list
is fixed. A run normally completes its whole plan, so traced counts repeat
exactly. Each workload keeps its cost mix fixed and lets the seed
pick the concrete inputs, so that two seeds measure the same kind of work.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

import oracle
import universe

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
WORKLOADS = ("sweep", "orbit", "queries")

SWEEP_TABLE_KS = (5, 10, 13, 17, 25, 26, 29, 34, 37, 41, 49, 50, 53, 58)
SWEEP_ROUNDS = 5
# qmax per second of round budget, and the jitter a seed applies to the
# round's bound; all ops of a round share one bound, so the later ops find
# the table's fields in the cache however the bound falls
SWEEP_Q_PER_S = 150_000
SWEEP_JITTER = 0.03
# share of the round's bound used by each op; the shares keep the op
# costs apart, so the median op of a round is always the same op
SWEEP_OPS = (
    ("table", 1.0),
    ("k13pp", 1.0),
    ("pair", 1.0),
    ("thm510", 0.25),
    ("thm1326", 0.25),
)

# (q, k) in the order a round runs them: prime and extension fields
# (n = 1, 2, 3), odd-cofactor designs, even-cofactor hits and non-designs.
# Every k here is below p or keeps the dihedral stabilizer, so
# b = |PSL(2,q)| / (k or 2k). Op costs run from 10 ms to 7 s. Half of the
# ops take 0.1 to 0.4 s, so that op_p50_ms and op_tail_ms fall among many
# ops of like cost rather than on one op each; the two longest jobs,
# (125,31) and (181,10), split the round in three, and those ops are spread
# over the three parts, so neither metric rests on the host's speed during
# one second or two. The first ORBIT_SMOKE_JOBS are the cheapest.
ORBIT_JOBS = (
    (29, 7),
    (41, 10),
    (37, 12),
    (89, 11),
    (67, 6),
    (97, 8),
    (61, 10),
    (125, 31),
    (53, 13),
    (43, 14),
    (73, 8),
    (71, 10),
    (113, 14),
    (181, 10),
    (61, 5),
    (97, 6),
    (49, 16),
    (121, 10),
)
# A round runs the whole list, about 21 s on a 2-core host, so orbit has
# two rounds, which keeps a run near 40 s. Below ORBIT_FULL_SECONDS (the
# self-test's smoke size) a round takes only the first ORBIT_SMOKE_JOBS.
ORBIT_ROUNDS = 2
ORBIT_FULL_SECONDS = 10
ORBIT_SMOKE_JOBS = 3
# the oracle subcommand at one prime and one extension field, q <= 64
ORBIT_ORACLE_Q = (61, 25)

QUERIES_ROUNDS = 5
QUERIES_PER_S = 215


@dataclass
class Op:
    argv: list[str]
    kind: str
    # what the checker needs: bounds, (q, k), or the universe entry
    info: dict = field(default_factory=dict)


def _sweep(seed: int, seconds: float) -> list[list[Op]]:
    rng = random.Random(f"sweep:{seed}")
    cap = load_sweep_record()["q_max"] / (1 + SWEEP_JITTER)
    base = min(SWEEP_Q_PER_S * seconds / SWEEP_ROUNDS, cap)
    return [_sweep_round(rng, base) for _ in range(SWEEP_ROUNDS)]


def _sweep_round(rng: random.Random, base: float) -> list[Op]:
    base *= rng.uniform(1 - SWEEP_JITTER, 1 + SWEEP_JITTER)
    ops = []
    for kind, share in SWEEP_OPS:
        bound = int(base * share)
        argv = {
            "table": ["sweep", "--table", "--qmax", str(bound), "--json"],
            "k13pp": ["sweep", "--k", "13", "--prime-powers", "--qmax", str(bound), "--json"],
            "pair": ["sweep", "--pair", "5", "10", "--qmax", str(bound), "--json"],
            "thm510": ["thm510", "--pmax", str(bound), "--json"],
            "thm1326": ["thm1326", "--pmax", str(bound), "--json"],
        }[kind]
        ops.append(Op(argv, kind, {"bound": bound}))
    return ops


def _orbit(seed: int, seconds: float) -> list[list[Op]]:
    """ORBIT_ROUNDS rounds of the job list in a fixed order. The seed picks
    each prime build's generator (which leaves the blocks unchanged) and
    the oracle seeds."""
    rng = random.Random(f"orbit:{seed}")
    jobs = ORBIT_JOBS if seconds >= ORBIT_FULL_SECONDS else ORBIT_JOBS[:ORBIT_SMOKE_JOBS]
    return [_orbit_round(rng, jobs) for _ in range(ORBIT_ROUNDS)]


def _orbit_round(rng: random.Random, jobs) -> list[Op]:
    ops = []
    for q, k in jobs:
        path = f"d_{q}_{k}.txt"
        build = ["build", str(q), str(k), "--out", path]
        if oracle.is_prime(q):
            build += ["--alpha", str(_random_generator(rng, q))]
        ops.append(Op(build, "build", {"q": q, "k": k}))
        ops.append(Op(["verify", path, "--json"], "verify", {"q": q, "k": k}))
    for q in ORBIT_ORACLE_Q:
        oseed = str(rng.randrange(2**31))
        ops.append(Op(["oracle", str(q), "--seed", oseed, "--json"], "oracle", {"q": q}))
    return ops


def _random_generator(rng: random.Random, p: int) -> int:
    """A generator of GF(p)*: g^j for a random j prime to p - 1."""
    while True:
        j = rng.randrange(1, p - 1)
        if gcd(j, p - 1) == 1:
            return pow(oracle.primitive_root(p), j, p)


def _queries(seed: int, seconds: float) -> list[list[Op]]:
    """Rounds of a closed loop with one client; each round draws its own
    requests, stratum by stratum in fixed proportions."""
    rng = random.Random(f"queries:{seed}")
    entries = load_queries_record()
    by_stratum: dict[str, list[int]] = {}
    for i, ent in enumerate(entries):
        by_stratum.setdefault(ent["stratum"], []).append(i)
    per_round = QUERIES_PER_S * seconds / QUERIES_ROUNDS
    rounds = []
    for _ in range(QUERIES_ROUNDS):
        picked = []
        for stratum, share in universe.STRATA.items():
            pool = by_stratum[stratum]
            picked += rng.sample(pool, min(len(pool), max(1, round(per_round * share))))
        rng.shuffle(picked)
        rounds.append(
            [Op(entries[i]["argv"], entries[i]["argv"][0], {"entry": i}) for i in picked]
        )
    return rounds


def make_plan(workload: str, seed: int, seconds: float) -> list[list[Op]]:
    return {"sweep": _sweep, "orbit": _orbit, "queries": _queries}[workload](
        seed, seconds
    )


def load_sweep_record() -> dict:
    with gzip.open(EXPECTED / "sweep.json.gz", "rt") as fh:
        return json.load(fh)


def load_orbit_record() -> dict:
    with open(EXPECTED / "orbit.json") as fh:
        return json.load(fh)


def load_queries_record() -> list[dict]:
    with gzip.open(EXPECTED / "queries.jsonl.gz", "rt") as fh:
        return [json.loads(line) for line in fh]
