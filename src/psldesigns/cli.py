"""Command-line front end.

Subcommands: check, build, verify, seq, sweep, thm510, thm1326, lift,
oracle. Exit codes are a stable contract: 0 for success / condition true,
1 for a verified-false or mismatch outcome, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import random
import sys

from psldesigns import design, gf, projline, search, starter

DEFAULT_SEED = 20250841


def _fmt_sequence(seq: starter.CharSequence) -> str:
    return ",".join(f"{s:+d}" for s in seq.entries)


def cmd_check(args: argparse.Namespace) -> int:
    spec = gf.field_for_order(args.q)
    ctx = starter.make_starter_context(spec, args.k, alpha=args.alpha)
    ok = starter.gives_design(ctx)
    dsum = None if ctx.e % 2 else starter.delta_sum(ctx)
    try:
        lam = starter.lambda_formula(args.k, ctx.e)
    except ValueError:
        lam = None
    try:
        seq = starter.char_sequence(ctx)
    except ValueError:
        seq = None
    if args.json:
        print(
            json.dumps(
                {
                    "q": args.q,
                    "k": args.k,
                    "e": ctx.e,
                    "e_parity": "odd" if ctx.e % 2 else "even",
                    "alpha": ctx.alpha,
                    "gives_design": ok,
                    "lambda": lam,
                    "delta_sum": dsum,
                    "sequence": list(seq.entries) if seq else None,
                    "sequence_convention": seq.convention if seq else None,
                }
            )
        )
    else:
        print(f"q={args.q} k={args.k} e={ctx.e} ({'odd' if ctx.e % 2 else 'even'})")
        print(f"gives_design: {ok}")
        print(f"lambda: {lam if lam is not None else 'n/a'}")
        print(f"delta_sum: {dsum if dsum is not None else 'n/a (odd cofactor)'}")
        if seq is not None:
            print(f"sequence (alpha={ctx.alpha}): {_fmt_sequence(seq)}")
        else:
            print("sequence: n/a (k = 0 mod 4)")
    return 0 if ok else 1


def cmd_build(args: argparse.Namespace) -> int:
    spec = gf.field_for_order(args.q)
    d = design.build_design(spec, args.k, alpha=args.alpha)
    design.write_design(d, args.out)
    flag = "" if d.is_design else f"  [{design.NON_DESIGN_FLAG}]"
    print(f"{d.v} {d.k} {d.lam} {d.b}{flag} -> {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    d = design.read_design(args.path)
    design.check_blocks(d)
    lam = design.verify_t_design(d.blocks, args.t, v=d.v)
    if args.t == 2:
        ok = lam is not None
        claimed = None
    else:
        claimed = d.lam if d.is_design else None
        ok = lam == claimed
    if args.json:
        print(
            json.dumps(
                {
                    "path": args.path,
                    "v": d.v,
                    "k": d.k,
                    "b": d.b,
                    "t": args.t,
                    "claimed_lambda": claimed,
                    "recomputed_lambda": lam,
                    "match": ok,
                }
            )
        )
    else:
        shown = lam if lam is not None else "none (coverage not constant)"
        print(f"{args.path}: v={d.v} k={d.k} b={d.b} t={args.t}")
        print(f"recomputed lambda: {shown}")
        if args.t == 3:
            print(f"header lambda: {d.lam if d.is_design else 'non-design'}")
            print(f"match: {ok}")
    return 0 if ok else 1


def cmd_seq(args: argparse.Namespace) -> int:
    spec = gf.field_for_order(args.q)
    ctx = starter.make_starter_context(spec, args.k, alpha=args.alpha)
    seq = starter.char_sequence(ctx)
    if args.json:
        print(
            json.dumps(
                {
                    "q": args.q,
                    "k": args.k,
                    "alpha": ctx.alpha,
                    "sequence": list(seq.entries),
                    "convention": seq.convention,
                    "gives_design": starter.gives_design(ctx),
                }
            )
        )
    else:
        print(f"alpha={ctx.alpha}: {_fmt_sequence(seq)}")
    return 0


def _emit_rows_csv(rows: list[dict[str, object]]) -> None:
    fields = ["k", "k_mod_24", "q", "p", "n", "e_parity", "lambda", "gives_design"]
    w = csv.DictWriter(sys.stdout, fieldnames=fields)
    w.writeheader()
    for row in rows:
        w.writerow(row)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.pair:
        k1, k2 = args.pair
        scan = search.verify_pair_coincidence(k1, k2, args.qmax)
        if args.json:
            print(
                json.dumps(
                    {
                        "k1": scan.k1,
                        "k2": scan.k2,
                        "qmax": scan.q_max,
                        "hits1": list(scan.hits1),
                        "hits2": list(scan.hits2),
                        "coincide": scan.coincide,
                        "first_divergence": scan.first_divergence,
                    }
                )
            )
        else:
            print(f"k={k1}: {' '.join(map(str, scan.hits1))}")
            print(f"k={k2}: {' '.join(map(str, scan.hits2))}")
            if scan.coincide:
                print("coincide up to the bound")
            else:
                print(f"diverge at {scan.first_divergence}")
        return 0 if scan.coincide else 1
    ks = list(search.SWEEP_TABLE_KS) if args.table else [args.k]
    if args.csv or args.json:
        rows = search.sweep_rows(ks, args.qmax, include_prime_powers=args.prime_powers)
        if args.json:
            print(json.dumps(rows))
        else:
            _emit_rows_csv(rows)
        return 0
    for k in ks:
        res = search.sweep(k, args.qmax, include_prime_powers=args.prime_powers)
        hits = " ".join(map(str, res.hits))
        if args.table:
            print(f"k={k} (mod 24: {k % 24}): {hits}")
        else:
            print(hits)
    return 0


def cmd_equivalence(args: argparse.Namespace) -> int:
    """thm510 and thm1326: the subcommand name is the sweep's name."""
    rep = search.thm_equivalence_sweep(args.command, args.pmax)
    if args.json:
        print(
            json.dumps(
                {
                    "name": rep.name,
                    "bound": rep.bound,
                    "primes_checked": rep.checked,
                    "all_consistent": rep.all_consistent,
                    "disagreements": list(rep.disagreements),
                    "hits": list(rep.hits),
                }
            )
        )
    else:
        state = "holds" if rep.all_consistent else "FAILS"
        print(
            f"{rep.name}: equivalence {state} over {rep.checked} primes <= {rep.bound}"
        )
        if rep.disagreements:
            print(f"disagreements: {' '.join(map(str, rep.disagreements))}")
        print(f"hits: {' '.join(map(str, rep.hits))}")
    return 0 if rep.all_consistent else 1


def cmd_lift(args: argparse.Namespace) -> int:
    res = search.lift_check(args.q, args.k, args.n)
    if args.json:
        print(
            json.dumps(
                {
                    "q": res.q,
                    "k": res.k,
                    "n": res.n,
                    "lifted_q": res.lifted_q,
                    "base": res.base,
                    "lifted": res.lifted,
                    "consistent": res.consistent,
                }
            )
        )
    else:
        print(f"({res.q}, {res.k}) base: {res.base}")
        print(f"({res.lifted_q}, {res.k}) lifted (n={res.n}): {res.lifted}")
        print(f"consistent with lifting rule: {res.consistent}")
    return 0 if res.consistent else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    spec = gf.field_for_order(args.q)
    orbits = projline.brute_force_triple_orbits(spec)
    mismatches = sum(
        1
        for t, label in orbits.items()
        if projline.delta_extended(spec, t) != label
    )
    rng = random.Random(args.seed)
    pts = list(projline.all_points(spec))
    cov_bad = 0
    trials = args.trials
    for _ in range(trials):
        g = projline.random_element(spec, rng)
        t = tuple(rng.sample(pts, 3))
        before = projline.delta_extended(spec, t)
        after = projline.delta_extended(
            spec, tuple(projline.apply(spec, g, z) for z in t)
        )
        if before != after:
            cov_bad += 1
    ok = mismatches == 0 and cov_bad == 0
    if args.json:
        print(
            json.dumps(
                {
                    "q": args.q,
                    "triples": len(orbits),
                    "classifier_mismatches": mismatches,
                    "covariance_trials": trials,
                    "covariance_failures": cov_bad,
                    "seed": args.seed,
                    "agreement": ok,
                }
            )
        )
    else:
        print(f"q={args.q}: {len(orbits)} triples in 2 orbits")
        print(f"classifier mismatches: {mismatches}")
        print(f"covariance failures: {cov_bad}/{trials} (seed {args.seed})")
        print(f"agreement: {ok}")
    return 0 if ok else 1


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() of a process and then reused.
    Each subcommand names its handler, which main() looks up in the module
    at call time, so a handler replaced after the first call is the one
    that runs."""
    top = argparse.ArgumentParser(
        prog="psldesigns",
        description="Decide and build block-transitive 3-designs from "
        "multiplicative subgroup starters on the projective line.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide the criterion for (q, k)")
    p.add_argument("q", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler="cmd_check")

    p = sub.add_parser("build", help="expand the orbit into a design file")
    p.add_argument("q", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=int, default=None)
    p.set_defaults(handler="cmd_build")

    p = sub.add_parser("verify", help="recount coverage of a design file")
    p.add_argument("path")
    p.add_argument("--t", type=int, default=3, choices=(2, 3))
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler="cmd_verify")

    p = sub.add_parser("seq", help="print the character sequence")
    p.add_argument("q", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler="cmd_seq")

    p = sub.add_parser("sweep", help="design-giving q for a fixed k")
    p.add_argument("--k", type=int)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--table", action="store_true", help="all standard k rows")
    p.add_argument("--pair", type=int, nargs=2, metavar=("K1", "K2"))
    p.add_argument("--prime-powers", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler="cmd_sweep")

    for name, help_ in (
        ("thm510", "k in {5,10} seven-way equivalence sweep"),
        ("thm1326", "k in {13,26} sequence equivalence sweep"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--pmax", type=int, required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler="cmd_equivalence")

    p = sub.add_parser("lift", help="criterion at q and at q^n")
    p.add_argument("q", type=int)
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler="cmd_lift")

    p = sub.add_parser("oracle", help="triple-orbit oracle agreement at small q")
    p.add_argument("q", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler="cmd_oracle")

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and not args.pair and not args.table and args.k is None:
        parser.error("sweep requires --k, --table, or --pair")
    try:
        return globals()[args.handler](args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
