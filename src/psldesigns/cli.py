"""Command-line front end.

Subcommands: check, build, verify, seq, sweep, thm510, thm1326, lift,
oracle. Exit codes are a stable contract: 0 for success / condition true,
1 for a verified-false or mismatch outcome, 2 for usage or input errors.

Each cmd_* handler returns (exit code, answer). main() passes the answer
to a renderer of the same name, which reads nothing else: text_* without
--json; with it, json_* where there is one and json.dumps otherwise.
`sweep --pair` is answered by cmd_pair, every other sweep by cmd_sweep,
whose answer holds the per-k search.SweepBlock columns in every format.
Text, CSV and JSON write them one SweepBlock.chunks() chunk at a time:
text a line of each k's hits, CSV and JSON each row as one f-string of
pieces made once per k, with a hit or a miss tail.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from psldesigns import design, gf, projline, search, starter

DEFAULT_SEED = 20250841
_CSV_HEADER = "k,k_mod_24,q,p,n,e_parity,lambda,gives_design\r\n"


def _print_json(answer) -> None:
    print(json.dumps(answer))


def _or(value, missing: str):
    return missing if value is None else value


def _ints(values) -> str:
    return " ".join(map(str, values))


def _signs(entries) -> str:
    return ",".join(f"{s:+d}" for s in entries)


def cmd_check(args: argparse.Namespace) -> tuple[int, dict]:
    spec = gf.field_for_order(args.q)
    ctx = starter.make_starter_context(spec, args.k, alpha=args.alpha)
    dsum = None if ctx.e % 2 else starter.delta_sum(ctx)
    ok = dsum is None or dsum == 0
    try:
        lam = starter.lambda_formula(args.k, ctx.e)
    except ValueError:
        lam = None
    try:
        seq = starter.char_sequence(ctx)
    except ValueError:
        seq = None
    return (0 if ok else 1), {
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


def text_check(a: dict) -> None:
    print(f"q={a['q']} k={a['k']} e={a['e']} ({a['e_parity']})")
    print(f"gives_design: {a['gives_design']}")
    print(f"lambda: {_or(a['lambda'], 'n/a')}")
    print(f"delta_sum: {_or(a['delta_sum'], 'n/a (odd cofactor)')}")
    if a["sequence"] is None:
        print("sequence: n/a (k = 0 mod 4)")
    else:
        print(f"sequence (alpha={a['alpha']}): {_signs(a['sequence'])}")


def cmd_build(args: argparse.Namespace) -> tuple[int, dict]:
    spec = gf.field_for_order(args.q)
    d = design.build_design(spec, args.k, alpha=args.alpha)
    design.write_design(d, args.out)
    return 0, {"v": d.v, "k": d.k, "lambda": d.lam, "b": d.b,
               "is_design": d.is_design, "out": args.out}


def text_build(a: dict) -> None:
    flag = "" if a["is_design"] else f"  [{design.NON_DESIGN_FLAG}]"
    print(f"{a['v']} {a['k']} {a['lambda']} {a['b']}{flag} -> {a['out']}")


def cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    d = design.read_design(args.path)
    lam = design.verify_t_design(d.blocks, args.t, v=d.v)
    claimed = d.lam if args.t == 3 and d.is_design else None
    ok = lam is not None if args.t == 2 else lam == claimed
    return (0 if ok else 1), {
        "path": args.path,
        "v": d.v,
        "k": d.k,
        "b": d.b,
        "t": args.t,
        "claimed_lambda": claimed,
        "recomputed_lambda": lam,
        "match": ok,
    }


def text_verify(a: dict) -> None:
    print(f"{a['path']}: v={a['v']} k={a['k']} b={a['b']} t={a['t']}")
    shown = _or(a["recomputed_lambda"], "none (coverage not constant)")
    print(f"recomputed lambda: {shown}")
    if a["t"] == 3:
        print(f"header lambda: {_or(a['claimed_lambda'], 'non-design')}")
        print(f"match: {a['match']}")


def cmd_seq(args: argparse.Namespace) -> tuple[int, dict]:
    spec = gf.field_for_order(args.q)
    ctx = starter.make_starter_context(spec, args.k, alpha=args.alpha)
    seq = starter.char_sequence(ctx)
    return 0, {
        "q": args.q,
        "k": args.k,
        "alpha": ctx.alpha,
        "sequence": list(seq.entries),
        "convention": seq.convention,
        "gives_design": starter.gives_design(ctx),
    }


def text_seq(a: dict) -> None:
    print(f"alpha={a['alpha']}: {_signs(a['sequence'])}")


def cmd_sweep(args: argparse.Namespace) -> tuple[int, dict]:
    """The search.sweep_rows blocks, one SweepBlock per k, each decided
    when the renderer reaches it."""
    ks = list(search.SWEEP_TABLE_KS) if args.table else [args.k]
    blocks = search.sweep_rows(ks, args.qmax, include_prime_powers=args.prime_powers)
    return 0, {"table": args.table, "csv": args.csv, "blocks": blocks}


def _json_row(k: int, lam: int | None) -> tuple:
    """The pieces of k's JSON row objects, in the bytes that json.dumps
    gives their row dicts: the head before q, the texts before p and n,
    and the miss and hit tails. Every sweep cofactor is even."""
    tails = [
        f', "e_parity": "even", "lambda": {x}, "gives_design": {ok}}}'
        for x, ok in (('""', "false"), (lam, "true"))
    ]
    return f'{{"k": {k}, "k_mod_24": {k % 24}, "q": ', ', "p": ', ', "n": ', tails


def _csv_row(k: int, lam: int | None) -> tuple:
    """The pieces of k's CSV lines, as _json_row's, in the bytes that
    csv.DictWriter gives their row dicts."""
    tails = [f",even,{x},{ok}\r\n" for x, ok in (("", False), (lam, True))]
    return f"{k},{k % 24},", ",", ",", tails


def _write_blocks(blocks, row, head: str, sep: str, tail: str) -> None:
    """head, the rows of every block with sep between two rows, and tail.
    Each row is one f-string of the pieces row(k, lam) makes once per
    block. The rows are written a chunk at a time, and each block before
    the next one is decided."""
    write, between = sys.stdout.write, ""
    write(head)
    for b in blocks:
        start, at_p, at_n, tails = row(b.k, b.lam)
        for chunk in b.chunks():
            q, p, n, ok = (c.tolist() for c in chunk)
            rows = [f"{start}{x}{at_p}{y}{at_n}{z}{tails[o]}" for x, y, z, o in zip(q, p, n, ok)]
            write(between)
            write(sep.join(rows))
            between = sep
    write(tail)


def json_sweep(a: dict) -> None:
    _write_blocks(a["blocks"], _json_row, "[", ", ", "]\n")


def text_sweep(a: dict) -> None:
    """--csv writes every row; text writes a line of each k's hits, with
    its k and k mod 24 under --table."""
    if a["csv"]:
        return _write_blocks(a["blocks"], _csv_row, _CSV_HEADER, "", "")
    write = sys.stdout.write
    for b in a["blocks"]:
        write(f"k={b.k} (mod 24: {b.k % 24}): " if a["table"] else "")
        between = ""
        for hits in (q[ok].tolist() for q, _, _, ok in b.chunks()):
            if hits:
                write(between + _ints(hits))
                between = " "
        write("\n")


def cmd_pair(args: argparse.Namespace) -> tuple[int, dict]:
    scan = search.verify_pair_coincidence(*args.pair, args.qmax)
    return (0 if scan.coincide else 1), {
        "k1": scan.k1,
        "k2": scan.k2,
        "qmax": scan.q_max,
        "hits1": list(scan.hits1),
        "hits2": list(scan.hits2),
        "coincide": scan.coincide,
        "first_divergence": scan.first_divergence,
    }


def text_pair(a: dict) -> None:
    print(f"k={a['k1']}: {_ints(a['hits1'])}")
    print(f"k={a['k2']}: {_ints(a['hits2'])}")
    if a["coincide"]:
        print("coincide up to the bound")
    else:
        print(f"diverge at {a['first_divergence']}")


def cmd_equivalence(args: argparse.Namespace) -> tuple[int, dict]:
    """thm510 and thm1326: the subcommand name is the sweep's name."""
    rep = search.thm_equivalence_sweep(args.command, args.pmax)
    return (0 if rep.all_consistent else 1), {
        "name": rep.name,
        "bound": rep.bound,
        "primes_checked": rep.checked,
        "all_consistent": rep.all_consistent,
        "disagreements": list(rep.disagreements),
        "hits": list(rep.hits),
    }


def text_equivalence(a: dict) -> None:
    state = "holds" if a["all_consistent"] else "FAILS"
    scope = f"{a['primes_checked']} primes <= {a['bound']}"
    print(f"{a['name']}: equivalence {state} over {scope}")
    if a["disagreements"]:
        print(f"disagreements: {_ints(a['disagreements'])}")
    print(f"hits: {_ints(a['hits'])}")


def cmd_lift(args: argparse.Namespace) -> tuple[int, dict]:
    res = search.lift_check(args.q, args.k, args.n)
    return (0 if res.consistent else 1), {
        "q": res.q,
        "k": res.k,
        "n": res.n,
        "lifted_q": res.lifted_q,
        "base": res.base,
        "lifted": res.lifted,
        "consistent": res.consistent,
    }


def text_lift(a: dict) -> None:
    print(f"({a['q']}, {a['k']}) base: {a['base']}")
    print(f"({a['lifted_q']}, {a['k']}) lifted (n={a['n']}): {a['lifted']}")
    print(f"consistent with lifting rule: {a['consistent']}")


def cmd_oracle(args: argparse.Namespace) -> tuple[int, dict]:
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    spec = gf.field_for_order(args.q)
    labels = projline.brute_force_triple_orbits(spec)
    tables = projline.field_tables(spec)
    signs = projline.triple_signs(tables, projline.colex_triples(spec.q + 1))
    mismatches = int((signs != labels).sum())
    cov_bad = 0
    trials = projline.sample_trials(tables, random.Random(args.seed), args.trials)
    for elems, triples in trials:
        images = projline.apply_to_points(tables, elems, triples)
        before = projline.triple_signs(tables, triples)
        cov_bad += int((before != projline.triple_signs(tables, images)).sum())
    ok = mismatches == 0 and cov_bad == 0
    return (0 if ok else 1), {
        "q": args.q,
        "triples": len(labels),
        "classifier_mismatches": mismatches,
        "covariance_trials": args.trials,
        "covariance_failures": cov_bad,
        "seed": args.seed,
        "agreement": ok,
    }


def text_oracle(a: dict) -> None:
    print(f"q={a['q']}: {a['triples']} triples in 2 orbits")
    print(f"classifier mismatches: {a['classifier_mismatches']}")
    failures = f"{a['covariance_failures']}/{a['covariance_trials']}"
    print(f"covariance failures: {failures} (seed {a['seed']})")
    print(f"agreement: {a['agreement']}")


# Each subcommand's arguments in declaration order, which is the order of
# its usage line. Argparse parent parsers would put the shared arguments
# ahead of a subcommand's own ones and so reorder that line.
_Q = ("q", {"type": int})
_K = ("k", {"type": int})
_ALPHA = ("--alpha", {"type": int, "default": None})
_JSON = ("--json", {"action": "store_true"})
_PMAX = ("--pmax", {"type": int, "required": True})
_FLAG = {"action": "store_true"}
_COMMANDS = (
    ("check", "cmd_check", "decide the criterion for (q, k)", (_Q, _K, _ALPHA, _JSON)),
    ("build", "cmd_build", "expand the orbit into a design file",
     (_Q, _K, ("--out", {"required": True}), _ALPHA)),
    ("verify", "cmd_verify", "recount coverage of a design file",
     (("path", {}), ("--t", {"type": int, "default": 3, "choices": (2, 3)}), _JSON)),
    ("seq", "cmd_seq", "print the character sequence", (_Q, _K, _ALPHA, _JSON)),
    ("sweep", "cmd_sweep", "design-giving q for a fixed k", (
        ("--k", {"type": int}),
        ("--qmax", {"type": int, "required": True}),
        ("--table", {**_FLAG, "help": "all standard k rows"}),
        ("--pair", {"type": int, "nargs": 2, "metavar": ("K1", "K2")}),
        ("--prime-powers", _FLAG),
        ("--csv", _FLAG),
        _JSON,
    )),
    ("thm510", "cmd_equivalence", "k in {5,10} seven-way equivalence sweep",
     (_PMAX, _JSON)),
    ("thm1326", "cmd_equivalence", "k in {13,26} sequence equivalence sweep",
     (_PMAX, _JSON)),
    ("lift", "cmd_lift", "criterion at q and at q^n",
     (_Q, _K, ("n", {"type": int}), _JSON)),
    ("oracle", "cmd_oracle", "triple-orbit oracle agreement at small q", (
        _Q,
        ("--seed", {"type": int, "default": DEFAULT_SEED}),
        ("--trials", {"type": int, "default": 1000}),
        _JSON,
    )),
)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() of a process and then reused.
    Each subcommand names its handler, which main() looks up in the module
    at call time, as it does the handler's text_* renderer, so a function
    replaced after the first call is the one that runs."""
    top = argparse.ArgumentParser(
        prog="psldesigns",
        description="Decide and build block-transitive 3-designs from "
        "multiplicative subgroup starters on the projective line.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, handler, help_, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return top


def _check_sweep_mode(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Exactly one sweep mode, and no option that the mode would ignore;
    cmd_pair answers --pair."""
    if args.pair:
        args.handler = "cmd_pair"
        mode, unused = "--pair", {"--k": args.k is not None, "--table": args.table,
                                  "--prime-powers": args.prime_powers, "--csv": args.csv}
    elif args.table:
        mode, unused = "--table", {"--k": args.k is not None}
    elif args.k is None:
        parser.error("sweep requires --k, --table, or --pair")
    else:
        return
    for flag, given in unused.items():
        if given:
            parser.error(f"sweep {mode} cannot be combined with {flag}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        _check_sweep_mode(parser, args)
    try:
        code, answer = globals()[args.handler](args)
        name = args.handler.removeprefix("cmd_")
        if getattr(args, "json", False):
            globals().get("json_" + name, _print_json)(answer)
        else:
            globals()["text_" + name](answer)
        return code
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
