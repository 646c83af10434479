"""One workload run in a fresh interpreter, driven by run.py.

    python3 perfbench/worker.py ops PLAN.json
    python3 perfbench/worker.py micro PLAN.json

`ops` makes each op one in-process `psldesigns.cli.main(argv)` call with
stdout and stderr captured, times it, and appends its exit code, output
and time to the results file as one JSON line. With tracing on, spans and
counters are installed first and written out at the end. `micro` times
single field operations and the ROADMAP baseline rows.

The package is imported from PYTHONPATH, which run.py points at the
checkout's src/. Package caches start empty in every worker.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _import_cli(src: str):
    import psldesigns.cli as cli

    if Path(cli.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"psldesigns imported from {cli.__file__}, not from {src}")
    return cli


def peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB. On Linux, ru_maxrss also
    counts the address space the process had before it exec'd this
    interpreter, which is run.py's, so it would report run.py's memory
    whenever that is larger; VmHWM counts only the worker's own."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_ops(plan: dict) -> None:
    cli = _import_cli(plan["src"])
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    deadline = time.perf_counter() + plan["max_seconds"]
    total = 0.0
    stdout_bytes = 0
    done = 0
    with open(plan["results"], "w") as fh:
        for i, argv in enumerate(plan["ops"]):
            if time.perf_counter() > deadline:
                break
            if tracer is not None:
                tracer.request_id = i
            out, err = io.StringIO(), io.StringIO()
            exc = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except SystemExit as stop:  # argparse rejects the argv
                rc = stop.code
            except Exception:
                rc, exc = None, traceback.format_exc()
            dt = time.perf_counter() - t0
            total += dt
            text = out.getvalue()
            stdout_bytes += len(text.encode())
            done += 1
            fh.write(
                json.dumps(
                    {"rc": rc, "t": dt, "out": text, "err": err.getvalue()[-500:], "exc": exc}
                )
                + "\n"
            )
    summary = {
        "ops_run": done,
        "op_seconds": total,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        import tracing

        tracer.counters["cli.stdout_bytes"] = stdout_bytes
        layers = tracing.summarize(tracer.spans, tracer.counters)
        layers["trace.spans"] = len(tracer.spans)
        summary["layers"] = layers
        tracer.dump(plan["trace_path"])
    with open(plan["summary"], "w") as fh:
        json.dump(summary, fh)


def _per_op_ns(fn, spec, operands, reps: int = 7) -> float:
    """Median over reps of the mean time of fn(spec, *args), in ns."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for args in operands:
            fn(spec, *args)
        times.append((time.perf_counter() - t0) / len(operands) * 1e9)
    return statistics.median(times)


def run_micro(plan: dict) -> None:
    """gf per-operation rows on GF(167) and GF(13^2), and the (181, 10)
    expand_orbit and verify_t_design rows, as in the ROADMAP baseline."""
    _import_cli(plan["src"])
    from psldesigns import design, gf, starter

    rng = random.Random(167)
    rows = {}
    for label, spec, count in (
        ("prime", gf.make_prime_field(167), 4000),
        ("ext", gf.make_extension_field(13, 2), 500),
    ):
        pairs = [(rng.randrange(1, spec.q), rng.randrange(1, spec.q)) for _ in range(count)]
        rows[f"gf.mul.{label}_ns"] = _per_op_ns(gf.mul, spec, pairs)
        rows[f"gf.chi.{label}_ns"] = _per_op_ns(gf.chi, spec, [(a,) for a, _ in pairs])
    spec = gf.field_for_order(181)
    ctx = starter.make_starter_context(spec, 10)
    t0 = time.perf_counter()
    blocks = design.expand_orbit(spec, ctx.block)
    t1 = time.perf_counter()
    design.verify_t_design(blocks, 3, v=182)
    t2 = time.perf_counter()
    rows["baseline.expand_orbit_181_10_s"] = t1 - t0
    rows["baseline.verify_t_design_181_10_s"] = t2 - t1
    with open(plan["summary"], "w") as fh:
        json.dump(rows, fh)


def main(argv: list[str]) -> int:
    mode, plan_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    {"ops": run_ops, "micro": run_micro}[mode](plan)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
