"""Fuzzed CLI argument vectors and design files: every input ends in exit
code 0, 1 or 2 and never in a traceback. Needs hypothesis (the `test`
extra); the module is skipped without it."""

import contextlib
import io
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from psldesigns import cli, design, gf, search  # noqa: E402


def _exit_code(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert "Traceback" not in err.getvalue(), argv
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code


_GARBAGE = ["", "x", "1.5", "-1", "0", "--json", "--alpha"]
# field order q -> the k that make a valid starter pair, for q <= 3000
_STARTERS = {
    q: ks
    for p, _, q in search.enumerate_prime_powers(3000)
    if p > 2
    and (
        ks := [
            k
            for k in range(4, q - 1)
            if (q - 1) % k == 0 and (((q - 1) // k) % 2 or q % 4 == 1)
        ]
    )
}


def _one_in(n: int):
    """True about once in n draws; shrinks towards False."""
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def _garbled(draw, argv: list[str]) -> list[str]:
    """argv, with one token in eight vectors replaced by junk."""
    if draw(_one_in(8)):
        i = draw(st.integers(0, len(argv) - 1))
        argv = argv[:i] + [draw(st.sampled_from(_GARBAGE))] + argv[i + 1 :]
    return argv


@st.composite
def _field_and_k(draw, q_max: int, q_any: int) -> tuple[int, int]:
    """Mostly a field order q <= q_max with a valid starter k, sometimes
    any ints with q <= q_any."""
    if draw(_one_in(4)):
        return draw(st.integers(-5, q_any)), draw(st.integers(-3, 120))
    q = draw(st.sampled_from([q for q in _STARTERS if q <= q_max]))
    return q, draw(st.sampled_from(_STARTERS[q]))


@st.composite
def _check_seq_argv(draw) -> list[str]:
    # q past the size limit is refused before it is factorised
    q, k = draw(_field_and_k(3000, 2**62))
    argv = [draw(st.sampled_from(["check", "seq"])), str(q), str(k)]
    if draw(_one_in(3)):
        argv += ["--alpha", str(draw(st.integers(-5, max(q, 0) + 5)))]
    if draw(st.booleans()):
        argv.append("--json")
    return draw(_garbled(argv))


@st.composite
def _build_argv(draw, out: str) -> list[str]:
    q, k = draw(_field_and_k(50, 50))
    argv = ["build", str(q), str(k), "--out", out]
    if draw(_one_in(3)):
        argv += ["--alpha", str(draw(st.integers(-5, max(q, 0) + 5)))]
    return draw(_garbled(argv))


@st.composite
def _sweep_argv(draw) -> list[str]:
    k = st.integers(-3, 80).map(str)
    mode = draw(
        st.sampled_from(["--k", "--pair", "--table", ""]).flatmap(
            lambda m: {
                "--k": st.tuples(st.just(m), k),
                "--pair": st.tuples(st.just(m), k, k),
                "--table": st.just((m,)),
                "": st.just(()),
            }[m]
        )
    )
    qmax = str(draw(st.integers(-10, 5000)))
    # options of another mode ride along now and again: a usage error
    flag = st.sampled_from(["--json", "--csv", "--prime-powers", "--table"])
    flags = draw(st.lists(flag.map(lambda f: (f,)) | st.tuples(st.just("--k"), k), max_size=2))
    return draw(_garbled(["sweep", *mode, "--qmax", qmax, *sum(flags, ())]))


_FUZZ = settings(max_examples=50, deadline=None, database=None, derandomize=True)


@_FUZZ
@given(argv=_check_seq_argv())
def test_fuzz_check_and_seq_arguments(argv):
    _exit_code(argv)


@_FUZZ
@given(data=st.data())
def test_fuzz_build_arguments(data):
    with tempfile.TemporaryDirectory() as tmp:
        _exit_code(data.draw(_build_argv(f"{tmp}/d.txt")))


@_FUZZ
@given(argv=_sweep_argv())
def test_fuzz_sweep_arguments(argv):
    code = _exit_code(argv)
    # a mode never runs with an option that it would ignore
    if "--pair" in argv and {"--k", "--table", "--prime-powers", "--csv"} & set(argv):
        assert code == 2, argv
    if "--table" in argv and "--k" in argv:
        assert code == 2, argv


_TOKENS = ["", "x", "1.5", "-1", "-0", "1e3", "0x10", "\u0663", design.NON_DESIGN_FLAG]
# the 3-(14, 4, 3) design of GF(13) and the non-design orbit of GF(17)
_ORBITS = [
    design.format_design(design.build_design(gf.make_prime_field(q), 4))
    for q in (13, 17)
]


@st.composite
def _design_text(draw) -> str:
    """A built orbit file, or a header with small random blocks and
    sometimes a huge v; then, now and again, one line garbled with junk
    tokens and one junk line inserted."""
    if draw(_one_in(3)):
        lines = draw(st.sampled_from(_ORBITS)).splitlines()
    else:
        v = draw(st.integers(10**6, 10**7) if draw(_one_in(6)) else st.integers(-3, 14))
        k = draw(st.integers(2, 5))
        point = st.integers(0, max(min(v, 14), k) - 1)
        block = st.lists(point, min_size=k, max_size=k, unique=True).map(sorted)
        blocks = draw(st.lists(block, min_size=1, max_size=6))
        lam = draw(st.integers(0, 4))
        lines = [f"{v} {k} {lam} {len(blocks)}"]
        lines += [design.NON_DESIGN_FLAG] * (lam == 0)
        lines += [" ".join(map(str, blk)) for blk in blocks]
    if draw(_one_in(3)):
        i = draw(st.integers(0, len(lines) - 1))
        words = st.sampled_from(_TOKENS + lines[i].split())
        lines[i] = " ".join(draw(st.lists(words, max_size=6)))
    if draw(_one_in(6)):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_TOKENS)))
    return "\n".join(lines) + "\n"


@_FUZZ
@given(text=_design_text(), t=st.sampled_from(["2", "3"]), as_json=st.booleans())
def test_fuzz_verify_design_files(text, t, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/d.txt"
        with open(path, "w") as fh:
            fh.write(text)
        _exit_code(["verify", path, "--t", t] + ["--json"] * as_json)
