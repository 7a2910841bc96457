"""Fuzz the command line: any argument list ends in exit 0, 1 or 2, never a crash.

Descriptors, bindings and expressions are generated well-formed and malformed
alike.  Exit 2 must come with exactly one ``error:`` line on stderr.  Inputs
stay small: at most 3 trials, and a finite pointwise dimension is either at
most 6 or past ``MAX_DIM`` (some past ``sys.maxsize`` too), so no run
allocates a large space.
"""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings, strategies as st

from trunclat import random_term, render
from trunclat.cli import main
from trunclat.spaces import MAX_DIM

NAMES = ("sparse_seq", "lex_plane", "identity_line", "finite_pointwise", "c00")
KINDS = ("meet_with_one", "lex_meet_zero_one", "identity", "meet_with_unit", "min")

fractions = st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9))
rationals = st.one_of(fractions, st.just("1/0"), st.integers(-3, 3), st.text(max_size=4), st.none())
payloads = st.one_of(
    st.lists(rationals, max_size=7),
    st.dictionaries(st.one_of(st.integers(-1, 8).map(str), st.text(max_size=2)), rationals, max_size=4),
    rationals,
)


def fp_payloads(dim):
    return st.lists(fractions, min_size=dim, max_size=dim)


# (--space, --trunc, payloads of an element of that space); None leaves the option out
CONFIGS = (
    (None, None, st.dictionaries(st.integers(1, 8).map(str), fractions, max_size=4)),
    ("sparse_seq", "meet_with_one", st.dictionaries(st.integers(1, 8).map(str), fractions, max_size=4)),
    ("lex_plane", None, fp_payloads(2)),
    ("identity_line", "identity", fractions),
    ("finite_pointwise:3", None, fp_payloads(3)),
    ("finite_pointwise:2", '{"kind":"meet_with_unit","unit":["1/1","2/1"]}', fp_payloads(2)),
    ('{"space":"finite_pointwise","dim":5}', "meet_with_unit", fp_payloads(5)),
)

dims = st.one_of(st.integers(-1, 6), st.integers(MAX_DIM + 1, sys.maxsize), st.integers(sys.maxsize + 1, 10**30))
spaces = st.one_of(
    st.none(),
    st.sampled_from(NAMES),
    dims.map("finite_pointwise:{}".format),
    st.builds(lambda name, dim: json.dumps({"space": name, "dim": dim}), st.sampled_from(NAMES), dims),
    st.text(max_size=8),
)
truncs = st.one_of(
    st.none(),
    st.sampled_from(KINDS),
    st.builds(lambda kind, unit: json.dumps({"kind": kind, "unit": unit}), st.sampled_from(KINDS), payloads),
    st.text(max_size=8),
)
configs = st.one_of(st.sampled_from(CONFIGS), st.tuples(spaces, truncs, st.just(payloads)))
expressions = st.one_of(
    st.integers(0, 2**32).map(lambda seed: render(random_term(random.Random(seed)))),
    st.text(alphabet="xyz01/+-*|()\\ ptrnegos", max_size=30),
)


def _option(flag, value):
    return [] if value is None else [flag, value]


def check_argv(config):
    space, trunc, _ = config
    return st.builds(
        lambda seed, trials, fmt: [
            "check", *_option("--space", space), *_option("--trunc", trunc),
            "--seed", str(seed), "--trials", str(trials), "--format", fmt,
        ],
        st.integers(-5, 10**6), st.integers(1, 3), st.sampled_from(("table", "json")),
    )


def eval_argv(config):
    space, trunc, element = config
    unitized = st.fixed_dictionaries({"e": element, "lambda": fractions})
    flags_and_binds = st.one_of(
        st.tuples(st.just([]), st.fixed_dictionaries(dict.fromkeys("xyz", element))),
        st.tuples(st.just(["--unitize"]), st.fixed_dictionaries(dict.fromkeys("xyz", st.one_of(element, unitized)))),
        st.tuples(st.sampled_from(([], ["--unitize"])), st.dictionaries(st.sampled_from("xyz"), payloads, max_size=3)),
    )
    return st.builds(
        lambda flags_binds, expr: [
            "eval", *_option("--space", space), *_option("--trunc", trunc), *flags_binds[0],
            *[arg for name, payload in flags_binds[1].items() for arg in ("--bind", f"{name}={json.dumps(payload)}")],
            "--", expr,
        ],
        flags_and_binds, expressions,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(configs.flatmap(check_argv), configs.flatmap(eval_argv)))
@example(["check", "--space", "finite_pointwise:99999999999999999999", "--trials", "1"])
@example(["check", "--space", '{"space":"finite_pointwise","dim":99999999999999999999}', "--trials", "1"])
@example(["eval", "--bind", 'x={"1":"1/1"}', "--", "(" * 200 + "x" + ")" * 200])
@example(["check", "--trunc", "-:"])
@example(["check", "--bogus"])
@example(["eval", "--bind"])
@example([])
def test_cli_never_crashes(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    if code == 2:
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error: "), stderr
