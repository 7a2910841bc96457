import random
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ref_eval

from trunclat import (
    Assertion,
    NegativeTruncArgument,
    OneOutsideUnitization,
    ParseError,
    SampleGen,
    SparseSeq,
    TruncationSpec,
    UnboundVariable,
    catalog,
    check_assertion,
    check_prop21,
    check_prop22,
    check_tau1,
    evaluate,
    free_variables,
    load_assertion_text,
    parse,
    parse_assertion,
    random_term,
    render,
    sparse,
    unitize,
    zero,
)
from trunclat.dsl import MAX_DEPTH, RELATIONS, Abs, Add, Join, Meet, Neg, One, Pos, RationalLit, Scale, Sub, Trunc, Var, compile_term
from trunclat.engine import REGISTRY

CATALOG = catalog()
SPARSE_CTX = CATALOG["sparse_seq"].trunc
SPARSE_UCTX = unitize(SPARSE_CTX)


# -- parsing -------------------------------------------------------------------

def test_parse_examples():
    assert parse("tr(|x| /\\ y)") == Trunc(Meet(Abs(Var("x")), Var("y")))
    assert parse("x \\/ y /\\ z") == Join(Var("x"), Meet(Var("y"), Var("z")))
    assert parse("2/3 * x + 1") == Add(Scale(Fraction(2, 3), Var("x")), One())


def test_parse_precedence():
    assert parse("a /\\ b \\/ c") == Join(Meet(Var("a"), Var("b")), Var("c"))
    assert parse("x + y /\\ z") == Add(Var("x"), Meet(Var("y"), Var("z")))
    assert parse("2 * x \\/ y") == Scale(Fraction(2), Join(Var("x"), Var("y")))
    assert parse("2 * 3 * x") == Scale(Fraction(2), Scale(Fraction(3), Var("x")))
    assert parse("x - y - z") == Sub(Sub(Var("x"), Var("y")), Var("z"))
    assert parse("| |x| - |y| |") == Abs(Sub(Abs(Var("x")), Abs(Var("y"))))
    assert parse("||x| - |y||") == Abs(Sub(Abs(Var("x")), Abs(Var("y"))))


def test_parse_literals():
    assert parse("0") == RationalLit(Fraction(0))
    assert parse("1") == One()
    assert parse("1/1") == RationalLit(Fraction(1))
    assert parse("5") == RationalLit(Fraction(5))
    assert parse("pos(x)") == Pos(Var("x"))
    # 'pos' not followed by a parenthesis is an ordinary variable
    assert parse("pos + x") == Add(Var("pos"), Var("x"))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as info:
        parse("x + ")
    assert info.value.offset == 4
    with pytest.raises(ParseError) as info:
        parse("x $ y")
    assert info.value.offset == 2
    with pytest.raises(ParseError) as info:
        parse("(x + y")
    assert info.value.expected == frozenset({")"})
    with pytest.raises(ParseError):
        parse("x y")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError) as info:
        parse("x + 2/0 * y")
    assert info.value.offset == 4


@pytest.mark.parametrize(
    "source",
    [
        "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1),
        "tr(" * 200 + "x" + ")" * 200,
        "|" * 200 + "x" + "|" * 200,
        "2 * " * 1000 + "x",
        " + ".join(["x"] * (MAX_DEPTH + 2)),
        " \\/ ".join(["x"] * 3000),
        " /\\ ".join(["x"] * 3000),
    ],
)
def test_parse_refuses_deep_nesting(source):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(source)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_assertion(f"x <= {source}")


def test_parse_and_evaluate_at_the_depth_limit():
    x = sparse({1: 1})
    assert parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH) == Var("x")
    chain = parse(" + ".join(["x"] * (MAX_DEPTH + 1)))
    assert evaluate(chain, {"x": x}, SPARSE_CTX) == sparse({1: MAX_DEPTH + 1})
    scaled = parse("2 * " * MAX_DEPTH + "x")
    assert evaluate(scaled, {"x": x}, SPARSE_CTX) == sparse({1: 2**MAX_DEPTH})


def test_parse_assertion_relations():
    a = parse_assertion("x <= y")
    assert a.relation == "<="
    assert parse_assertion("x == y").relation == "=="
    assert parse_assertion("x >= y").relation == ">="
    assert parse_assertion("pos(x) _|_ neg(x)").relation == "_|_"
    with pytest.raises(ParseError):
        parse_assertion("x < y")
    with pytest.raises(ParseError):
        parse_assertion("x == y == z")


def test_render_roundtrip_corpus():
    rng = random.Random(20240811)
    for _ in range(1000):
        term = random_term(rng, max_depth=5)
        assert parse(render(term)) == term


def test_free_variables():
    term = parse("tr(|x| /\\ y) + 2/3 * z")
    assert free_variables(term) == frozenset({"x", "y", "z"})


# -- evaluation ------------------------------------------------------------------

def _names_a_base_element(term) -> bool:
    """No ``1`` and no nonzero scalar literal: the term denotes a base element."""
    match term:
        case One():
            return False
        case RationalLit(value):
            return value == 0
        case Add(l, r) | Sub(l, r) | Join(l, r) | Meet(l, r):
            return _names_a_base_element(l) and _names_a_base_element(r)
        case Scale(_, inner) | Abs(inner) | Pos(inner) | Neg(inner) | Trunc(inner):
            return _names_a_base_element(inner)
    return True


def _base_term(rng: random.Random):
    while True:
        term = random_term(rng, max_depth=4)
        if _names_a_base_element(term):
            return term


def _value_or_negative_trunc(term, env, ctx):
    try:
        return evaluate(term, env, ctx)
    except NegativeTruncArgument:
        return NegativeTruncArgument


@pytest.mark.parametrize("name", sorted(CATALOG))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_unitized_evaluation_extends_the_base(name, seed):
    # the base is a sublattice of its unitization, and the unitized truncation
    # agrees with the base truncation on base elements
    ctx = CATALOG[name]
    rng = random.Random(seed)
    term = _base_term(rng)
    gen = SampleGen(seed, ctx.space)
    env = {v: gen.element() for v in ("x", "y", "z")}
    base = _value_or_negative_trunc(term, env, ctx.trunc)
    unitized = _value_or_negative_trunc(term, env, ctx)
    if base is NegativeTruncArgument:
        assert unitized is NegativeTruncArgument, render(term)
    else:
        assert unitized == ctx.embed(base), render(term)


def test_eval_examples():
    assert evaluate(parse("tr(x)"), {"x": sparse({1: 2})}, SPARSE_CTX) == sparse({1: 1})
    value = evaluate(parse("|x - 1|"), {"x": sparse({1: 2})}, SPARSE_UCTX)
    from trunclat import unitized_to_json

    assert unitized_to_json(value) == {"e": {}, "lambda": "1/1"}
    x = sparse({3: -4, 7: 2})
    assert evaluate(parse("pos(x) - neg(x)"), {"x": x}, SPARSE_CTX) == x


def test_eval_zero_literal_and_unit():
    assert evaluate(parse("0"), {}, SPARSE_CTX) == zero(SPARSE_CTX.space)
    one_val = evaluate(parse("1"), {}, SPARSE_UCTX)
    assert one_val.lam == 1 and one_val.e == zero(SPARSE_CTX.space)
    half = evaluate(parse("1/2"), {}, SPARSE_UCTX)
    assert half.lam == Fraction(1, 2)


def test_eval_errors():
    with pytest.raises(UnboundVariable):
        evaluate(parse("x"), {}, SPARSE_CTX)
    with pytest.raises(OneOutsideUnitization):
        evaluate(parse("1"), {}, SPARSE_CTX)
    with pytest.raises(OneOutsideUnitization):
        evaluate(parse("2/3"), {}, SPARSE_CTX)
    with pytest.raises(NegativeTruncArgument):
        evaluate(parse("tr(x)"), {"x": sparse({1: -1})}, SPARSE_CTX)
    with pytest.raises(NegativeTruncArgument):
        evaluate(parse("tr(0 - 1)"), {}, SPARSE_UCTX)


def test_check_assertion_examples():
    gen = SampleGen(3, SPARSE_CTX.space)
    prop21 = parse_assertion("x /\\ tr(y) == tr(x) /\\ y")
    birkhoff = parse_assertion("|tr(x) - tr(y)| <= tr(|x - y|)")
    for _ in range(100):
        env = {"x": gen.positive(), "y": gen.positive()}
        assert check_assertion(prop21, env, SPARSE_CTX).holds
        assert check_assertion(birkhoff, env, SPARSE_CTX).holds
    failing = parse_assertion("tr(x) == x")
    outcome = check_assertion(failing, {"x": sparse({1: 2})}, SPARSE_CTX)
    assert not outcome.holds
    assert outcome.lhs_value == sparse({1: 1})
    assert outcome.rhs_value == sparse({1: 2})


def test_check_assertion_disjoint_relation():
    a = parse_assertion("pos(x) _|_ neg(x)")
    gen = SampleGen(5, SPARSE_CTX.space)
    for _ in range(50):
        assert check_assertion(a, {"x": gen.element()}, SPARSE_CTX).holds
    crossing = parse_assertion("x _|_ x")
    assert not check_assertion(crossing, {"x": sparse({1: 1})}, SPARSE_CTX).holds


# -- the compiled evaluator against the tree walker ------------------------------

def _outcome(fn, *args):
    """The value, or the type and message of the error."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # every error must match, not only the DSL's
        return "error", type(exc), str(exc)


def _mixed_env(rng: random.Random, gen: SampleGen) -> dict:
    """Each variable unbound, bound to a non-element, to a unitized or to a base element."""
    env = {}
    for name in ("x", "y", "z"):
        kind = rng.randint(0, 7)
        if kind == 1:
            env[name] = Fraction(1, 2)
        elif kind == 2:
            env[name] = gen.unitized()
        elif kind > 2:
            env[name] = gen.element()
    return env


def _ref_check(assertion, env, lat):
    lhs = ref_eval(assertion.lhs, env, lat)
    rhs = ref_eval(assertion.rhs, env, lat)
    holds = {
        "<=": lambda: lat.leq(lhs, rhs),
        ">=": lambda: lat.leq(rhs, lhs),
        "==": lambda: lhs == rhs,
        "_|_": lambda: lat.meet(lat.abs(lhs), lat.abs(rhs)) == lat.zero,
    }[assertion.relation]()
    return holds, lhs, rhs


def _compiled_check(assertion, env, lat):
    outcome = check_assertion(assertion, env, lat)
    return outcome.holds, outcome.lhs_value, outcome.rhs_value


@pytest.mark.parametrize("unitized", [False, True], ids=["base", "unitized"])
@pytest.mark.parametrize("name", sorted(CATALOG))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_compiled_evaluator_matches_the_tree_walker(name, unitized, seed):
    ctx = CATALOG[name] if unitized else CATALOG[name].trunc
    rng = random.Random(seed)
    gen = SampleGen(seed, ctx.space)
    for _ in range(4):
        term = random_term(rng, max_depth=rng.randint(0, 4))
        env = _mixed_env(rng, gen)
        assert _outcome(evaluate, term, env, ctx) == _outcome(ref_eval, term, env, ctx), render(term)
        assertion = Assertion(term, rng.choice(RELATIONS), random_term(rng, max_depth=2))
        assert _outcome(_compiled_check, assertion, env, ctx) == _outcome(_ref_check, assertion, env, ctx)


def test_compiled_term_is_reusable_across_environments():
    term = parse("tr(|x| \\/ y) - x")
    compiled = compile_term(term, SPARSE_CTX)
    gen = SampleGen(11, SPARSE_CTX.space)
    for _ in range(50):
        env = {"x": gen.element(), "y": gen.element()}
        assert compiled(env) == ref_eval(term, env, SPARSE_CTX)
    # a value-dependent error is raised per call, not at compile time
    with pytest.raises(UnboundVariable):
        compiled({"y": gen.element()})
    unit = compile_term(parse("1"), SPARSE_CTX)
    with pytest.raises(OneOutsideUnitization):
        unit({})


@pytest.mark.parametrize("module", ["trunclat.truncation", "trunclat.unitization"])
def test_tr_tests_the_cone_once(module, monkeypatch):
    # the package attribute trunclat.truncation is the constructor, so read the module
    owner = sys.modules[module]
    calls = []
    original = owner.is_positive

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, "is_positive", counting)
    lat = SPARSE_UCTX if module == "trunclat.unitization" else SPARSE_CTX
    tr = compile_term(parse("tr(x)"), lat)
    tr({"x": sparse({1: 2})})
    assert len(calls) == 1
    with pytest.raises(NegativeTruncArgument, match=r"^tr\(\.\.\.\) needs a positive argument$"):
        tr({"x": sparse({1: -2})})


def test_check_assertion_recompiles_for_another_assertion_or_context():
    unitized_ctx = unitize(SPARSE_CTX)
    env = {"x": sparse({1: 1})}
    unit = parse_assertion("x <= 1")
    holds, fails = parse_assertion("x <= x"), parse_assertion("x <= 0 - x")
    for _ in range(2):
        assert check_assertion(unit, env, unitized_ctx).holds
        with pytest.raises(OneOutsideUnitization):
            check_assertion(unit, env, SPARSE_CTX)
        assert check_assertion(holds, env, SPARSE_CTX).holds
        assert not check_assertion(fails, env, SPARSE_CTX).holds


# -- assertion files ---------------------------------------------------------------

def _load_law_file(name: str):
    text = resources.files("trunclat").joinpath(f"laws/{name}").read_text(encoding="utf-8")
    return load_assertion_text(text)


LAW_FILES = (
    "sparse_seq.law",
    "lex_plane.law",
    "identity_line.law",
    "finite_pointwise.law",
)


@pytest.mark.parametrize("name", LAW_FILES)
def test_shipped_law_files_hold_on_samples(name):
    loaded = _load_law_file(name)
    assert isinstance(loaded.ctx, TruncationSpec)
    assert len(loaded.assertions) == 12
    gen = SampleGen(11, loaded.ctx.space)
    for lineno, assertion in loaded.assertions:
        names = sorted(free_variables(assertion.lhs) | free_variables(assertion.rhs))
        for _ in range(60):
            env = {n: gen.element() for n in names}
            assert check_assertion(assertion, env, loaded.ctx).holds, (name, lineno)


def test_load_assertion_text_parses_headers_and_comments():
    text = """
# comment
ctx: {"space": {"space": "sparse_seq"}, "trunc": {"kind": "meet_with_one"}}
x <= x \\/ y  # trailing comment
"""
    loaded = load_assertion_text(text)
    assert loaded.ctx.space == SparseSeq()
    assert len(loaded.assertions) == 1
    assert loaded.assertions[0][0] == 4


# -- agreement between the DSL route and the native checkers -----------------------

def _native_check(law_id, trunc, pairs):
    if law_id == "tau1":
        return check_tau1(trunc, pairs).verdict == "pass"
    if law_id == "prop21":
        return check_prop21(trunc, pairs).verdict == "pass"
    if law_id == "prop22":
        return check_prop22(trunc, pairs).verdict == "pass"
    raise AssertionError(law_id)


def test_dsl_equivalents_agree_with_native_checks():
    laws_with_dsl = [law for law in REGISTRY if law.dsl]
    assert {law.law_id for law in laws_with_dsl} == {"tau1", "prop21", "prop22"}
    for ctx_name, ctx in CATALOG.items():
        for law in laws_with_dsl:
            assertions = [parse_assertion(src) for src in law.dsl]
            for seed in range(100):
                gen = SampleGen(seed, ctx.space)
                raw_pairs = [(gen.element(), gen.element()) for _ in range(5)]
                native = _native_check(
                    law.law_id, ctx.trunc, [(abs(a), abs(b)) for a, b in raw_pairs]
                )
                via_dsl = all(
                    check_assertion(
                        assertion,
                        {"a": a, "b": b, "x": a, "y": b},
                        ctx.trunc,
                    ).holds
                    for assertion in assertions
                    for a, b in raw_pairs
                )
                # the DSL lines cover the identity-shaped items, so a native
                # pass must imply a DSL pass; both are expected to hold here
                assert native and via_dsl, (ctx_name, law.law_id, seed)
