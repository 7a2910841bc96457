from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trunclat import (
    Decision,
    DescriptorError,
    FinitePointwise,
    FixtureTruncation,
    IdentityLine,
    IdentityTruncation,
    LexPlane,
    MeetWithOne,
    MeetWithUnit,
    NegativeInput,
    PreconditionViolated,
    SampleGen,
    SpaceMismatch,
    SparseSeq,
    catalog,
    check_prop21,
    check_prop22,
    check_tau1,
    check_tau2,
    check_tau3,
    compare_fixed_sets,
    fp,
    fp_const,
    in_fixed_set,
    join,
    line,
    lexpair,
    meet,
    neg,
    pos,
    pos_base,
    scale,
    sparse,
    truncate,
    truncation,
    truncation_from_json,
    truncation_to_json,
    zero,
)

from oracles import ref_rescaled_cut

CATALOG = catalog()


def _pairs(gen, n):
    return [(gen.positive(), gen.positive()) for _ in range(n)]


# -- truncate / fixed set ----------------------------------------------------

def test_truncate_examples():
    t = CATALOG["sparse_seq"].trunc
    assert truncate(t, sparse({1: 2, 2: Fraction(1, 2)})) == sparse({1: 1, 2: Fraction(1, 2)})
    lex = CATALOG["lex_plane"].trunc
    assert truncate(lex, lexpair(0, 5)) == lexpair(0, 1)
    # lex meet oracle: (0,1) < (1,-3)
    assert truncate(lex, lexpair(1, -3)) == lexpair(0, 1)
    ident = CATALOG["identity_line"].trunc
    assert truncate(ident, line(7)) == line(7)


def test_truncate_rejects_bad_input():
    t = CATALOG["sparse_seq"].trunc
    with pytest.raises(NegativeInput):
        truncate(t, sparse({1: -1}))
    with pytest.raises(SpaceMismatch):
        truncate(t, line(1))


def test_truncation_constructor_validation():
    with pytest.raises(ValueError):
        truncation(LexPlane(), MeetWithOne())
    with pytest.raises(ValueError):
        truncation(SparseSeq(), IdentityTruncation())
    with pytest.raises(ValueError):
        truncation(IdentityLine(), MeetWithUnit(line(-1)))
    with pytest.raises(SpaceMismatch):
        truncation(SparseSeq(), MeetWithUnit(line(1)))


def test_in_fixed_set_examples():
    t = CATALOG["sparse_seq"].trunc
    assert in_fixed_set(t, sparse({1: Fraction(1, 2)}))
    assert not in_fixed_set(t, sparse({1: 2}))
    assert in_fixed_set(t, sparse())  # zero is always a fixed point


def test_in_fixed_set_matches_truncate_pointwise():
    # the closed forms must agree with the definition on sampled elements of arbitrary sign
    for name, ctx in CATALOG.items():
        gen = SampleGen(109, ctx.space)
        for _ in range(300):
            x = gen.element()
            a = abs(x)
            assert in_fixed_set(ctx.trunc, x) == (truncate(ctx.trunc, a) == a), name


def test_unitality_metadata():
    assert not CATALOG["sparse_seq"].trunc.unital
    assert not CATALOG["identity_line"].trunc.unital
    assert CATALOG["finite_pointwise"].trunc.unital
    assert CATALOG["finite_pointwise"].trunc.unit == fp_const(3, 1)
    lex = CATALOG["lex_plane"].trunc
    assert lex.unital and lex.unit == lexpair(0, 1)


def test_meet_with_unit_matches_meet():
    space = SparseSeq()
    u = sparse({1: 1, 2: 2})
    t = truncation(space, MeetWithUnit(u))
    gen = SampleGen(3, space)
    for _ in range(200):
        x = gen.positive()
        assert truncate(t, x) == meet(x, u)
        assert in_fixed_set(t, x) == (abs(x) <= u)


# -- the base part pos(x) - c tr(p / c) of (x + lam*1)+, per kind ----------------

SCALED_SPECS = (
    *(config.trunc for config in CATALOG.values()),
    truncation(LexPlane(), MeetWithUnit(lexpair(1, 0))),
    # positive in the lex order with a negative second coordinate
    truncation(LexPlane(), MeetWithUnit(lexpair(2, -3))),
    truncation(SparseSeq(), MeetWithUnit(sparse({1: 1, 4: 2, 9: Fraction(1, 3)}))),
    truncation(FinitePointwise(4), MeetWithUnit(fp(1, 0, Fraction(5, 2), 0))),
    # not homogeneous: tr(x) = x ^ 1 v x/2, so c * tr(p / c) depends on c
    truncation(
        FinitePointwise(4),
        FixtureTruncation("half_or_cap", lambda x: join(meet(x, fp_const(4, 1)), scale(Fraction(1, 2), x))),
    ),
)
_nonneg = st.fractions(min_value=0, max_value=30, max_denominator=7)
_scalars = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)


def _positive_elements(space):
    if isinstance(space, SparseSeq):
        return st.dictionaries(st.integers(1, 12), _nonneg, max_size=6).map(sparse)
    if isinstance(space, LexPlane):
        positive = st.fractions(min_value=Fraction(1, 7), max_value=30, max_denominator=7)
        signed = st.fractions(min_value=-30, max_value=30, max_denominator=7)
        return st.one_of(st.tuples(positive, signed), st.tuples(st.just(0), _nonneg)).map(lambda v: lexpair(*v))
    if isinstance(space, IdentityLine):
        return _nonneg.map(line)
    return st.lists(_nonneg, min_size=space.dim, max_size=space.dim).map(lambda v: fp(*v))


@st.composite
def scaled_cases(draw):
    """A truncation, an element of any sign and a scalar ``lam != 0``."""
    t = draw(st.sampled_from(SCALED_SPECS))
    positives = _positive_elements(t.space)
    differences = st.tuples(positives, positives).map(lambda ab: ab[0] - ab[1])
    x = draw(st.one_of(positives, positives.map(lambda p: -p), differences))
    # c = 1 and c equal to a value of p are where a strict and a weak cut differ
    c = draw(st.one_of(_scalars, st.just(Fraction(1)), st.sampled_from((Fraction(1, 2), 3, 7))))
    return t, x, draw(st.sampled_from((1, -1))) * Fraction(c)


@settings(max_examples=800, derandomize=True, deadline=None)
@given(scaled_cases())
def test_pos_base_is_pos_minus_the_rescaled_truncation(case):
    """The per-kind cut ``c tr(p / c)`` is the rescaled truncation, and ``pos_base`` is ``pos(x)`` minus it."""
    t, x, lam = case
    c, p = abs(lam), neg(x) if lam > 0 else pos(x)
    cut = ref_rescaled_cut(t, p, c)
    assert cut == scale(c, truncate(t, scale(1 / c, p)))
    assert pos_base(t, x, lam) == pos(x) - cut


@pytest.mark.parametrize("t", SCALED_SPECS, ids=lambda t: f"{type(t.space).__name__}-{type(t.kind).__name__}")
def test_pos_base_rejects_bad_input(t):
    """``pos_base`` takes any sign but no element of another space, and no ``lam = 0``, where ``c tr(p / c)`` has no ``c``."""
    if isinstance(t.space, FinitePointwise):
        x = fp_const(t.space.dim, -1)
    else:
        x = {SparseSeq: sparse({2: -1}), LexPlane: lexpair(0, -1), IdentityLine: line(-1)}[type(t.space)]
    with pytest.raises(SpaceMismatch):
        pos_base(t, line(1) if isinstance(t.space, LexPlane) else lexpair(1, 1), 2)
    for lam in (0, Fraction(0)):
        with pytest.raises(PreconditionViolated):
            pos_base(t, x, lam)


# -- axiom checks ------------------------------------------------------------

def test_tau1_tau2_pass_on_catalog():
    for name, ctx in CATALOG.items():
        gen = SampleGen(29, ctx.space)
        assert check_tau1(ctx.trunc, _pairs(gen, 1000)).verdict == "pass", name
        assert check_tau2(ctx.trunc, [gen.positive() for _ in range(1000)]).verdict == "pass", name


def test_tau2_refuted_for_annihilating_fixture():
    space = SparseSeq()
    t = truncation(space, FixtureTruncation("annihilate", lambda x: zero(space)))
    report = check_tau2(t, [sparse({1: 1}), sparse()])
    assert report.verdict == "refuted"
    assert report.witness == {"a": {"1": "1/1"}}


def test_tau1_refuted_for_inflating_fixture():
    space = SparseSeq()
    t = truncation(space, FixtureTruncation("inflate", lambda x: x + sparse({9: 1})))
    report = check_tau1(t, [(sparse({1: 1}), sparse({1: 1}))])
    assert report.verdict == "refuted"


def test_tau3_symbolic_decisions():
    for name in ("sparse_seq", "lex_plane", "finite_pointwise"):
        result = check_tau3(CATALOG[name].trunc, [])
        assert result.holds is True and result.bound == 0 and result.witness == (), name
    result = check_tau3(CATALOG["identity_line"].trunc, [line(1)])
    assert result.holds is False and result.bound == 0
    assert result.witness == (line(1),)
    # the witness really survives every multiple
    t = CATALOG["identity_line"].trunc
    for n in range(1, 101):
        assert truncate(t, scale(n, line(1))) == scale(n, line(1))


def test_tau3_meet_with_unit_on_lex_plane():
    space = LexPlane()
    dominated = truncation(space, MeetWithUnit(lexpair(1, 0)))
    result = check_tau3(dominated, [])
    assert result.holds is False and result.bound == 0
    assert result.witness == (lexpair(0, 1),)
    for n in range(1, 101):
        nx = scale(n, lexpair(0, 1))
        assert truncate(dominated, nx) == nx
    second_axis = truncation(space, MeetWithUnit(lexpair(0, 3)))
    assert check_tau3(second_axis, []) == Decision(
        True, "n*x <= (0,3) for every n forces the first coordinate to 0, then the second"
    )


def test_tau3_bounded_search_for_fixtures():
    space = SparseSeq()
    all_fixed = truncation(space, FixtureTruncation("noop", lambda x: x))
    result = check_tau3(all_fixed, [sparse({1: 1})], bound=50)
    assert result == Decision(False, witness=(sparse({1: 1}),), bound=50)

    capped = truncation(
        space, FixtureTruncation("cap2", lambda x: meet(x, sparse({k: 2 for k in range(1, 17)})))
    )
    result = check_tau3(capped, [sparse({1: 1}), sparse()], bound=50)
    assert result == Decision(None, bound=50)

    with pytest.raises(NegativeInput):
        check_tau3(all_fixed, [sparse({1: -1})])
    # bound 0 would read as a symbolic decision
    with pytest.raises(PreconditionViolated):
        check_tau3(all_fixed, [sparse({1: 1})], bound=0)


# -- exchange identity and elementary properties ------------------------------

def test_prop21_examples():
    t = CATALOG["sparse_seq"].trunc
    a, b = sparse({1: 2}), sparse({1: 3})
    assert meet(a, truncate(t, b)) == sparse({1: 1})
    assert meet(truncate(t, a), b) == sparse({1: 1})
    assert check_prop21(t, [(a, b), (a, a)]).verdict == "pass"
    lex = CATALOG["lex_plane"].trunc
    assert check_prop21(lex, [(lexpair(0, 5), lexpair(1, 1))]).verdict == "pass"


def test_prop21_pass_on_catalog():
    for name, ctx in CATALOG.items():
        gen = SampleGen(31, ctx.space)
        assert check_prop21(ctx.trunc, _pairs(gen, 1000)).verdict == "pass", name


def test_prop22_examples():
    t = CATALOG["sparse_seq"].trunc
    x, y = sparse({1: 3}), sparse({1: 5})
    assert abs(truncate(t, x) - truncate(t, y)) == sparse()
    assert truncate(t, abs(x - y)) == sparse({1: 1})
    assert truncate(t, truncate(t, sparse({1: 7}))) == sparse({1: 1})
    assert check_prop22(t, [(x, y), (x, x)]).verdict == "pass"


def test_prop22_pass_on_catalog():
    for name, ctx in CATALOG.items():
        gen = SampleGen(37, ctx.space)
        assert check_prop22(ctx.trunc, _pairs(gen, 1000)).verdict == "pass", name


def test_prop22_catches_non_monotone_fixture():
    space = SparseSeq()

    def weird(x):
        # collapses large elements to zero: monotonicity fails
        return x if leq_below_two(x) else zero(space)

    def leq_below_two(x):
        return all(v <= 2 for _, v in x.payload)

    t = truncation(space, FixtureTruncation("weird", weird))
    report = check_prop22(t, [(sparse({1: 1}), sparse({1: 4}))])
    assert report.verdict == "refuted"
    assert report.witness["item"] == "monotone"


# -- fixed-set comparison (two truncations) -----------------------------------

def test_compare_identical_truncations():
    t = CATALOG["sparse_seq"].trunc
    gen = SampleGen(41, t.space)
    report = compare_fixed_sets(t, t, [gen.element() for _ in range(100)])
    assert report.verdict == "pass"


def test_compare_identity_with_high_cap_fixture():
    # both act as the identity below the cap, so samples below it agree
    space = IdentityLine()
    ident = CATALOG["identity_line"].trunc
    cap = truncation(space, FixtureTruncation("cap100", lambda x: meet(x, line(100))))
    samples = [line(Fraction(k, 3)) for k in range(-20, 21)]
    report = compare_fixed_sets(ident, cap, samples)
    assert report.verdict == "pass"


def test_compare_meet_one_with_meet_two():
    space = SparseSeq()
    one = CATALOG["sparse_seq"].trunc
    two = truncation(
        space, FixtureTruncation("cap2", lambda x: meet(x, sparse({k: 2 for k in range(1, 17)})))
    )
    report = compare_fixed_sets(one, two, [sparse({1: Fraction(3, 2)})])
    assert report.verdict == "refuted"
    assert report.witness["fixed_sets_agree"] is False
    assert report.witness["truncations_agree"] is False
    assert report.witness["fixed_set_witness"] == {"1": "3/2"}


def test_compare_coupling_via_output_enrichment():
    # on the raw sample {1:3} both fixed sets agree (neither fixes it), but the
    # truncation outputs expose the disagreement, so the verdicts still couple
    space = SparseSeq()
    one = CATALOG["sparse_seq"].trunc
    two = truncation(
        space, FixtureTruncation("cap2", lambda x: meet(x, sparse({k: 2 for k in range(1, 17)})))
    )
    report = compare_fixed_sets(one, two, [sparse({1: 3})])
    assert report.verdict == "refuted"
    assert report.witness["fixed_sets_agree"] == report.witness["truncations_agree"] == False


def test_lex_meet_zero_one_equals_meet_with_unit():
    space = LexPlane()
    named = CATALOG["lex_plane"].trunc
    explicit = truncation(space, MeetWithUnit(lexpair(0, 1)))
    gen = SampleGen(43, space)
    report = compare_fixed_sets(named, explicit, [gen.element() for _ in range(300)])
    assert report.verdict == "pass"
    # the wire name is an alias of the meet with (0,1), not a kind of its own
    assert truncation_from_json(space, {"kind": "lex_meet_zero_one"}) == explicit
    with pytest.raises(DescriptorError):
        truncation_from_json(SparseSeq(), {"kind": "lex_meet_zero_one"})


def test_coupling_never_diverges_for_catalog_pairs():
    for name, ctx in CATALOG.items():
        gen = SampleGen(47, ctx.space)
        report = compare_fixed_sets(ctx.trunc, ctx.trunc, [gen.element() for _ in range(200)])
        assert report.verdict == "pass", name


# -- wire format -------------------------------------------------------------

def test_truncation_json_roundtrip():
    for name, ctx in CATALOG.items():
        blob = truncation_to_json(ctx.trunc)
        assert truncation_from_json(ctx.space, blob) == ctx.trunc, name


def test_truncation_json_rejects_junk():
    with pytest.raises(DescriptorError):
        truncation_from_json(SparseSeq(), {"kind": "nope"})
    with pytest.raises(DescriptorError):
        truncation_from_json(LexPlane(), {"kind": "meet_with_one"})
    with pytest.raises(DescriptorError):
        truncation_from_json(SparseSeq(), {"kind": "meet_with_unit"})
    fixture = truncation(SparseSeq(), FixtureTruncation("f", lambda x: x))
    with pytest.raises(DescriptorError):
        truncation_to_json(fixture)
