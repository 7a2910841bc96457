import importlib
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trunclat import (
    DescriptorError,
    Element,
    FinitePointwise,
    FixtureTruncation,
    IdentityLine,
    LexPlane,
    MeetWithUnit,
    NegativeInput,
    SampleGen,
    SpaceMismatch,
    SparseSeq,
    UnitizedElement,
    abs_u,
    catalog,
    check_ideal,
    check_thm11_fixedset,
    check_thm11_orthocomplement,
    fp,
    fp_const,
    in_fixed_set,
    in_fixed_u,
    is_positive,
    join_u,
    leq,
    leq_u,
    lexpair,
    line,
    meet_u,
    neg_u,
    pos_u,
    scale,
    sparse,
    truncate,
    truncate_u,
    truncation,
    unitize,
    unitized_from_json,
    unitized_to_json,
    zero,
)
from trunclat import spaces, unitization

from oracles import (
    o_abs,
    o_join,
    o_leq,
    o_meet,
    o_positive,
    ref_abs_u,
    ref_in_fixed_set,
    ref_in_fixed_u,
    ref_is_positive_u,
    ref_join_u,
    ref_meet_u,
)

SPARSE = unitize(catalog()["sparse_seq"].trunc)
FPU = unitize(catalog()["finite_pointwise"].trunc)
LEXU = unitize(catalog()["lex_plane"].trunc)
LINEU = unitize(catalog()["identity_line"].trunc)
ALL_CTX = (SPARSE, FPU, LEXU, LINEU)
# x -> 2x breaks tau1 (tr(x) <= x): the unitized forms must still agree with the half-sums
DOUBLED = tuple(
    unitize(truncation(space, FixtureTruncation("double", lambda x: scale(2, x))))
    for space in (SparseSeq(), FinitePointwise(3))
)
# units off the catalog: a sparse unit with gaps, zero coordinates, and a lex unit with a negative second coordinate
OFF_CATALOG = tuple(
    unitize(truncation(u.space, MeetWithUnit(u)))
    for u in (sparse({1: 1, 4: 2, 9: Fraction(1, 3)}), fp(1, 0, Fraction(5, 2), 0), lexpair(2, -3))
)


def ue(e, lam):
    return UnitizedElement(e, Fraction(lam))


# -- cone --------------------------------------------------------------------

def test_is_positive_examples():
    assert is_positive(SPARSE, ue(sparse({1: -1}), 2))
    assert not is_positive(SPARSE, ue(sparse({1: -3}), 2))
    assert is_positive(SPARSE, ue(sparse({1: 5}), 0))
    assert not is_positive(SPARSE, ue(sparse(), -1))


def test_leq_u_examples():
    assert leq_u(SPARSE, SPARSE.zero, SPARSE.one)
    assert leq_u(SPARSE, SPARSE.embed(sparse({1: Fraction(1, 2)})), SPARSE.one)
    assert not leq_u(SPARSE, SPARSE.embed(sparse({1: 2})), SPARSE.one)


def test_abs_u_examples():
    # formula: |x| - 2|lam| tr((1/lam) neg(x) v (-1/lam) pos(x)) + |lam|
    assert abs_u(SPARSE, ue(sparse({1: 2}), -1)) == SPARSE.one
    x = ue(sparse({1: 1}), 0)
    assert abs_u(SPARSE, x) == x
    assert abs_u(SPARSE, ue(sparse(), -3)) == SPARSE.scalar(3)


def test_abs_u_fixes_positive_elements():
    for ctx in ALL_CTX:
        gen = SampleGen(53, ctx.space)
        for _ in range(200):
            a = gen.positive_unitized(ctx)
            assert abs_u(ctx, a) == a


def test_join_meet_examples():
    assert join_u(SPARSE, SPARSE.zero, SPARSE.one) == SPARSE.one
    assert meet_u(SPARSE, SPARSE.embed(sparse({1: 2})), SPARSE.one) == SPARSE.embed(sparse({1: 1}))
    a = ue(sparse({2: -1}), 5)
    assert join_u(SPARSE, a, a) == a


def test_truncate_u_examples():
    assert truncate_u(SPARSE, SPARSE.one) == SPARSE.one
    assert truncate_u(SPARSE, SPARSE.embed(sparse({1: 2}))) == SPARSE.embed(sparse({1: 1}))
    assert truncate_u(SPARSE, SPARSE.scalar(3)) == SPARSE.one
    with pytest.raises(NegativeInput):
        truncate_u(SPARSE, SPARSE.scalar(-1))


# -- oracle equivalence (the independent pointwise route) ----------------------

def test_pointwise_oracle_agreement():
    gen = SampleGen(59, SPARSE.space)
    for _ in range(300):
        a, b = gen.unitized(), gen.unitized()
        assert is_positive(SPARSE, a) == o_positive(a)
        assert leq_u(SPARSE, a, b) == o_leq(a, b)
        assert abs_u(SPARSE, a) == o_abs(a)
        assert join_u(SPARSE, a, b) == o_join(a, b)
        assert meet_u(SPARSE, a, b) == o_meet(a, b)


# -- the positive-part forms against the half-sum references -------------------

_values = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_magnitudes = st.fractions(min_value=Fraction(1, 5), max_value=4, max_denominator=5)


def _base_elements(space):
    match space:
        case FinitePointwise(dim):
            return st.lists(_values, min_size=dim, max_size=dim).map(lambda v: fp(*v))
        case SparseSeq():
            return st.dictionaries(st.integers(1, 6), _values, max_size=4).map(sparse)
        case LexPlane():
            return st.tuples(_values, _values).map(lambda p: lexpair(*p))
        case IdentityLine():
            return _values.map(line)
    raise TypeError(f"unknown space {space!r}")


@st.composite
def unitized_cases(draw):
    """A context and two elements; each ``lam`` is 0, > 0 or < 0, and a base part may be 0."""
    ctx = draw(st.sampled_from(ALL_CTX + DOUBLED + OFF_CATALOG))

    def element(lam_sign):
        e = zero(ctx.space) if draw(st.integers(0, 4)) == 0 else draw(_base_elements(ctx.space))
        return UnitizedElement(e, lam_sign * draw(_magnitudes))

    a = element(draw(st.sampled_from((0, 1, -1))))
    b = element(draw(st.sampled_from((0, 1, -1))))
    if draw(st.integers(0, 3)) == 0:  # a - b has lam = 0
        b = UnitizedElement(b.e, a.lam)
    return ctx, a, b


@settings(max_examples=600, derandomize=True, deadline=None)
@given(unitized_cases())
def test_positive_part_forms_match_half_sums(case):
    ctx, a, b = case
    assert abs_u(ctx, a) == ref_abs_u(ctx, a)
    assert pos_u(ctx, a) == ref_join_u(ctx, a, ctx.zero)
    assert neg_u(ctx, a) == ref_join_u(ctx, -a, ctx.zero)
    assert join_u(ctx, a, b) == ref_join_u(ctx, a, b)
    assert meet_u(ctx, a, b) == ref_meet_u(ctx, a, b)
    assert is_positive(ctx, a) == ref_is_positive_u(ctx, a)
    for c in (a, abs_u(ctx, a), pos_u(ctx, a)):
        if ref_is_positive_u(ctx, c):
            assert truncate_u(ctx, c) == ref_meet_u(ctx, c, ctx.one)
        else:
            with pytest.raises(NegativeInput):
                truncate_u(ctx, c)
    # x -> 2x can put |a| outside the cone, where truncate_u(|a|) is undefined
    if ref_is_positive_u(ctx, abs_u(ctx, a)):
        assert in_fixed_u(ctx, a) == ref_in_fixed_u(ctx, a)
    else:
        assert ctx in DOUBLED


def test_unitized_ops_go_through_pos_base(monkeypatch):
    """Each positive part with ``lam != 0`` is one ``pos_base`` call, and so is ``abs_u = a+ + (a+ - a)``.

    The counts are of the calls the unitization and truncation modules make.
    A catalog kind makes no base ``truncate``, ``scale`` or ``join``; a
    fixture runs the definition ``pos(x) - c * tr(p / c)``, one ``truncate``
    and two ``scale``s.
    """
    truncation_module = importlib.import_module("trunclat.truncation")
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(unitization, "pos_base", counting("pos_base", unitization.pos_base))
    monkeypatch.setattr(truncation_module, "truncate", counting("truncate", truncation_module.truncate))
    for module in (unitization, truncation_module):
        monkeypatch.setattr(module, "scale", counting("scale", module.scale))
        # a module that imported ``join`` by name holds its own reference to it
        monkeypatch.setattr(module, "join", counting("join", spaces.join), raising=False)
    monkeypatch.setattr(Element, "__abs__", counting("abs", Element.__abs__))

    def count(ctx, op, *args):
        """(pos_base, base truncate, scale, join) calls made by one op."""
        counts.clear()
        op(ctx, *args)
        assert counts["abs"] == 0
        return counts["pos_base"], counts["truncate"], counts["scale"], counts["join"]

    for ctx in ALL_CTX + DOUBLED + OFF_CATALOG:
        fixture = ctx in DOUBLED
        gen = SampleGen(107, ctx.space)
        for _ in range(20):
            x, y = gen.element(), gen.element()
            lam = gen.rational(nonzero=True)
            a, b = UnitizedElement(x, lam), UnitizedElement(y, lam / 2)
            # lam != 0: one positive part each
            for op, args in ((pos_u, (a,)), (neg_u, (a,)), (abs_u, (a,)), (join_u, (a, b)), (meet_u, (a, b))):
                assert count(ctx, op, *args) == (1, fixture, 2 * fixture, 0), op.__name__
            assert count(ctx, is_positive, UnitizedElement(x, abs(lam))) == (1, fixture, 2 * fixture, 0)
            # lam = 0: no positive part needs the truncation
            base, flat = ctx.embed(x), UnitizedElement(y, lam)
            for op, args in ((pos_u, (base,)), (neg_u, (base,)), (abs_u, (base,)),
                             (join_u, (a, flat)), (meet_u, (a, flat))):
                assert count(ctx, op, *args) == (0, 0, 0, 0), op.__name__


_LEX_ZERO = ue(lexpair(0, 0), 0)
_UNITIZED_OPS = {
    "pos_u": lambda bad: pos_u(SPARSE, bad),
    "neg_u": lambda bad: neg_u(SPARSE, bad),
    "abs_u": lambda bad: abs_u(SPARSE, bad),
    "join_u": lambda bad: join_u(SPARSE, bad, _LEX_ZERO),
    "meet_u": lambda bad: meet_u(SPARSE, bad, _LEX_ZERO),
    "join_u mixed": lambda bad: join_u(SPARSE, bad, SPARSE.one),
    "leq_u": lambda bad: leq_u(SPARSE, _LEX_ZERO, bad),
    "is_positive": lambda bad: is_positive(SPARSE, bad),
    "truncate_u": lambda bad: truncate_u(SPARSE, bad),
}


@pytest.mark.parametrize("lam", [0, 2, -2])
@pytest.mark.parametrize("op", sorted(_UNITIZED_OPS))
def test_every_unitized_op_checks_the_space(op, lam):
    with pytest.raises(SpaceMismatch):
        _UNITIZED_OPS[op](ue(lexpair(1, -2), lam))


def test_identity_line_unitization_is_lexicographic():
    # (e, lam) |-> (lam, e) is an order isomorphism onto the lex plane
    gen = SampleGen(61, LINEU.space)
    for _ in range(300):
        a, b = gen.unitized(), gen.unitized()
        flip_a = lexpair(a.lam, a.e.payload)
        flip_b = lexpair(b.lam, b.e.payload)
        assert leq_u(LINEU, a, b) == leq(flip_a, flip_b)
        m = meet_u(LINEU, a, b)
        assert lexpair(m.lam, m.e.payload) in (flip_a, flip_b)


# -- invariants ---------------------------------------------------------------

def test_cone_sanity_sampled():
    for ctx in ALL_CTX:
        gen = SampleGen(67, ctx.space)
        for _ in range(300):
            a = gen.unitized()
            if is_positive(ctx, a) and is_positive(ctx, -a):
                assert a == ctx.zero


def test_abs_u_bounds_and_least_upper_bound():
    for ctx in ALL_CTX:
        gen = SampleGen(71, ctx.space)
        for _ in range(200):
            a = gen.unitized()
            b = abs_u(ctx, a)
            assert is_positive(ctx, b)
            assert leq_u(ctx, a, b) and leq_u(ctx, -a, b)
            z = b + gen.positive_unitized(ctx)
            assert leq_u(ctx, b, z)
            candidate = gen.unitized()
            if leq_u(ctx, a, candidate) and leq_u(ctx, -a, candidate):
                assert leq_u(ctx, b, candidate)


def test_triangle_inequality_sampled():
    for ctx in ALL_CTX:
        gen = SampleGen(73, ctx.space)
        for _ in range(200):
            a, b = gen.unitized(), gen.unitized()
            assert leq_u(ctx, abs_u(ctx, a + b), abs_u(ctx, a) + abs_u(ctx, b))


def test_pos_neg_decomposition_unitized():
    for ctx in ALL_CTX:
        gen = SampleGen(79, ctx.space)
        for _ in range(150):
            a = gen.unitized()
            assert pos_u(ctx, a) - neg_u(ctx, a) == a
            assert pos_u(ctx, a) + neg_u(ctx, a) == abs_u(ctx, a)


# -- fixed set and ideal ------------------------------------------------------

def test_thm11_fixedset_examples_and_sampled():
    assert in_fixed_set(SPARSE.trunc, sparse({1: Fraction(1, 2)}))
    assert leq_u(SPARSE, SPARSE.embed(sparse({1: Fraction(1, 2)})), SPARSE.one)
    assert not in_fixed_set(SPARSE.trunc, sparse({1: 2}))
    assert not leq_u(SPARSE, SPARSE.embed(sparse({1: 2})), SPARSE.one)
    for ctx in ALL_CTX:
        gen = SampleGen(83, ctx.space)
        report = check_thm11_fixedset(ctx, [gen.element() for _ in range(500)])
        assert report.verdict == "pass"


# the catalog, off-catalog and x -> 2x truncations, and the lex unit (1, 0)
FIXED_SET_SPECS = tuple(ctx.trunc for ctx in ALL_CTX + OFF_CATALOG + DOUBLED) + (
    truncation(LexPlane(), MeetWithUnit(lexpair(1, 0))),
)


@st.composite
def fixed_set_cases(draw):
    """A truncation and an element of any sign, often at the edge of the fixed set."""
    t = draw(st.sampled_from(FIXED_SET_SPECS))
    elements = _base_elements(t.space)
    x = draw(elements)
    edge = draw(st.integers(0, 4))
    if edge == 1:  # tr(|x|) is fixed for an honest truncation, and so is its negation
        x = draw(st.sampled_from((1, -1))) * truncate(t, abs(x))
    elif edge == 2:  # mixed signs, each within the unit
        x = truncate(t, abs(x)) - truncate(t, abs(draw(elements)))
    elif edge == 3 and t.unit is not None:
        x = draw(st.sampled_from((t.unit, -t.unit, t.unit + abs(x), t.unit - abs(x))))
    elif edge == 4:  # every value negative: membership must read |x|, not x
        x = -abs(x)
    return t, x


@settings(max_examples=500, derandomize=True, deadline=None)
@given(fixed_set_cases())
def test_in_fixed_set_matches_the_definition(case):
    """The closed forms of ``in_fixed_set`` against ``tr(|x|) == |x|``."""
    t, x = case
    assert in_fixed_set(t, x) == ref_in_fixed_set(t, x)


def test_in_fixed_set_examples_at_the_edges():
    # meet_with_one bounds |v|, not v
    assert in_fixed_set(SPARSE.trunc, sparse({1: -1, 3: Fraction(1, 2)}))
    assert not in_fixed_set(SPARSE.trunc, sparse({1: -2, 3: Fraction(1, 2)}))
    # u is 0 at index 2 and at coordinates 2 and 4: any nonzero value there leaves the fixed set
    sparse_unit, fp_unit = (ctx.trunc for ctx in OFF_CATALOG[:2])
    assert in_fixed_set(sparse_unit, sparse({1: -1, 4: 2, 9: Fraction(-1, 3)}))
    assert not in_fixed_set(sparse_unit, sparse({2: Fraction(1, 100)}))
    assert not in_fixed_set(sparse_unit, sparse({9: Fraction(1, 2)}))
    assert in_fixed_set(fp_unit, fp(-1, 0, Fraction(5, 2), 0))
    assert not in_fixed_set(fp_unit, fp(0, 0, 0, Fraction(-1, 9)))
    # the lex order is total: (1, 0) bounds every pair with first coordinate below 1
    lex_10 = FIXED_SET_SPECS[-1]
    assert in_fixed_set(lex_10, lexpair(Fraction(1, 2), 100))
    assert in_fixed_set(lex_10, lexpair(-1, 5))  # |(-1, 5)| = (1, -5)
    assert not in_fixed_set(lex_10, lexpair(1, Fraction(1, 7)))


def test_ideal_absorption_examples():
    a = sparse({1: 2})
    assert leq_u(SPARSE, abs_u(SPARSE, SPARSE.embed(sparse({1: 1}))), SPARSE.embed(abs(a)))
    # |b| has scalar part 1/2 "at infinity", so it cannot sit below (|a|, 0)
    b = ue(sparse({1: -1}), Fraction(1, 2))
    assert not leq_u(SPARSE, abs_u(SPARSE, b), SPARSE.embed(abs(a)))
    report = check_ideal(SPARSE, [(a, SPARSE.embed(sparse({1: 1}))), (a, b)])
    assert report.verdict == "pass"
    assert report.detail == "absorbed=1"


def test_ideal_absorption_with_nothing_absorbed_is_inconclusive():
    # |1| = 1 does not sit below |0| = 0, so no pair exercises the claim
    report = check_ideal(SPARSE, [(sparse(), SPARSE.one)])
    assert report.verdict == "inconclusive"
    assert report.bound == 0 and report.detail == "absorbed=0"


def test_ideal_absorption_sampled():
    for ctx in ALL_CTX:
        gen = SampleGen(89, ctx.space)
        pairs = []
        for i in range(400):
            a = gen.element()
            if i % 2 == 0:
                from trunclat import join as join_e, meet as meet_e, scale

                clamped = join_e(meet_e(gen.element(), abs(a)), scale(-1, abs(a)))
                pairs.append((a, ctx.embed(clamped)))
            else:
                pairs.append((a, gen.unitized()))
        assert check_ideal(ctx, pairs).verdict == "pass"


# -- orthogonal complement ----------------------------------------------------

def test_orthocomplement_unital_two_dims():
    space = FinitePointwise(2)
    ctx = unitize(truncation(space, MeetWithUnit(fp_const(2, 1))))
    report = check_thm11_orthocomplement(ctx, [fp(1, 0), fp(0, 1), fp(3, 5)])
    w = ue(fp(-1, -1), 1)
    # three samples, three scalars each
    assert (report.verdict, report.trials) == ("pass", 9)
    assert report.detail == f"span of 1-u, w={unitized_to_json(w)}"
    # |w| ^ (x, 0) = 0 for x = (1,0), spelled out
    assert meet_u(ctx, abs_u(ctx, w), ctx.embed(fp(1, 0))) == ctx.zero
    json.dumps(report.to_json_dict())


def test_orthocomplement_unital_lex_plane():
    report = check_thm11_orthocomplement(LEXU, [lexpair(1, 0), lexpair(0, 1), lexpair(2, -3)])
    assert (report.verdict, report.trials) == ("pass", 9)
    assert report.detail == f"span of 1-u, w={unitized_to_json(ue(lexpair(0, -1), 1))}"


def test_orthocomplement_nonunital_sparse():
    candidates = [SPARSE.scalar(1), ue(sparse({3: 2}), 0), ue(sparse({1: -1}), 2)]
    report = check_thm11_orthocomplement(
        SPARSE, [sparse({1: 1}), sparse({2: 1})], candidates=candidates
    )
    assert (report.verdict, report.trials, report.detail) == ("pass", 3, "separated=3")
    # the pure-scalar candidate is met nontrivially by a base element
    z = SPARSE.scalar(1)
    x = sparse({1: 1})
    assert meet_u(SPARSE, abs_u(SPARSE, z), SPARSE.embed(x)) == SPARSE.embed(sparse({1: 1}))


def test_orthocomplement_nonunital_identity_line():
    candidates = [LINEU.scalar(1), ue(line(2), 0), ue(line(-1), Fraction(1, 2))]
    report = check_thm11_orthocomplement(LINEU, [line(1)], candidates=candidates)
    assert (report.verdict, report.trials, report.detail) == ("pass", 3, "separated=3")


def test_orthocomplement_without_a_separator_is_inconclusive():
    # on the identity over R^2 no fixed base element is tried against the scalar 1
    space = FinitePointwise(2)
    ctx = unitize(truncation(space, FixtureTruncation("identity", lambda x: x)))
    report = check_thm11_orthocomplement(ctx, [], candidates=[ctx.scalar(1)])
    assert (report.verdict, report.trials, report.bound) == ("inconclusive", 0, 1)
    assert report.detail == "unresolved=1"
    json.dumps(report.to_json_dict())


def test_broken_unit_is_caught_by_tau2():
    # a unit with a zero coordinate is not a weak unit: meet-with-it kills the
    # second axis, which the tau2 check reports as a refutation
    from trunclat import check_tau2

    space = FinitePointwise(2)
    t = truncation(space, MeetWithUnit(fp(1, 0)))
    report = check_tau2(t, [fp(0, 1)])
    assert report.verdict == "refuted"
    assert report.witness == {"a": ["0/1", "1/1"]}


# -- truncation laws on the unitization ---------------------------------------

def test_truncate_u_axioms_sampled():
    for ctx in ALL_CTX:
        gen = SampleGen(97, ctx.space)
        for _ in range(150):
            a = gen.positive_unitized(ctx)
            b = gen.positive_unitized(ctx)
            ta = truncate_u(ctx, a)
            tb = truncate_u(ctx, b)
            assert leq_u(ctx, meet_u(ctx, a, tb), ta)
            assert leq_u(ctx, ta, a)
            assert meet_u(ctx, a, tb) == meet_u(ctx, ta, b)
            if ta == ctx.zero:
                assert a == ctx.zero


def test_disjoint_positive_scalars_always_meet():
    for ctx in ALL_CTX:
        gen = SampleGen(101, ctx.space)
        for _ in range(150):
            a = gen.positive_unitized_scalar(ctx)
            b = gen.positive_unitized_scalar(ctx)
            m = meet_u(ctx, a, b)
            assert m != ctx.zero
            assert m.lam == min(a.lam, b.lam)


# -- wire format --------------------------------------------------------------

def test_unitized_json_roundtrip():
    for ctx in ALL_CTX:
        gen = SampleGen(103, ctx.space)
        for _ in range(50):
            a = gen.unitized()
            assert unitized_from_json(ctx.space, unitized_to_json(a)) == a


def test_unitized_json_examples():
    assert unitized_to_json(SPARSE.one) == {"e": {}, "lambda": "1/1"}
    with pytest.raises(DescriptorError):
        unitized_from_json(SparseSeq(), {"e": {}})
    with pytest.raises(DescriptorError):
        unitized_from_json(SparseSeq(), {"e": {}, "lambda": "0.5"})
