import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    ref_abs,
    ref_add,
    ref_join,
    ref_leq,
    ref_meet,
    ref_neg,
    ref_negate,
    ref_pos,
    ref_scale,
    ref_sparse_leq,
    ref_sparse_merge,
    ref_sub,
)
from trunclat import (
    Element,
    EmptySet,
    FinitePointwise,
    IdentityLine,
    LexPlane,
    PreconditionViolated,
    SampleGen,
    SpaceMismatch,
    SparseSeq,
    abs_u,
    catalog,
    check_chain_sup_additivity,
    decompose_chain,
    element_from_json,
    element_to_json,
    fp,
    is_positive,
    join,
    leq,
    lexpair,
    line,
    meet,
    neg,
    pos,
    space_from_json,
    add,
    scale,
    space_to_json,
    sparse,
    sub,
    sup_finite,
    truncate,
    zero,
)
from trunclat import spaces

SPACES = (FinitePointwise(3), SparseSeq(), LexPlane(), IdentityLine())


def gens(seed=7):
    return [SampleGen(seed, s) for s in SPACES]


# -- frozen examples ---------------------------------------------------------

def test_add_examples():
    assert sparse({1: 2}) + sparse({1: -2}) == sparse()
    assert lexpair(1, 2) + lexpair(0, -2) == lexpair(1, 0)
    assert fp(Fraction(1, 2), Fraction(1, 3)) + fp(Fraction(1, 2), Fraction(2, 3)) == fp(1, 1)


def test_scale_examples():
    assert 0 * sparse({1: 5}) == sparse()
    assert Fraction(1, 2) * fp(2, 4) == fp(1, 2)
    assert -1 * lexpair(0, 1) == lexpair(0, -1)


def test_leq_examples():
    assert leq(sparse({1: 1}), sparse({1: 1, 2: 3}))
    assert leq(lexpair(0, 10**6), lexpair(1, 0))
    assert not leq(fp(1, 0), fp(0, 1))


def test_join_meet_abs_examples():
    assert meet(lexpair(0, 5), lexpair(0, 1)) == lexpair(0, 1)
    # lex comparison oracle: (0,1) < (1,-3), so the meet is the smaller pair
    assert meet(lexpair(1, -3), lexpair(0, 1)) == lexpair(0, 1)
    assert abs(sparse({1: -2, 3: 1})) == sparse({1: 2, 3: 1})


def test_sup_finite_examples():
    assert sup_finite([sparse({1: 1}), sparse({2: 2})]) == sparse({1: 1, 2: 2})
    # lex comparison oracle: (0,3) < (1,-5)
    assert sup_finite([lexpair(0, 3), lexpair(1, -5)]) == lexpair(1, -5)
    x = fp(1, 2, 3)
    assert sup_finite([x]) == x
    with pytest.raises(EmptySet):
        sup_finite([])


def test_decompose_chain_examples():
    # direct evaluation of u_i = (x_i v (-|u|)) ^ |u|
    us, vs = decompose_chain([fp(1, 0), fp(1, 1)], fp(1, 0), fp(0, 1))
    assert us == (fp(1, 0), fp(1, 0))
    assert vs == (fp(0, 0), fp(0, 1))
    z = zero(FinitePointwise(2))
    us, vs = decompose_chain([z], fp(1, 1), fp(2, 2))
    assert us == (z,) and vs == (z,)
    x = fp(Fraction(1, 2), Fraction(1, 3))
    us, vs = decompose_chain([x], fp(1, 1), zero(FinitePointwise(2)))
    assert us == (x,) and vs == (zero(FinitePointwise(2)),)


def test_decompose_chain_preconditions():
    with pytest.raises(PreconditionViolated):
        decompose_chain([fp(1, 1), fp(0, 0)], fp(1, 1), fp(1, 1))  # not increasing
    with pytest.raises(PreconditionViolated):
        decompose_chain([fp(5, 5)], fp(1, 0), fp(0, 1))  # not bounded
    with pytest.raises(PreconditionViolated):
        decompose_chain([], fp(1, 0), fp(0, 1))


def test_chain_sup_additivity_examples():
    assert check_chain_sup_additivity([fp(0, 0), fp(1, 0)], [fp(0, 0), fp(0, 1)])
    assert check_chain_sup_additivity([sparse({1: 1})], [sparse({2: 2})])
    with pytest.raises(PreconditionViolated):
        check_chain_sup_additivity([fp(0, 0)], [fp(0, 0), fp(1, 1)])


def test_space_mismatch():
    with pytest.raises(SpaceMismatch):
        fp(1, 2) + fp(1, 2, 3)
    with pytest.raises(SpaceMismatch):
        join(sparse({1: 1}), line(1))


def test_sparse_canonical_form():
    assert sparse({1: 0, 2: 3}).payload == ((2, Fraction(3)),)
    assert sparse({3: 1, 1: 2}).payload == ((1, Fraction(2)), (3, Fraction(1)))
    with pytest.raises(ValueError):
        sparse({0: 1})
    with pytest.raises(TypeError):
        fp(1.5, 2)  # floats are rejected


# -- sampled lattice laws ----------------------------------------------------

def test_lattice_laws_on_sampled_triples():
    for gen in gens(seed=11):
        z = zero(gen.space)
        for _ in range(1000):
            a, b, c = gen.element(), gen.element(), gen.element()
            assert join(a, b) == join(b, a)
            assert meet(a, b) == meet(b, a)
            assert join(join(a, b), c) == join(a, join(b, c))
            assert meet(meet(a, b), c) == meet(a, meet(b, c))
            assert join(a, meet(a, b)) == a
            assert meet(a, join(a, b)) == a
            assert join(a, b) + c == join(a + c, b + c)
            assert meet(a, b) + c == meet(a + c, b + c)
            assert abs(a) == pos(a) + neg(a)
            assert pos(a) - neg(a) == a
            assert meet(pos(a), neg(a)) == z


def test_partial_order_properties():
    for gen in gens(seed=13):
        for _ in range(300):
            a, b, c = gen.element(), gen.element(), gen.element()
            assert leq(a, a)
            if leq(a, b) and leq(b, a):
                assert a == b
            if leq(a, b) and leq(b, c):
                assert leq(a, c)


def test_sup_finite_is_least_sampled_upper_bound():
    for gen in gens(seed=17):
        for _ in range(200):
            items = [gen.element() for _ in range(gen.randint(1, 5))]
            s = sup_finite(items)
            assert all(leq(x, s) for x in items)
            # any sampled upper bound dominates the computed supremum
            candidate = gen.element()
            if all(leq(x, candidate) for x in items):
                assert leq(s, candidate)
            constructed = s + gen.positive()
            assert leq(s, constructed)


def test_decompose_chain_postconditions_sampled():
    for gen in gens(seed=19):
        z = zero(gen.space)
        for _ in range(150):
            u, v = gen.element(), gen.element()
            cap = abs(u) + abs(v)
            chain = gen.increasing_chain(gen.randint(1, 4), cap)
            us, vs = decompose_chain(chain, u, v)
            for i, x in enumerate(chain):
                assert us[i] + vs[i] == x
                assert leq(z, us[i]) and leq(us[i], abs(u))
                assert leq(z, vs[i]) and leq(vs[i], abs(v))
                if i:
                    assert leq(us[i - 1], us[i])
                    assert leq(vs[i - 1], vs[i])


def test_sub_is_add_of_negated_scale():
    for gen in gens(seed=29):
        for _ in range(200):
            a, b = gen.element(), gen.element()
            assert sub(a, b) == add(a, scale(-1, b))
            assert sub(a, a) == zero(gen.space)
            assert -b == scale(-1, b)


# -- sparse kernel against the dict-based reference ----------------------------

_values = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
_entries = st.dictionaries(st.integers(min_value=1, max_value=12), _values, max_size=6)


@st.composite
def sparse_pairs(draw):
    """Two sparse elements, steered into the cases a merge can get wrong."""
    a, b = draw(_entries), draw(_entries)
    shape = draw(st.sampled_from(("overlap", "equal", "disjoint", "empty")))
    if shape == "overlap":  # shared indices with equal values cancel in a - b
        shared = draw(_entries)
        a, b = {**a, **shared}, {**b, **shared}
    elif shape == "equal":  # a - b cancels at every index
        b = dict(a)
    elif shape == "disjoint":  # interleaved supports, no index in common
        a = {2 * k: v for k, v in a.items()}
        b = {2 * k - 1: v for k, v in b.items()}
    else:
        a, b = draw(st.sampled_from(((a, {}), ({}, b), ({}, {}))))
    return sparse(a), sparse(b)


@settings(max_examples=400, derandomize=True)
@given(sparse_pairs())
def test_sparse_kernel_matches_reference(pair):
    a, b = pair
    pa, pb = a.payload, b.payload
    assert add(a, b).payload == ref_sparse_merge(pa, pb, operator.add)
    assert sub(a, b).payload == ref_sparse_merge(pa, pb, operator.sub)
    assert join(a, b).payload == ref_sparse_merge(pa, pb, max)
    assert meet(a, b).payload == ref_sparse_merge(pa, pb, min)
    assert leq(a, b) == ref_sparse_leq(pa, pb)
    assert leq(b, a) == ref_sparse_leq(pb, pa)
    assert (-a).payload == ref_sparse_merge(pa, (), lambda x, _: -x)
    assert abs(a).payload == ref_sparse_merge(pa, (), lambda x, _: abs(x))


# -- order kernel against the Fraction-operator reference --------------------

_BIG = st.integers(min_value=2**64, max_value=2**80)
_scalars = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction, st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=9)
    ),
    # numerators and denominators above 2**64
    st.builds(lambda n, d, s: Fraction(s * n, d), _BIG, _BIG, st.sampled_from((1, -1))),
    st.builds(lambda n, s: Fraction(s * n, 2**64 + 1), _BIG, st.sampled_from((1, -1))),
)


def _sparse_payload(values: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in values.items() if v))


@st.composite
def kernel_pairs(draw):
    """Two elements of one space, steered into the cases a comparison can get wrong."""
    space = draw(st.sampled_from(SPACES))
    shape = draw(st.sampled_from(("independent", "equal", "negated", "shared", "one_signed")))
    if isinstance(space, SparseSeq):
        keys = st.integers(min_value=1, max_value=12)
        da = draw(st.dictionaries(keys, _scalars, max_size=6))
        db = draw(st.dictionaries(keys, _scalars, max_size=6))
        if shape == "equal":
            db = dict(da)
        elif shape == "negated":  # a + b cancels at every index
            db = {k: -v for k, v in da.items()}
        elif shape == "shared":  # equal values at shared indices
            db = {**db, **{k: v for k, v in da.items() if draw(st.booleans())}}
        elif shape == "one_signed":  # pos(a) or neg(a) is empty
            sign = draw(st.sampled_from((1, -1)))
            da = {k: sign * abs(v) for k, v in da.items()}
        if draw(st.integers(0, 7)) == 0:
            da = {}
        a, b = Element(space, _sparse_payload(da)), Element(space, _sparse_payload(db))
        return a, b
    n = {FinitePointwise: 3, LexPlane: 2}.get(type(space), 1)
    pa = list(draw(st.lists(_scalars, min_size=n, max_size=n)))
    pb = list(draw(st.lists(_scalars, min_size=n, max_size=n)))
    if isinstance(space, LexPlane) and draw(st.booleans()):
        pa[0] = Fraction(0)  # the second coordinate decides
    if shape == "equal":
        pb = list(pa)
    elif shape == "negated":
        pb = [-v for v in pa]
    elif shape == "shared":  # the first coordinate is always shared: lex pairs reach the second
        pb = [x if i == 0 or draw(st.booleans()) else y for i, (x, y) in enumerate(zip(pa, pb))]
    elif shape == "one_signed":
        sign = draw(st.sampled_from((1, -1)))
        pa = [sign * abs(v) for v in pa]
    if isinstance(space, IdentityLine):
        return Element(space, pa[0]), Element(space, pb[0])
    return Element(space, tuple(pa)), Element(space, tuple(pb))


@settings(max_examples=600, derandomize=True, deadline=None)
@given(kernel_pairs())
# lex pairs whose sign the second coordinate decides, and ones it must not decide
@example((lexpair(0, -3), lexpair(2, -5)))
@example((lexpair(Fraction(7, 2), -1), lexpair(0, Fraction(-1, 9))))
def test_order_kernel_matches_fraction_operators(pair):
    a, b = pair
    assert leq(a, b) == ref_leq(a, b)
    assert leq(b, a) == ref_leq(b, a)
    assert join(a, b) == ref_join(a, b)
    assert meet(a, b) == ref_meet(a, b)
    for x in (a, b):
        assert pos(x) == ref_pos(x)
        assert neg(x) == ref_neg(x)
        assert abs(x) == ref_abs(x)
        assert spaces.is_positive(x) == ref_leq(zero(x.space), x)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(kernel_pairs(), _scalars)
# one example per space, each scaled by a negative rational
@example((fp(1, -2, 3), fp(0, 5, Fraction(-1, 3))), Fraction(-3, 2))
@example((sparse({1: 2, 4: -1}), sparse({1: -2, 3: 5})), Fraction(-1, 7))
@example((lexpair(0, -3), lexpair(2, -5)), Fraction(-4))
@example((line(Fraction(5, 2)), line(-1)), Fraction(-2, 3))
def test_linear_kernel_matches_fraction_operators(pair, c):
    a, b = pair
    assert add(a, b) == ref_add(a, b)
    assert sub(a, b) == ref_sub(a, b)
    for x in (a, b):
        assert -x == ref_negate(x)
        assert scale(c, x) == ref_scale(c, x)
        assert scale(Fraction(-5, 3), x) == ref_scale(Fraction(-5, 3), x)
        assert scale(0, x) == zero(x.space)
        if isinstance(x.space, SparseSeq):
            assert scale(0, x).payload == ()


@st.composite
def zero_heavy_elements(draw, space):
    """An element of ``space`` with at least half its coordinates zero (rounded down; indices 1..8 when sparse)."""
    n = {FinitePointwise: 4, SparseSeq: 8, LexPlane: 2, IdentityLine: 1}[type(space)]
    zeros = draw(st.sets(st.integers(0, n - 1), min_size=n // 2, max_size=n))
    values = [Fraction(0) if i in zeros else draw(_scalars.filter(bool)) for i in range(n)]
    if isinstance(space, SparseSeq):
        return sparse({i + 1: v for i, v in enumerate(values)})
    if isinstance(space, IdentityLine):
        return line(values[0])
    return Element(space, tuple(values))


@st.composite
def zero_heavy_cases(draw):
    space = draw(st.sampled_from((FinitePointwise(4), SparseSeq(), LexPlane(), IdentityLine())))
    c = draw(st.one_of(st.sampled_from((Fraction(0), Fraction(1), Fraction(-1))), _scalars))
    return draw(zero_heavy_elements(space)), draw(zero_heavy_elements(space)), c


@settings(max_examples=600, derandomize=True, deadline=None)
@given(zero_heavy_cases())
def test_linear_kernel_with_zero_operands_matches_fraction_operators(case):
    a, b, c = case
    assert add(a, b) == ref_add(a, b)
    assert sub(a, b) == ref_sub(a, b)
    assert sub(b, a) == ref_sub(b, a)
    for x in (a, b):
        assert scale(c, x) == ref_scale(c, x)
        assert scale(1, x) == x
        assert add(x, zero(x.space)) == x == add(zero(x.space), x)
        assert sub(x, zero(x.space)) == x
        assert sub(zero(x.space), x) == ref_scale(Fraction(-1), x)


def test_order_kernel_never_uses_fraction_rich_comparisons(monkeypatch):
    """The order kernel reads numerators and denominators, never ``Fraction.__lt__`` and kin."""
    cases = []
    for ctx in catalog().values():
        gen = SampleGen(5, ctx.space)
        xs = [gen.element() for _ in range(30)]
        ps = [gen.positive() for _ in range(30)]
        us = [gen.unitized() for _ in range(30)]
        cases.append((ctx, xs, ps, us))

    def outputs(ctx, xs, ps, us):
        out = []
        for a, b in zip(xs, xs[1:]):
            out += [leq(a, b), join(a, b), meet(a, b), pos(a), neg(a), abs(a), spaces.is_positive(a)]
        out += [truncate(ctx.trunc, p) for p in ps]
        out += [(is_positive(ctx, u), abs_u(ctx, u)) for u in us]
        return out

    expected = [outputs(*case) for case in cases]

    def refuse(self, other):
        raise AssertionError("Fraction rich comparison reached from the order kernel")

    for method in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, method, refuse)
    assert [outputs(*case) for case in cases] == expected


# -- wire format -------------------------------------------------------------

def test_space_json_roundtrip():
    for space in SPACES:
        assert space_from_json(space_to_json(space)) == space


def test_element_json_roundtrip():
    for gen in gens(seed=23):
        for _ in range(100):
            x = gen.element()
            assert element_from_json(gen.space, element_to_json(x)) == x


def test_element_json_examples():
    assert element_to_json(sparse({1: Fraction(2, 3)})) == {"1": "2/3"}
    assert element_to_json(lexpair(0, 1)) == ["0/1", "1/1"]
    assert element_to_json(line(Fraction(-1, 2))) == "-1/2"
    assert element_from_json(SparseSeq(), {"2": "0/1"}) == sparse()


@settings(max_examples=200, derandomize=True)
@given(st.dictionaries(st.integers(min_value=1, max_value=40), st.fractions(), max_size=6))
def test_sparse_stores_no_zeros(entries):
    e = sparse(entries)
    assert all(v != 0 for _, v in e.payload)
    assert [k for k, _ in e.payload] == sorted(k for k, _ in e.payload)
    assert e == sparse(dict(e.payload))


@settings(max_examples=200, derandomize=True)
@given(st.fractions(), st.fractions(), st.fractions(), st.fractions())
def test_lex_order_is_total(a1, a2, b1, b2):
    x, y = lexpair(a1, a2), lexpair(b1, b2)
    assert leq(x, y) or leq(y, x)
    assert join(x, y) in (x, y)
    assert meet(x, y) in (x, y)
