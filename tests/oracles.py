"""Independent pointwise-function oracle for the sequence-space unitization.

A pair ``(e, lam)`` over the sequence space is read as the function
``k -> e(k) + lam`` on the indices together with the value ``lam`` at an extra
point "at infinity".  Positivity, order, absolute value, join and meet are
computed pointwise on that function, with no reference to the cone test or
the absolute-value formula under test, and the result is re-encoded as a
pair.  This is the second route for every cross-check in the test suite.

The module also keeps these references:

* the sparse kernel, a dict lookup of every index in either support, against
  which the ordered-merge primitives of ``trunclat.spaces`` are checked;
* the linear kernel through the ``Fraction`` operators: ``add``, ``sub``,
  ``scale`` and unary minus coordinate by coordinate on all four spaces (the
  lex plane included), with a sparse result built by the dict reference,
  against which the payload walkers of ``trunclat.spaces`` are checked;
* the order kernel as first written: ``leq``, ``join`` and ``meet`` through the
  ``Fraction`` comparison operators and the ``max``/``min`` builtins, and
  ``pos = a v 0``, ``neg = (-a) v 0`` and ``abs = a v (-a)`` as joins, against
  which the integer comparisons and one-pass parts of ``trunclat.spaces`` are
  checked;
* the band component, a join over all ``2^|B|`` corners, against which
  ``band_component`` and its linear-time second route ``band_component_join``
  are checked;
* the uniform-Cauchy check that compares every pair of a window, against
  which the sup-minus-inf fold of ``uniform_cauchy_prefix`` is checked;
* the unitization's order structure as first written: the absolute value with
  the two-scale join argument ``(1/lam) neg(x) v (-1/lam) pos(x)``, joins and
  meets as the half-sums ``(a + b +- |a - b|) / 2``, and the cone test through
  the base fixed set, against which the positive-part forms of
  ``trunclat.unitization`` are checked, and fixed-set membership as
  ``truncate_u(|a|) == |a|``, against which the order form ``|a| <= 1`` of
  ``in_fixed_u`` is checked;
* base fixed-set membership by its definition ``tr(|x|) == |x|``, against
  which the closed forms of ``in_fixed_set`` are checked;
* the cut ``c tr(p / c)`` per truncation kind as first written: ``p ^ c*u``
  for a meet with ``u``, ``min(v, c)`` for ``meet_with_one``, ``p`` for the
  identity and the definition for a fixture, against which the one-pass base
  part ``pos(x) - c tr(p / c)`` of ``trunclat.truncation.pos_base`` is checked;
* the sampler's rational, element, positive and cone draws as first
  written, through ``Random.randint`` and ``Random.sample``, against which
  the ``getrandbits`` replays of ``SampleGen.rational``, ``SampleGen._draw``,
  ``SampleGen.positive`` and ``SampleGen.positive_unitized`` are checked,
  value by value and stream position by stream position;
* the DSL's tree-walking evaluator, which re-matches every node on every
  call, against which the compile-once evaluator of ``trunclat.dsl`` is
  checked, values and errors alike.
"""

import operator
from fractions import Fraction

from trunclat import (
    Element,
    EvalError,
    FinitePointwise,
    FixtureTruncation,
    IdentityLine,
    IdentityTruncation,
    LexPlane,
    MeetWithOne,
    MeetWithUnit,
    NegativeInput,
    NegativeTruncArgument,
    OneOutsideUnitization,
    SparseSeq,
    UnboundVariable,
    UnitizationCtx,
    UnitizedElement,
    abs_u,
    coeff,
    fp,
    join,
    leq,
    leq_u,
    lexpair,
    meet,
    neg,
    pos,
    pos_u,
    scale,
    sparse,
    sup_finite,
    support,
    truncate,
    truncate_u,
    zero,
)
from trunclat.dsl import Abs, Add, Join, Meet, Neg, One, Pos, RationalLit, Scale, Sub, Trunc, Var
from trunclat.sampling import MAX_INDEX, MAX_MAGNITUDE, MAX_SUPPORT


def _indices(*ues):
    out = set()
    for ue in ues:
        out.update(support(ue.e))
    return sorted(out)


def value_at(ue: UnitizedElement, k: int) -> Fraction:
    return coeff(ue.e, k) + ue.lam


def o_positive(ue: UnitizedElement) -> bool:
    if ue.lam < 0:
        return False
    return all(value_at(ue, k) >= 0 for k in _indices(ue))


def o_leq(a: UnitizedElement, b: UnitizedElement) -> bool:
    if a.lam > b.lam:
        return False
    return all(value_at(a, k) <= value_at(b, k) for k in _indices(a, b))


def _from_values(values: dict[int, Fraction], lam: Fraction) -> UnitizedElement:
    return UnitizedElement(sparse({k: v - lam for k, v in values.items()}), lam)


def o_abs(ue: UnitizedElement) -> UnitizedElement:
    lam = abs(ue.lam)
    return _from_values({k: abs(value_at(ue, k)) for k in _indices(ue)}, lam)


def o_join(a: UnitizedElement, b: UnitizedElement) -> UnitizedElement:
    lam = max(a.lam, b.lam)
    values = {k: max(value_at(a, k), value_at(b, k)) for k in _indices(a, b)}
    return _from_values(values, lam)


def o_meet(a: UnitizedElement, b: UnitizedElement) -> UnitizedElement:
    lam = min(a.lam, b.lam)
    values = {k: min(value_at(a, k), value_at(b, k)) for k in _indices(a, b)}
    return _from_values(values, lam)


def ref_sparse_merge(pa, pb, fn) -> tuple:
    """Apply ``fn`` at every index of either payload, zero standing in off a support."""
    da = dict(pa)
    db = dict(pb)
    out = []
    for k in sorted(set(da) | set(db)):
        v = fn(da.get(k, Fraction(0)), db.get(k, Fraction(0)))
        if v != 0:
            out.append((k, v))
    return tuple(out)


def ref_sparse_leq(pa, pb) -> bool:
    da = dict(pa)
    db = dict(pb)
    return all(da.get(k, Fraction(0)) <= db.get(k, Fraction(0)) for k in set(da) | set(db))


def _ref_valuewise(fn, a: Element, b: Element) -> Element:
    pa, pb = a.payload, b.payload
    match a.space:
        case FinitePointwise() | LexPlane():
            return Element(a.space, tuple(fn(x, y) for x, y in zip(pa, pb)))
        case SparseSeq():
            return Element(a.space, ref_sparse_merge(pa, pb, fn))
        case IdentityLine():
            return Element(a.space, fn(pa, pb))
    raise TypeError(f"unknown space {a.space!r}")


def ref_add(a: Element, b: Element) -> Element:
    return _ref_valuewise(operator.add, a, b)


def ref_sub(a: Element, b: Element) -> Element:
    return _ref_valuewise(operator.sub, a, b)


def ref_scale(c: Fraction, a: Element) -> Element:
    return _ref_valuewise(lambda x, _: c * x, a, a)


def ref_negate(a: Element) -> Element:
    return _ref_valuewise(lambda x, _: -x, a, a)


def ref_leq(a: Element, b: Element) -> bool:
    pa, pb = a.payload, b.payload
    match a.space:
        case FinitePointwise():
            return all(x <= y for x, y in zip(pa, pb))
        case SparseSeq():
            return ref_sparse_leq(pa, pb)
        case LexPlane():
            return pa[0] < pb[0] or (pa[0] == pb[0] and pa[1] <= pb[1])
        case IdentityLine():
            return pa <= pb
    raise TypeError(f"unknown space {a.space!r}")


def _ref_lattice_op(a: Element, b: Element, fn, lex_pick_a: bool) -> Element:
    pa, pb = a.payload, b.payload
    match a.space:
        case FinitePointwise():
            return Element(a.space, tuple(fn(x, y) for x, y in zip(pa, pb)))
        case SparseSeq():
            return Element(a.space, ref_sparse_merge(pa, pb, fn))
        case LexPlane():
            # a total order: the larger (join) or smaller (meet) pair
            return a if ref_leq(b, a) == lex_pick_a else b
        case IdentityLine():
            return Element(a.space, fn(pa, pb))
    raise TypeError(f"unknown space {a.space!r}")


def ref_join(a: Element, b: Element) -> Element:
    return _ref_lattice_op(a, b, max, True)


def ref_meet(a: Element, b: Element) -> Element:
    return _ref_lattice_op(a, b, min, False)


def ref_pos(a: Element) -> Element:
    return ref_join(a, zero(a.space))


def ref_neg(a: Element) -> Element:
    return ref_join(-a, zero(a.space))


def ref_abs(a: Element) -> Element:
    return ref_join(a, -a)


def band_component_oracle(space, b, x):
    """Brute force for dimensions up to 4: the join over every corner of ``B+ ∩ [0, x]``.

    A corner keeps ``x`` on a subset of the band's coordinates and is 0 elsewhere.
    """
    if space.dim > 4:
        raise ValueError("the corner fold is exponential: dimensions up to 4 only")
    if not leq(zero(space), x):
        raise NegativeInput("band components are defined for positive elements")
    coords = sorted(b.coords)
    corners = []
    for bits in range(1 << len(coords)):
        subset = {c for j, c in enumerate(coords) if bits >> j & 1}
        corners.append(fp(*(v if i in subset else 0 for i, v in enumerate(x.payload, start=1))))
    return sup_finite(corners)


def uniform_cauchy_pairwise(ctx, seq, u, eps, lo, hi):
    """The first pair ``n < m`` whose ``|seq(n) - seq(m)|`` is not below ``eps * u``, or None.

    Compares every pair of the window, in the order ``(lo, lo+1), (lo, lo+2), ..., (hi-1, hi)``.
    """
    bound = Fraction(eps) * u
    values = {n: seq(n) for n in range(lo, hi + 1)}
    for n in range(lo, hi + 1):
        for m in range(n + 1, hi + 1):
            if not leq_u(ctx, abs_u(ctx, values[n] - values[m]), bound):
                return n, m
    return None


_HALF = Fraction(1, 2)


def ref_abs_u(ctx, a: UnitizedElement) -> UnitizedElement:
    """``|x| - 2|lam| tr((1/lam) neg(x) v (-1/lam) pos(x)) + |lam|``, and ``|x|`` for ``lam = 0``."""
    if a.lam == 0:
        return UnitizedElement(abs(a.e), Fraction(0))
    lam_abs = abs(a.lam)
    inv = 1 / a.lam
    arg = join(scale(inv, neg(a.e)), scale(-inv, pos(a.e)))
    return UnitizedElement(abs(a.e) - scale(2 * lam_abs, truncate(ctx.trunc, arg)), lam_abs)


def ref_join_u(ctx, a: UnitizedElement, b: UnitizedElement) -> UnitizedElement:
    return _HALF * (a + b + ref_abs_u(ctx, a - b))


def ref_meet_u(ctx, a: UnitizedElement, b: UnitizedElement) -> UnitizedElement:
    return _HALF * (a + b - ref_abs_u(ctx, a - b))


def ref_is_positive_u(ctx, a: UnitizedElement) -> bool:
    if a.lam < 0:
        return False
    if a.lam == 0:
        return leq(zero(ctx.space), a.e)
    return ref_in_fixed_set(ctx.trunc, scale(1 / a.lam, neg(a.e)))


def ref_in_fixed_set(t, x: Element) -> bool:
    """Base fixed-set membership by its definition: ``tr(|x|) == |x|``."""
    a = abs(x)
    return truncate(t, a) == a


def ref_in_fixed_u(ctx, a: UnitizedElement) -> bool:
    """Fixed-set membership as first written: ``truncate_u(|a|) == |a|``."""
    b = abs_u(ctx, a)
    return truncate_u(ctx, b) == b


def ref_rescaled_cut(t, p: Element, c: Fraction) -> Element:
    """``c * tr(p / c)`` for ``p >= 0`` and ``c > 0``, per truncation kind."""
    match t.kind:
        case MeetWithUnit(unit=u):
            return meet(p, scale(c, u))
        case MeetWithOne():
            return Element(p.space, tuple((k, min(v, c)) for k, v in p.payload))
        case IdentityTruncation():
            return p
        case FixtureTruncation():
            return scale(c, truncate(t, scale(1 / c, p)))
    raise TypeError(f"unknown truncation kind {t.kind!r}")


def ref_rational(rng, *, nonneg: bool = False, nonzero: bool = False) -> Fraction:
    """``SampleGen.rational`` on the stream of ``rng``, through ``randint``."""
    den = rng.randint(1, MAX_MAGNITUDE)
    if nonzero:
        num = rng.randint(1, MAX_MAGNITUDE)
        if not nonneg and rng.randint(0, 1):
            num = -num
    else:
        num = rng.randint(0 if nonneg else -MAX_MAGNITUDE, MAX_MAGNITUDE)
    return Fraction(num, den)


def ref_draw(rng, space, nonneg: bool):
    """The payload ``SampleGen._draw`` builds, from ``randint``, ``sample`` and ``ref_rational``."""
    if isinstance(space, SparseSeq):
        k = rng.randint(0, MAX_SUPPORT)
        indices = sorted(rng.sample(range(1, MAX_INDEX + 1), k))
        return tuple((i, ref_rational(rng, nonneg=nonneg, nonzero=True)) for i in indices)
    if isinstance(space, IdentityLine):
        return ref_rational(rng, nonneg=nonneg)
    n = 2 if isinstance(space, LexPlane) else space.dim
    return tuple(ref_rational(rng, nonneg=nonneg) for _ in range(n))


def ref_positive(rng, space) -> Element:
    """``SampleGen.positive`` on the stream of ``rng``: on the lex plane a
    second-axis positive when ``randint(0, 3)`` is 0, else a pair with a
    positive first coordinate."""
    if isinstance(space, LexPlane):
        if rng.randint(0, 3) == 0:
            return lexpair(0, ref_rational(rng, nonneg=True))
        return lexpair(ref_rational(rng, nonneg=True, nonzero=True), ref_rational(rng))
    return Element(space, ref_draw(rng, space, True))


def ref_positive_unitized(rng, ctx: UnitizationCtx) -> UnitizedElement:
    """``SampleGen.positive_unitized`` on the stream of ``rng``, branch drawn by ``randint(0, 3)``."""
    branch = rng.randint(0, 3)
    if branch == 0:
        return ctx.embed(ref_positive(rng, ctx.space))
    if branch == 1:
        return ctx.scalar(ref_rational(rng, nonneg=True))
    if branch == 2:
        lam = ref_rational(rng, nonneg=True, nonzero=True)
        return pos_u(ctx, UnitizedElement(Element(ctx.space, ref_draw(rng, ctx.space, False)), lam))
    x = Element(ctx.space, ref_draw(rng, ctx.space, False))
    return abs_u(ctx, UnitizedElement(x, ref_rational(rng)))


def ref_eval(term, env, lat):
    """``trunclat.dsl.evaluate`` as a tree walk that matches every node on every call."""
    return _ref_eval(term, env, lat, isinstance(lat, UnitizationCtx))


def _ref_eval(term, env, lat, unitized):
    match term:
        case Var(name):
            if name not in env:
                raise UnboundVariable(f"unbound variable {name!r}")
            value = env[name]
            if not unitized:
                if not isinstance(value, Element):
                    raise EvalError(f"variable {name!r} is not a base element")
                return value
            if isinstance(value, Element):
                return lat.embed(value)
            if isinstance(value, UnitizedElement):
                return value
            raise EvalError(f"variable {name!r} is not an element")
        case RationalLit(value):
            if unitized:
                return lat.scalar(value)
            if value == 0:
                return lat.zero
            raise OneOutsideUnitization(
                "a nonzero scalar constant only makes sense in a unitization"
            )
        case One():
            if unitized:
                return lat.one
            raise OneOutsideUnitization("the unit symbol requires a unitization context")
        case Add(l, r):
            return _ref_eval(l, env, lat, unitized) + _ref_eval(r, env, lat, unitized)
        case Sub(l, r):
            return _ref_eval(l, env, lat, unitized) - _ref_eval(r, env, lat, unitized)
        case Scale(c, inner):
            return c * _ref_eval(inner, env, lat, unitized)
        case Join(l, r):
            return lat.join(_ref_eval(l, env, lat, unitized), _ref_eval(r, env, lat, unitized))
        case Meet(l, r):
            return lat.meet(_ref_eval(l, env, lat, unitized), _ref_eval(r, env, lat, unitized))
        case Abs(inner):
            return lat.abs(_ref_eval(inner, env, lat, unitized))
        case Pos(inner):
            return lat.pos(_ref_eval(inner, env, lat, unitized))
        case Neg(inner):
            return lat.neg(_ref_eval(inner, env, lat, unitized))
        case Trunc(inner):
            value = _ref_eval(inner, env, lat, unitized)
            if not lat.is_positive(value):
                raise NegativeTruncArgument("tr(...) needs a positive argument")
            return lat.truncate(value)
    raise TypeError(f"unknown term {term!r}")
