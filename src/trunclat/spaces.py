"""Exact vector-lattice kernel: spaces, elements, and the primitive order operations.

Four concrete spaces are supported:

* ``FinitePointwise(n)``: rational n-tuples under the componentwise order;
* ``SparseSeq``: finitely supported rational sequences indexed by 1, 2, ...
  under the componentwise order (canonical form stores no zeros, so structural
  equality is semantic equality);
* ``LexPlane``: rational pairs under the lexicographic order, which is total:
  joins and meets are computed by comparison, never componentwise;
* ``IdentityLine``: a single rational axis.

Elements are immutable values and every operation is pure and exact.
The sign decomposition follows the lattice convention: ``pos(a) = a v 0`` and
``neg(a) = (-a) v 0`` are both positive, with ``a = pos(a) - neg(a)``.

Order comparisons read the public ``numerator`` and ``denominator`` of each
``Fraction`` rather than going through its rich comparisons.  A sign test reads
the sign of the numerator, and ``x <= y`` is the integer comparison
``x.numerator * y.denominator <= y.numerator * x.denominator``, which is exact
because a ``Fraction`` is always reduced with a positive denominator.  ``pos``,
``neg`` and ``abs`` are computed value by value in one pass over the payload
(on ``LexPlane`` from the sign of the pair), with no zero element, negated copy
or join built on the way; sparse results drop the zeros.

Apart from ``zero`` and the wire format, three private walkers are the only
code that reads the payload layout of each space (see ``Element``): ``_map``
applies a function value by value, ``_zip`` combines two elements value by
value (``map`` over dense tuples, an ordered merge of sparse payloads, one
call on the line) and ``_values`` iterates the values of any payload.
``add``, ``sub``, ``scale``, negation and the componentwise arms of the order
operations go through them.  Three things keep their own arm: the lex order
(``_lex_leq``, ``_lex_sign``), which is total rather than componentwise; the
sparse ``leq`` (``_sparse_leq``), which stops at the first index that fails;
and the sign filters of the sparse ``pos`` and ``neg``, which drop the zeros
that ``_map`` never makes.

The linear operations build no ``Fraction`` whose value is known without
arithmetic: ``add`` and ``sub`` give back the other operand (negated for
``0 - y``) when one value is zero, ``scale`` leaves zero values as they are,
and ``scale(1, a)`` is ``a`` itself.  Any other sum or difference is one
constructor call, ``Fraction(xn*yd + yn*xd, xd*yd)`` or its ``-``, on the
numerators and denominators already read for those tests; the constructor
reduces it to the terms ``x + y`` would have, without the operator's dispatch
and second read of both operands.  The unitization's scalar part uses the
same two helpers.  ``shifted_pos``, the clip
``(x + lam*u)+ - max(lam, 0)*u`` that the unitization's positive part takes
for a meet with a unit ``u``, goes through ``_zip`` in the same way: it gives
back ``x``'s own value or the module zero where the clip does not bind.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DescriptorError, EmptySet, PreconditionViolated, SpaceMismatch
from .rational import coerce_rational, format_rational, parse_rational

_ZERO = Fraction(0)
_second = operator.itemgetter(1)


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitePointwise:
    """Rational ``dim``-tuples, componentwise order."""

    dim: int

    def __post_init__(self) -> None:
        # a dimension past sys.maxsize cannot index a tuple: refuse it here, not deep in an op;
        # a bool is an int to isinstance, but `true` is no dimension
        if type(self.dim) is bool or not isinstance(self.dim, int) or not 1 <= self.dim <= sys.maxsize:
            raise ValueError(f"dimension must be an integer in 1..{sys.maxsize}, got {self.dim!r}")


@dataclass(frozen=True)
class SparseSeq:
    """Finitely supported rational sequences indexed by 1, 2, ..., componentwise order."""


@dataclass(frozen=True)
class LexPlane:
    """Rational pairs under the lexicographic (total) order."""


@dataclass(frozen=True)
class IdentityLine:
    """A single rational axis."""


Space = FinitePointwise | SparseSeq | LexPlane | IdentityLine


_coerce = coerce_rational


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Element:
    """A space-tagged lattice element.

    The payload shape depends on the space: a tuple of rationals for
    ``FinitePointwise``, a tuple of ``(index, value)`` pairs for ``SparseSeq``,
    a rational pair for ``LexPlane``, and a single rational for
    ``IdentityLine``.  A ``SparseSeq`` payload keeps its indices sorted and
    strictly increasing and holds no zero value; the sparse primitives merge
    payloads in one ordered pass and rely on this.  Use the constructors below
    rather than instantiating directly.
    """

    space: Space
    payload: object

    def __add__(self, other: "Element") -> "Element":
        return add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        return sub(self, other)

    def __neg__(self) -> "Element":
        return _map(self, operator.neg)

    def __rmul__(self, c) -> "Element":
        return scale(_coerce(c), self)

    def __abs__(self) -> "Element":
        """``a v (-a)``, value by value."""
        if isinstance(self.space, LexPlane):
            return -self if _lex_sign(self.payload) < 0 else self
        return _map(self, _abs_value)

    def __le__(self, other: "Element") -> bool:
        return leq(self, other)

    def __lt__(self, other: "Element") -> bool:
        return leq(self, other) and self != other


def fp(*values) -> Element:
    """A ``FinitePointwise(len(values))`` element."""
    payload = tuple(_coerce(v) for v in values)
    if not payload:
        raise ValueError("finite pointwise elements need at least one coordinate")
    return Element(FinitePointwise(len(payload)), payload)


def fp_const(dim: int, value) -> Element:
    """The constant vector in ``FinitePointwise(dim)``."""
    v = _coerce(value)
    return Element(FinitePointwise(dim), (v,) * dim)


def sparse(entries: Mapping[int, object] | Iterable[tuple[int, object]] = ()) -> Element:
    """A finitely supported sequence; zero values are dropped, indices must be >= 1."""
    items = entries.items() if isinstance(entries, Mapping) else entries
    cleaned = {}
    for k, v in items:
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"sparse indices must be integers >= 1, got {k!r}")
        value = _coerce(v)
        if value.numerator:
            cleaned[k] = value
    return Element(SparseSeq(), tuple(sorted(cleaned.items())))


def lexpair(first, second) -> Element:
    return Element(LexPlane(), (_coerce(first), _coerce(second)))


def line(value) -> Element:
    return Element(IdentityLine(), _coerce(value))


def zero(space: Space) -> Element:
    match space:
        case FinitePointwise(dim):
            return Element(space, (_ZERO,) * dim)
        case SparseSeq():
            return Element(space, ())
        case LexPlane():
            return Element(space, (_ZERO, _ZERO))
        case IdentityLine():
            return Element(space, _ZERO)


def support(a: Element) -> tuple[int, ...]:
    """Indices with nonzero value (``SparseSeq`` only)."""
    if not isinstance(a.space, SparseSeq):
        raise SpaceMismatch("support is defined for SparseSeq elements")
    return tuple(k for k, _ in a.payload)


def coeff(a: Element, index: int) -> Fraction:
    """The value of a ``SparseSeq`` element at ``index`` (zero off the support)."""
    if not isinstance(a.space, SparseSeq):
        raise SpaceMismatch("coeff is defined for SparseSeq elements")
    for k, v in a.payload:
        if k == index:
            return v
    return _ZERO


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

def _same_space(a: Element, b: Element) -> None:
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatch(f"{a.space!r} vs {b.space!r}")


def _map(a: Element, f) -> Element:
    """``f`` applied value by value.

    On a sparse payload ``f`` must map nonzero values to nonzero values: the
    result keeps every index of ``a``.
    """
    p = a.payload
    match a.space:
        case FinitePointwise() | LexPlane():
            return Element(a.space, tuple(map(f, p)))
        case SparseSeq():
            return Element(a.space, tuple((k, f(v)) for k, v in p))
        case IdentityLine():
            return Element(a.space, f(p))


def _zip(a: Element, b: Element, both, only_a, only_b) -> Element:
    """``both`` applied to the values of ``a`` and ``b`` at each coordinate.

    ``only_a`` and ``only_b`` serve the sparse merge (see ``_sparse_merge``).
    """
    _same_space(a, b)
    match a.space:
        case FinitePointwise() | LexPlane():
            return Element(a.space, tuple(map(both, a.payload, b.payload)))
        case SparseSeq():
            return Element(a.space, _sparse_merge(a.payload, b.payload, both, only_a, only_b))
        case IdentityLine():
            return Element(a.space, both(a.payload, b.payload))


def _values(a: Element) -> Iterable[Fraction]:
    """The values of ``a``'s payload, in order (for a sparse payload, its nonzero values)."""
    p = a.payload
    match a.space:
        case FinitePointwise() | LexPlane():
            return p
        case SparseSeq():
            return map(_second, p)
        case IdentityLine():
            return (p,)


def _sparse_merge(pa, pb, both, only_a, only_b) -> tuple:
    """Combine two sparse payloads in one ordered pass, dropping zero results.

    ``both`` maps the two values at a shared index; ``only_a`` and ``only_b``
    map a value whose index is in one support only (the other side is zero).
    """
    out = []
    append = out.append
    i = j = 0
    na, nb = len(pa), len(pb)
    while i < na and j < nb:
        ka, va = pa[i]
        kb, vb = pb[j]
        if ka == kb:
            k, v = ka, both(va, vb)
            i += 1
            j += 1
        elif ka < kb:
            k, v = ka, only_a(va)
            i += 1
        else:
            k, v = kb, only_b(vb)
            j += 1
        if v:
            append((k, v))
    for k, va in pa[i:]:
        v = only_a(va)
        if v:
            append((k, v))
    for k, vb in pb[j:]:
        v = only_b(vb)
        if v:
            append((k, v))
    return tuple(out)


def _keep(v: Fraction) -> Fraction:
    return v


def _pos_value(v: Fraction) -> Fraction:
    return v if v.numerator > 0 else _ZERO


def _neg_value(v: Fraction) -> Fraction:
    return v if v.numerator < 0 else _ZERO


def _neg_part(v: Fraction) -> Fraction:
    return -v if v.numerator < 0 else _ZERO


def _abs_value(v: Fraction) -> Fraction:
    return -v if v.numerator < 0 else v


def _nonneg(v: Fraction) -> bool:
    return v.numerator >= 0


def _le(x: Fraction, y: Fraction) -> bool:
    return x.numerator * y.denominator <= y.numerator * x.denominator


def _max(x: Fraction, y: Fraction) -> Fraction:
    return y if x.numerator * y.denominator < y.numerator * x.denominator else x


def _min(x: Fraction, y: Fraction) -> Fraction:
    return y if y.numerator * x.denominator < x.numerator * y.denominator else x


def _sum(x: Fraction, y: Fraction) -> Fraction:
    # a zero operand gives the other value back without building a Fraction;
    # otherwise one constructor call on the integers already read
    yn = y.numerator
    if not yn:
        return x
    xn = x.numerator
    if not xn:
        return y
    xd, yd = x.denominator, y.denominator
    return Fraction(xn * yd + yn * xd, xd * yd)


def _diff(x: Fraction, y: Fraction) -> Fraction:
    # a zero operand, or equal values, need no subtraction
    yn = y.numerator
    if not yn:
        return x
    xn = x.numerator
    if not xn:
        return -y
    xd, yd = x.denominator, y.denominator
    if xn == yn and xd == yd:
        return _ZERO
    return Fraction(xn * yd - yn * xd, xd * yd)


def _sparse_leq(pa, pb) -> bool:
    i = j = 0
    na, nb = len(pa), len(pb)
    while i < na and j < nb:
        ka, va = pa[i]
        kb, vb = pb[j]
        if ka == kb:
            if va.numerator * vb.denominator > vb.numerator * va.denominator:
                return False
            i += 1
            j += 1
        elif ka < kb:
            if va.numerator > 0:
                return False
            i += 1
        else:
            if vb.numerator < 0:
                return False
            j += 1
    return all(v.numerator <= 0 for _, v in pa[i:]) and all(v.numerator >= 0 for _, v in pb[j:])


def _lex_sign(p) -> int:
    """-1, 0 or 1: the sign of the first nonzero coordinate of a lex pair."""
    n = p[0].numerator or p[1].numerator
    return (n > 0) - (n < 0)


def _lex_leq(pa, pb) -> bool:
    (a0, a1), (b0, b1) = pa, pb
    left, right = a0.numerator * b0.denominator, b0.numerator * a0.denominator
    if left != right:
        return left < right
    return a1.numerator * b1.denominator <= b1.numerator * a1.denominator


def add(a: Element, b: Element) -> Element:
    return _zip(a, b, _sum, _keep, _keep)


def sub(a: Element, b: Element) -> Element:
    return _zip(a, b, _diff, _keep, operator.neg)


def scale(c, a: Element) -> Element:
    """``c * a``: ``a`` itself for ``c = 1``, and zero values stay as they are."""
    c = _coerce(c)
    if not c.numerator:
        return zero(a.space)
    if c.numerator == c.denominator:
        return a
    mul = c.__mul__
    return _map(a, lambda v: mul(v) if v.numerator else v)


def leq(a: Element, b: Element) -> bool:
    _same_space(a, b)
    if isinstance(a.space, LexPlane):
        return _lex_leq(a.payload, b.payload)
    if isinstance(a.space, SparseSeq):
        return _sparse_leq(a.payload, b.payload)
    return all(map(_le, _values(a), _values(b)))


def join(a: Element, b: Element) -> Element:
    if isinstance(a.space, LexPlane):
        # The lex order is total: the join is the larger pair, not the
        # componentwise maximum.
        _same_space(a, b)
        return a if _lex_leq(b.payload, a.payload) else b
    return _zip(a, b, _max, _pos_value, _pos_value)


def meet(a: Element, b: Element) -> Element:
    if isinstance(a.space, LexPlane):
        _same_space(a, b)
        return b if _lex_leq(b.payload, a.payload) else a
    return _zip(a, b, _min, _neg_value, _neg_value)


def is_positive(a: Element) -> bool:
    """``0 <= a``, read from the signs of the payload in one pass."""
    if isinstance(a.space, LexPlane):
        return _lex_sign(a.payload) >= 0
    return all(map(_nonneg, _values(a)))


def pos(a: Element) -> Element:
    """Positive part ``a v 0``, value by value."""
    if isinstance(a.space, LexPlane):
        return a if _lex_sign(a.payload) >= 0 else zero(a.space)
    if isinstance(a.space, SparseSeq):  # the sign filter drops the zeros
        return Element(a.space, tuple(kv for kv in a.payload if kv[1].numerator > 0))
    return _map(a, _pos_value)


def neg(a: Element) -> Element:
    """Negative part ``(-a) v 0``, value by value; always >= 0, with ``a = pos(a) - neg(a)``."""
    if isinstance(a.space, LexPlane):
        return -a if _lex_sign(a.payload) < 0 else zero(a.space)
    if isinstance(a.space, SparseSeq):
        return Element(a.space, tuple((k, -v) for k, v in a.payload if v.numerator < 0))
    return _map(a, _neg_part)


def _to_zero(v: Fraction) -> Fraction:
    return _ZERO


def shifted_pos(x: Element, lam: Fraction, u: Element) -> Element:
    """``(x + lam*u)+ - max(lam, 0)*u`` for ``u >= 0`` and rational ``lam != 0``.

    That is ``x v (-lam*u)`` for ``lam > 0`` and ``(x - |lam|*u)+`` for
    ``lam < 0``, computed value by value in one pass over the payloads.  A
    value the clip leaves alone is ``x``'s own value or the module zero; a
    value is built only where the clip binds, and where ``u`` is 1 the clip
    for ``lam > 0`` is ``-lam`` itself.  In the sparse merge an index in
    ``x``'s support only gives ``pos(v)``, and an index in ``u``'s support only
    gives 0, for either sign of ``lam``.  The lex order is total rather than
    componentwise, so on the lex plane the sign of ``x`` decides: for
    ``lam > 0`` a positive ``x`` is its own result, and for ``lam < 0`` a
    negative one gives 0.
    """
    if isinstance(x.space, LexPlane):
        _same_space(x, u)
        sign = _lex_sign(x.payload)
        if lam.numerator > 0:
            if sign >= 0:
                return x
            lower = scale(-lam, u)
            return x if _lex_leq(lower.payload, x.payload) else lower
        if sign <= 0:
            return zero(x.space)
        d = sub(x, scale(-lam, u))
        return d if _lex_sign(d.payload) >= 0 else zero(x.space)
    ln, ld = lam.numerator, lam.denominator
    if ln > 0:
        nln = -ln
        floor = None  # -lam, built at the first coordinate where u is 1 and the clip binds

        def clip(v: Fraction, w: Fraction) -> Fraction:
            # max(v, -lam*w); v < -lam*w is cross-multiplied over positive denominators
            nonlocal floor
            vn = v.numerator
            if vn >= 0:
                return v
            wn = w.numerator
            if not wn:
                return _ZERO
            wd = w.denominator
            if vn * ld * wd >= nln * wn * v.denominator:
                return v
            if wn != wd:
                return Fraction(nln * wn, ld * wd)
            if floor is None:
                floor = Fraction(nln, ld)
            return floor
    else:
        cn = -ln

        def clip(v: Fraction, w: Fraction) -> Fraction:
            # max(v - |lam|*w, 0), built from the cross-multiplied comparison's own products
            vn = v.numerator
            if vn <= 0:
                return _ZERO
            wn = w.numerator
            if not wn:
                return v
            vd, wd = v.denominator, w.denominator
            left, right = vn * ld * wd, cn * wn * vd
            return Fraction(left - right, vd * ld * wd) if left > right else _ZERO
    return _zip(x, u, clip, _pos_value, _to_zero)


def sup_finite(elements: Iterable[Element]) -> Element:
    """Supremum of a nonempty finite collection.

    Componentwise maximum for the pointwise spaces; the lexicographic maximum
    for ``LexPlane``.  Finite suprema always exist in the four built-in
    spaces.
    """
    items = list(elements)
    if not items:
        raise EmptySet("sup_finite of an empty collection")
    acc = items[0]
    for x in items[1:]:
        acc = join(acc, x)
    return acc


# ---------------------------------------------------------------------------
# Chain constructions
# ---------------------------------------------------------------------------

def _check_increasing(chain: Sequence[Element], what: str) -> None:
    for i in range(len(chain) - 1):
        if not leq(chain[i], chain[i + 1]):
            raise PreconditionViolated(f"{what} is not increasing at position {i}")


def decompose_chain(
    chain: Sequence[Element], u: Element, v: Element
) -> tuple[tuple[Element, ...], tuple[Element, ...]]:
    """Split an increasing chain ``0 <= x_i <= |u| + |v|`` into two increasing chains.

    Returns ``(u_chain, v_chain)`` with ``u_i = (x_i v (-|u|)) ^ |u|`` and
    ``v_i = x_i - u_i``, which satisfy ``0 <= u_i <= |u|``, ``0 <= v_i <= |v|``
    and ``u_i + v_i = x_i``.
    """
    items = tuple(chain)
    if not items:
        raise PreconditionViolated("chain must be nonempty")
    _same_space(u, v)
    for x in items:
        _same_space(x, u)
    au = abs(u)
    av = abs(v)
    cap = add(au, av)
    for i, x in enumerate(items):
        if not is_positive(x) or not leq(x, cap):
            raise PreconditionViolated(f"chain element {i} is not within [0, |u|+|v|]")
    _check_increasing(items, "chain")
    minus_au = -au
    us = tuple(meet(join(x, minus_au), au) for x in items)
    vs = tuple(sub(x, ux) for x, ux in zip(items, us))
    return us, vs


def check_chain_sup_additivity(
    xchain: Sequence[Element], ychain: Sequence[Element]
) -> bool:
    """Whether ``sup(x_i + y_i) = sup(x_i) + sup(y_i)`` for two increasing chains.

    For finite increasing chains the supremum is the last element, so this
    must always return True; a False return is a kernel regression.
    """
    xs = tuple(xchain)
    ys = tuple(ychain)
    if not xs or len(xs) != len(ys):
        raise PreconditionViolated("chains must be nonempty and of equal length")
    for x in xs:
        _same_space(x, xs[0])
    for y in ys:
        _same_space(y, xs[0])
    _check_increasing(xs, "first chain")
    _check_increasing(ys, "second chain")
    sums = [add(x, y) for x, y in zip(xs, ys)]
    return sup_finite(sums) == add(sup_finite(xs), sup_finite(ys))


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def space_to_json(space: Space) -> dict:
    match space:
        case FinitePointwise(dim):
            return {"space": "finite_pointwise", "dim": dim}
        case SparseSeq():
            return {"space": "sparse_seq"}
        case LexPlane():
            return {"space": "lex_plane"}
        case IdentityLine():
            return {"space": "identity_line"}


def space_from_json(obj) -> Space:
    if not isinstance(obj, Mapping) or "space" not in obj:
        raise DescriptorError(f"space descriptor must be an object with a 'space' key: {obj!r}")
    name = obj["space"]
    if name == "finite_pointwise":
        try:
            return FinitePointwise(obj.get("dim"))
        except ValueError as exc:
            raise DescriptorError(f"finite_pointwise 'dim': {exc}") from exc
    if name == "sparse_seq":
        return SparseSeq()
    if name == "lex_plane":
        return LexPlane()
    if name == "identity_line":
        return IdentityLine()
    raise DescriptorError(f"unknown space name {name!r}")


def element_to_json(a: Element):
    match a.space:
        case FinitePointwise() | LexPlane():
            return [format_rational(v) for v in a.payload]
        case SparseSeq():
            return {str(k): format_rational(v) for k, v in a.payload}
        case IdentityLine():
            return format_rational(a.payload)


def element_from_json(space: Space, obj) -> Element:
    try:
        match space:
            case FinitePointwise(dim):
                if not isinstance(obj, list) or len(obj) != dim:
                    raise DescriptorError(f"expected a list of {dim} rationals, got {obj!r}")
                return Element(space, tuple(parse_rational(v) for v in obj))
            case SparseSeq():
                if not isinstance(obj, Mapping):
                    raise DescriptorError(f"expected an index->rational object, got {obj!r}")
                return sparse({int(k): parse_rational(v) for k, v in obj.items()})
            case LexPlane():
                if not isinstance(obj, list) or len(obj) != 2:
                    raise DescriptorError(f"expected a pair of rationals, got {obj!r}")
                return Element(space, (parse_rational(obj[0]), parse_rational(obj[1])))
            case IdentityLine():
                if not isinstance(obj, str):
                    raise DescriptorError(f"expected a 'p/q' string, got {obj!r}")
                return Element(space, parse_rational(obj))
    except (ValueError, TypeError) as exc:
        raise DescriptorError(f"bad element payload {obj!r}: {exc}") from exc
