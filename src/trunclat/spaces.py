"""Exact vector-lattice kernel: spaces, elements, and the primitive order operations.

Four concrete spaces are supported:

* ``FinitePointwise(n)``: rational n-tuples under the componentwise order;
* ``SparseSeq``: finitely supported rational sequences indexed by 1, 2, ...
  under the componentwise order (canonical form stores no zeros, so structural
  equality is semantic equality);
* ``LexPlane``: rational pairs under the lexicographic order, which is total:
  joins and meets are computed by comparison, never componentwise;
* ``IdentityLine``: a single rational axis, R^n at n = 1.

Each space class is the one record of what other modules know of it, in
class attributes, so none of them tests a space's class: ``name`` (the wire
name; ``SPACE_CLASSES`` maps names to classes in catalog order), ``dim``
(the number of values a dense element holds: a field of ``FinitePointwise``,
2 on ``LexPlane``, 1 on ``IdentityLine``, none on ``SparseSeq``),
``catalog_trunc`` (the cataloged truncation's wire descriptor) and
``trunc_kind`` (its kind, the one kind besides ``meet_with_unit`` the space
admits, read without building a unit), ``sampler`` (the layout the sampler
draws), ``coordinate_bands`` (whether the band laws run),
``fresh_atom(value, *avoid)`` (a positive atom of height ``value``, on the
sequences past the supports in ``avoid``), and the decided facts ``points``
(the point set of the R^S it is), ``non_archimedean`` (a pair ``(x, y)``
with ``0 <= n*x <= y`` for every n) and ``c00`` (read as real c00).  A fact
that does not apply is ``None`` or ``False``; elements are built on read.

Elements are immutable values and every operation is pure and exact.
The sign decomposition follows the lattice convention: ``pos(a) = a v 0`` and
``neg(a) = (-a) v 0`` are both positive, with ``a = pos(a) - neg(a)``.

Two layouts hold the values: the dense one, a tuple of ``dim`` values, for
every space but ``SparseSeq``, and the sparse one, a tuple of
``(index, value)`` pairs.  The line is stored as ``FinitePointwise(1)`` is,
but its public payload is its one value (``Element(IdentityLine(), v)``,
``payload`` and the wire form ``p/q``): ``Element`` and the wire functions
are the only code that converts it to and from the 1-tuple.

``Fraction`` in and out, reduced integer pairs inside.  An element keeps each
value as a pair ``(n, d)`` of ints with ``d > 0`` and ``gcd(n, d) = 1`` (each
value its own denominator, never a shared one), so that equal values are equal
pairs and structural equality stays semantic equality.  The kernel computes on
the ints: a sign test reads the sign of ``n``, ``x <= y`` is
``xn * yd <= yn * xd``, and a sum, difference or product is integer arithmetic
plus one ``math.gcd``; no ``Fraction`` is built per value.  The boundary
builds ``Fraction``s: ``Element(space, payload)`` takes the ``Fraction``
layout, ``Element.payload`` gives it back (built on first read and kept), and
``coeff`` returns a ``Fraction``.  The wire format prints ``p/q`` from the
ints.  ``pos``, ``neg`` and ``abs`` are computed value by value in one pass
(on ``LexPlane`` from the sign of the pair), with no zero element, negated
copy or join built on the way; sparse results drop the zeros.

Apart from ``zero`` and the wire format, three private walkers are the only
code that tells the two layouts apart (see ``Element``): ``_map`` applies a
function value by value, ``_zip`` combines two elements value by value
(``map`` over dense tuples, an ordered merge of sparse payloads) and
``_values`` iterates the values of any element.  ``add``,
``sub``, ``scale``, negation, the componentwise arms of the order operations
and the conversion to and from ``Fraction``s go through them.  Three things
keep their own arm: the lex order (``_lex_leq``, ``_lex_sign``), which is
total rather than componentwise; the sparse ``leq`` (``_sparse_leq``), which
stops at the first index that fails; and the sparse filters, which drop the
zeros that ``_map`` never makes (``pos``, ``neg`` and ``_shifted_pos_one``).

The other modules reach values only through this module, which has a
private arm for each place they need one: the ``meet_with_one`` truncation
(``_meet_one``, ``_shifted_pos_one``, ``_within_one``, on the sparse layout),
the band mask (``_mask``, on the dense layout), the values as ``Fraction``s
(``_scalars``), the sampler's constructor (``_from_pairs``) and the harmonic
prefix of the c00 witnesses (``_harmonic``, built from its reduced pairs).

The linear operations build no pair whose value is known without arithmetic:
``add`` and ``sub`` give back the other operand (negated for ``0 - y``) when
one value is zero, ``scale`` leaves zero values as they are, and
``scale(1, a)`` is ``a`` itself.  ``shifted_pos``, the clip
``(x + lam*u)+ - max(lam, 0)*u`` that the unitization's positive part takes
for a meet with a unit ``u``, goes through ``_zip`` in the same way: it gives
back ``x``'s own value or the module zero where the clip does not bind.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import DescriptorError, EmptySet, PreconditionViolated, SpaceMismatch
from .rational import coerce_rational, parse_rational

# the value 0 and 1 as reduced pairs, shared by every element
_ZERO = (0, 1)
_ONE = (1, 1)
_first = operator.itemgetter(0)
_second = operator.itemgetter(1)

# the widest pointwise dimension: a dense element holds ``dim`` values and the
# catalog unit alone is ``dim`` strings, so a far wider space exhausts memory
# before its first law runs; 2**16 is far above any dimension a check finishes on
MAX_DIM = 2**16


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitePointwise:
    """Rational ``dim``-tuples, componentwise order."""

    dim: int

    name = "finite_pointwise"
    sampler = "dense"
    trunc_kind = "meet_with_unit"
    coordinate_bands = True
    points = "finitely many points"
    fresh_atom = non_archimedean = None
    c00 = False

    def __post_init__(self) -> None:
        # a dimension past MAX_DIM is refused here, not as a MemoryError deep in an op;
        # a bool is an int to isinstance, but `true` is no dimension
        if type(self.dim) is bool or not isinstance(self.dim, int) or not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension must be an integer in 1..{MAX_DIM}, got {self.dim!r}")

    @property
    def catalog_trunc(self) -> dict:
        return {"kind": self.trunc_kind, "unit": ["1"] * self.dim}


@dataclass(frozen=True)
class SparseSeq:
    """Finitely supported rational sequences indexed by 1, 2, ..., componentwise order."""

    name = "sparse_seq"
    sampler = "sparse"
    trunc_kind = "meet_with_one"
    catalog_trunc = {"kind": trunc_kind}
    coordinate_bands = False
    points = non_archimedean = None
    c00 = True

    def fresh_atom(self, value, *avoid: Element) -> Element:
        # a sparse layout is sorted, so its last index is the largest
        return sparse({max((a._v[-1][0] for a in avoid if a._v), default=0) + 1: value})


@dataclass(frozen=True)
class LexPlane:
    """Rational pairs under the lexicographic (total) order."""

    name = "lex_plane"
    dim = 2
    sampler = "lex"
    trunc_kind = "lex_meet_zero_one"
    catalog_trunc = {"kind": trunc_kind}
    coordinate_bands = c00 = False
    points = fresh_atom = None

    @property
    def non_archimedean(self) -> tuple[Element, Element]:
        return lexpair(0, 1), lexpair(1, 0)


@dataclass(frozen=True)
class IdentityLine:
    """A single rational axis."""

    name = "identity_line"
    dim = 1
    sampler = "dense"
    trunc_kind = "identity"
    catalog_trunc = {"kind": trunc_kind}
    coordinate_bands = c00 = False
    points = "one point"
    non_archimedean = None

    def fresh_atom(self, value, *avoid: Element) -> Element:
        return line(value)


Space = FinitePointwise | SparseSeq | LexPlane | IdentityLine
SPACE_CLASSES: dict[str, type] = {cls.name: cls for cls in (SparseSeq, LexPlane, IdentityLine, FinitePointwise)}


_coerce = coerce_rational


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

def _pair(v) -> tuple[int, int]:
    return v.numerator, v.denominator


def _fraction(v: tuple[int, int]) -> Fraction:
    return Fraction(*v)


class Element:
    """A space-tagged lattice element.

    The layout depends on the space: a tuple of ``(index, value)`` pairs for
    ``SparseSeq``, and a tuple of ``space.dim`` values for every other space.
    A ``SparseSeq`` layout keeps its indices sorted and strictly increasing
    and holds no zero value; the sparse primitives merge layouts in index
    order, bisect for the end of a run that ``add`` or ``sub`` copies
    unchanged, and rely on this.

    ``Element(space, payload)`` takes the layout with ``Fraction`` (or int)
    values and keeps only the reduced pairs ``(n, d)``.  ``payload`` is that
    layout with ``Fraction`` values, built on first read and kept.  On
    ``IdentityLine`` both take and give the one value, not the 1-tuple kept
    inside.  Use the constructors below rather than instantiating directly.
    """

    __slots__ = ("space", "_v", "_payload")

    def __init__(self, space: Space, payload) -> None:
        self.space = space
        # the walkers read the layout whatever its values are; the line's one value is its 1-tuple
        self._v = (payload,) if isinstance(space, IdentityLine) else payload
        self._v = _map(self, _pair)._v

    @property
    def payload(self):
        """The layout with ``Fraction`` values."""
        try:
            return self._payload
        except AttributeError:
            payload = _map(self, _fraction)._v
            payload = self._payload = payload[0] if isinstance(self.space, IdentityLine) else payload
            return payload

    def __eq__(self, other) -> bool:
        if other.__class__ is not Element:
            return NotImplemented
        return self._v == other._v and (self.space is other.space or self.space == other.space)

    def __hash__(self) -> int:
        return hash((self.space, self._v))

    def __repr__(self) -> str:
        return f"Element(space={self.space!r}, payload={self.payload!r})"

    def __add__(self, other: "Element") -> "Element":
        return add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        return sub(self, other)

    def __neg__(self) -> "Element":
        return _map(self, _negate)

    def __rmul__(self, c) -> "Element":
        return scale(_coerce(c), self)

    def __abs__(self) -> "Element":
        """``a v (-a)``, value by value."""
        if isinstance(self.space, LexPlane):
            return -self if _lex_sign(self._v) < 0 else self
        return _map(self, _abs_value)

    def __le__(self, other: "Element") -> bool:
        return leq(self, other)

    def __lt__(self, other: "Element") -> bool:
        return leq(self, other) and self != other


_new = object.__new__


def _from_pairs(space: Space, v) -> Element:
    """An element of ``space`` from its layout of reduced pairs, taken as it is."""
    e = _new(Element)
    e.space = space
    e._v = v
    return e


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
        # a bool is an int to isinstance, but `True` is no index
        if type(k) is bool or not isinstance(k, int) or k < 1:
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
    return _from_pairs(space, () if isinstance(space, SparseSeq) else (_ZERO,) * space.dim)


def support(a: Element) -> tuple[int, ...]:
    """Indices with nonzero value (``SparseSeq`` only)."""
    if not isinstance(a.space, SparseSeq):
        raise SpaceMismatch("support is defined for SparseSeq elements")
    return tuple(k for k, _ in a._v)


def coeff(a: Element, index: int) -> Fraction:
    """The value of a ``SparseSeq`` element at ``index`` (zero off the support)."""
    if not isinstance(a.space, SparseSeq):
        raise SpaceMismatch("coeff is defined for SparseSeq elements")
    for k, v in a._v:
        if k == index:
            return _fraction(v)
    return Fraction(0)


def _scalars(a: Element) -> tuple[Fraction, ...]:
    """The values of ``a`` as ``Fraction``s, in order (for a sparse element, its nonzero values)."""
    return tuple(map(_fraction, _values(a)))


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

def _same_space(a: Element, b: Element) -> None:
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatch(f"{a.space!r} vs {b.space!r}")


def _map(a: Element, f) -> Element:
    """``f`` applied value by value.

    On a sparse element ``f`` must map nonzero values to nonzero values: the
    result keeps every index of ``a``.
    """
    if isinstance(a.space, SparseSeq):
        return _from_pairs(a.space, tuple((k, f(v)) for k, v in a._v))
    return _from_pairs(a.space, tuple(map(f, a._v)))


def _zip(a: Element, b: Element, both, only_a, only_b) -> Element:
    """``both`` applied to the values of ``a`` and ``b`` at each coordinate.

    ``only_a`` and ``only_b`` serve the sparse merge (see ``_sparse_merge``).
    """
    space = a.space
    if space is not b.space and space != b.space:  # _same_space, inlined: every binary primitive runs here
        raise SpaceMismatch(f"{space!r} vs {b.space!r}")
    if isinstance(space, SparseSeq):
        return _from_pairs(space, _sparse_merge(a._v, b._v, both, only_a, only_b))
    return _from_pairs(space, tuple(map(both, a._v, b._v)))


def _values(a: Element) -> Iterable[tuple[int, int]]:
    """The values of ``a``, in order (for a sparse element, its nonzero values)."""
    return map(_second, a._v) if isinstance(a.space, SparseSeq) else a._v


def _sparse_merge(pa, pb, both, only_a, only_b) -> tuple:
    """Combine two sparse layouts in index order, dropping zero results.

    ``both`` maps the two values at a shared index; ``only_a`` and ``only_b``
    map a value whose index is in one support only (the other side is zero).
    A side whose map is ``_keep`` has its entries copied by slice: a run of
    them up to the other side's next index is found by bisection, so a long
    layout merged with a short one costs Python work in the short one only.
    """
    out = []
    append = out.append
    extend = out.extend
    copy_a, copy_b = only_a is _keep, only_b is _keep
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
            if copy_a:  # a layout holds no zero, so a kept run is copied as it is
                end = bisect_left(pa, kb, i + 1, na, key=_first)
                extend(pa[i:end])
                i = end
                continue
            k, v = ka, only_a(va)
            i += 1
        else:
            if copy_b:
                end = bisect_left(pb, ka, j + 1, nb, key=_first)
                extend(pb[j:end])
                j = end
                continue
            k, v = kb, only_b(vb)
            j += 1
        if v[0]:
            append((k, v))
    for rest, f in ((pa[i:], only_a), (pb[j:], only_b)):
        if f is _keep:
            extend(rest)
            continue
        for k, w in rest:
            v = f(w)
            if v[0]:
                append((k, v))
    return tuple(out)


# Per-value helpers.  A value is a reduced pair (n, d) with d > 0, so a sign is
# the sign of n and an order test is one cross-multiplication.

def _keep(v):
    return v


def _negate(v):
    return -v[0], v[1]


def _pos_value(v):
    return v if v[0] > 0 else _ZERO


def _neg_value(v):
    return v if v[0] < 0 else _ZERO


def _neg_part(v):
    return (-v[0], v[1]) if v[0] < 0 else _ZERO


def _abs_value(v):
    return (-v[0], v[1]) if v[0] < 0 else v


def _nonneg(v) -> bool:
    return v[0] >= 0


def _le(x, y) -> bool:
    return x[0] * y[1] <= y[0] * x[1]


def _max(x, y):
    return y if x[0] * y[1] < y[0] * x[1] else x


def _min(x, y):
    return y if y[0] * x[1] < x[0] * y[1] else x


def _sum(x, y):
    # a zero operand gives the other value back; otherwise the cross-multiplied sum, reduced
    yn, yd = y
    if not yn:
        return x
    xn, xd = x
    if not xn:
        return y
    n, d = xn * yd + yn * xd, xd * yd
    g = gcd(n, d)
    return (n // g, d // g) if g != 1 else (n, d)


def _diff(x, y):
    # a zero operand needs no subtraction; equal values reduce to (0, 1) through the gcd
    yn, yd = y
    if not yn:
        return x
    xn, xd = x
    if not xn:
        return -yn, yd
    n, d = xn * yd - yn * xd, xd * yd
    g = gcd(n, d)
    return (n // g, d // g) if g != 1 else (n, d)


def _sparse_leq(pa, pb) -> bool:
    i = j = 0
    na, nb = len(pa), len(pb)
    while i < na and j < nb:
        ka, va = pa[i]
        kb, vb = pb[j]
        if ka == kb:
            if va[0] * vb[1] > vb[0] * va[1]:
                return False
            i += 1
            j += 1
        elif ka < kb:
            if va[0] > 0:
                return False
            i += 1
        else:
            if vb[0] < 0:
                return False
            j += 1
    return all(v[0] <= 0 for _, v in pa[i:]) and all(v[0] >= 0 for _, v in pb[j:])


def _lex_sign(p) -> int:
    """-1, 0 or 1: the sign of the first nonzero coordinate of a lex pair."""
    n = p[0][0] or p[1][0]
    return (n > 0) - (n < 0)


def _lex_leq(pa, pb) -> bool:
    (an, ad), (bn, bd) = pa[0], pb[0]
    left, right = an * bd, bn * ad
    if left != right:
        return left < right
    return _le(pa[1], pb[1])


def add(a: Element, b: Element) -> Element:
    return _zip(a, b, _sum, _keep, _keep)


def sub(a: Element, b: Element) -> Element:
    return _zip(a, b, _diff, _keep, _negate)


def scale(c, a: Element) -> Element:
    """``c * a``: ``a`` itself for ``c = 1``, and zero values stay as they are."""
    c = _coerce(c)
    return _scale(c.numerator, c.denominator, a)


def _scale(cn: int, cd: int, a: Element) -> Element:
    """``scale`` by the value of the reduced pair ``(cn, cd)``."""
    if not cn:
        return zero(a.space)
    if cn == cd:
        return a

    def mul(v):
        n, d = v
        if not n:
            return v
        n *= cn
        d *= cd
        g = gcd(n, d)
        return (n // g, d // g) if g != 1 else (n, d)

    return _map(a, mul)


def leq(a: Element, b: Element) -> bool:
    _same_space(a, b)
    if isinstance(a.space, LexPlane):
        return _lex_leq(a._v, b._v)
    if isinstance(a.space, SparseSeq):
        return _sparse_leq(a._v, b._v)
    return all(map(_le, _values(a), _values(b)))


def join(a: Element, b: Element) -> Element:
    if isinstance(a.space, LexPlane):
        # The lex order is total: the join is the larger pair, not the
        # componentwise maximum.
        _same_space(a, b)
        return a if _lex_leq(b._v, a._v) else b
    return _zip(a, b, _max, _pos_value, _pos_value)


def meet(a: Element, b: Element) -> Element:
    if isinstance(a.space, LexPlane):
        _same_space(a, b)
        return b if _lex_leq(b._v, a._v) else a
    return _zip(a, b, _min, _neg_value, _neg_value)


def is_positive(a: Element) -> bool:
    """``0 <= a``, read from the signs of the values in one pass."""
    if isinstance(a.space, LexPlane):
        return _lex_sign(a._v) >= 0
    return all(map(_nonneg, _values(a)))


def pos(a: Element) -> Element:
    """Positive part ``a v 0``, value by value."""
    if isinstance(a.space, LexPlane):
        return a if _lex_sign(a._v) >= 0 else zero(a.space)
    if isinstance(a.space, SparseSeq):  # the sign filter drops the zeros
        return _from_pairs(a.space, tuple(kv for kv in a._v if kv[1][0] > 0))
    return _map(a, _pos_value)


def neg(a: Element) -> Element:
    """Negative part ``(-a) v 0``, value by value; always >= 0, with ``a = pos(a) - neg(a)``."""
    if isinstance(a.space, LexPlane):
        return -a if _lex_sign(a._v) < 0 else zero(a.space)
    if isinstance(a.space, SparseSeq):
        return _from_pairs(a.space, tuple((k, (-v[0], v[1])) for k, v in a._v if v[0] < 0))
    return _map(a, _neg_part)


def _to_zero(v):
    return _ZERO


def shifted_pos(x: Element, lam: Fraction, u: Element) -> Element:
    """``(x + lam*u)+ - max(lam, 0)*u`` for ``u >= 0`` and rational ``lam != 0``.

    That is ``x v (-lam*u)`` for ``lam > 0`` and ``(x - |lam|*u)+`` for
    ``lam < 0``, computed value by value in one pass over the layouts.  A
    value the clip leaves alone is ``x``'s own value or the module zero; a
    value is built only where the clip binds, and where ``u`` is 1 the clip
    for ``lam > 0`` is ``-lam`` itself.  In the sparse merge an index in
    ``x``'s support only gives ``pos(v)``, and an index in ``u``'s support only
    gives 0, for either sign of ``lam``.  The lex order is total rather than
    componentwise, so on the lex plane the sign of ``x`` decides: for
    ``lam > 0`` a positive ``x`` is its own result, and for ``lam < 0`` a
    negative one gives 0.
    """
    ln, ld = lam.numerator, lam.denominator
    if isinstance(x.space, LexPlane):
        _same_space(x, u)
        sign = _lex_sign(x._v)
        if ln > 0:
            if sign >= 0:
                return x
            lower = _scale(-ln, ld, u)
            return x if _lex_leq(lower._v, x._v) else lower
        if sign <= 0:
            return zero(x.space)
        d = sub(x, _scale(-ln, ld, u))
        return d if _lex_sign(d._v) >= 0 else zero(x.space)
    if ln > 0:
        nln = -ln
        floor = (nln, ld)  # -lam, the clip where u is 1

        def clip(v, w):
            # max(v, -lam*w); v < -lam*w is cross-multiplied over positive denominators
            vn, vd = v
            if vn >= 0:
                return v
            wn, wd = w
            if not wn:
                return _ZERO
            if vn * ld * wd >= nln * wn * vd:
                return v
            if wn == wd:
                return floor
            n, d = nln * wn, ld * wd
            g = gcd(n, d)
            return n // g, d // g
    else:
        cn = -ln

        def clip(v, w):
            # max(v - |lam|*w, 0), built from the cross-multiplied comparison's own products
            vn, vd = v
            if vn <= 0:
                return _ZERO
            wn, wd = w
            if not wn:
                return v
            left, right = vn * ld * wd, cn * wn * vd
            if left <= right:
                return _ZERO
            n, d = left - right, vd * ld * wd
            g = gcd(n, d)
            return n // g, d // g
    return _zip(x, u, clip, _pos_value, _to_zero)


# ---------------------------------------------------------------------------
# The arms other modules reach values through
# ---------------------------------------------------------------------------

def _meet_one(x: Element) -> Element:
    """``v ^ 1`` at each support value of a sparse ``x >= 0``: the meet with the constant 1."""
    return _from_pairs(x.space, tuple(kv if kv[1][0] < kv[1][1] else (kv[0], _ONE) for kv in x._v))


def _shifted_pos_one(x: Element, lam: Fraction) -> Element:
    """``shifted_pos`` with the constant 1 for ``u``, on a sparse ``x``.

    ``max(v, -lam)`` at each support value for ``lam > 0``; for ``lam < 0``,
    ``v - |lam|`` where ``v > |lam|``, and the other indices drop out.
    """
    ln, ld = lam.numerator, lam.denominator
    if ln > 0:
        floor, nln = (-ln, ld), -ln
        return _from_pairs(
            x.space, tuple(kv if kv[1][0] * ld >= nln * kv[1][1] else (kv[0], floor) for kv in x._v)
        )
    cn = -ln
    out = []
    for k, (vn, vd) in x._v:
        n = vn * ld - cn * vd
        if n > 0:
            d = vd * ld
            g = gcd(n, d)
            out.append((k, (n // g, d // g)))
    return _from_pairs(x.space, tuple(out))


def _harmonic(n: int) -> Element:
    """The sparse element with value ``1/k`` at ``k = 1..n``, built as its layout.

    ``(1, k)`` is already a reduced pair, so no value is coerced, checked or
    sorted on the way.
    """
    ks = range(1, n + 1)
    return _from_pairs(SparseSeq(), tuple(zip(ks, zip(repeat(1), ks))))


def _within_one(x: Element) -> bool:
    """Whether ``|v| <= 1`` at each value of ``x``."""
    return all(abs(n) <= d for n, d in _values(x))


def _mask(x: Element, coords: frozenset[int]) -> Element:
    """A ``FinitePointwise`` element with the values off the 1-based ``coords`` set to 0."""
    return _from_pairs(x.space, tuple(v if i in coords else _ZERO for i, v in enumerate(x._v, 1)))


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
    # the wire name and a key for each dataclass field, in order: finite_pointwise's dim
    return {"space": space.name, **{key: getattr(space, key) for key in space.__match_args__}}


def _space_class(name) -> type:
    cls = SPACE_CLASSES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise DescriptorError(f"unknown space name {name!r}")
    return cls


def space_from_json(obj) -> Space:
    if not isinstance(obj, Mapping) or "space" not in obj:
        raise DescriptorError(f"space descriptor must be an object with a 'space' key: {obj!r}")
    cls = _space_class(obj["space"])
    keys = cls.__match_args__
    for key in obj:
        if key != "space" and key not in keys:
            raise DescriptorError(f"{cls.name} takes no key {key!r}")
    try:
        return cls(*(obj.get(key) for key in keys))
    except ValueError as exc:
        raise DescriptorError(f"{cls.name}: {exc}") from exc


def space_from_text(text: str) -> Space:
    """``name``, or ``name:N`` for the one space with a field: ``finite_pointwise:N`` (3 without ``:N``)."""
    name, _, arg = text.partition(":")
    keys = _space_class(name).__match_args__
    if arg and not keys:
        raise DescriptorError(f"{name} takes no argument, got {arg!r}")
    try:
        return space_from_json({"space": name, **{key: int(arg or 3) for key in keys}})
    except ValueError as exc:
        raise DescriptorError(f"{name}: {exc}") from exc


def _wire(v) -> str:
    # format_rational's canonical "p/q", read from the pair
    return f"{v[0]}/{v[1]}"


def _wire_index(key) -> int:
    """A sparse index from its wire key, written only as ``element_to_json`` writes it."""
    # int() also reads "01", "+1", " 2" and "1_0": such a key could silently overwrite another index
    index = int(key) if isinstance(key, str) else 0
    if index < 1 or str(index) != key:
        raise DescriptorError(f"sparse index keys must be integers >= 1 in decimal form, got {key!r}")
    return index


def element_to_json(a: Element):
    match a.space:
        case SparseSeq():
            return {str(k): _wire(v) for k, v in a._v}
        case IdentityLine():  # the line's wire form is its one value, not a list
            return _wire(a._v[0])
    return [_wire(v) for v in a._v]


def element_from_json(space: Space, obj) -> Element:
    try:
        match space:
            case SparseSeq():
                if not isinstance(obj, Mapping):
                    raise DescriptorError(f"expected an index->rational object, got {obj!r}")
                return sparse({_wire_index(k): parse_rational(v) for k, v in obj.items()})
            case IdentityLine():
                if not isinstance(obj, str):
                    raise DescriptorError(f"expected a 'p/q' string, got {obj!r}")
                return Element(space, parse_rational(obj))
        if not isinstance(obj, list) or len(obj) != space.dim:
            raise DescriptorError(f"expected a list of {space.dim} rationals, got {obj!r}")
        return Element(space, tuple(parse_rational(v) for v in obj))
    except (ValueError, TypeError) as exc:
        raise DescriptorError(f"bad element payload {obj!r}: {exc}") from exc
