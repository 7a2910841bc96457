"""The unitization of a truncated space: a formal unit adjoined to the base.

Elements are pairs ``x + lam*1`` with ``x`` in the base space and ``lam``
rational.  The order structure comes from one closed form, the positive part.
For ``lam != 0`` let ``p`` be ``neg(x)`` if ``lam > 0`` and ``pos(x)`` if
``lam < 0``, and ``T = |lam| * tr(p / |lam|)``; ``p / |lam|`` is the join
``(1/lam) neg(x) v (-1/lam) pos(x)`` of a positive and a negative term, so

    ``|x + lam| = |x| - 2T + |lam|``  and
    ``(x + lam)+ = ((x + lam) + |x + lam|) / 2 = pos(x) - T + max(lam, 0)``,

with ``(x + lam)+ = pos(x)`` for ``lam = 0``.  ``T`` comes from
:func:`~trunclat.truncation.truncate_scaled` with ``c = |lam|``, which needs
no rescaling for the catalog kinds: ``min(p, |lam| u)`` for the meet
truncations (``u = 1`` for ``meet_with_one``) and ``p`` for the identity.
Then ``a v b = b + (a - b)+`` and ``a ^ b = a - (a - b)+``: exact rational
algebra on the half-sums ``(a + b +- |a - b|) / 2``, so the rules hold for
any deterministic truncation map.  The tests cross-check them against the
half-sum forms and a pointwise oracle.  The positive cone is ``lam = 0`` and
``x >= 0``, or ``lam > 0`` and ``y = neg(x) / lam`` fixed by the truncation,
tested as ``lam tr(neg(x) / lam) = neg(x)``; the truncation on the
unitization is the meet with the adjoined unit, so ``a`` is in its fixed set
exactly when ``|a| <= 1``.

:class:`UnitizationCtx` carries the same lattice methods as the base
:class:`~trunclat.truncation.TruncationSpec` (``zero``, ``leq``, ``join``,
``meet``, ``abs``, ``pos``, ``neg``, ``is_positive``, ``truncate``,
``in_fixed`` and ``to_json``), each a call to the ``_u`` function below, so the
axiom checks, the DSL evaluator and the repros run on the unitization
unchanged.  It is also the context every registered law runs in: its
``.trunc`` is the base lattice, and it is the unitization itself, so one
object reaches both sides of the transfer (``engine.LawContext`` is an alias).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import DescriptorError, NegativeInput, SpaceMismatch
from .rational import Rational, coerce_rational, format_rational, parse_rational
from .spaces import (
    Element,
    IdentityLine,
    Space,
    SparseSeq,
    element_from_json,
    element_to_json,
    line,
    neg,
    pos,
    scale,
    sparse,
    support,
    zero,
)
from .truncation import TruncationSpec, in_fixed_set, truncate_scaled
from .report import LawReport

_ZERO = Fraction(0)


@dataclass(frozen=True)
class UnitizedElement:
    """``e + lam * 1`` with ``e`` in the base space."""

    e: Element
    lam: Rational

    def __add__(self, other: "UnitizedElement") -> "UnitizedElement":
        return UnitizedElement(self.e + other.e, self.lam + other.lam)

    def __sub__(self, other: "UnitizedElement") -> "UnitizedElement":
        return UnitizedElement(self.e - other.e, self.lam - other.lam)

    def __neg__(self) -> "UnitizedElement":
        return UnitizedElement(-self.e, -self.lam)

    def __rmul__(self, c) -> "UnitizedElement":
        c = coerce_rational(c)
        return UnitizedElement(scale(c, self.e), c * self.lam)


@dataclass(frozen=True)
class UnitizationCtx:
    """A base space together with its truncation; fixes the meaning of ``1``."""

    space: Space
    trunc: TruncationSpec

    def __post_init__(self) -> None:
        if self.trunc.space != self.space:
            raise SpaceMismatch("truncation does not act on the base space")

    # built once per context: truncate_u reads the unit on every call
    @cached_property
    def zero(self) -> UnitizedElement:
        return UnitizedElement(zero(self.space), _ZERO)

    @cached_property
    def one(self) -> UnitizedElement:
        return UnitizedElement(self.zero.e, Fraction(1))

    def embed(self, x: Element) -> UnitizedElement:
        if x.space != self.space:
            raise SpaceMismatch("cannot embed an element of a different space")
        return UnitizedElement(x, _ZERO)

    def scalar(self, lam) -> UnitizedElement:
        return UnitizedElement(self.zero.e, coerce_rational(lam))

    # The lattice interface shared with TruncationSpec.

    def leq(self, a: UnitizedElement, b: UnitizedElement) -> bool:
        return leq_u(self, a, b)

    def join(self, a: UnitizedElement, b: UnitizedElement) -> UnitizedElement:
        return join_u(self, a, b)

    def meet(self, a: UnitizedElement, b: UnitizedElement) -> UnitizedElement:
        return meet_u(self, a, b)

    def abs(self, a: UnitizedElement) -> UnitizedElement:
        return abs_u(self, a)

    def pos(self, a: UnitizedElement) -> UnitizedElement:
        return pos_u(self, a)

    def neg(self, a: UnitizedElement) -> UnitizedElement:
        return neg_u(self, a)

    def is_positive(self, a: UnitizedElement) -> bool:
        return is_positive(self, a)

    def truncate(self, a: UnitizedElement) -> UnitizedElement:
        return truncate_u(self, a)

    def in_fixed(self, a: UnitizedElement) -> bool:
        return in_fixed_u(self, a)

    def to_json(self, a: UnitizedElement) -> dict:
        return unitized_to_json(a)


def unitize(trunc: TruncationSpec) -> UnitizationCtx:
    return UnitizationCtx(trunc.space, trunc)


# ---------------------------------------------------------------------------
# Order structure
# ---------------------------------------------------------------------------

def _base(ctx: UnitizationCtx, a: UnitizedElement) -> Element:
    """``a``'s base part, checked to live on the base space."""
    if a.e.space is not ctx.space and a.e.space != ctx.space:
        raise SpaceMismatch(f"{ctx.space!r} vs {a.e.space!r}")
    return a.e


def _cut(ctx: UnitizationCtx, a: UnitizedElement) -> Element:
    """``T = |lam| tr(p / |lam|)`` for ``lam != 0``; ``p`` is ``neg(x)`` if ``lam > 0``, else ``pos(x)``."""
    lam_abs, p = (a.lam, neg(a.e)) if a.lam.numerator > 0 else (-a.lam, pos(a.e))
    return truncate_scaled(ctx.trunc, p, lam_abs)


def is_positive(ctx: UnitizationCtx, a: UnitizedElement) -> bool:
    """Cone membership: for ``lam > 0``, ``p = neg(x)`` must satisfy ``lam tr(p / lam) = p``.

    That is ``tr(y) = y`` for ``y = neg(x) / lam``, without building ``y``.
    """
    x = _base(ctx, a)
    if a.lam.numerator <= 0:
        return not a.lam.numerator and ctx.trunc.is_positive(x)
    p = neg(x)
    return truncate_scaled(ctx.trunc, p, a.lam) == p


def leq_u(ctx: UnitizationCtx, a: UnitizedElement, b: UnitizedElement) -> bool:
    return is_positive(ctx, b - a)


def lt_u(ctx: UnitizationCtx, a: UnitizedElement, b: UnitizedElement) -> bool:
    return a != b and leq_u(ctx, a, b)


def pos_u(ctx: UnitizationCtx, a: UnitizedElement) -> UnitizedElement:
    x = _base(ctx, a)
    lam = a.lam if a.lam.numerator > 0 else _ZERO
    return UnitizedElement(pos(x) - _cut(ctx, a) if a.lam.numerator else pos(x), lam)


def neg_u(ctx: UnitizationCtx, a: UnitizedElement) -> UnitizedElement:
    return pos_u(ctx, -a)


def abs_u(ctx: UnitizationCtx, a: UnitizedElement) -> UnitizedElement:
    x = _base(ctx, a)
    return UnitizedElement(abs(x) - scale(2, _cut(ctx, a)) if a.lam.numerator else abs(x), abs(a.lam))


def join_u(ctx: UnitizationCtx, a: UnitizedElement, b: UnitizedElement) -> UnitizedElement:
    return b + pos_u(ctx, a - b)


def meet_u(ctx: UnitizationCtx, a: UnitizedElement, b: UnitizedElement) -> UnitizedElement:
    return a - pos_u(ctx, a - b)


def truncate_u(ctx: UnitizationCtx, a: UnitizedElement) -> UnitizedElement:
    """Truncation on the unitization: meet with the adjoined unit."""
    if not is_positive(ctx, a):
        raise NegativeInput("truncate_u requires a positive element")
    return meet_u(ctx, a, ctx.one)


def in_fixed_u(ctx: UnitizationCtx, a: UnitizedElement) -> bool:
    """Fixed-set membership ``|a| ^ 1 = |a|``, which is ``|a| <= 1``."""
    return leq_u(ctx, abs_u(ctx, a), ctx.one)


# ---------------------------------------------------------------------------
# Structure checks (fixed set, ideal absorption, orthogonal complement)
# ---------------------------------------------------------------------------

def check_thm11_fixedset(
    ctx: UnitizationCtx, samples: Sequence[Element], seed: int = 0
) -> LawReport:
    """Base fixed set == elements whose absolute value sits below the unit."""
    samples = list(samples)
    for x in samples:
        via_fixed = in_fixed_set(ctx.trunc, x)
        via_order = leq_u(ctx, ctx.embed(abs(x)), ctx.one)
        if via_fixed != via_order:
            witness = {
                "x": element_to_json(x),
                "in_fixed_set": via_fixed,
                "abs_leq_one": via_order,
            }
            return LawReport.refuted("thm11.fixedset", len(samples), seed, witness)
    return LawReport.passed("thm11.fixedset", len(samples), seed)


def check_ideal(
    ctx: UnitizationCtx,
    pairs: Sequence[tuple[Element, UnitizedElement]],
    seed: int = 0,
) -> LawReport:
    """Absorption: ``|b| <= |a|`` with ``a`` in the base forces ``b`` into the base."""
    pairs = list(pairs)
    absorbed = 0
    for a, b in pairs:
        if leq_u(ctx, abs_u(ctx, b), ctx.embed(abs(a))):
            absorbed += 1
            if b.lam != 0:
                witness = {"a": element_to_json(a), "b": unitized_to_json(b)}
                return LawReport.refuted("thm11.ideal", len(pairs), seed, witness)
    detail = f"absorbed={absorbed}"
    if not absorbed:
        return LawReport.inconclusive("thm11.ideal", len(pairs), seed, bound=0, detail=detail)
    return LawReport.passed("thm11.ideal", len(pairs), seed, detail=detail)


def _separator_candidates(ctx, z: UnitizedElement, e_samples):
    """Base elements likely to meet ``|z|`` nontrivially, tried in order."""
    if z.e != zero(ctx.space):
        yield abs(z.e)
    if isinstance(ctx.space, SparseSeq):
        fresh = max(support(z.e), default=0) + 1
        yield sparse({fresh: 1})
    elif isinstance(ctx.space, IdentityLine):
        yield line(1)
    for x in e_samples:
        a = abs(x)
        if a != zero(ctx.space):
            yield a


_ORTHO_SCALARS = (Fraction(1), Fraction(-2), Fraction(1, 3))


def check_thm11_orthocomplement(
    ctx: UnitizationCtx,
    e_samples: Sequence[Element],
    candidates: Sequence[UnitizedElement] = (),
    seed: int = 0,
) -> LawReport:
    """The base space's disjoint complement inside the unitization.

    Unital base: the complement is spanned by ``w = 1 - u``; verifies
    ``|c*w| ^ |x| = 0`` for every sampled base element ``x`` and a few scalars
    ``c``, and counts the verified pairs as trials.  Non-unital base: the
    complement is zero; for each nonzero candidate, searches for a base
    element whose absolute value meets the candidate's nontrivially.  A
    candidate with no separator found leaves the verdict inconclusive rather
    than declared orthogonal.
    """
    law_id = "thm11.orthocomplement"
    zero_u = ctx.zero
    if ctx.trunc.unital:
        w = UnitizedElement(-ctx.trunc.unit, Fraction(1))
        checked = 0
        for x in e_samples:
            target = ctx.embed(abs(x))
            for c in _ORTHO_SCALARS:
                if meet_u(ctx, abs_u(ctx, c * w), target) != zero_u:
                    witness = {"x": element_to_json(x), "c": format_rational(c)}
                    return LawReport.refuted(law_id, checked, seed, witness)
                checked += 1
        return LawReport.passed(law_id, checked, seed, detail=f"span of 1-u, w={unitized_to_json(w)}")

    separated = unresolved = 0
    for z in candidates:
        if z == zero_u:
            continue
        az = abs_u(ctx, z)
        separators = _separator_candidates(ctx, z, e_samples)
        if any(meet_u(ctx, az, ctx.embed(x)) != zero_u for x in separators):
            separated += 1
        else:
            unresolved += 1
    if unresolved:
        return LawReport.inconclusive(
            law_id, separated, seed, bound=len(candidates), detail=f"unresolved={unresolved}"
        )
    return LawReport.passed(law_id, separated, seed, detail=f"separated={separated}")


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def unitized_to_json(a: UnitizedElement) -> dict:
    return {"e": element_to_json(a.e), "lambda": format_rational(a.lam)}


def unitized_from_json(space: Space, obj) -> UnitizedElement:
    if not isinstance(obj, Mapping):
        raise DescriptorError(
            f"unitized element must be an object with 'e' and 'lambda' keys: {obj!r}"
        )
    for key in ("e", "lambda"):
        if key not in obj:
            raise DescriptorError(f"unitized element has no {key!r} key: {obj!r}")
    try:
        lam = parse_rational(obj["lambda"])
    except ValueError as exc:
        raise DescriptorError(str(exc)) from exc
    return UnitizedElement(element_from_json(space, obj["e"]), lam)
