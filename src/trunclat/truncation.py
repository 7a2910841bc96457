"""Truncation catalog, axiom checkers, and fixed-set machinery.

A truncation is a map on the positive cone with ``a ^ tr(b) <= tr(a) <= a``
(tau1) and ``tr(a) = 0  =>  a = 0`` (tau2).  The built-in kinds are:

* ``MeetWithUnit(u)``: ``x |-> x ^ u`` for a fixed ``u >= 0`` (unital); the
  lexicographic plane's truncation is the one with ``u = (0,1)``, whose wire
  alias is ``lex_meet_zero_one``;
* ``MeetWithOne``: componentwise minimum with the constant 1 on ``SparseSeq``
  (non-unital: the constant-one sequence has infinite support);
* ``IdentityTruncation``: ``x |-> x`` on ``IdentityLine`` (non-unital, and not
  an Archimedean truncation: every multiple of a fixed point stays fixed);
* ``FixtureTruncation``: an arbitrary callable, for tests and bounded searches.

The fixed set of a truncation is ``{x : tr(|x|) = |x|}``; two truncations on
the same space agree exactly when their fixed sets agree, which is what
:func:`compare_fixed_sets` probes on samples.

The unitization's order structure needs the base part of ``(x + lam*1)+``,
which is ``pos(x) - |lam| tr(p / |lam|)`` with ``p`` the part of ``x`` of the
other sign than ``lam``.  :func:`pos_base` gives it per kind in one pass:
``x v (-lam*u)`` or ``(x - |lam|*u)+`` for ``MeetWithUnit(u)``, the same with
the constant 1 for ``MeetWithOne``, ``x`` or 0 for the identity, and the
definition itself for a fixture.

A :class:`TruncationSpec` is the base lattice with its truncation, and
:class:`~trunclat.unitization.UnitizationCtx` is the unitization with the
meet with the adjoined unit.  Both carry one set of lattice methods
(``zero``, ``leq``, ``join``, ``meet``, ``abs``, ``pos``, ``neg``,
``is_positive``, ``truncate``, ``in_fixed`` and ``to_json``), so the axiom
checks below, the DSL evaluator and the repros run on either lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import DescriptorError, NegativeInput, PreconditionViolated, SpaceMismatch
from .rational import coerce_rational
from .report import LawReport
from .spaces import (
    Element,
    Space,
    _meet_one,
    _scalars,
    _shifted_pos_one,
    _within_one,
    element_from_json,
    element_to_json,
    is_positive,
    join,
    leq,
    lexpair,
    meet,
    neg,
    pos,
    scale,
    shifted_pos,
    sub,
    zero,
)

if TYPE_CHECKING:
    from .unitization import UnitizationCtx


# ---------------------------------------------------------------------------
# Truncation kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeetWithUnit:
    unit: Element


@dataclass(frozen=True)
class MeetWithOne:
    pass


@dataclass(frozen=True)
class IdentityTruncation:
    pass


@dataclass(frozen=True)
class FixtureTruncation:
    """A user-supplied truncation-like map, compared by name."""

    name: str
    fn: Callable[[Element], Element] = field(compare=False)
    unit: Element | None = None


TruncationKind = MeetWithUnit | MeetWithOne | IdentityTruncation | FixtureTruncation


@dataclass(frozen=True)
class TruncationSpec:
    """A truncation attached to the space it acts on."""

    space: Space
    kind: TruncationKind

    @property
    def unital(self) -> bool:
        return self.unit is not None

    @property
    def unit(self) -> Element | None:
        match self.kind:
            case MeetWithUnit(unit=u) | FixtureTruncation(unit=u):
                return u
        return None

    # The lattice interface shared with UnitizationCtx.

    @property
    def zero(self) -> Element:
        return zero(self.space)

    def leq(self, x: Element, y: Element) -> bool:
        return leq(x, y)

    def join(self, x: Element, y: Element) -> Element:
        return join(x, y)

    def meet(self, x: Element, y: Element) -> Element:
        return meet(x, y)

    def abs(self, x: Element) -> Element:
        return abs(x)

    def pos(self, x: Element) -> Element:
        return pos(x)

    def neg(self, x: Element) -> Element:
        return neg(x)

    def is_positive(self, x: Element) -> bool:
        return is_positive(x)

    def truncate(self, x: Element) -> Element:
        return truncate(self, x)

    def in_fixed(self, x: Element) -> bool:
        return in_fixed_set(self, x)

    def to_json(self, x: Element):
        return element_to_json(x)


def truncation(space: Space, kind: TruncationKind) -> TruncationSpec:
    """Validated constructor: a unit's meet or a fixture on any space, another kind only where it is cataloged."""
    match kind:
        case MeetWithUnit(unit=u):
            if u.space != space:
                raise SpaceMismatch("truncation unit lives in a different space")
            if not is_positive(u):
                raise ValueError("truncation unit must be >= 0")
        case MeetWithOne():
            if space.trunc_kind != "meet_with_one":
                raise ValueError(f"meet_with_one is not defined on {space.name}")
        case IdentityTruncation():
            if space.trunc_kind != "identity":
                raise ValueError(f"identity is not defined on {space.name}")
        case FixtureTruncation():
            pass
        case _:
            raise TypeError(f"unknown truncation kind {kind!r}")
    return TruncationSpec(space, kind)


def truncate(t: TruncationSpec, x: Element) -> Element:
    """Apply the truncation to ``x >= 0``; the result satisfies ``0 <= tr(x) <= x``."""
    if x.space is not t.space and x.space != t.space:
        raise SpaceMismatch("element does not live on the truncation's space")
    if not is_positive(x):
        raise NegativeInput(f"truncate requires a positive element, got {x!r}")
    match t.kind:
        case MeetWithUnit(unit=u):
            return meet(x, u)
        case MeetWithOne():
            return _meet_one(x)
        case IdentityTruncation():
            return x
        case FixtureTruncation(fn=fn):
            return fn(x)
    raise TypeError(f"unknown truncation kind {t.kind!r}")


def pos_base(t: TruncationSpec, x: Element, lam) -> Element:
    """The base part ``R`` of ``(x + lam*1)+`` in the unitization, for rational ``lam != 0``.

    With ``c = |lam|`` and ``p`` equal to ``neg(x)`` for ``lam > 0`` and to
    ``pos(x)`` for ``lam < 0``, ``R = pos(x) - T`` where ``T = c * tr(p / c)``
    is the cut.  Each catalog kind gives ``R`` in one pass with no rescaling:

    * ``MeetWithUnit(u)``: ``R = (x + lam*u)+ - max(lam, 0)*u``
      (:func:`~trunclat.spaces.shifted_pos`), that is ``x v (-lam*u)`` for
      ``lam > 0`` and ``(x - c*u)+`` for ``lam < 0``.  Proof: scaling by
      ``c`` is a lattice automorphism, so ``T = p ^ c*u``.  For ``lam > 0``,
      ``pos(x) - (neg(x) ^ lam*u)`` is ``x`` where ``x >= 0`` and
      ``-(-x ^ lam*u) = x v (-lam*u)`` where ``x <= 0``; for ``lam < 0``,
      ``pos(x) - (pos(x) ^ c*u) = (pos(x) - c*u)+``, which is 0 where
      ``x <= 0`` and ``(x - c*u)+`` where ``x >= 0``.  Only ``u >= 0`` is
      used, and "where" is a coordinate on the pointwise spaces and the sign
      of the whole pair on the lex plane, whose order is total.
    * ``MeetWithOne``: ``max(v, -lam)`` at each support index for ``lam > 0``;
      for ``lam < 0``, ``v - c`` where ``v > c``, and other indices drop out.
    * ``IdentityTruncation``: ``T = p``, so ``R`` is ``x`` for ``lam > 0`` and
      0 for ``lam < 0``.
    * ``FixtureTruncation``: the definition ``pos(x) - c * tr(p / c)``.
    """
    if x.space is not t.space and x.space != t.space:
        raise SpaceMismatch("element does not live on the truncation's space")
    lam = coerce_rational(lam)
    if not lam.numerator:
        raise PreconditionViolated("pos_base requires a scalar lam != 0")
    match t.kind:
        case MeetWithUnit(unit=u):
            return shifted_pos(x, lam, u)
        case MeetWithOne():
            return _shifted_pos_one(x, lam)
        case IdentityTruncation():
            return x if lam.numerator > 0 else zero(x.space)
        case FixtureTruncation():
            c = abs(lam)
            return sub(pos(x), scale(c, truncate(t, scale(1 / c, neg(x) if lam.numerator > 0 else pos(x)))))
    raise TypeError(f"unknown truncation kind {t.kind!r}")


def in_fixed_set(t: TruncationSpec, x: Element) -> bool:
    """Fixed-set membership: ``tr(|x|) = |x|`` (defined for arbitrary sign).

    Each catalog kind decides it in closed form.  For ``MeetWithUnit(u)`` it
    is ``|x| <= u``, since ``a ^ u = a`` exactly when ``a <= u`` in any
    lattice, the lexicographic plane included; for ``MeetWithOne`` it is
    ``|v| <= 1`` at each support value; the identity fixes every element.  A
    fixture truncation keeps the definition.
    """
    if x.space is not t.space and x.space != t.space:
        raise SpaceMismatch("element does not live on the truncation's space")
    match t.kind:
        case MeetWithUnit(unit=u):
            return leq(abs(x), u)
        case MeetWithOne():
            return _within_one(x)
        case IdentityTruncation():
            return True
    a = abs(x)
    return truncate(t, a) == a


# ---------------------------------------------------------------------------
# Axiom and property checks
# ---------------------------------------------------------------------------

def check_tau1(
    t: TruncationSpec | UnitizationCtx, pairs: Sequence[tuple], seed: int = 0
) -> LawReport:
    """``a ^ tr(b) <= tr(a) <= a`` over sampled positive pairs."""
    pairs = list(pairs)
    if not pairs:
        raise PreconditionViolated("tau1 needs at least one sample pair")
    for a, b in pairs:
        ta = t.truncate(a)
        tb = t.truncate(b)
        if not t.leq(t.meet(a, tb), ta) or not t.leq(ta, a):
            witness = {"a": t.to_json(a), "b": t.to_json(b), "tr_a": t.to_json(ta), "tr_b": t.to_json(tb)}
            return LawReport.refuted("tau1", len(pairs), seed, witness)
    return LawReport.passed("tau1", len(pairs), seed)


def check_tau2(t: TruncationSpec | UnitizationCtx, samples: Sequence, seed: int = 0) -> LawReport:
    """``tr(a) = 0  =>  a = 0`` over positive samples."""
    samples = list(samples)
    if not samples:
        raise PreconditionViolated("tau2 needs at least one sample")
    z = t.zero
    for a in samples:
        if t.truncate(a) == z and a != z:
            return LawReport.refuted("tau2", len(samples), seed, {"a": t.to_json(a)})
    return LawReport.passed("tau2", len(samples), seed)


@dataclass(frozen=True)
class Decision:
    """What a decider found: ``holds`` is True or False, or None when undecided.

    ``bound`` is 0 for a symbolic decision and the search bound otherwise.  A
    refutation carries its ``witness``, which the law's report replays before
    it refutes and lists under ``names``: lattice elements, rationals or counts.
    """

    holds: bool | None
    reason: str = ""
    witness: tuple = ()
    bound: int = 0
    names: tuple[str, ...] = ("x", "y")


def check_tau3(t: TruncationSpec, samples: Sequence[Element], bound: int = 100) -> Decision:
    """Decide the multiples axiom: ``tr(n*a) = n*a`` for all n forces ``a = 0``.

    The cataloged kinds are decided symbolically from their closed forms; a
    fixture truncation falls back to a bounded search over the samples, which
    can only produce bounded evidence, never a proof.
    """
    if bound < 1:
        raise PreconditionViolated("tau3's bounded search needs bound >= 1")
    z = zero(t.space)
    for a in samples:
        if not leq(z, a):
            raise NegativeInput("tau3 samples must be positive")
    positive = [a for a in samples if a != z]
    match t.kind:
        case IdentityTruncation():
            witness = positive[0] if positive else t.space.fresh_atom(1)
            return Decision(
                False, "every positive element is fixed together with all its multiples", (witness,)
            )
        case MeetWithOne():
            return Decision(True, "n*x <= 1 componentwise for every n forces each coordinate to 0")
        case MeetWithUnit(unit=u):
            pair = t.space.non_archimedean  # on the lex plane, (0,1) and (1,0)
            if pair is not None:
                u0, u1 = _scalars(u)
                if u0 > 0:
                    return Decision(
                        False,
                        "n*(0,1) <= u holds for every n because the unit's first coordinate is positive",
                        pair[:1],
                    )
                return Decision(
                    True, f"n*x <= ({u0},{u1}) for every n forces the first coordinate to 0, then the second"
                )
            return Decision(True, "n*x <= u componentwise for every n forces each coordinate to 0")
        case FixtureTruncation():
            for a in positive:
                if multiples_fixed(t, a, bound):
                    return Decision(False, witness=(a,), bound=bound)
            return Decision(None, bound=bound)
    raise TypeError(f"unknown truncation kind {t.kind!r}")


def multiples_fixed(t: TruncationSpec | UnitizationCtx, w, bound: int = 64) -> bool:
    """Whether ``tr(k*w) = k*w`` for ``k = 1..bound``."""
    for k in range(1, bound + 1):
        kw = k * w
        if t.truncate(kw) != kw:
            return False
    return True


def check_prop21(
    t: TruncationSpec | UnitizationCtx, pairs: Sequence[tuple], seed: int = 0
) -> LawReport:
    """The exchange identity ``a ^ tr(b) = tr(a) ^ b`` over sampled positive pairs."""
    pairs = list(pairs)
    if not pairs:
        raise PreconditionViolated("prop21 needs at least one sample pair")
    for a, b in pairs:
        lhs = t.meet(a, t.truncate(b))
        rhs = t.meet(t.truncate(a), b)
        if lhs != rhs:
            witness = {"a": t.to_json(a), "b": t.to_json(b), "lhs": t.to_json(lhs), "rhs": t.to_json(rhs)}
            return LawReport.refuted("prop21", len(pairs), seed, witness)
    return LawReport.passed("prop21", len(pairs), seed)


_PROP22_ITEMS = ("bound", "monotone", "idempotent", "image", "downward", "birkhoff")


def prop22_failure(t: TruncationSpec | UnitizationCtx, x, y) -> tuple[str, dict] | None:
    """The first of the six elementary properties that the positive pair ``(x, y)`` breaks.

    In order: tr(x) <= x; monotonicity along ``x <= x + y``; idempotency; the
    image lies in the fixed set (and fixed points are their own truncation);
    the fixed set is downward closed; and the Birkhoff-type inequality
    ``|tr(x) - tr(y)| <= tr(|x - y|)``.  Returns the item's name and its
    witness, or None when all six hold.
    """
    tx = t.truncate(x)
    ty = t.truncate(y)
    if not t.leq(tx, x):
        return "bound", {"x": t.to_json(x)}
    bigger = x + y
    if not t.leq(tx, t.truncate(bigger)):
        return "monotone", {"x": t.to_json(x), "y": t.to_json(bigger)}
    if t.truncate(tx) != tx:
        return "idempotent", {"x": t.to_json(x), "tr_x": t.to_json(tx)}
    if not t.in_fixed(tx) or (t.in_fixed(x) and tx != x):
        return "image", {"x": t.to_json(x), "tr_x": t.to_json(tx)}
    below_fixed = t.meet(x, ty)
    if not t.in_fixed(below_fixed):
        return "downward", {"x": t.to_json(below_fixed), "y": t.to_json(ty)}
    if not t.leq(t.abs(tx - ty), t.truncate(t.abs(x - y))):
        return "birkhoff", {"x": t.to_json(x), "y": t.to_json(y)}
    return None


def check_prop22(
    t: TruncationSpec | UnitizationCtx, pairs: Sequence[tuple], seed: int = 0
) -> LawReport:
    """The six elementary truncation properties (:func:`prop22_failure`) over sampled positive pairs."""
    pairs = list(pairs)
    if not pairs:
        raise PreconditionViolated("prop22 needs at least one sample pair")
    for x, y in pairs:
        failure = prop22_failure(t, x, y)
        if failure is not None:
            item, data = failure
            return LawReport.refuted(
                "prop22", len(pairs), seed, {"item": item, **data}, detail=f"item={item}"
            )
    return LawReport.passed("prop22", len(pairs), seed, detail="items=" + ",".join(_PROP22_ITEMS))


def compare_fixed_sets(
    t1: TruncationSpec, t2: TruncationSpec, samples: Sequence[Element], seed: int = 0
) -> LawReport:
    """Probe whether two truncations on the same space agree, via their fixed sets.

    The sample set is enriched with both truncations' outputs: whenever two
    honest truncations differ at a point, their fixed sets must already differ
    at one of the outputs, so on the enriched set the two agreement verdicts
    coincide.
    """
    if t1.space != t2.space:
        raise SpaceMismatch("fixed-set comparison needs a common space")
    positives = []
    seen = set()
    for s in samples:
        a = abs(s)
        if a not in seen:
            seen.add(a)
            positives.append(a)
    enriched = list(positives)
    for p in positives:
        for out in (truncate(t1, p), truncate(t2, p)):
            if out not in seen:
                seen.add(out)
                enriched.append(out)

    fixed_witness = None
    for x in enriched:
        if in_fixed_set(t1, x) != in_fixed_set(t2, x):
            fixed_witness = x
            break
    trunc_witness = None
    for x in enriched:
        if truncate(t1, x) != truncate(t2, x):
            trunc_witness = x
            break

    fixed_agree = fixed_witness is None
    trunc_agree = trunc_witness is None
    if fixed_agree and trunc_agree:
        return LawReport.passed("lemma23.compare", len(enriched), seed)
    witness = {
        "fixed_sets_agree": fixed_agree,
        "truncations_agree": trunc_agree,
        "fixed_set_witness": None if fixed_witness is None else element_to_json(fixed_witness),
        "truncation_witness": None if trunc_witness is None else element_to_json(trunc_witness),
    }
    return LawReport.refuted("lemma23.compare", len(enriched), seed, witness)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def truncation_to_json(t: TruncationSpec) -> dict:
    match t.kind:
        case MeetWithUnit(unit=u):
            return {"kind": "meet_with_unit", "unit": element_to_json(u)}
        case MeetWithOne():
            return {"kind": "meet_with_one"}
        case IdentityTruncation():
            return {"kind": "identity"}
        case FixtureTruncation(name=name):
            raise DescriptorError(f"fixture truncation {name!r} has no wire format")
    raise TypeError(f"unknown truncation kind {t.kind!r}")


def truncation_from_json(space: Space, obj) -> TruncationSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DescriptorError(f"truncation descriptor must be an object with a 'kind' key: {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "meet_with_unit":
            if "unit" not in obj:
                raise DescriptorError("meet_with_unit needs a 'unit' element")
            return truncation(space, MeetWithUnit(element_from_json(space, obj["unit"])))
        if kind == "meet_with_one":
            return truncation(space, MeetWithOne())
        if kind == "lex_meet_zero_one":
            if space.trunc_kind != kind:
                raise ValueError(f"{kind} is not defined on {space.name}")
            return truncation(space, MeetWithUnit(lexpair(0, 1)))
        if kind == "identity":
            return truncation(space, IdentityTruncation())
    except (ValueError, SpaceMismatch) as exc:
        raise DescriptorError(str(exc)) from exc
    raise DescriptorError(f"unknown truncation kind {kind!r}")
