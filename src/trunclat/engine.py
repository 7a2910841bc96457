"""Deterministic law runner and the named structural checks.

The registry covers the truncation axioms, the exchange and Birkhoff
identities, the fixed-set/unit characterizations of the unitization, the
Archimedean deciders for spaces and their unitizations, chain decomposition
and supremum transfer, and the band machinery for finite pointwise spaces.
Every verdict is exact: quantified claims whose witness search is exhausted
come back inconclusive, never as an overclaimed pass.

Every law, decider and repro runs in a
:class:`~trunclat.unitization.UnitizationCtx`.  Its ``.trunc`` is the
truncated base lattice and the context itself is that lattice's
unitization, so one object carries both sides of the transfer.
``LawContext`` is an alias for it.

Seeds derive per law from the run seed, so report lists are reproducible
byte-for-byte under a fixed configuration.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from .errors import EmptySet, InvalidCertificate, NegativeInput, PreconditionViolated, SpaceMismatch
from .rational import Rational, coerce_rational, format_rational
from .report import LawReport
from .sampling import SampleGen
from .spaces import (
    Element,
    FinitePointwise,
    IdentityLine,
    LexPlane,
    Space,
    SparseSeq,
    coeff,
    decompose_chain,
    check_chain_sup_additivity,
    element_to_json,
    fp_const,
    is_positive,
    join,
    leq,
    lexpair,
    line,
    meet,
    scale,
    sparse,
    sup_finite,
    support,
    zero,
)
from .truncation import (
    Decision,
    IdentityTruncation,
    MeetWithOne,
    MeetWithUnit,
    TruncationSpec,
    check_prop21,
    check_prop22,
    check_tau1,
    check_tau2,
    check_tau3,
    compare_fixed_sets,
    multiples_fixed,
    prop22_failure,
    truncate,
    truncation,
)
from .unitization import (
    UnitizationCtx,
    UnitizedElement,
    abs_u,
    check_ideal,
    check_thm11_fixedset,
    check_thm11_orthocomplement,
    join_u,
    leq_u,
    lt_u,
    meet_u,
    truncate_u,
    unitized_to_json,
)

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, law_id: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{law_id}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") & _MASK64


# The benchmark's perfbench/workloads.py builds LawContext(space, trunc), and
# that file changes only together with the benchmark, so the old name stays.
LawContext = UnitizationCtx


def cataloged_truncation(space: Space) -> TruncationSpec:
    """Each space's default truncation: the one the catalog and ``check`` use."""
    match space:
        case SparseSeq():
            kind = MeetWithOne()
        case LexPlane():
            kind = MeetWithUnit(lexpair(0, 1))
        case IdentityLine():
            kind = IdentityTruncation()
        case FinitePointwise(dim=dim):
            kind = MeetWithUnit(fp_const(dim, 1))
        case _:
            raise TypeError(f"no cataloged truncation on {space!r}")
    return truncation(space, kind)


def catalog(fp_dim: int = 3) -> dict[str, UnitizationCtx]:
    """The four cataloged (space, truncation) pairs."""
    spaces = {
        "sparse_seq": SparseSeq(),
        "lex_plane": LexPlane(),
        "identity_line": IdentityLine(),
        "finite_pointwise": FinitePointwise(fp_dim),
    }
    return {name: UnitizationCtx(space, cataloged_truncation(space)) for name, space in spaces.items()}


def expected_violations(ctx: UnitizationCtx) -> frozenset[str]:
    """The properties this configuration lacks by a symbolic decision.

    ``tau3`` and the two Archimedean laws state properties a valid truncation
    may lack, not theorems.  A refutation of one of them is the point of the
    configuration, and ``check`` exits 0 on it, exactly when the law's own
    decider rules the property out.
    """
    decisions = {
        # with no samples, check_tau3 can only refute symbolically
        "tau3": check_tau3(ctx.trunc, []),
        "archimedean.space": archimedean_check(ctx.space),
        "archimedean.unitization": unitization_archimedean(ctx),
    }
    return frozenset(law_id for law_id, decision in decisions.items() if decision.holds is False)


# ---------------------------------------------------------------------------
# Archimedean deciders
# ---------------------------------------------------------------------------

def archimedean_check(space: Space) -> Decision:
    """Decide whether ``0 <= n*x <= y`` for all n forces ``x = 0`` in the bare order of ``space``."""
    if isinstance(space, LexPlane):
        return Decision(
            False,
            "the first coordinate dominates: n*(0,1) <= (1,0) for every n",
            (lexpair(0, 1), lexpair(1, 0)),
        )
    return Decision(True, "componentwise rational order")


def multiples_below(lat, x, y, bound: int = 64) -> bool:
    """Whether ``0 <= k*x <= y`` for ``k = 1..bound`` in the lattice ``lat``.

    ``lat`` provides ``is_positive`` and ``leq``: a ``TruncationSpec`` or a
    ``UnitizationCtx``.
    """
    for k in range(1, bound + 1):
        kx = k * x
        if not (lat.is_positive(kx) and lat.leq(kx, y)):
            return False
    return True


def unitization_archimedean(ctx: UnitizationCtx) -> Decision:
    """Symbolic decision for the unitization's Archimedean property, where known.

    Decided directly from the order structure (pointwise or lexicographic
    closed forms), independently of the equivalence it is later checked
    against.  Undecided (``holds`` None) when no closed form applies.
    """
    match ctx.trunc.kind:
        case MeetWithOne():
            return Decision(True, "pointwise order over the indices plus a point at infinity")
        case IdentityTruncation():
            return Decision(
                False,
                "every positive multiple of the axis stays below the unit",
                (ctx.embed(line(1)), ctx.one),
            )
        case MeetWithUnit(unit=u):
            if isinstance(ctx.space, LexPlane):
                return Decision(
                    False,
                    "the base is already non-Archimedean",
                    (ctx.embed(lexpair(0, 1)), ctx.embed(lexpair(1, 0))),
                )
            if isinstance(ctx.space, FinitePointwise) and all(v > 0 for v in u.payload):
                return Decision(True, "weighted pointwise order on finitely many points plus infinity")
            if isinstance(ctx.space, IdentityLine) and u.payload > 0:
                return Decision(True, "weighted pointwise order on one point plus infinity")
    return Decision(None)


# ---------------------------------------------------------------------------
# Supremum characterizations in the unitization
# ---------------------------------------------------------------------------

def _thm33_targeted(ctx: UnitizationCtx, x: UnitizedElement, z: UnitizedElement):
    """Base elements below ``x`` whose truncation is likely to escape ``z``."""
    if not isinstance(ctx.space, SparseSeq):
        return
    indices = sorted(set(support(x.e)) | set(support(z.e)))
    for k in indices:
        value = coeff(x.e, k) + x.lam
        if value > 0:
            yield sparse({k: value})
    if x.lam > 0:
        fresh = (indices[-1] if indices else 0) + 1
        yield sparse({fresh: x.lam})


def check_thm33_sup(
    ctx: UnitizationCtx,
    x: UnitizedElement,
    sample_ys: Sequence[Element],
    candidate_zs: Sequence[UnitizedElement],
    seed: int = 0,
) -> LawReport:
    """The truncation of ``x > 0`` is the supremum of truncations below it.

    Part one checks that ``tr(x)`` bounds every sampled ``tr(y)`` with
    ``0 <= y <= x`` from the base; part two takes candidates ``z < tr(x)`` and
    hunts for a ``y`` whose truncation escapes ``z``.  An exhausted hunt is
    inconclusive, never a pass.
    """
    if ctx.trunc.unital:
        raise PreconditionViolated("the supremum characterization needs a non-unital base")
    zero_u = ctx.zero
    if x == zero_u or not ctx.is_positive(x):
        raise PreconditionViolated("x must be positive and nonzero")
    xbar = truncate_u(ctx, x)
    valid_ys = [y for y in sample_ys if is_positive(y) and leq_u(ctx, ctx.embed(y), x)]
    for y in valid_ys:
        if not leq_u(ctx, ctx.embed(truncate(ctx.trunc, y)), xbar):
            witness = {"x": unitized_to_json(x), "y": element_to_json(y)}
            return LawReport.refuted("thm33.sup", len(valid_ys), seed, witness)

    relevant = [z for z in candidate_zs if lt_u(ctx, z, xbar)]
    unresolved = []
    witnessed = 0
    for z in relevant:
        pool = list(valid_ys) + list(_thm33_targeted(ctx, x, z))
        found = None
        for y in pool:
            if not is_positive(y) or not leq_u(ctx, ctx.embed(y), x):
                continue
            if not leq_u(ctx, ctx.embed(truncate(ctx.trunc, y)), z):
                found = y
                break
        if found is None:
            unresolved.append(unitized_to_json(z))
        else:
            witnessed += 1
    detail = f"bounded_ys={len(valid_ys)} candidates={len(relevant)} witnessed={witnessed}"
    if unresolved:
        return LawReport.inconclusive(
            "thm33.sup", len(valid_ys), seed, bound=len(relevant), detail=detail
        )
    return LawReport.passed("thm33.sup", len(valid_ys), seed, detail=detail)


def check_remark34(
    ctx: UnitizationCtx,
    x1: Element,
    mu: Rational,
    sample_ys: Sequence[Element],
    seed: int = 0,
) -> LawReport:
    """Unital analogue: for ``x = x1 + mu*(1 - u)``, the supremum is ``x ^ u``.

    Verifies the exact identity ``x ^ u = (x1 ^ u, 0)``, that every sampled
    base ``y`` with ``0 <= y <= x`` has ``tr(y) <= x ^ u``, and that ``y = x1``
    attains the bound.  With no sampled ``y`` in ``[0, x]`` the bound is
    untested and the verdict is ``inconclusive`` (``bound=0``).
    """
    if not ctx.trunc.unital:
        raise PreconditionViolated("the unital supremum form needs a unital base")
    u = ctx.trunc.unit
    mu = coerce_rational(mu)
    if mu < 0 or not is_positive(x1):
        raise PreconditionViolated("x1 and mu must be positive")
    x = UnitizedElement(x1 - scale(mu, u), mu)
    if not ctx.is_positive(x):
        raise PreconditionViolated("x1 + mu*(1-u) is not in the cone")
    sup_value = ctx.embed(meet(x1, u))
    if meet_u(ctx, x, ctx.embed(u)) != sup_value:
        witness = {
            "x1": element_to_json(x1),
            "mu": format_rational(mu),
            "meet": unitized_to_json(meet_u(ctx, x, ctx.embed(u))),
        }
        return LawReport.refuted("remark34.sup", len(sample_ys), seed, witness)
    checked = 0
    for y in sample_ys:
        if not is_positive(y) or not leq_u(ctx, ctx.embed(y), x):
            continue
        checked += 1
        if not leq_u(ctx, ctx.embed(truncate(ctx.trunc, y)), sup_value):
            witness = {"x1": element_to_json(x1), "y": element_to_json(y)}
            return LawReport.refuted("remark34.sup", checked, seed, witness)
    attained = (
        leq_u(ctx, ctx.embed(x1), x)
        and ctx.embed(truncate(ctx.trunc, x1)) == sup_value
    )
    if not attained:
        witness = {"x1": element_to_json(x1), "mu": format_rational(mu)}
        return LawReport.refuted(
            "remark34.sup", checked, seed, witness, detail="bound not attained by x1"
        )
    if not checked:
        # only the meet identity and the attainment were verified: no y tested the bound
        return LawReport.inconclusive(
            "remark34.sup", checked, seed, bound=0, detail="attained by x1"
        )
    return LawReport.passed("remark34.sup", checked, seed, detail="attained by x1")


# ---------------------------------------------------------------------------
# Uniform convergence machinery
# ---------------------------------------------------------------------------

def uniform_cauchy_prefix(
    ctx: UnitizationCtx,
    seq: Callable[[int], UnitizedElement],
    u: UnitizedElement,
    eps: Rational,
    lo: int,
    hi: int,
) -> bool:
    """Exact check of ``|seq(n) - seq(m)| <= eps * u`` for all ``lo <= n, m <= hi``.

    For a finite set ``S`` in a vector lattice, ``|x - y| <= b`` for all
    ``x, y`` in ``S`` exactly when ``sup S - inf S <= b``, so one fold of
    ``join_u`` and ``meet_u`` over the window and a single ``leq_u`` decide
    it: ``2*(W - 1) + 1`` order operations for a window of ``W`` indices.
    ``seq`` is called once per index, in order.
    """
    eps = Fraction(eps)
    if eps <= 0 or not ctx.is_positive(u) or lo > hi:
        raise PreconditionViolated("need eps > 0, u >= 0 and lo <= hi")
    values = [seq(n) for n in range(lo, hi + 1)]
    top = bottom = values[0]
    for x in values[1:]:
        top = join_u(ctx, top, x)
        bottom = meet_u(ctx, bottom, x)
    return leq_u(ctx, top - bottom, eps * u)


def harmonic_prefix(n: int) -> Element:
    """The eventually-zero sequence with value ``1/k`` at ``k = 1..n``."""
    return sparse({k: Fraction(1, k) for k in range(1, n + 1)})


def eps_start_index(eps: Rational) -> int:
    """Smallest index from which the harmonic tail sits below ``eps``."""
    return max(1, math.ceil(1 / Fraction(eps)))


def default_limit_candidates() -> tuple[UnitizedElement, ...]:
    """A 20-member family of would-be limits, covering scalar and base shapes."""

    def ue(e: Element, lam) -> UnitizedElement:
        return UnitizedElement(e, Fraction(lam))

    z = zero(SparseSeq())
    out = [
        ue(z, 1),
        ue(z, Fraction(1, 2)),
        ue(z, -1),
        ue(z, Fraction(1, 3)),
        ue(z, 2),
        ue(z, Fraction(-1, 2)),
        ue(z, Fraction(1, 100)),
        ue(harmonic_prefix(3), Fraction(1, 2)),
        ue(sparse({1: 1}), Fraction(-1, 3)),
        ue(sparse({2: 5}), Fraction(1, 4)),
        ue(z, 0),
        ue(harmonic_prefix(1), 0),
        ue(harmonic_prefix(2), 0),
        ue(harmonic_prefix(4), 0),
        ue(harmonic_prefix(5), 0),
        ue(sparse({1: 2}), 0),
        ue(sparse({3: -1}), 0),
        ue(sparse({2: Fraction(1, 2)}), 0),
        ue(sparse({5: Fraction(1, 5), 7: 1}), 0),
        ue(sparse({1: 1, 2: Fraction(1, 2), 6: Fraction(1, 6)}), 0),
    ]
    return tuple(out)


def repro_example43(
    ctx: UnitizationCtx,
    eps_list: Sequence[Rational],
    window: int,
    candidates: Sequence[UnitizedElement],
    seed: int = 0,
) -> LawReport:
    """The harmonic-prefix sequence is uniformly Cauchy but has no limit.

    (i) For each tolerance the sequence is 1-uniformly Cauchy on a window
    starting where the harmonic tail drops below it.  (ii) A candidate limit
    with nonzero scalar part forces the tolerance to dominate that scalar,
    which fails for a smaller tolerance.  (iii) A candidate from the base with
    support up to ``n0`` is off by exactly ``1/(n0+1)`` at the next index.
    All evaluations are exact.
    """
    if not isinstance(ctx.space, SparseSeq):
        raise PreconditionViolated("the harmonic-prefix reproduction lives on SparseSeq")
    eps_list = [Fraction(e) for e in eps_list]
    if any(e <= 0 for e in eps_list):
        raise PreconditionViolated("tolerances must be positive")
    law_id = "example43.not_ruc"
    one = ctx.one

    def seq(n: int) -> UnitizedElement:
        return ctx.embed(harmonic_prefix(n))

    cauchy_rows = []
    for eps in eps_list:
        lo = eps_start_index(eps)
        ok = uniform_cauchy_prefix(ctx, seq, one, eps, lo, lo + window)
        cauchy_rows.append({"eps": format_rational(eps), "from": lo, "window": window, "cauchy": ok})
        if not ok:
            return LawReport.refuted(law_id, len(candidates), seed, {"cauchy": cauchy_rows})

    # each candidate either returns a refuted report below or is ruled out as a limit
    for cand in candidates:
        if cand.lam != 0:
            lam_abs = abs(cand.lam)
            smaller = [e for e in eps_list if e < lam_abs]
            eps_r = min(smaller) if smaller else lam_abs / 2
            start = eps_start_index(eps_r)
            for n in range(start, start + 5):
                d = abs_u(ctx, seq(n) - cand)
                if d.lam != lam_abs or leq_u(ctx, d, eps_r * one):
                    witness = {"candidate": unitized_to_json(cand), "n": n}
                    return LawReport.refuted(law_id, len(candidates), seed, witness)
        else:
            n0 = max(support(cand.e), default=0)
            j = n0 + 1
            gap = Fraction(1, j)
            smaller = [e for e in eps_list if e < gap]
            eps_r = min(smaller) if smaller else Fraction(1, j + 1)
            for n in range(j, j + 5):
                d = abs_u(ctx, seq(n) - cand)
                if coeff(d.e, j) != gap or leq_u(ctx, d, eps_r * one):
                    witness = {"candidate": unitized_to_json(cand), "n": n, "index": j}
                    return LawReport.refuted(law_id, len(candidates), seed, witness)
    detail = f"cauchy_windows={len(cauchy_rows)} candidates_refuted={len(candidates)}"
    return LawReport.passed(law_id, len(candidates), seed, detail=detail)


# ---------------------------------------------------------------------------
# Certified completeness fixtures on the sequence space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedSeq:
    """A sequence of base elements with a per-coordinate stabilization certificate."""

    name: str
    fn: Callable[[int], Element] = field(compare=False)
    declared_support: tuple[int, ...]
    stable_from: Mapping[int, int]
    regulator: Element
    check_window: int = 8


def default_certified_fixtures() -> tuple[CertifiedSeq, ...]:
    def head(n: int) -> Element:
        return harmonic_prefix(min(n, 5))

    def constant(n: int) -> Element:
        return sparse({2: Fraction(3, 2)})

    def ramp(n: int) -> Element:
        return sparse({1: Fraction(min(n, 4), 4), 3: 2})

    return (
        CertifiedSeq(
            "harmonic-head",
            head,
            (1, 2, 3, 4, 5),
            {k: k for k in range(1, 6)},
            sparse({k: 1 for k in range(1, 6)}),
        ),
        CertifiedSeq("constant", constant, (2,), {2: 1}, sparse({2: 1})),
        CertifiedSeq("ramp", ramp, (1, 3), {1: 4, 3: 1}, sparse({1: 1, 3: 1})),
    )


def repro_c00_ruc(
    fixtures: Sequence[CertifiedSeq],
    eps_list: Sequence[Rational] = (Fraction(1, 10),),
    seed: int = 0,
) -> LawReport:
    """Extract certified coordinatewise limits and confirm convergence in the base.

    The certificate is re-checked against the sequence over a verification
    window; a lying certificate raises :class:`InvalidCertificate`.  The limit
    has finite support by construction and the tail converges regulator-
    uniformly (exactly) once every coordinate has stabilized.
    """
    law_id = "example43.ruc"
    for fx in fixtures:
        declared = set(fx.declared_support)
        last = max(fx.stable_from.values(), default=1) + fx.check_window
        for n in range(1, last + 1):
            e = fx.fn(n)
            if not set(support(e)) <= declared:
                raise InvalidCertificate(
                    f"{fx.name}: support escapes the declared set at step {n}"
                )
        values = {}
        for k in fx.declared_support:
            if k not in fx.stable_from:
                raise InvalidCertificate(f"{fx.name}: no stabilization index for coordinate {k}")
            start = fx.stable_from[k]
            ref = coeff(fx.fn(start), k)
            for n in range(start, last + 1):
                if coeff(fx.fn(n), k) != ref:
                    raise InvalidCertificate(
                        f"{fx.name}: coordinate {k} moves at step {n} after its certified index"
                    )
            values[k] = ref
        limit = sparse(values)
        tail_from = max(fx.stable_from.values(), default=1)
        for n in range(tail_from, last + 1):
            diff = abs(fx.fn(n) - limit)
            for eps in eps_list:
                if not leq(diff, scale(Fraction(eps), fx.regulator)):
                    return LawReport.refuted(
                        law_id,
                        len(fixtures),
                        seed,
                        {"fixture": fx.name, "n": n, "diff": element_to_json(diff)},
                    )
    return LawReport.passed(
        law_id, len(fixtures), seed, detail=f"limits={len(fixtures)}, all finite support"
    )


# ---------------------------------------------------------------------------
# Supremum transfer (finite sets)
# ---------------------------------------------------------------------------

def check_lemma54(
    ctx: UnitizationCtx,
    elements: Sequence[Element],
    upper_bounds: Sequence[UnitizedElement],
    seed: int = 0,
) -> LawReport:
    """A finite base supremum stays the supremum against unitized upper bounds."""
    items = list(elements)
    if not items:
        raise EmptySet("lemma54 needs a nonempty finite set")
    a0 = sup_finite(items)
    applicable = 0
    for z in upper_bounds:
        if all(leq_u(ctx, ctx.embed(a), z) for a in items):
            applicable += 1
            if not leq_u(ctx, ctx.embed(a0), z):
                witness = {
                    "set": [element_to_json(a) for a in items],
                    "sup": element_to_json(a0),
                    "bound": unitized_to_json(z),
                }
                return LawReport.refuted("lemma54.transfer", applicable, seed, witness)
    detail = f"applicable={applicable}"
    if not applicable:
        return LawReport.inconclusive(
            "lemma54.transfer", len(upper_bounds), seed, bound=0, detail=detail
        )
    return LawReport.passed("lemma54.transfer", len(upper_bounds), seed, detail=detail)


# ---------------------------------------------------------------------------
# Bands on finite pointwise spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Band:
    """A coordinate band of a finite pointwise space (1-based coordinate subset)."""

    coords: frozenset[int]


def band(space: FinitePointwise, coords: Iterable[int]) -> Band:
    cs = frozenset(coords)
    if not all(isinstance(c, int) and 1 <= c <= space.dim for c in cs):
        raise ValueError(f"band coordinates must lie in 1..{space.dim}")
    return Band(cs)


def _mask(space: FinitePointwise, coords: frozenset[int], x: Element) -> Element:
    return Element(
        space,
        tuple(v if (i + 1) in coords else Fraction(0) for i, v in enumerate(x.payload)),
    )


def band_component(space: FinitePointwise, b: Band, x: Element) -> Element:
    """The component of ``x >= 0`` in the band: the supremum of ``B+ ∩ [0, x]``."""
    if x.space != space:
        raise SpaceMismatch(f"{space!r} vs {x.space!r}")
    if not is_positive(x):
        raise NegativeInput("band components are defined for positive elements")
    return _mask(space, b.coords, x)


def band_component_join(space: FinitePointwise, b: Band, x: Element) -> Element:
    """Second route to the band component: the join of 0 and the atomic corners.

    An atomic corner is ``x`` masked to one coordinate of the band.  Every
    corner of ``B+ ∩ [0, x]`` is the join of the atomic corners it contains,
    so this fold of ``|B|`` joins equals the join over all ``2^|B|`` corners.
    """
    if x.space != space:
        raise SpaceMismatch(f"{space!r} vs {x.space!r}")
    if not is_positive(x):
        raise NegativeInput("band components are defined for positive elements")
    atoms = [_mask(space, frozenset((c,)), x) for c in b.coords]
    return sup_finite([zero(space)] + atoms)


@dataclass(frozen=True)
class UnitizedBand:
    """A band of the unitization of a unital base: base band plus the complement line."""

    base: Band
    include_complement: bool


def project_band_unitized(
    ctx: UnitizationCtx, b: UnitizedBand, x: UnitizedElement
) -> tuple[UnitizedElement, UnitizedElement]:
    """Split ``x`` into its component inside the band and the disjoint remainder.

    The base must be unital on a finite pointwise space: the unitization then
    splits as base plus the line through ``1 - u``, the element decomposes as
    ``(e + lam*u) + lam*(1 - u)``, and the band acts coordinatewise on the
    first summand and by the complement flag on the second.
    """
    if not ctx.trunc.unital or not isinstance(ctx.space, FinitePointwise):
        raise PreconditionViolated("band projection needs a unital finite pointwise base")
    u = ctx.trunc.unit
    base_part = x.e + scale(x.lam, u)
    in_band = ctx.embed(_mask(ctx.space, b.base.coords, base_part))
    if b.include_complement:
        in_band = in_band + UnitizedElement(scale(-x.lam, u), x.lam)
    return in_band, x - in_band


def in_unitized_band(ctx: UnitizationCtx, b: UnitizedBand, z: UnitizedElement) -> bool:
    """Structural membership: base component supported in the band's coordinates."""
    if not ctx.trunc.unital or not isinstance(ctx.space, FinitePointwise):
        raise PreconditionViolated("band membership needs a unital finite pointwise base")
    u = ctx.trunc.unit
    base_part = z.e + scale(z.lam, u)
    outside = [
        v for i, v in enumerate(base_part.payload) if (i + 1) not in b.base.coords
    ]
    return all(v == 0 for v in outside) and (b.include_complement or z.lam == 0)


def band_projection_holds(ctx: UnitizationCtx, b: UnitizedBand, x: UnitizedElement) -> bool:
    """The projection onto ``b`` and the remainder sum to ``x``, are disjoint, and
    lie in ``b`` and in its complementary band."""
    everything = set(range(1, ctx.space.dim + 1))
    complement = UnitizedBand(band(ctx.space, everything - b.base.coords), not b.include_complement)
    part, rest = project_band_unitized(ctx, b, x)
    return (
        part + rest == x
        and ctx.meet(ctx.abs(part), ctx.abs(rest)) == ctx.zero
        and in_unitized_band(ctx, b, part)
        and in_unitized_band(ctx, complement, rest)
    )


# ---------------------------------------------------------------------------
# Law registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    law_id: str
    run: Callable[[UnitizationCtx, SampleGen, int], LawReport]
    applies: Callable[[UnitizationCtx], bool] = lambda ctx: True
    divisor: int = 1
    dsl: tuple[str, ...] = ()


def _law_tau3(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    samples = [gen.positive() for _ in range(min(n, 50))]
    decision = check_tau3(ctx.trunc, samples, bound=100)
    return decision_report("tau3", ctx.trunc, decision, multiples_fixed, gen.seed, "multiples verified")


def decision_report(
    law_id: str, lat, decision: Decision, replays: Callable, seed: int, verified: str = "verified"
) -> LawReport:
    """The report of a decider's ``decision`` on the law ``law_id``.

    A symbolic refutation is replayed first: ``replays(lat, *decision.witness)``
    re-checks its witness, and ``verified`` names what that replay verified.
    A bounded decision reports its search bound as its trial count.
    """
    bound = decision.bound
    if decision.holds is None:
        detail = "bounded search found no violation" if bound else "no symbolic decision"
        return LawReport.inconclusive(law_id, bound, seed, bound=bound, detail=detail)
    if decision.holds:
        return LawReport.passed(law_id, 0, seed, detail=f"symbolic: {decision.reason}")
    witness = {name: lat.to_json(w) for name, w in zip(("x", "y"), decision.witness)}
    if bound:
        detail = f"fixed through n<={bound}"
    elif replays(lat, *decision.witness):
        detail = f"symbolic, {verified} to n=64: {decision.reason}"
    else:
        detail = "symbolic witness failed re-check"
    return LawReport.refuted(law_id, bound, seed, witness, detail=detail)


def _law_lemma23_self(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    return compare_fixed_sets(ctx.trunc, ctx.trunc, [gen.element() for _ in range(n)], gen.seed)


def _law_arch_space(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    decision = archimedean_check(ctx.space)
    return decision_report("archimedean.space", ctx.trunc, decision, multiples_below, gen.seed)


def _law_arch_unitization(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    decision = unitization_archimedean(ctx)
    return decision_report("archimedean.unitization", ctx, decision, multiples_below, gen.seed)


def _law_thm31(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    space_decision = archimedean_check(ctx.space)
    tau3 = check_tau3(ctx.trunc, [gen.positive() for _ in range(8)], bound=100)
    u_decision = unitization_archimedean(ctx)
    if u_decision.holds is None or tau3.bound:
        return LawReport.inconclusive(
            "thm31.equivalence", 0, gen.seed, bound=0, detail="no symbolic decision"
        )
    expected = space_decision.holds and tau3.holds
    if u_decision.holds == expected:
        return LawReport.passed(
            "thm31.equivalence",
            0,
            gen.seed,
            detail=f"unitization={u_decision.holds} base={space_decision.holds} tau3={tau3.holds}",
        )
    return LawReport.refuted(
        "thm31.equivalence",
        0,
        gen.seed,
        {
            "unitization_archimedean": u_decision.holds,
            "base_archimedean": space_decision.holds,
            "tau3": tau3.holds,
        },
    )


def _law_chain_decompose(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    for _ in range(n):
        u = gen.element()
        v = gen.element()
        cap = abs(u) + abs(v)
        chain = gen.increasing_chain(gen.randint(1, 4), cap)
        us, vs = decompose_chain(chain, u, v)
        ok = True
        for i, x in enumerate(chain):
            if us[i] + vs[i] != x:
                ok = False
            if not (is_positive(us[i]) and leq(us[i], abs(u))):
                ok = False
            if not (is_positive(vs[i]) and leq(vs[i], abs(v))):
                ok = False
            if i and not (leq(us[i - 1], us[i]) and leq(vs[i - 1], vs[i])):
                ok = False
        if not ok:
            witness = {
                "u": element_to_json(u),
                "v": element_to_json(v),
                "chain": [element_to_json(x) for x in chain],
            }
            return LawReport.refuted("chain.decompose", n, gen.seed, witness)
    return LawReport.passed("chain.decompose", n, gen.seed)


def _law_chain_sup(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    for _ in range(n):
        length = gen.randint(1, 5)
        xs = [gen.element()]
        ys = [gen.element()]
        for _ in range(length - 1):
            xs.append(xs[-1] + gen.positive())
            ys.append(ys[-1] + gen.positive())
        if not check_chain_sup_additivity(xs, ys):
            witness = {"x": [element_to_json(x) for x in xs], "y": [element_to_json(y) for y in ys]}
            return LawReport.refuted("chain.sup_additivity", n, gen.seed, witness)
    return LawReport.passed("chain.sup_additivity", n, gen.seed)


def _law_lemma54(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    for _ in range(n):
        items = [gen.element() for _ in range(gen.randint(1, 4))]
        a0 = sup_finite(items)
        bounds = [ctx.embed(a0)]
        bounds.append(ctx.embed(a0) + gen.positive_unitized(ctx))
        bounds.append(ctx.embed(a0) + gen.positive_unitized(ctx))
        bounds.append(gen.unitized())
        report = check_lemma54(ctx, items, bounds, gen.seed)
        if not report.ok:
            return replace(report, trials=n)
    return LawReport.passed("lemma54.transfer", n, gen.seed)


def _law_thm33(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    for i in range(n):
        if i == 0:
            x = ctx.one
        else:
            x = gen.positive_unitized(ctx)
            if x == ctx.zero:
                x = ctx.one
        ys = [meet_u(ctx, ctx.embed(gen.positive()), x).e for _ in range(3)]
        xbar = truncate_u(ctx, x)
        zs = []
        for _ in range(3):
            z = meet_u(ctx, gen.unitized(), xbar)
            if z != xbar:
                zs.append(z)
        report = check_thm33_sup(ctx, x, ys, zs, gen.seed)
        if report.verdict != "pass":
            return replace(report, trials=n)
    return LawReport.passed("thm33.sup", n, gen.seed)


def _law_remark34(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    u = ctx.trunc.unit
    for _ in range(n):
        x1 = gen.positive()
        mu = gen.rational(nonneg=True)
        x = UnitizedElement(x1 - scale(mu, u), mu)
        ys = [meet_u(ctx, ctx.embed(gen.positive()), x).e for _ in range(3)]
        report = check_remark34(ctx, x1, mu, ys, gen.seed)
        if not report.ok:
            return replace(report, trials=n)
    return LawReport.passed("remark34.sup", n, gen.seed)


def _law_thm11_fixedset(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    return check_thm11_fixedset(ctx, [gen.element() for _ in range(n)], gen.seed)


def _law_thm11_ideal(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    pairs = []
    for i in range(n):
        a = gen.element()
        if i % 2 == 0:
            clamped = join(meet(gen.element(), abs(a)), -abs(a))
            pairs.append((a, ctx.embed(clamped)))
        else:
            pairs.append((a, gen.unitized()))
    return check_ideal(ctx, pairs, gen.seed)


def _law_thm11_ortho(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    e_samples = [gen.positive() for _ in range(max(4, n))]
    candidates = []
    if not ctx.trunc.unital:
        candidates = [ctx.scalar(1)] + [gen.unitized() for _ in range(max(4, n))]
    return check_thm11_orthocomplement(ctx, e_samples, candidates, gen.seed)


def _law_thm11_density(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    z = zero(ctx.space)
    found = 0
    for _ in range(n):
        a = gen.positive_unitized(ctx)
        if a == ctx.zero:
            a = ctx.one
        candidates = []
        if a.lam == 0:
            candidates.append(a.e)
        elif isinstance(ctx.space, SparseSeq):
            fresh = max(support(a.e), default=0) + 1
            candidates.append(sparse({fresh: a.lam}))
        elif isinstance(ctx.space, IdentityLine):
            candidates.append(line(1))
        candidates.extend(meet(gen.positive(), abs(a.e)) for _ in range(2))
        witness = None
        for x in candidates:
            if x != z and is_positive(x) and leq_u(ctx, ctx.embed(x), a):
                witness = x
                break
        if witness is None:
            return LawReport.inconclusive(
                "thm11.density",
                found,
                gen.seed,
                bound=len(candidates),
                detail=f"no base element found below {unitized_to_json(a)}",
            )
        found += 1
    return LawReport.passed("thm11.density", found, gen.seed, detail="sampled witnesses only")


def _law_thm62(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    for _ in range(n):
        a = gen.positive_unitized_scalar(ctx)
        b = gen.positive_unitized_scalar(ctx)
        m = meet_u(ctx, a, b)
        if m == ctx.zero or m.lam != min(a.lam, b.lam):
            witness = {"a": unitized_to_json(a), "b": unitized_to_json(b)}
            return LawReport.refuted("thm62.disjoint_scalars", n, gen.seed, witness)
    return LawReport.passed("thm62.disjoint_scalars", n, gen.seed)


def _law_cone_sanity(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    for i in range(n):
        a = ctx.zero if i == 0 else gen.unitized()
        if ctx.is_positive(a) and ctx.is_positive(-a) and a != ctx.zero:
            return LawReport.refuted(
                "unitization.cone_sanity", n, gen.seed, {"a": unitized_to_json(a)}
            )
    return LawReport.passed("unitization.cone_sanity", n, gen.seed)


def _law_abs_lub(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    for _ in range(n):
        a = gen.unitized()
        b = abs_u(ctx, a)
        if not (ctx.is_positive(b) and leq_u(ctx, a, b) and leq_u(ctx, -a, b)):
            return LawReport.refuted(
                "unitization.abs_lub", n, gen.seed, {"a": unitized_to_json(a)}
            )
        bounds = [b + gen.positive_unitized(ctx)]
        candidate = gen.unitized()
        if leq_u(ctx, a, candidate) and leq_u(ctx, -a, candidate):
            bounds.append(candidate)
        for upper in bounds:
            if not leq_u(ctx, b, upper):
                witness = {"a": unitized_to_json(a), "z": unitized_to_json(upper)}
                return LawReport.refuted("unitization.abs_lub", n, gen.seed, witness)
    return LawReport.passed("unitization.abs_lub", n, gen.seed)


def _law_triangle(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    for _ in range(n):
        a = gen.unitized()
        b = gen.unitized()
        if not leq_u(ctx, abs_u(ctx, a + b), abs_u(ctx, a) + abs_u(ctx, b)):
            witness = {"a": unitized_to_json(a), "b": unitized_to_json(b)}
            return LawReport.refuted("unitization.triangle", n, gen.seed, witness)
    return LawReport.passed("unitization.triangle", n, gen.seed)


def _on_positives(check: Callable, unitized: bool = False, pairs: bool = True):
    """A law body that runs an axiom ``check`` on the positive cone of the base,
    or of the unitization if ``unitized``; each trial draws one positive
    element, or a pair of them drawn first then second."""

    def run(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
        lat = ctx if unitized else ctx.trunc
        draw = partial(gen.positive_unitized, lat) if unitized else gen.positive
        samples = [(draw(), draw()) if pairs else draw() for _ in range(n)]
        return check(lat, samples, gen.seed)

    return run


def _law_unitized_prop22(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    # the base row's pass detail is pinned, and this row has none: only the per-pair check is shared
    for _ in range(n):
        failure = prop22_failure(ctx, gen.positive_unitized(ctx), gen.positive_unitized(ctx))
        if failure is not None:
            item, data = failure
            return LawReport.refuted(
                "unitization.prop22", n, gen.seed, {"item": item, **data}, detail=f"item={item}"
            )
    return LawReport.passed("unitization.prop22", n, gen.seed)


def _law_band_component(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    space = ctx.space
    for _ in range(n):
        b = band(space, gen.index_subset(space.dim))
        x = gen.positive()
        # the two routes to the component of x >= 0 agree, and it lies in [0, x]
        got = band_component(space, b, x)
        if not (got == band_component_join(space, b, x) and is_positive(got) and leq(got, x)):
            witness = {"coords": sorted(b.coords), "x": element_to_json(x), "got": element_to_json(got)}
            return LawReport.refuted("band.component", n, gen.seed, witness)
    return LawReport.passed("band.component", n, gen.seed)


def _law_band_project(ctx: UnitizationCtx, gen: SampleGen, n: int) -> LawReport:
    space = ctx.space
    for _ in range(n):
        coords = gen.index_subset(space.dim)
        include = bool(gen.randint(0, 1))
        b = UnitizedBand(band(space, coords), include)
        x = gen.unitized()
        if not band_projection_holds(ctx, b, x):
            witness = {
                "coords": sorted(b.base.coords),
                "include_complement": include,
                "x": unitized_to_json(x),
            }
            return LawReport.refuted("band.project", n, gen.seed, witness)
    return LawReport.passed("band.project", n, gen.seed)


def _is_fp(ctx: UnitizationCtx) -> bool:
    return isinstance(ctx.space, FinitePointwise)


def _thm33_applies(ctx: UnitizationCtx) -> bool:
    return not ctx.trunc.unital and unitization_archimedean(ctx).holds is True


_DSL_TAU1 = ("(|a| /\\ tr(|b|)) <= tr(|a|)", "tr(|a|) <= |a|")
_DSL_PROP21 = ("(|a| /\\ tr(|b|)) == (tr(|a|) /\\ |b|)",)
_DSL_PROP22 = (
    "tr(|x|) <= |x|",
    "tr(tr(|x|)) == tr(|x|)",
    "|tr(|x|) - tr(|y|)| <= tr(||x| - |y||)",
)

REGISTRY: tuple[Law, ...] = (
    Law("archimedean.space", _law_arch_space),
    Law("archimedean.unitization", _law_arch_unitization),
    Law("band.component", _law_band_component, applies=_is_fp, divisor=2),
    Law("band.project", _law_band_project, applies=lambda c: _is_fp(c) and c.trunc.unital, divisor=2),
    Law("chain.decompose", _law_chain_decompose, divisor=5),
    Law("chain.sup_additivity", _law_chain_sup, divisor=5),
    Law("lemma23.self", _law_lemma23_self, divisor=10),
    Law("lemma54.transfer", _law_lemma54, divisor=10),
    Law("prop21", _on_positives(check_prop21), dsl=_DSL_PROP21),
    Law("prop22", _on_positives(check_prop22), dsl=_DSL_PROP22),
    Law("remark34.sup", _law_remark34, applies=lambda c: c.trunc.unital, divisor=20),
    Law("tau1", _on_positives(check_tau1), dsl=_DSL_TAU1),
    Law("tau2", _on_positives(check_tau2, pairs=False)),
    Law("tau3", _law_tau3),
    Law("thm11.density", _law_thm11_density, applies=lambda c: not c.trunc.unital, divisor=10),
    Law("thm11.fixedset", _law_thm11_fixedset),
    Law("thm11.ideal", _law_thm11_ideal, divisor=2),
    Law("thm11.orthocomplement", _law_thm11_ortho, divisor=10),
    Law("thm31.equivalence", _law_thm31),
    Law("thm33.sup", _law_thm33, applies=_thm33_applies, divisor=20),
    Law("thm62.disjoint_scalars", _law_thm62, divisor=2),
    Law("unitization.abs_lub", _law_abs_lub, divisor=5),
    Law("unitization.cone_sanity", _law_cone_sanity),
    Law("unitization.prop21", _on_positives(check_prop21, unitized=True), divisor=5),
    Law("unitization.prop22", _law_unitized_prop22, divisor=5),
    Law("unitization.tau1", _on_positives(check_tau1, unitized=True), divisor=5),
    Law("unitization.tau2", _on_positives(check_tau2, unitized=True, pairs=False), divisor=5),
    Law("unitization.triangle", _law_triangle, divisor=2),
)


def run_suite(
    space: Space,
    trunc: TruncationSpec,
    seed: int,
    trials: int,
) -> list[LawReport]:
    """Run every applicable registered law; reports come back sorted by law id."""
    if trials < 1:
        raise PreconditionViolated("trials must be >= 1")
    ctx = UnitizationCtx(space, trunc)
    reports = [_run_law(ctx, law, seed, trials) for law in REGISTRY if law.applies(ctx)]
    return sorted(reports, key=lambda r: r.law_id)


def run_law(ctx: UnitizationCtx, law_id: str, seed: int, trials: int) -> LawReport:
    """One registered law, with the sample stream and trial count ``run_suite`` gives it."""
    law = next(law for law in REGISTRY if law.law_id == law_id)
    return _run_law(ctx, law, seed, trials)


def _run_law(ctx: UnitizationCtx, law: Law, seed: int, trials: int) -> LawReport:
    gen = SampleGen(derive_seed(seed, law.law_id), ctx.space)
    report = law.run(ctx, gen, max(1, trials // law.divisor))
    if report.law_id != law.law_id:
        report = replace(report, law_id=law.law_id)
    return report
