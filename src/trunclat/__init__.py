"""Exact-arithmetic vector lattices with truncations and unitizations.

The package provides four concrete spaces (finite pointwise tuples, finitely
supported sequences, the lexicographic plane, and a single axis), a catalog of
truncations with their axiom checkers, the unitization construction with its
cone and absolute-value formulas, a deterministic seeded law engine, a small
expression language, and a batch CLI (``trunclat``).
"""

from .errors import (
    DescriptorError,
    DslError,
    EmptySet,
    EvalError,
    InvalidCertificate,
    NegativeInput,
    NegativeTruncArgument,
    OneOutsideUnitization,
    ParseError,
    PreconditionViolated,
    SpaceMismatch,
    TrunclatError,
    UnboundVariable,
)
from .rational import Rational, format_rational, parse_rational
from .spaces import (
    Element,
    FinitePointwise,
    IdentityLine,
    LexPlane,
    Space,
    SparseSeq,
    add,
    check_chain_sup_additivity,
    coeff,
    decompose_chain,
    element_from_json,
    element_to_json,
    fp,
    fp_const,
    join,
    leq,
    lexpair,
    line,
    meet,
    neg,
    pos,
    scale,
    space_from_json,
    space_to_json,
    sparse,
    sub,
    sup_finite,
    support,
    zero,
)
from .truncation import (
    Decision,
    FixtureTruncation,
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
    in_fixed_set,
    truncate,
    truncate_scaled,
    truncation,
    truncation_from_json,
    truncation_to_json,
)
from .report import LawReport, render_table, reports_to_jsonl
from .unitization import (
    UnitizationCtx,
    UnitizedElement,
    abs_u,
    check_ideal,
    check_thm11_fixedset,
    check_thm11_orthocomplement,
    in_fixed_u,
    is_positive,
    join_u,
    leq_u,
    lt_u,
    meet_u,
    neg_u,
    pos_u,
    truncate_u,
    unitize,
    unitized_from_json,
    unitized_to_json,
)
from .sampling import SampleGen
from .engine import (
    Band,
    CertifiedSeq,
    LawContext,  # an alias of UnitizationCtx, kept for perfbench/workloads.py
    UnitizedBand,
    archimedean_check,
    band,
    band_component,
    band_component_join,
    catalog,
    check_lemma54,
    check_remark34,
    check_thm33_sup,
    default_certified_fixtures,
    default_limit_candidates,
    derive_seed,
    eps_start_index,
    expected_violations,
    harmonic_prefix,
    in_unitized_band,
    project_band_unitized,
    repro_c00_ruc,
    repro_example43,
    run_suite,
    uniform_cauchy_prefix,
    unitization_archimedean,
)
from .dsl import (
    Assertion,
    check_assertion,
    evaluate,
    free_variables,
    load_assertion_text,
    parse,
    parse_assertion,
    random_term,
    render,
)

__version__ = "0.1.0"
