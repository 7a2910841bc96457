import importlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trunclat import (
    EmptySet,
    IdentityLine,
    LexPlane,
    FinitePointwise,
    MeetWithUnit,
    NegativeInput,
    PreconditionViolated,
    SampleGen,
    SpaceMismatch,
    SparseSeq,
    UnitizedBand,
    UnitizedElement,
    abs_u,
    archimedean_check,
    band,
    band_component,
    band_component_join,
    catalog,
    check_lemma54,
    check_remark34,
    check_thm33_sup,
    coeff,
    default_limit_candidates,
    eps_start_index,
    expected_violations,
    fp,
    is_positive,
    LawReport,
    fp_const,
    harmonic_prefix,
    in_unitized_band,
    leq_u,
    lexpair,
    line,
    meet,
    meet_u,
    parse_rational,
    project_band_unitized,
    repro_example43,
    reports_to_jsonl,
    ruc_space,
    ruc_unitization,
    run_suite,
    sparse,
    truncate,
    truncate_u,
    truncation,
    uniform_cauchy_prefix,
    unitization_archimedean,
    unitize,
    unitized_from_json,
    zero,
)
from trunclat import engine
from trunclat.engine import decision_report, multiples_below, multiples_fixed
from trunclat.truncation import Decision, FixtureTruncation, check_tau3

from oracles import band_component_oracle, uniform_cauchy_pairwise

CATALOG = catalog()
SPARSE = unitize(CATALOG["sparse_seq"].trunc)
FPU = unitize(CATALOG["finite_pointwise"].trunc)


# -- Archimedean deciders ------------------------------------------------------

def test_archimedean_space_decisions():
    lex = archimedean_check(LexPlane())
    assert lex.holds is False and lex.bound == 0
    assert lex.witness == (lexpair(0, 1), lexpair(1, 0))
    for name in ("sparse_seq", "identity_line", "finite_pointwise"):
        decision = archimedean_check(CATALOG[name].space)
        assert decision.holds is True and decision.witness == (), name


def test_unitization_archimedean_decisions():
    expectations = {
        "sparse_seq": True,
        "finite_pointwise": True,
        "lex_plane": False,
        "identity_line": False,
    }
    for name, expect in expectations.items():
        decision = unitization_archimedean(CATALOG[name])
        assert decision.holds is expect and decision.bound == 0, name
        if not expect:
            a, b = decision.witness
            ctx = unitize(CATALOG[name].trunc)
            from trunclat import is_positive

            for n in range(1, 65):
                assert is_positive(ctx, n * a) and leq_u(ctx, n * a, b)


def test_unitization_archimedean_undecided_without_closed_form():
    space = FinitePointwise(2)
    ctx = unitize(truncation(space, MeetWithUnit(fp(1, 0))))
    assert unitization_archimedean(ctx) == Decision(None)
    # a unit with every coordinate positive has the closed form; a zero coordinate has none
    ctx = unitize(truncation(FinitePointwise(3), MeetWithUnit(fp(1, 2, 3))))
    assert unitization_archimedean(ctx) == Decision(
        True, "weighted pointwise order on finitely many points plus infinity"
    )
    ctx = unitize(truncation(IdentityLine(), MeetWithUnit(line(2))))
    assert unitization_archimedean(ctx) == Decision(True, "weighted pointwise order on one point plus infinity")
    ctx = unitize(truncation(IdentityLine(), MeetWithUnit(line(0))))
    assert unitization_archimedean(ctx) == Decision(None)


def test_orthocomplement_law_refutes_a_unit_the_map_does_not_meet_with():
    # the map meets with (1,1) but declares the unit (2,2): |1 - u| meets the base
    space = FinitePointwise(2)
    t = truncation(space, FixtureTruncation("meet11", lambda x: meet(x, fp(1, 1)), unit=fp(2, 2)))
    report = engine.run_law(engine.LawContext(space, t), "thm11.orthocomplement", 1, 40)
    assert (report.verdict, report.trials) == ("refuted", 0)
    assert report.witness == {"x": ["24/1", "5/19"], "c": "1/1"}
    json.dumps(report.to_json_dict())


# -- decision_report: one report path for every decider -----------------------

def test_decision_report_symbolic_pass():
    trunc = CATALOG["sparse_seq"].trunc
    report = decision_report("tau3", trunc, check_tau3(trunc, []), multiples_fixed, 7)
    assert (report.verdict, report.trials, report.witness) == ("pass", 0, None)
    assert report.detail == "symbolic: n*x <= 1 componentwise for every n forces each coordinate to 0"


def test_decision_report_replays_a_symbolic_refutation():
    lex = CATALOG["lex_plane"]
    report = decision_report("archimedean.space", lex.trunc, archimedean_check(lex.space), multiples_below, 7)
    assert (report.verdict, report.trials) == ("refuted", 0)
    assert report.witness == {"x": ["0/1", "1/1"], "y": ["1/1", "0/1"]}
    assert report.detail == (
        "symbolic, verified to n=64: the first coordinate dominates: n*(0,1) <= (1,0) for every n"
    )
    ident = CATALOG["identity_line"].trunc
    decision = check_tau3(ident, [])
    report = decision_report("tau3", ident, decision, multiples_fixed, 7, "multiples verified to n=64")
    assert report.detail == f"symbolic, multiples verified to n=64: {decision.reason}"


def test_decision_report_flags_a_witness_that_does_not_replay():
    trunc = CATALOG["sparse_seq"].trunc
    # 2*x <= x fails for x = e1, so the claimed refutation does not replay and refutes nothing
    claimed = Decision(False, "claimed", (sparse({1: 1}), sparse({1: 1})))
    report = decision_report("archimedean.space", trunc, claimed, multiples_below, 7)
    assert (report.verdict, report.trials, report.bound, report.witness) == ("inconclusive", 0, 0, None)
    assert report.detail == "symbolic witness failed re-check"


def test_decision_report_bounded_refutation():
    space = SparseSeq()
    noop = truncation(space, FixtureTruncation("noop", lambda x: x))
    decision = check_tau3(noop, [sparse({1: 1})], bound=100)
    report = decision_report("tau3", noop, decision, multiples_fixed, 7)
    assert (report.verdict, report.trials, report.bound) == ("refuted", 100, None)
    assert report.witness == {"x": {"1": "1/1"}}
    assert report.detail == "fixed through n<=100"


def test_decision_report_undecided():
    trunc = CATALOG["sparse_seq"].trunc
    bounded = decision_report("tau3", trunc, Decision(None, bound=50), multiples_fixed, 7)
    assert (bounded.verdict, bounded.trials, bounded.bound) == ("inconclusive", 50, 50)
    assert bounded.detail == "bounded search found no violation"
    symbolic = decision_report("archimedean.unitization", trunc, Decision(None), multiples_below, 7)
    assert (symbolic.verdict, symbolic.trials, symbolic.bound) == ("inconclusive", 0, 0)
    assert symbolic.detail == "no symbolic decision"


# -- run_suite ----------------------------------------------------------------

def test_run_suite_catalog_outcomes():
    for name, ctx in CATALOG.items():
        reports = run_suite(ctx.space, ctx.trunc, seed=5, trials=40)
        expected = expected_violations(ctx)
        for report in reports:
            if report.law_id in expected:
                assert report.verdict == "refuted", (name, report.law_id)
                assert report.witness is not None
            else:
                assert report.verdict == "pass", (name, report.law_id, report.witness)


def test_run_suite_deterministic():
    ctx = CATALOG["sparse_seq"]
    first = run_suite(ctx.space, ctx.trunc, seed=7, trials=30)
    second = run_suite(ctx.space, ctx.trunc, seed=7, trials=30)
    assert first == second
    assert reports_to_jsonl(first) == reports_to_jsonl(second)
    assert [r.law_id for r in first] == sorted(r.law_id for r in first)
    third = run_suite(ctx.space, ctx.trunc, seed=8, trials=30)
    assert reports_to_jsonl(first) != reports_to_jsonl(third)


def test_run_suite_checks_the_context_before_any_law_runs(monkeypatch):
    calls = []

    def probe(ctx, gen, n):
        calls.append(ctx)
        return LawReport.passed("probe", n, gen.seed)

    monkeypatch.setattr(engine, "REGISTRY", (engine.Law("probe", probe),))
    with pytest.raises(SpaceMismatch):
        run_suite(SparseSeq(), CATALOG["finite_pointwise"].trunc, 1, 10)
    assert calls == []


def test_expected_violation_registry():
    assert expected_violations(CATALOG["lex_plane"]) == frozenset(
        {"archimedean.space", "archimedean.unitization"}
    )
    assert expected_violations(CATALOG["identity_line"]) == frozenset(
        {"tau3", "archimedean.unitization"}
    )
    assert expected_violations(CATALOG["sparse_seq"]) == frozenset({"ruc.unitization"})


# The hand-written (space, kind) table that expected_violations replaced, plus the RUC row of c00's unitization.
OLD_EXPECTED_TABLE = {
    "sparse_seq": frozenset({"ruc.unitization"}),
    "lex_plane": frozenset({"archimedean.space", "archimedean.unitization"}),
    "identity_line": frozenset({"tau3", "archimedean.unitization"}),
    "finite_pointwise": frozenset(),
}


def test_expected_violations_are_derived_from_the_deciders():
    for name, ctx in CATALOG.items():
        assert expected_violations(ctx) == OLD_EXPECTED_TABLE[name], name
    lex = LexPlane()
    on_first_axis = unitize(truncation(lex, MeetWithUnit(lexpair(1, 0))))
    assert expected_violations(on_first_axis) == frozenset(
        {"tau3", "archimedean.space", "archimedean.unitization"}
    )
    on_second_axis = unitize(truncation(lex, MeetWithUnit(lexpair(0, 1))))
    assert "tau3" not in expected_violations(on_second_axis)


def _refutes(t, samples, seed=0):
    return LawReport.refuted("patched", len(samples), seed, {})


def _breaks_an_item(t, x, y):
    return "bound", {}


@pytest.mark.parametrize(
    "law_id, shared, replacement",
    [
        ("tau1", "check_tau1", _refutes),
        ("tau2", "check_tau2", _refutes),
        ("prop21", "check_prop21", _refutes),
        ("prop22", "prop22_failure", _breaks_an_item),
    ],
)
def test_each_axiom_is_stated_once(law_id, shared, replacement, monkeypatch):
    # patching the function object reaches every caller that holds it, however it was imported
    check = getattr(importlib.import_module("trunclat.truncation"), shared)
    monkeypatch.setattr(check, "__code__", replacement.__code__)
    ctx = CATALOG["sparse_seq"]
    verdicts = {r.law_id: r.verdict for r in run_suite(ctx.space, ctx.trunc, seed=3, trials=10)}
    assert verdicts[law_id] == "refuted"
    assert verdicts["unitization." + law_id] == "refuted"


# -- uniform convergence -------------------------------------------------------

def test_eps_start_index():
    assert eps_start_index(Fraction(1, 10)) == 10
    assert eps_start_index(Fraction(1, 100)) == 100
    assert eps_start_index(1) == 1
    assert eps_start_index(Fraction(2, 3)) == 2


@pytest.mark.parametrize("n", [0, 1, 2, 5, 250])
def test_harmonic_prefix_is_the_sparse_sequence_of_reciprocals(n):
    # built from its reduced pairs, it is the element sparse() builds from the Fractions
    assert harmonic_prefix(n) == sparse({k: Fraction(1, k) for k in range(1, n + 1)})


def test_uniform_cauchy_prefix_examples():
    def seq(n):
        return SPARSE.embed(harmonic_prefix(n))

    assert uniform_cauchy_prefix(SPARSE, seq, SPARSE.one, Fraction(1, 10), 10, 60)

    def constant(n):
        return SPARSE.embed(sparse({1: 5}))

    assert uniform_cauchy_prefix(SPARSE, constant, SPARSE.one, Fraction(1, 1000), 1, 20)

    def runaway(n):
        return SPARSE.embed(sparse({1: n}))

    assert not uniform_cauchy_prefix(SPARSE, runaway, SPARSE.one, Fraction(1), 1, 3)
    with pytest.raises(PreconditionViolated):
        uniform_cauchy_prefix(SPARSE, constant, SPARSE.one, Fraction(0), 1, 2)


def test_uniform_cauchy_prefix_evaluates_each_index_once():
    calls = []

    def seq(n):
        calls.append(n)
        return SPARSE.embed(harmonic_prefix(n))

    assert uniform_cauchy_prefix(SPARSE, seq, SPARSE.one, Fraction(1, 10), 10, 30)
    assert calls == list(range(10, 31))


def _count_order_ops(monkeypatch):
    calls = {"join_u": 0, "meet_u": 0, "leq_u": 0}
    for name in calls:
        original = getattr(engine, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(engine, name, counted)
    return calls


def test_uniform_cauchy_prefix_is_linear_in_the_window(monkeypatch):
    calls = _count_order_ops(monkeypatch)

    def seq(n):
        return SPARSE.embed(harmonic_prefix(n))

    for lo, hi in ((10, 10), (10, 11), (10, 30), (1, 60)):
        for name in calls:
            calls[name] = 0
        window = hi - lo + 1
        assert uniform_cauchy_prefix(SPARSE, seq, SPARSE.one, Fraction(1, 10), lo, hi) == (lo >= 10)
        assert calls["join_u"] <= window - 1 and calls["meet_u"] <= window - 1, (lo, hi, calls)
        assert calls["leq_u"] == 1, (lo, hi, calls)


def test_uniform_cauchy_prefix_stops_at_the_planted_pair(monkeypatch):
    # seq(n) = e_n, except seq(5) = e_5 - e_3: only |seq(3) - seq(5)| = 2e_3 + e_5
    # exceeds 1.  The fold decides either window with one comparison of sup - inf;
    # the pairwise oracle names the planted pair.
    def seq(n):
        return SPARSE.embed(sparse({n: 1, 3: -1} if n == 5 else {n: 1}))

    calls = _count_order_ops(monkeypatch)
    assert uniform_cauchy_prefix(SPARSE, seq, SPARSE.one, Fraction(1), 1, 4)
    assert calls["leq_u"] == 1
    calls["leq_u"] = 0
    assert not uniform_cauchy_prefix(SPARSE, seq, SPARSE.one, Fraction(1), 1, 5)
    assert calls["leq_u"] == 1
    assert uniform_cauchy_pairwise(SPARSE, seq, SPARSE.one, Fraction(1), 1, 4) is None
    assert uniform_cauchy_pairwise(SPARSE, seq, SPARSE.one, Fraction(1), 1, 5) == (3, 5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(CATALOG)),
    seed=st.integers(0, 2**32),
    length=st.integers(1, 8),
    spread=st.sampled_from((Fraction(0), Fraction(1, 1000), Fraction(1, 10), Fraction(1))),
    eps=st.fractions(min_value=Fraction(1, 20), max_value=4, max_denominator=20),
)
def test_uniform_cauchy_prefix_matches_pairwise_oracle(name, seed, length, spread, eps):
    # Windows of unitized values with nonzero scalar parts in no particular order:
    # a center plus perturbations scaled by `spread`, so both verdicts occur.
    ctx = CATALOG[name]
    gen = SampleGen(seed, ctx.space)
    center = gen.unitized()
    values = [center + spread * gen.unitized() for _ in range(length)]
    u = gen.positive_unitized(ctx)

    def seq(n):
        return values[n - 1]

    got = uniform_cauchy_prefix(ctx, seq, u, eps, 1, length)
    assert got == (uniform_cauchy_pairwise(ctx, seq, u, eps, 1, length) is None)


def test_uniform_cauchy_prefix_preconditions():
    def seq(n):
        return SPARSE.embed(harmonic_prefix(n))

    one = SPARSE.one
    for eps in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(PreconditionViolated):
            uniform_cauchy_prefix(SPARSE, seq, one, eps, 1, 2)
    with pytest.raises(PreconditionViolated):
        uniform_cauchy_prefix(SPARSE, seq, one, Fraction(1), 3, 2)
    with pytest.raises(PreconditionViolated):
        uniform_cauchy_prefix(SPARSE, seq, -one, Fraction(1), 1, 2)
    with pytest.raises(PreconditionViolated):
        uniform_cauchy_prefix(SPARSE, seq, SPARSE.embed(sparse({1: -1})), Fraction(1), 1, 2)


def test_repro_example43_passes():
    report = repro_example43(
        SPARSE,
        [Fraction(1, 10), Fraction(1, 100)],
        window=20,
        candidates=default_limit_candidates(),
        seed=1,
    )
    assert report.verdict == "pass"
    assert "candidates_refuted=20" in report.detail


def test_example43_scalar_candidate_contradiction():
    # candidate ({}, 1/2) with tolerance 1/4: the gap at infinity is exactly 1/2
    cand = UnitizedElement(sparse(), Fraction(1, 2))
    eps = Fraction(1, 4)
    for n in range(4, 10):
        d = abs_u(SPARSE, SPARSE.embed(harmonic_prefix(n)) - cand)
        assert d.lam == Fraction(1, 2)
        assert not leq_u(SPARSE, d, eps * SPARSE.one)


def test_example43_base_candidate_contradiction():
    # support up to 1, tolerance 1/3: index 2 is off by exactly 1/2 > 1/3
    cand = UnitizedElement(sparse({1: 1}), Fraction(0))
    d = abs_u(SPARSE, SPARSE.embed(harmonic_prefix(2)) - cand)
    assert coeff(d.e, 2) == Fraction(1, 2)
    assert not leq_u(SPARSE, d, Fraction(1, 3) * SPARSE.one)


def test_default_family_has_twenty_members():
    family = default_limit_candidates()
    assert len(family) == 20
    assert len(set(family)) == 20


# -- relative uniform completeness ----------------------------------------------

def test_ruc_space_holds_on_real_c00_only():
    decision = ruc_space(SparseSeq())
    assert decision.holds is True and decision.bound == 0
    assert "not c00 over Q" in decision.reason
    for space in (FinitePointwise(3), LexPlane(), IdentityLine()):
        assert ruc_space(space).holds is None, space
    row = engine.run_law(SPARSE, "ruc.space", 2, 10)
    assert (row.verdict, row.trials, row.detail) == ("pass", 0, f"symbolic: {decision.reason}")


def test_ruc_unitization_is_decided_for_meet_with_one_only():
    assert ruc_unitization(SPARSE).holds is False
    assert "ruc.unitization" in expected_violations(SPARSE)
    unit = unitize(truncation(SparseSeq(), MeetWithUnit(sparse({1: 1, 4: 2}))))
    for ctx in (unit, *(unitize(CATALOG[name].trunc) for name in ("lex_plane", "identity_line", "finite_pointwise"))):
        assert ruc_unitization(ctx).holds is None
        assert "ruc.unitization" not in expected_violations(ctx)
        assert "ruc.unitization" not in {r.law_id for r in run_suite(ctx.space, ctx.trunc, 2, 10)}


def test_ruc_unitization_witness_replays_from_its_report():
    row = engine.run_law(SPARSE, "ruc.unitization", 2, 10)
    assert (row.verdict, row.trials) == ("refuted", 0)
    assert row.detail.startswith("symbolic, witness replayed: ")
    witness = json.loads(reports_to_jsonl([row]))["witness"]
    assert sorted(witness) == ["base_candidate", "eps", "scalar_candidate", "window"]
    assert witness["window"] <= 8
    scalar, base = (unitized_from_json(SPARSE.space, witness[k]) for k in ("scalar_candidate", "base_candidate"))
    assert scalar.lam != 0 and base.lam == 0 and base.e != zero(SPARSE.space)
    replay = repro_example43(SPARSE, [parse_rational(witness["eps"])], witness["window"], (scalar, base))
    assert replay.verdict == "pass"
    assert replay.detail == "cauchy_windows=1 candidates_refuted=2"


# -- supremum transfer ----------------------------------------------------------

def test_lemma54_examples():
    items = [sparse({1: 1}), sparse({2: 1})]
    a0 = sparse({1: 1, 2: 1})
    report = check_lemma54(SPARSE, items, [SPARSE.one, SPARSE.embed(a0)])
    assert report.verdict == "pass"
    assert leq_u(SPARSE, SPARSE.embed(a0), SPARSE.one)
    single = check_lemma54(SPARSE, [sparse({1: 1})], [SPARSE.one])
    assert single.verdict == "pass"
    with pytest.raises(EmptySet):
        check_lemma54(SPARSE, [], [SPARSE.one])


def test_lemma54_without_an_applicable_bound_is_inconclusive():
    # 0 is not an upper bound of {e_1}, so no bound exercises the claim
    report = check_lemma54(SPARSE, [sparse({1: 1})], [SPARSE.zero])
    assert report.verdict == "inconclusive"
    assert report.bound == 0 and report.detail == "applicable=0"


# -- supremum characterizations --------------------------------------------------

def test_thm33_at_the_unit():
    y = sparse({1: 1})
    z = SPARSE.scalar(Fraction(1, 2))
    assert not leq_u(SPARSE, SPARSE.embed(truncate(SPARSE.trunc, y)), z)
    report = check_thm33_sup(SPARSE, SPARSE.one, [y, sparse({2: Fraction(1, 3)})], [z])
    assert report.verdict == "pass"


def test_thm33_attains_bound_in_base():
    x = SPARSE.embed(sparse({1: 3}))
    xbar = truncate_u(SPARSE, x)
    assert xbar == SPARSE.embed(sparse({1: 1}))
    report = check_thm33_sup(SPARSE, x, [sparse({1: 3})], [SPARSE.embed(sparse({1: Fraction(1, 2)}))])
    assert report.verdict == "pass"


def test_thm33_never_refutes_on_cataloged_nonunital_pairs():
    # on the identity-truncated axis the search cannot close (the candidate
    # bounds have no base witnesses), so the verdict degrades to inconclusive,
    # never to a refutation
    line_ctx = unitize(CATALOG["identity_line"].trunc)
    for seed in range(30):
        gen = SampleGen(seed, line_ctx.space)
        x = gen.positive_unitized(line_ctx)
        if x == line_ctx.zero:
            x = line_ctx.one
        ys = [meet_u(line_ctx, line_ctx.embed(gen.positive()), x).e for _ in range(5)]
        xbar = truncate_u(line_ctx, x)
        zs = [z for z in (meet_u(line_ctx, gen.unitized(), xbar),) if z != xbar]
        report = check_thm33_sup(line_ctx, x, ys, zs, seed)
        assert report.verdict in ("pass", "inconclusive")
    # and for the sequence space the targeted witnesses always close the search
    for seed in range(30):
        gen = SampleGen(seed, SPARSE.space)
        x = gen.positive_unitized(SPARSE)
        if x == SPARSE.zero:
            x = SPARSE.one
        ys = [meet_u(SPARSE, SPARSE.embed(gen.positive()), x).e for _ in range(5)]
        xbar = truncate_u(SPARSE, x)
        zs = [z for z in (meet_u(SPARSE, gen.unitized(), xbar),) if z != xbar]
        assert check_thm33_sup(SPARSE, x, ys, zs, seed).verdict == "pass"


def test_thm33_rejects_unital_base():
    with pytest.raises(PreconditionViolated):
        check_thm33_sup(FPU, FPU.one, [], [])
    with pytest.raises(PreconditionViolated):
        check_thm33_sup(SPARSE, SPARSE.zero, [], [])


def test_remark34_examples():
    # x1 = (2,0), mu = 0: the meet with the unit is ((1,0), 0), attained by x1
    space = FinitePointwise(2)
    from trunclat import MeetWithUnit, truncation

    ctx = unitize(truncation(space, MeetWithUnit(fp_const(2, 1))))
    report = check_remark34(ctx, fp(2, 0), Fraction(0), [fp(2, 0), fp(0, 0)])
    assert report.verdict == "pass"
    x = UnitizedElement(fp(2, 0), Fraction(0))
    assert meet_u(ctx, x, ctx.embed(fp_const(2, 1))) == ctx.embed(fp(1, 0))

    # x1 = 0, mu = 1: x = 1 - u and x ^ u = 0 since u ^ (1-u) = 0
    report = check_remark34(ctx, fp(0, 0), Fraction(1), [fp(0, 0)])
    assert report.verdict == "pass"
    w = UnitizedElement(fp(-1, -1), Fraction(1))
    assert meet_u(ctx, w, ctx.embed(fp_const(2, 1))) == ctx.zero

    # x1 = u, mu = 0: attained trivially
    report = check_remark34(ctx, fp_const(2, 1), Fraction(0), [fp_const(2, 1)])
    assert report.verdict == "pass"

    with pytest.raises(PreconditionViolated):
        check_remark34(SPARSE, sparse(), Fraction(1), [])


def test_remark34_with_no_sample_in_range_is_inconclusive():
    ctx = unitize(truncation(FinitePointwise(2), MeetWithUnit(fp_const(2, 1))))
    # x = x1 = (2, 0): the meet identity holds and x1 attains the bound, but no y was checked
    for ys in ([], [fp(3, 0), fp(-1, 0)]):
        report = check_remark34(ctx, fp(2, 0), Fraction(0), ys)
        assert report.verdict == "inconclusive"
        assert report.bound == 0
        assert report.trials == 0
    assert check_remark34(ctx, fp(2, 0), Fraction(0), [fp(1, 0)]).verdict == "pass"


# -- bands -----------------------------------------------------------------------

def test_band_component_examples():
    space = FinitePointwise(3)
    assert band_component(space, band(space, {1}), fp(3, 2, 1)) == fp(3, 0, 0)
    assert band_component(space, band(space, ()), fp(3, 2, 1)) == zero(space)
    assert band_component(space, band(space, {1, 2, 3}), fp(3, 2, 1)) == fp(3, 2, 1)
    with pytest.raises(NegativeInput):
        band_component(space, band(space, {1}), fp(-1, 0, 0))
    with pytest.raises(ValueError):
        band(space, {0, 1})


def test_band_component_matches_oracle():
    for dim in (1, 2, 3, 4):
        space = FinitePointwise(dim)
        gen = SampleGen(dim, space)
        for _ in range(100):
            coords = gen.index_subset(dim)
            b = band(space, coords)
            x = gen.positive()
            want = band_component_oracle(space, b, x)
            assert band_component(space, b, x) == want
            assert band_component_join(space, b, x) == want


def test_band_component_join_is_linear(monkeypatch):
    # the fold builds one corner per band coordinate; a 2^|B| fold would trip the counter
    space = FinitePointwise(40)
    b = band(space, range(1, 41))
    x = SampleGen(40, space).positive()
    want = band_component(space, b, x)
    calls = 0
    real_mask = engine._mask

    def counting_mask(*args):
        nonlocal calls
        calls += 1
        if calls > space.dim + 1:
            raise AssertionError("band_component_join built more than dim + 1 corners")
        return real_mask(*args)

    monkeypatch.setattr(engine, "_mask", counting_mask)
    assert band_component_join(space, b, x) == want
    with pytest.raises(NegativeInput):
        band_component_join(space, b, fp_const(40, -1))


def test_positivity_checks_reject_an_element_of_another_space():
    space = FinitePointwise(3)
    with pytest.raises(SpaceMismatch):
        band_component(space, band(space, {1}), fp(1, 2))
    with pytest.raises(SpaceMismatch):
        band_component_join(space, band(space, {1}), fp(1, 2))
    with pytest.raises(SpaceMismatch):
        is_positive(SPARSE, UnitizedElement(lexpair(1, 0), Fraction(0)))


def test_project_band_unitized_example():
    # base part (3,2) + 1*(1,1) = (4,3); band {1} without the complement line
    space = FinitePointwise(2)
    from trunclat import MeetWithUnit, truncation

    ctx = unitize(truncation(space, MeetWithUnit(fp_const(2, 1))))
    x = UnitizedElement(fp(3, 2), Fraction(1))
    b = UnitizedBand(band(space, {1}), False)
    part, rest = project_band_unitized(ctx, b, x)
    assert part == ctx.embed(fp(4, 0))
    assert part + rest == x
    assert meet_u(ctx, abs_u(ctx, part), abs_u(ctx, rest)) == ctx.zero

    everything = UnitizedBand(band(space, {1, 2}), True)
    part, rest = project_band_unitized(ctx, everything, x)
    assert part == x and rest == ctx.zero

    nothing = UnitizedBand(band(space, ()), False)
    part, rest = project_band_unitized(ctx, nothing, x)
    assert part == ctx.zero and rest == x

    with pytest.raises(PreconditionViolated):
        project_band_unitized(SPARSE, b, SPARSE.one)


def test_project_band_membership():
    ctx = FPU
    space = ctx.space
    gen = SampleGen(55, space)
    for _ in range(200):
        coords = set(gen.index_subset(space.dim))
        include = bool(gen.randint(0, 1))
        b = UnitizedBand(band(space, coords), include)
        co = UnitizedBand(band(space, set(range(1, space.dim + 1)) - coords), not include)
        x = gen.unitized()
        part, rest = project_band_unitized(ctx, b, x)
        assert part + rest == x
        assert meet_u(ctx, abs_u(ctx, part), abs_u(ctx, rest)) == ctx.zero
        assert in_unitized_band(ctx, b, part)
        assert in_unitized_band(ctx, co, rest)
