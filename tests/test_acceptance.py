"""Acceptance criteria, exercised at their stated scale.

Each test prints one ``ACCEPTANCE n (...): PASS/FAIL`` line (run pytest with
``-s`` to see them as they complete).  All comparisons are exact; the only
tolerance in this suite is the wall-clock budget of criterion 1.
"""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from trunclat import (
    SampleGen,
    UnitizedBand,
    UnitizedElement,
    abs_u,
    archimedean_check,
    band,
    band_component,
    band_component_join,
    catalog,
    check_assertion,
    check_chain_sup_additivity,
    check_ideal,
    check_lemma54,
    check_prop21,
    check_prop22,
    check_tau1,
    check_tau2,
    check_tau3,
    check_thm11_fixedset,
    check_thm11_orthocomplement,
    decompose_chain,
    default_limit_candidates,
    fp_const,
    in_unitized_band,
    is_positive,
    join,
    join_u,
    leq,
    leq_u,
    lexpair,
    meet,
    meet_u,
    parse,
    parse_assertion,
    project_band_unitized,
    random_term,
    render,
    repro_example43,
    scale,
    sparse,
    sup_finite,
    truncate,
    unitize,
    unitized_to_json,
    zero,
)
from trunclat.engine import REGISTRY
from trunclat.spaces import FinitePointwise

from oracles import band_component_oracle, o_abs, o_join, o_leq, o_meet, o_positive

CATALOG = catalog()
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_law_suite_four_pairs_under_ten_seconds():
    with criterion(1, "law suite, 4 pairs x 1000 trials"):
        started = time.perf_counter()
        for name, ctx in CATALOG.items():
            gen = SampleGen(42, ctx.space)
            pairs = [(gen.positive(), gen.positive()) for _ in range(1000)]
            singles = [gen.positive() for _ in range(1000)]
            assert check_tau1(ctx.trunc, pairs).verdict == "pass", name
            assert check_tau2(ctx.trunc, singles).verdict == "pass", name
            assert check_prop21(ctx.trunc, pairs).verdict == "pass", name
            assert check_prop22(ctx.trunc, pairs).verdict == "pass", name
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"law suite took {elapsed:.2f}s"


def test_criterion_2_counterexample_pack():
    with criterion(2, "counterexample pack"):
        # lex plane: tau3 holds symbolically while the space is non-Archimedean
        lex = CATALOG["lex_plane"]
        assert check_tau3(lex.trunc, []).holds is True
        decision = archimedean_check(lex.space)
        assert decision.holds is False and decision.bound == 0
        assert decision.witness == (lexpair(0, 1), lexpair(1, 0))
        for n in range(1, 65):
            nx = scale(n, decision.witness[0])
            assert leq(zero(lex.space), nx) and leq(nx, decision.witness[1])

        # identity line: tau3 fails symbolically
        ident = CATALOG["identity_line"]
        violation = check_tau3(ident.trunc, [])
        assert violation.holds is False and violation.bound == 0
        (w,) = violation.witness
        for n in range(1, 65):
            nx = scale(n, w)
            assert truncate(ident.trunc, nx) == nx

        # harmonic prefixes: 1-uniform Cauchy windows and 20 refuted limits
        ctx = unitize(CATALOG["sparse_seq"].trunc)
        family = default_limit_candidates()
        assert len(family) == 20
        report = repro_example43(
            ctx, [Fraction(1, 10), Fraction(1, 100)], window=50, candidates=family, seed=42
        )
        assert report.verdict == "pass"
        assert "cauchy_windows=2" in report.detail
        assert "candidates_refuted=20" in report.detail


def test_criterion_3_unitization_oracle_equivalence():
    with criterion(3, "pointwise oracle equivalence, 1000 samples"):
        ctx = unitize(CATALOG["sparse_seq"].trunc)
        gen = SampleGen(42, ctx.space)
        for _ in range(1000):
            a, b = gen.unitized(), gen.unitized()
            assert is_positive(ctx, a) == o_positive(a)
            assert abs_u(ctx, a) == o_abs(a)
            assert join_u(ctx, a, b) == o_join(a, b)
            assert meet_u(ctx, a, b) == o_meet(a, b)
            assert leq_u(ctx, a, b) == o_leq(a, b)
        gen = SampleGen(43, ctx.space)
        for _ in range(1000):
            a = gen.unitized()
            bound = abs_u(ctx, a)
            assert leq_u(ctx, a, bound) and leq_u(ctx, -a, bound)
            above = bound + gen.positive_unitized(ctx)
            assert leq_u(ctx, bound, above)
            candidate = gen.unitized()
            if leq_u(ctx, a, candidate) and leq_u(ctx, -a, candidate):
                assert leq_u(ctx, bound, candidate)


def test_criterion_4_unit_characterizations():
    with criterion(4, "fixed set, ideal, orthogonal complement"):
        sparse_ctx = unitize(CATALOG["sparse_seq"].trunc)
        gen = SampleGen(42, sparse_ctx.space)
        report = check_thm11_fixedset(sparse_ctx, [gen.element() for _ in range(1000)])
        assert report.verdict == "pass"

        pairs = []
        for i in range(1000):
            a = gen.element()
            if i % 2 == 0:
                clamped = join(meet(gen.element(), abs(a)), scale(-1, abs(a)))
                pairs.append((a, sparse_ctx.embed(clamped)))
            else:
                pairs.append((a, gen.unitized()))
        assert check_ideal(sparse_ctx, pairs).verdict == "pass"

        fp_ctx = unitize(CATALOG["finite_pointwise"].trunc)
        fp_gen = SampleGen(42, fp_ctx.space)
        e_samples = [fp_gen.element() for _ in range(200)]
        report = check_thm11_orthocomplement(fp_ctx, e_samples)
        w = UnitizedElement(scale(-1, fp_const(3, 1)), Fraction(1))
        assert report.verdict == "pass" and report.trials >= 200
        assert report.detail == f"span of 1-u, w={unitized_to_json(w)}"

        candidates = [sparse_ctx.scalar(1)]
        nz = check_thm11_orthocomplement(sparse_ctx, [sparse({1: 1})], candidates=candidates)
        assert (nz.verdict, nz.trials, nz.detail) == ("pass", 1, "separated=1")


def test_criterion_5_band_machinery():
    with criterion(5, "band component and unitized projection, 500 each"):
        rng = random.Random(42)
        for i in range(500):
            dim = rng.randint(1, 4)
            space = FinitePointwise(dim)
            gen = SampleGen(1000 + i, space)
            coords = gen.index_subset(dim)
            b = band(space, coords)
            x = gen.positive()
            got = band_component(space, b, x)
            want = band_component_oracle(space, b, x)
            assert got == want
            assert band_component_join(space, b, x) == want
            assert leq(zero(space), got) and leq(got, x)

        ctx = unitize(CATALOG["finite_pointwise"].trunc)
        space = ctx.space
        for i in range(500):
            gen = SampleGen(2000 + i, space)
            coords = set(gen.index_subset(space.dim))
            include = bool(gen.randint(0, 1))
            uband = UnitizedBand(band(space, coords), include)
            co_band = UnitizedBand(
                band(space, set(range(1, space.dim + 1)) - coords), not include
            )
            x = gen.unitized()
            part, rest = project_band_unitized(ctx, uband, x)
            assert part + rest == x
            assert meet_u(ctx, abs_u(ctx, part), abs_u(ctx, rest)) == ctx.zero
            assert in_unitized_band(ctx, uband, part)
            assert in_unitized_band(ctx, co_band, rest)


def test_criterion_6_chain_constructions():
    with criterion(6, "chain decomposition, additivity, supremum transfer"):
        for name, law_ctx in CATALOG.items():
            gen = SampleGen(42, law_ctx.space)
            z = zero(law_ctx.space)
            for _ in range(125):  # 4 spaces x 125 = 500 chains
                u, v = gen.element(), gen.element()
                cap = abs(u) + abs(v)
                chain = gen.increasing_chain(gen.randint(1, 4), cap)
                us, vs = decompose_chain(chain, u, v)
                for i, x in enumerate(chain):
                    assert us[i] + vs[i] == x
                    assert leq(z, us[i]) and leq(us[i], abs(u))
                    assert leq(z, vs[i]) and leq(vs[i], abs(v))
                    if i:
                        assert leq(us[i - 1], us[i]) and leq(vs[i - 1], vs[i])
            for _ in range(125):
                length = gen.randint(1, 5)
                xs = [gen.element()]
                ys = [gen.element()]
                for _ in range(length - 1):
                    xs.append(xs[-1] + gen.positive())
                    ys.append(ys[-1] + gen.positive())
                assert check_chain_sup_additivity(xs, ys)

        ctx = unitize(CATALOG["sparse_seq"].trunc)
        gen = SampleGen(42, ctx.space)
        for _ in range(100):
            items = [gen.element() for _ in range(gen.randint(1, 4))]
            a0 = sup_finite(items)
            bounds = []
            for k in range(100):
                if k % 2 == 0:
                    bounds.append(ctx.embed(a0) + gen.positive_unitized(ctx))
                else:
                    bounds.append(gen.unitized())
            report = check_lemma54(ctx, items, bounds)
            assert report.verdict == "pass"


def test_criterion_7_byte_identical_reports():
    with criterion(7, "determinism across interpreters"):
        outputs = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "trunclat.cli",
                    "check",
                    "--space",
                    "sparse_seq",
                    "--trunc",
                    "meet_with_one",
                    "--seed",
                    "42",
                    "--trials",
                    "200",
                    "--format",
                    "json",
                ],
                capture_output=True,
                env=env,
                cwd=REPO,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        for line in outputs[0].decode().strip().splitlines():
            json.loads(line)


def test_criterion_8_dsl_roundtrip_and_agreement():
    with criterion(8, "DSL round-trip and native agreement"):
        rng = random.Random(42)
        for _ in range(1000):
            term = random_term(rng, max_depth=5)
            assert parse(render(term)) == term

        laws_with_dsl = [law for law in REGISTRY if law.dsl]
        assert laws_with_dsl, "registry carries DSL-expressible laws"
        native = {
            "tau1": check_tau1,
            "prop21": check_prop21,
            "prop22": check_prop22,
        }
        for law_ctx in CATALOG.values():
            for law in laws_with_dsl:
                assertions = [parse_assertion(src) for src in law.dsl]
                for seed in range(100):
                    gen = SampleGen(seed, law_ctx.space)
                    raw = [(gen.element(), gen.element()) for _ in range(3)]
                    ok_native = (
                        native[law.law_id](
                            law_ctx.trunc, [(abs(a), abs(b)) for a, b in raw]
                        ).verdict
                        == "pass"
                    )
                    ok_dsl = all(
                        check_assertion(a_, {"a": x, "b": y, "x": x, "y": y}, law_ctx.trunc).holds
                        for a_ in assertions
                        for x, y in raw
                    )
                    assert ok_native == ok_dsl == True, (law.law_id, seed)
