import random

import pytest
from oracles import ref_draw, ref_positive, ref_positive_unitized, ref_rational

from trunclat import (
    FinitePointwise,
    IdentityLine,
    LexPlane,
    SampleGen,
    SparseSeq,
    catalog,
    is_positive,
    leq,
    support,
    unitize,
    zero,
)
from trunclat.sampling import MAX_INDEX, MAX_MAGNITUDE, MAX_SUPPORT

SPACES = [ctx.space for ctx in catalog().values()]


def test_same_seed_same_stream():
    for space in SPACES:
        a = SampleGen(123, space)
        b = SampleGen(123, space)
        assert [a.element() for _ in range(50)] == [b.element() for _ in range(50)]
        assert [a.rational() for _ in range(20)] == [b.rational() for _ in range(20)]


def test_different_seeds_differ():
    space = SparseSeq()
    a = [SampleGen(1, space).element() for _ in range(30)]
    b = [SampleGen(2, space).element() for _ in range(30)]
    assert a != b


def test_bounds_are_respected():
    assert (MAX_INDEX, MAX_MAGNITUDE, MAX_SUPPORT) == (16, 32, 4)
    gen = SampleGen(9, SparseSeq())
    for _ in range(300):
        x = gen.element()
        assert len(x.payload) <= MAX_SUPPORT
        assert all(1 <= k <= MAX_INDEX for k in support(x))
        assert all(
            abs(v.numerator) <= MAX_MAGNITUDE and v.denominator <= MAX_MAGNITUDE for _, v in x.payload
        )


def test_positive_samples_are_positive():
    for space in SPACES:
        gen = SampleGen(31, space)
        z = zero(space)
        for _ in range(300):
            assert leq(z, gen.positive())


def test_positive_unitized_lies_in_cone():
    for ctx_law in catalog().values():
        ctx = unitize(ctx_law.trunc)
        gen = SampleGen(37, ctx.space)
        for _ in range(300):
            a = gen.positive_unitized(ctx)
            assert is_positive(ctx, a)
        for _ in range(50):
            a = gen.positive_unitized_scalar(ctx)
            assert is_positive(ctx, a) and a.lam > 0


def test_increasing_chain_structure():
    for space in SPACES:
        gen = SampleGen(41, space)
        z = zero(space)
        for _ in range(100):
            cap = abs(gen.element()) + abs(gen.element())
            chain = gen.increasing_chain(4, cap)
            assert len(chain) == 4
            for i, x in enumerate(chain):
                assert leq(z, x) and leq(x, cap)
                if i:
                    assert leq(chain[i - 1], x)


def test_rational_flags():
    gen = SampleGen(43, SparseSeq())
    for _ in range(200):
        assert gen.rational(nonneg=True) >= 0
        assert gen.rational(nonzero=True) != 0
        q = gen.rational(nonneg=True, nonzero=True)
        assert q > 0


# -- the rational draw replays randint's use of the stream -------------------

FLAGS = [
    {"nonneg": nonneg, "nonzero": nonzero} for nonneg in (False, True) for nonzero in (False, True)
]


@pytest.mark.parametrize("flags", FLAGS, ids=lambda f: "-".join(k for k, v in f.items() if v) or "plain")
@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5, 987654321])
def test_rational_consumes_the_stream_as_randint_does(seed, flags):
    gen = SampleGen(seed, SparseSeq())
    ref = random.Random(gen.seed)
    for _ in range(400):
        assert gen.rational(**flags) == ref_rational(ref, **flags)
    # the same stream position afterwards, not only the same values
    assert gen._rng.getrandbits(32) == ref.getrandbits(32)


def test_rational_interleaves_with_randint_draws():
    # flags vary call by call and the stream is shared with randint and sample
    gen = SampleGen(77, SparseSeq())
    ref = random.Random(gen.seed)
    for i in range(600):
        flags = FLAGS[i % 4]
        assert gen.rational(**flags) == ref_rational(ref, **flags)
        assert gen.randint(0, 3) == ref.randint(0, 3)
    assert gen.index_subset(9) == ref.sample(range(1, 10), ref.randint(0, 9))
    assert gen._rng.getrandbits(32) == ref.getrandbits(32)


def test_rational_makes_no_randint_call(monkeypatch):
    def refuse(self, a, b):
        raise AssertionError("rational() called Random.randint")

    monkeypatch.setattr(random.Random, "randint", refuse)
    gen = SampleGen(5, SparseSeq())
    for flags in FLAGS:
        for _ in range(50):
            gen.rational(**flags)


# -- the element draw replays randint, sample and rational -------------------

DRAW_SPACES = [FinitePointwise(11), LexPlane(), IdentityLine(), SparseSeq()]


@pytest.mark.parametrize("nonneg", [False, True], ids=["signed", "nonneg"])
@pytest.mark.parametrize("space", DRAW_SPACES, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5])
def test_draw_consumes_the_stream_as_randint_and_sample_do(seed, space, nonneg):
    gen = SampleGen(seed, space)
    ref = random.Random(gen.seed)
    for _ in range(300):
        assert gen._draw(nonneg).payload == ref_draw(ref, space, nonneg)
    # the same stream position afterwards, not only the same values
    assert gen._rng.getrandbits(32) == ref.getrandbits(32)


def test_draw_interleaves_with_the_other_draws():
    for space in DRAW_SPACES:
        gen = SampleGen(91, space)
        ref = random.Random(gen.seed)
        for i in range(200):
            nonneg = bool(i % 2)
            assert gen._draw(nonneg).payload == ref_draw(ref, space, nonneg)
            assert gen.rational(**FLAGS[i % 4]) == ref_rational(ref, **FLAGS[i % 4])
            assert gen.randint(0, 3) == ref.randint(0, 3)
        assert gen._rng.getrandbits(32) == ref.getrandbits(32)


def test_draw_makes_no_randint_or_sample_call(monkeypatch):
    def refuse(name):
        def call(self, *args, **kwargs):
            raise AssertionError(f"_draw() called Random.{name}")

        return call

    monkeypatch.setattr(random.Random, "randint", refuse("randint"))
    monkeypatch.setattr(random.Random, "sample", refuse("sample"))
    for space in DRAW_SPACES:
        gen = SampleGen(5, space)
        for _ in range(50):
            gen._draw(False)
            gen._draw(True)


@pytest.mark.parametrize("name", sorted(catalog()))
def test_branch_draws_make_no_randint_call_and_replay_it(name, monkeypatch):
    # SampleGen.randint, the lex plane's positive() and positive_unitized's branch
    # draw the getrandbits calls of Random.randint without calling it
    ctx = catalog()[name]
    gen = SampleGen(2024, ctx.space)
    with monkeypatch.context() as patched:

        def refuse(self, a, b):
            raise AssertionError("a draw called Random.randint")

        patched.setattr(random.Random, "randint", refuse)
        draws = [
            (gen.randint(-5, 9), gen.positive(), gen.positive_unitized(ctx), gen.index_subset(9))
            for _ in range(150)
        ]
        position = gen._rng.getrandbits(32)
    ref = random.Random(gen.seed)
    for drawn in draws:
        assert drawn == (
            ref.randint(-5, 9),
            ref_positive(ref, ctx.space),
            ref_positive_unitized(ref, ctx),
            ref.sample(range(1, 10), ref.randint(0, 9)),
        )
    assert position == ref.getrandbits(32)
