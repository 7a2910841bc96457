"""Deterministic, seed-replayable sample streams for the law engine.

Identical ``(seed, space)`` always yields the identical stream: the generator
draws exclusively through :class:`random.Random` integer methods, whose
Mersenne-twister behaviour is stable across platforms, and all values are
exact rationals.  Numerators and denominators stay within ``MAX_MAGNITUDE``,
and a sparse sample has at most ``MAX_SUPPORT`` indices, each at most
``MAX_INDEX``, to keep exact arithmetic fast.

No draw calls ``Random.randint``; each consumes the stream exactly as it
would: ``randint(a, b)`` draws ``getrandbits(k)`` with
``k = (b - a + 1).bit_length()`` until the value is below ``b - a + 1`` and
adds ``a`` (CPython 3.10 to 3.13), and :func:`_below` makes those same
``getrandbits`` calls directly, for :meth:`SampleGen.randint`, the branch
draws and :meth:`SampleGen.rational`.  A rational is read from a table of
every ``Fraction(num, den)`` it can return, built once at import.

An element is drawn the same way, a whole payload in one local loop over
``getrandbits``, with the calls and values of one ``rational`` per value,
read from a second table that holds the same values as the reduced int pairs
of the element layout.  The space's ``sampler`` picks the loop: ``dense``
and ``lex`` draw ``space.dim`` values with :func:`_dense_values` (the line is
the dense layout at ``dim`` 1), ``sparse`` draws with
:func:`_sparse_payload`, and ``lex`` also draws its positives apart, since
the lex order is not componentwise.  A
sparse support replays ``Random.sample(range(1, MAX_INDEX + 1), k)`` after
``k = randint(0, MAX_SUPPORT)``: for a population of at most 21 and
``k <= 5``, ``sample`` takes its pool path, which picks ``pool[j]`` with
``j`` below ``n - i`` at step ``i`` and moves the last unpicked value
``pool[n - i - 1]`` into the gap (CPython 3.10 to 3.13); ``MAX_INDEX`` is 16
and ``MAX_SUPPORT`` is 4.  :meth:`SampleGen.index_subset` keeps calling
``Random.sample``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .spaces import (
    Element,
    Space,
    _ZERO,
    _from_pairs,
    add,
    meet,
)
from .unitization import UnitizationCtx, UnitizedElement, abs_u, pos_u

_MASK64 = (1 << 64) - 1

MAX_INDEX = 16
MAX_MAGNITUDE = 32
MAX_SUPPORT = 4

_M = MAX_MAGNITUDE


def _tables() -> tuple[tuple, tuple]:
    """Entry ``(num + M) * M + den - 1`` is ``Fraction(num, den)`` for ``|num| <= M`` and
    ``1 <= den <= M``: as a ``Fraction`` in the first table and as the element layout's
    reduced int pair in the second, one object per distinct value (1295 in 2080 entries)."""
    pairs = {}
    entries = []
    for num in range(-_M, _M + 1):
        for den in range(1, _M + 1):
            g = gcd(num, den)
            pair = (num // g, den // g)
            entries.append(pairs.setdefault(pair, pair))
    fractions = {pair: Fraction(*pair) for pair in pairs}
    return tuple(map(fractions.__getitem__, entries)), tuple(entries)


_FRACTIONS, _PAIRS = _tables()
# bit widths of the draws below _M, 2 * _M + 1 and MAX_SUPPORT + 1
_K_M = _M.bit_length()
_K_SIGNED = (2 * _M + 1).bit_length()
_K_SUPPORT = (MAX_SUPPORT + 1).bit_length()


def _below(bits, n: int) -> int:
    """``randint(a, a + n - 1) - a``, drawn with the ``getrandbits`` calls that
    ``randint`` makes."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _rational_index(bits, nonneg: bool, nonzero: bool) -> int:
    """The table index of ``SampleGen.rational(nonneg=nonneg, nonzero=nonzero)``."""
    den = _below(bits, _M)  # den - 1
    if nonzero:
        num = _below(bits, _M) + 1
        if not nonneg and _below(bits, 2):
            num = -num
    elif nonneg:
        num = _below(bits, _M + 1)
    else:
        num = _below(bits, 2 * _M + 1) - _M
    return (num + _M) * _M + den


def _dense_values(bits, n: int, nonneg: bool) -> tuple:
    """``n`` values of ``rational(nonneg=nonneg)``, in order, from one loop."""
    span, k, offset = (_M + 1, _K_M, _M) if nonneg else (2 * _M + 1, _K_SIGNED, 0)
    out = []
    for _ in range(n):
        den = bits(_K_M)
        while den >= _M:
            den = bits(_K_M)
        num = bits(k)
        while num >= span:
            num = bits(k)
        out.append(_PAIRS[(num + offset) * _M + den])
    return tuple(out)


def _sparse_payload(bits, nonneg: bool) -> tuple:
    """A sparse payload: ``k = randint(0, MAX_SUPPORT)``, the sorted indices of
    ``sample(range(1, MAX_INDEX + 1), k)`` and ``rational(nonneg=nonneg,
    nonzero=True)`` at each index, in order."""
    k = bits(_K_SUPPORT)
    while k > MAX_SUPPORT:
        k = bits(_K_SUPPORT)
    pool = list(range(1, MAX_INDEX + 1))
    indices = []
    for n in range(MAX_INDEX, MAX_INDEX - k, -1):
        width = n.bit_length()
        j = bits(width)
        while j >= n:
            j = bits(width)
        indices.append(pool[j])
        pool[j] = pool[n - 1]
    indices.sort()
    out = []
    for index in indices:
        den = bits(_K_M)
        while den >= _M:
            den = bits(_K_M)
        num = bits(_K_M)
        while num >= _M:
            num = bits(_K_M)
        num += 1
        if not nonneg:
            sign = bits(2)
            while sign >= 2:
                sign = bits(2)
            if sign:
                num = -num
        # sorted, unique, >= 1 and nonzero: already a sparse payload
        out.append((index, _PAIRS[(num + _M) * _M + den]))
    return tuple(out)


# the payload draw ``(bits, space, nonneg)`` for each sampler layout a space names
_PAYLOADS = {
    "dense": lambda bits, space, nonneg: _dense_values(bits, space.dim, nonneg),
    "sparse": lambda bits, space, nonneg: _sparse_payload(bits, nonneg),
}
_PAYLOADS["lex"] = _PAYLOADS["dense"]  # only the lex plane's positives are drawn apart


class SampleGen:
    """A seeded stream of elements of one space."""

    def __init__(self, seed: int, space: Space):
        self.seed = int(seed) & _MASK64
        self.space = space
        self._rng = random.Random(self.seed)
        self._payload = _PAYLOADS[space.sampler]
        self._lex = space.sampler == "lex"

    def randint(self, lo: int, hi: int) -> int:
        """``Random.randint(lo, hi)``, drawn with the same ``getrandbits`` calls."""
        return lo + _below(self._rng.getrandbits, hi - lo + 1)

    def index_subset(self, upper: int) -> list[int]:
        """A uniformly sized random subset of ``1..upper``, in sample order."""
        return self._rng.sample(range(1, upper + 1), _below(self._rng.getrandbits, upper + 1))

    def rational(self, *, nonneg: bool = False, nonzero: bool = False) -> Fraction:
        """``Fraction(num, den)`` with ``den = randint(1, M)`` and ``num`` from
        ``randint(1, M)`` signed by ``randint(0, 1)`` (``nonzero``, unsigned if
        also ``nonneg``), ``randint(0, M)`` (``nonneg``) or ``randint(-M, M)``."""
        return _FRACTIONS[_rational_index(self._rng.getrandbits, nonneg, nonzero)]

    def _draw(self, nonneg: bool) -> Element:
        return _from_pairs(self.space, self._payload(self._rng.getrandbits, self.space, nonneg))

    def element(self) -> Element:
        return self._draw(nonneg=False)

    def positive(self) -> Element:
        if self._lex:
            # any pair with positive first coordinate is positive; mix in
            # second-axis-only positives, which the lex order treats specially
            bits = self._rng.getrandbits
            if not _below(bits, 4):  # randint(0, 3) == 0
                return _from_pairs(self.space, (_ZERO, _PAIRS[_rational_index(bits, True, False)]))
            first = _PAIRS[_rational_index(bits, True, True)]
            return _from_pairs(self.space, (first, _PAIRS[_rational_index(bits, False, False)]))
        return self._draw(nonneg=True)

    def increasing_chain(self, length: int, cap: Element) -> tuple[Element, ...]:
        """An increasing chain ``0 <= x_1 <= ... <= x_n <= cap`` (``cap >= 0``)."""
        out = []
        current = meet(self.positive(), cap)
        out.append(current)
        for _ in range(length - 1):
            current = meet(add(current, self.positive()), cap)
            out.append(current)
        return tuple(out)

    # -- unitized sampling ---------------------------------------------------

    def unitized(self) -> UnitizedElement:
        return UnitizedElement(self.element(), self.rational())

    def positive_unitized(self, ctx: UnitizationCtx) -> UnitizedElement:
        """A cone member, built constructively so all cone branches are exercised."""
        branch = _below(self._rng.getrandbits, 4)  # randint(0, 3)
        if branch == 0:
            return ctx.embed(self.positive())
        if branch == 1:
            return ctx.scalar(self.rational(nonneg=True))
        if branch == 2:
            # (x + lam)+ for lam > 0: scalar part lam, base part not >= 0 in general
            lam = self.rational(nonneg=True, nonzero=True)
            return pos_u(ctx, UnitizedElement(self.element(), lam))
        return abs_u(ctx, self.unitized())

    def positive_unitized_scalar(self, ctx: UnitizationCtx) -> UnitizedElement:
        """A cone member with strictly positive scalar part."""
        for _ in range(8):
            a = self.positive_unitized(ctx)
            if a.lam > 0:
                return a
        return self.positive_unitized(ctx) + ctx.one
