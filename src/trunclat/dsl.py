"""Text expression language over truncated spaces and their unitizations.

Grammar (loosest to tightest: ``+``/``-``, then scalar ``*``, then ``\\/``,
then ``/\\``, then the atoms; all binary operators associate left, scalar
multiplication is right-recursive)::

    expr     := sum
    sum      := prod (("+" | "-") prod)*
    prod     := rational "*" prod | joinmeet
    joinmeet := meets ("\\/" meets)*
    meets    := unary ("/\\" unary)*
    unary    := "|" expr "|" | "pos(" expr ")" | "neg(" expr ")"
              | "tr(" expr ")" | "(" expr ")" | var | rational | "1"

Rational literals are ``p/q`` or unsigned integers; there is no unary minus
(write ``0 - x``), and a negative literal therefore does not re-parse.  The
bare token ``1`` denotes the adjoined unit of a unitization; any other
scalar literal evaluates to that multiple of the unit there, while in a base
lattice only ``0`` (the zero element) is meaningful.  An expression may
nest at most ``MAX_DEPTH`` levels deep, each bracket, scalar prefix and chained
binary operator counting one; deeper input is a ``ParseError``.

The lattice is the context: terms are evaluated compile-once in a base
``TruncationSpec`` or a ``UnitizationCtx``.  :func:`compile_term` matches a
term's shape a single time and returns a function of the variable bindings,
so a term sampled over many trials pays for the dispatch once.
:func:`evaluate` compiles and calls in one step; :func:`check_assertion`
keeps the compiled check of the last assertion and lattice it was given
(compared by identity), so checking one assertion over many trials compiles
it once.

Assertion files carry one ``lhs REL rhs`` line each (``<=``, ``==``, ``>=``,
or the disjointness relation ``_|_``), ``#`` comments, and an optional
``ctx:`` header holding a JSON object with ``space``, ``trunc`` and an
optional boolean ``unitize`` key.
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import (
    DescriptorError,
    EvalError,
    NegativeInput,
    NegativeTruncArgument,
    OneOutsideUnitization,
    ParseError,
    UnboundVariable,
)
from .rational import Rational, format_rational
from .spaces import Element, space_from_json
from .truncation import TruncationSpec, truncation_from_json
from .unitization import UnitizationCtx, UnitizedElement, unitize


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class RationalLit:
    value: Rational


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Sub:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Scale:
    scalar: Rational
    term: "Term"


@dataclass(frozen=True)
class Join:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Meet:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Abs:
    term: "Term"


@dataclass(frozen=True)
class Pos:
    term: "Term"


@dataclass(frozen=True)
class Neg:
    term: "Term"


@dataclass(frozen=True)
class Trunc:
    term: "Term"


Term = Var | RationalLit | One | Add | Sub | Scale | Join | Meet | Abs | Pos | Neg | Trunc

RELATIONS = ("<=", "==", ">=", "_|_")


@dataclass(frozen=True)
class Assertion:
    lhs: Term
    relation: str
    rhs: Term


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # NUM VAR PLUS MINUS STAR JOIN MEET BAR LPAREN RPAREN REL EOF
    text: str
    offset: int


def _lex(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == "/" and i + 1 < n and source[i + 1].isdigit():
                i += 1
                den_start = i
                while i < n and source[i].isdigit():
                    i += 1
                if int(source[den_start:i]) == 0:
                    raise ParseError(
                        f"zero denominator in rational literal {source[start:i]!r}", start
                    )
            tokens.append(_Token("NUM", source[start:i], start))
            continue
        if c.isalpha():
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("VAR", source[start:i], start))
            continue
        two = source[i : i + 2]
        three = source[i : i + 3]
        if three == "_|_":
            tokens.append(_Token("REL", three, i))
            i += 3
            continue
        if two in ("<=", ">=", "=="):
            tokens.append(_Token("REL", two, i))
            i += 2
            continue
        if two == "\\/":
            tokens.append(_Token("JOIN", two, i))
            i += 2
            continue
        if two == "/\\":
            tokens.append(_Token("MEET", two, i))
            i += 2
            continue
        single = {
            "+": "PLUS",
            "-": "MINUS",
            "*": "STAR",
            "|": "BAR",
            "(": "LPAREN",
            ")": "RPAREN",
        }.get(c)
        if single is not None:
            tokens.append(_Token(single, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("EOF", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_FUNCTIONS = {"pos": Pos, "neg": Neg, "tr": Trunc}

# Bracket levels, scalar prefixes and operator chains all deepen the parse or
# the term, and parsing, evaluation and rendering recurse once per level; past
# this depth the input is refused, so the recursion stays well inside Python's
# stack limit wherever the parser is called from.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def peek(self, ahead: int = 1) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        token = self.current
        self.pos += 1
        return token

    def expect(self, kind: str, expected: frozenset[str]) -> _Token:
        if self.current.kind != kind:
            raise ParseError(
                f"unexpected token {self.current.text or '<end of input>'!r}",
                self.current.offset,
                expected,
            )
        return self.advance()

    def descend(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError("expression nested too deeply", self.current.offset)

    def parse_nested(self, parse: Callable[[], Term]) -> Term:
        self.descend()
        term = parse()
        self.depth -= 1
        return term

    def parse_expr(self) -> Term:
        return self.parse_sum()

    def parse_sum(self) -> Term:
        outer = self.depth
        term = self.parse_prod()
        while self.current.kind in ("PLUS", "MINUS"):
            op = self.advance()
            self.descend()
            right = self.parse_prod()
            term = Add(term, right) if op.kind == "PLUS" else Sub(term, right)
        self.depth = outer
        return term

    def parse_prod(self) -> Term:
        if self.current.kind == "NUM" and self.peek().kind == "STAR":
            scalar = Fraction(self.advance().text)
            self.advance()  # STAR
            return Scale(scalar, self.parse_nested(self.parse_prod))
        return self.parse_joinmeet()

    def parse_joinmeet(self) -> Term:
        outer = self.depth
        term = self.parse_meets()
        while self.current.kind == "JOIN":
            self.advance()
            self.descend()
            term = Join(term, self.parse_meets())
        self.depth = outer
        return term

    def parse_meets(self) -> Term:
        outer = self.depth
        term = self.parse_unary()
        while self.current.kind == "MEET":
            self.advance()
            self.descend()
            term = Meet(term, self.parse_unary())
        self.depth = outer
        return term

    def parse_unary(self) -> Term:
        token = self.current
        if token.kind == "BAR":
            self.advance()
            inner = self.parse_nested(self.parse_expr)
            self.expect("BAR", frozenset({"|"}))
            return Abs(inner)
        if token.kind == "LPAREN":
            self.advance()
            inner = self.parse_nested(self.parse_expr)
            self.expect("RPAREN", frozenset({")"}))
            return inner
        if token.kind == "VAR":
            if token.text in _FUNCTIONS and self.peek().kind == "LPAREN":
                self.advance()
                self.advance()  # LPAREN
                inner = self.parse_nested(self.parse_expr)
                self.expect("RPAREN", frozenset({")"}))
                return _FUNCTIONS[token.text](inner)
            self.advance()
            return Var(token.text)
        if token.kind == "NUM":
            self.advance()
            if token.text == "1":
                return One()
            return RationalLit(Fraction(token.text))
        raise ParseError(
            f"unexpected token {token.text or '<end of input>'!r}",
            token.offset,
            frozenset({"|", "(", "pos(", "neg(", "tr(", "variable", "rational"}),
        )


def parse(source: str) -> Term:
    parser = _Parser(_lex(source))
    term = parser.parse_expr()
    parser.expect("EOF", frozenset({"<end of input>"}))
    return term


def parse_assertion(source: str) -> Assertion:
    parser = _Parser(_lex(source))
    lhs = parser.parse_expr()
    rel = parser.expect("REL", frozenset(RELATIONS))
    rhs = parser.parse_expr()
    parser.expect("EOF", frozenset({"<end of input>"}))
    return Assertion(lhs, rel.text, rhs)


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------

def render(term: Term) -> str:
    """Canonical fully parenthesized form; ``parse(render(t)) == t`` whenever
    every literal in ``t`` is nonnegative (the grammar has no unary minus)."""
    match term:
        case Var(name):
            return name
        case RationalLit(value):
            return format_rational(value)
        case One():
            return "1"
        case Add(left, right):
            return f"({render(left)} + {render(right)})"
        case Sub(left, right):
            return f"({render(left)} - {render(right)})"
        case Scale(scalar, inner):
            return f"({format_rational(scalar)} * {render(inner)})"
        case Join(left, right):
            return f"({render(left)} \\/ {render(right)})"
        case Meet(left, right):
            return f"({render(left)} /\\ {render(right)})"
        case Abs(inner):
            return f"|{render(inner)}|"
        case Pos(inner):
            return f"pos({render(inner)})"
        case Neg(inner):
            return f"neg({render(inner)})"
        case Trunc(inner):
            return f"tr({render(inner)})"
    raise TypeError(f"unknown term {term!r}")


def random_term(rng: random.Random, max_depth: int = 4, variables: Sequence[str] = ("x", "y", "z")) -> Term:
    """A random AST over the full vocabulary; literals are kept nonnegative so
    the rendered form re-parses to the identical tree."""
    if max_depth <= 0:
        choice = rng.randint(0, 2)
        if choice == 0:
            return Var(rng.choice(list(variables)))
        if choice == 1:
            return RationalLit(Fraction(rng.randint(0, 9), rng.randint(1, 9)))
        return One()
    choice = rng.randint(0, 9)
    if choice == 0:
        return Var(rng.choice(list(variables)))
    if choice == 1:
        return RationalLit(Fraction(rng.randint(0, 9), rng.randint(1, 9)))
    if choice == 2:
        return Add(random_term(rng, max_depth - 1, variables), random_term(rng, max_depth - 1, variables))
    if choice == 3:
        return Sub(random_term(rng, max_depth - 1, variables), random_term(rng, max_depth - 1, variables))
    if choice == 4:
        return Scale(
            Fraction(rng.randint(0, 9), rng.randint(1, 9)),
            random_term(rng, max_depth - 1, variables),
        )
    if choice == 5:
        return Join(random_term(rng, max_depth - 1, variables), random_term(rng, max_depth - 1, variables))
    if choice == 6:
        return Meet(random_term(rng, max_depth - 1, variables), random_term(rng, max_depth - 1, variables))
    if choice == 7:
        return Abs(random_term(rng, max_depth - 1, variables))
    if choice == 8:
        return rng.choice((Pos, Neg))(random_term(rng, max_depth - 1, variables))
    return Trunc(random_term(rng, max_depth - 1, variables))


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

Lattice = TruncationSpec | UnitizationCtx


def free_variables(term: Term) -> frozenset[str]:
    match term:
        case Var(name):
            return frozenset({name})
        case Add(l, r) | Sub(l, r) | Join(l, r) | Meet(l, r):
            return free_variables(l) | free_variables(r)
        case Scale(_, inner) | Abs(inner) | Pos(inner) | Neg(inner) | Trunc(inner):
            return free_variables(inner)
    return frozenset()


def compile_term(term: Term, lat: Lattice) -> Callable[[Mapping[str, object]], object]:
    """The term as a function of the environment, matched on its shape once.

    Errors that depend on the environment or on a value (an unbound
    variable, a nonzero constant outside a unitization, a negative ``tr``
    argument) are raised when the function is called, in the left-to-right
    order of the tree."""
    unitized = isinstance(lat, UnitizationCtx)
    match term:
        case Var(name):
            return _compile_var(name, lat)
        case RationalLit(value) if unitized:
            return _constant(lat.scalar(value))
        case RationalLit(value) if value == 0:
            return _constant(lat.zero)
        case RationalLit():
            return _raising(
                OneOutsideUnitization, "a nonzero scalar constant only makes sense in a unitization"
            )
        case One() if unitized:
            return _constant(lat.one)
        case One():
            return _raising(OneOutsideUnitization, "the unit symbol requires a unitization context")
        case Add(l, r):
            return _binary(operator.add, l, r, lat)
        case Sub(l, r):
            return _binary(operator.sub, l, r, lat)
        case Scale(c, inner):
            f = compile_term(inner, lat)
            return lambda env: c * f(env)
        case Join(l, r):
            return _binary(lat.join, l, r, lat)
        case Meet(l, r):
            return _binary(lat.meet, l, r, lat)
        case Abs(inner):
            return _unary(lat.abs, inner, lat)
        case Pos(inner):
            return _unary(lat.pos, inner, lat)
        case Neg(inner):
            return _unary(lat.neg, inner, lat)
        case Trunc(inner):
            f = compile_term(inner, lat)
            truncate = lat.truncate

            def trunc(env):
                value = f(env)
                try:
                    return truncate(value)
                except NegativeInput:
                    raise NegativeTruncArgument("tr(...) needs a positive argument") from None

            return trunc
    raise TypeError(f"unknown term {term!r}")


def _constant(value):
    return lambda env: value


def _raising(error: type[Exception], message: str):
    def fail(env):
        raise error(message)

    return fail


def _binary(op, l: Term, r: Term, lat: Lattice):
    left, right = compile_term(l, lat), compile_term(r, lat)
    return lambda env: op(left(env), right(env))


def _unary(op, inner: Term, lat: Lattice):
    f = compile_term(inner, lat)
    return lambda env: op(f(env))


def _compile_var(name: str, lat: Lattice):
    if not isinstance(lat, UnitizationCtx):
        def base_var(env):
            if name not in env:
                raise UnboundVariable(f"unbound variable {name!r}")
            value = env[name]
            if not isinstance(value, Element):
                raise EvalError(f"variable {name!r} is not a base element")
            return value

        return base_var
    embed = lat.embed

    def unitized_var(env):
        if name not in env:
            raise UnboundVariable(f"unbound variable {name!r}")
        value = env[name]
        if isinstance(value, Element):
            return embed(value)
        if isinstance(value, UnitizedElement):
            return value
        raise EvalError(f"variable {name!r} is not an element")

    return unitized_var


def evaluate(term: Term, env: Mapping[str, object], lat: Lattice):
    """Exact evaluation; returns an :class:`Element` in a base lattice or a
    :class:`UnitizedElement` in a unitization, where base elements in the
    environment are embedded automatically."""
    return compile_term(term, lat)(env)


@dataclass(frozen=True)
class AssertionOutcome:
    holds: bool
    lhs_value: object
    rhs_value: object


def compile_assertion(
    assertion: Assertion, lat: Lattice
) -> Callable[[Mapping[str, object]], AssertionOutcome]:
    """The assertion as a function of the environment; both sides are
    evaluated, left first, before the relation is tested."""
    lhs, rhs = compile_term(assertion.lhs, lat), compile_term(assertion.rhs, lat)
    relation = assertion.relation
    match relation:
        case "<=":
            holds = lat.leq
        case ">=":
            leq = lat.leq
            holds = lambda a, b: leq(b, a)
        case "==":
            holds = operator.eq
        case "_|_":
            meet, abs_, zero = lat.meet, lat.abs, lat.zero
            holds = lambda a, b: meet(abs_(a), abs_(b)) == zero
        case _:
            def holds(a, b):
                raise EvalError(f"unknown relation {relation!r}")

    def check(env):
        left = lhs(env)
        right = rhs(env)
        return AssertionOutcome(holds(left, right), left, right)

    return check


# the last (assertion, lattice, compiled check) that check_assertion compiled
_last_check: tuple = (None, None, None)


def check_assertion(assertion: Assertion, env: Mapping[str, object], lat: Lattice) -> AssertionOutcome:
    """Evaluate the assertion under ``env`` in ``lat``.  The compiled check of
    the last ``(assertion, lat)`` pair, compared by identity, is kept, so a
    caller that checks one assertion over many trials compiles it once."""
    global _last_check
    last = _last_check
    if last[0] is not assertion or last[1] is not lat:
        last = _last_check = (assertion, lat, compile_assertion(assertion, lat))
    return last[2](env)


# ---------------------------------------------------------------------------
# Assertion files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssertionFile:
    ctx: Lattice | None
    assertions: tuple[tuple[int, Assertion], ...]


def lattice_from_json(obj) -> Lattice:
    """The lattice a ``ctx:`` header names: the base, or its unitization if ``unitize``."""
    if not isinstance(obj, Mapping) or "space" not in obj or "trunc" not in obj:
        raise DescriptorError("ctx header needs 'space' and 'trunc' keys")
    unitized = obj.get("unitize", False)
    if not isinstance(unitized, bool):
        raise DescriptorError(f"ctx header 'unitize' must be true or false, got {unitized!r}")
    space = space_from_json(obj["space"])
    trunc = truncation_from_json(space, obj["trunc"])
    return unitize(trunc) if unitized else trunc


def load_assertion_text(text: str) -> AssertionFile:
    """Parse an assertion file: ``#`` comments, blank lines, one optional
    ``ctx: {...}`` header, one assertion per remaining line."""
    ctx = None
    assertions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("ctx:"):
            if ctx is not None:
                raise DescriptorError(f"line {lineno}: duplicate ctx header")
            try:
                ctx = lattice_from_json(json.loads(stripped[4:].strip()))
            except json.JSONDecodeError as exc:
                raise DescriptorError(f"line {lineno}: bad ctx JSON: {exc}") from exc
            continue
        assertions.append((lineno, parse_assertion(stripped)))
    return AssertionFile(ctx, tuple(assertions))
