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
scalar literal evaluates to that multiple of the unit there, while in a plain
space context only ``0`` (the zero element) is meaningful.  An expression may
nest at most ``MAX_DEPTH`` levels deep, each bracket, scalar prefix and chained
binary operator counting one; deeper input is a ``ParseError``.

Assertion files carry one ``lhs REL rhs`` line each (``<=``, ``==``, ``>=``,
or the disjointness relation ``_|_``), ``#`` comments, and an optional
``ctx:`` header holding a JSON object with ``space``, ``trunc`` and
``unitize`` keys.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .errors import (
    DescriptorError,
    EvalError,
    NegativeTruncArgument,
    OneOutsideUnitization,
    ParseError,
    UnboundVariable,
)
from .rational import Rational, format_rational
from .spaces import Element, Space, space_from_json
from .truncation import TruncationSpec, truncation_from_json
from .unitization import UnitizationCtx, UnitizedElement


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

@dataclass(frozen=True)
class EvalContext:
    space: Space
    trunc: TruncationSpec
    unitized: bool = False

    @cached_property
    def lattice(self) -> TruncationSpec | UnitizationCtx:
        """The lattice terms are evaluated in: the base or its unitization."""
        return UnitizationCtx(self.space, self.trunc) if self.unitized else self.trunc


def free_variables(term: Term) -> frozenset[str]:
    match term:
        case Var(name):
            return frozenset({name})
        case Add(l, r) | Sub(l, r) | Join(l, r) | Meet(l, r):
            return free_variables(l) | free_variables(r)
        case Scale(_, inner) | Abs(inner) | Pos(inner) | Neg(inner) | Trunc(inner):
            return free_variables(inner)
    return frozenset()


def evaluate(term: Term, env: Mapping[str, object], ctx: EvalContext):
    """Exact evaluation; returns an :class:`Element` (plain space context) or a
    :class:`UnitizedElement` (unitization context, where base elements in the
    environment are embedded automatically)."""
    return _eval(term, env, ctx, ctx.lattice)


def _eval(term: Term, env, ctx: EvalContext, lat):
    match term:
        case Var(name):
            if name not in env:
                raise UnboundVariable(f"unbound variable {name!r}")
            value = env[name]
            if not ctx.unitized:
                if not isinstance(value, Element):
                    raise EvalError(f"variable {name!r} is not a base element")
                return value
            if isinstance(value, Element):
                return lat.embed(value)
            if isinstance(value, UnitizedElement):
                return value
            raise EvalError(f"variable {name!r} is not an element")
        case RationalLit(value):
            if ctx.unitized:
                return lat.scalar(value)
            if value == 0:
                return lat.zero
            raise OneOutsideUnitization(
                "a nonzero scalar constant only makes sense in a unitization"
            )
        case One():
            if ctx.unitized:
                return lat.one
            raise OneOutsideUnitization("the unit symbol requires a unitization context")
        case Add(l, r):
            return _eval(l, env, ctx, lat) + _eval(r, env, ctx, lat)
        case Sub(l, r):
            return _eval(l, env, ctx, lat) - _eval(r, env, ctx, lat)
        case Scale(c, inner):
            return c * _eval(inner, env, ctx, lat)
        case Join(l, r):
            return lat.join(_eval(l, env, ctx, lat), _eval(r, env, ctx, lat))
        case Meet(l, r):
            return lat.meet(_eval(l, env, ctx, lat), _eval(r, env, ctx, lat))
        case Abs(inner):
            return lat.abs(_eval(inner, env, ctx, lat))
        case Pos(inner):
            return lat.pos(_eval(inner, env, ctx, lat))
        case Neg(inner):
            return lat.neg(_eval(inner, env, ctx, lat))
        case Trunc(inner):
            value = _eval(inner, env, ctx, lat)
            if not lat.is_positive(value):
                raise NegativeTruncArgument("tr(...) needs a positive argument")
            return lat.truncate(value)
    raise TypeError(f"unknown term {term!r}")


@dataclass(frozen=True)
class AssertionOutcome:
    holds: bool
    lhs_value: object
    rhs_value: object


def check_assertion(assertion: Assertion, env: Mapping[str, object], ctx: EvalContext) -> AssertionOutcome:
    lhs = evaluate(assertion.lhs, env, ctx)
    rhs = evaluate(assertion.rhs, env, ctx)
    lat = ctx.lattice
    match assertion.relation:
        case "<=":
            holds = lat.leq(lhs, rhs)
        case ">=":
            holds = lat.leq(rhs, lhs)
        case "==":
            holds = lhs == rhs
        case "_|_":
            holds = lat.meet(lat.abs(lhs), lat.abs(rhs)) == lat.zero
        case _:
            raise EvalError(f"unknown relation {assertion.relation!r}")
    return AssertionOutcome(holds, lhs, rhs)


# ---------------------------------------------------------------------------
# Assertion files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssertionFile:
    ctx: EvalContext | None
    assertions: tuple[tuple[int, Assertion], ...]


def eval_context_from_json(obj) -> EvalContext:
    if not isinstance(obj, Mapping) or "space" not in obj or "trunc" not in obj:
        raise DescriptorError("ctx header needs 'space' and 'trunc' keys")
    space = space_from_json(obj["space"])
    trunc = truncation_from_json(space, obj["trunc"])
    return EvalContext(space, trunc, bool(obj.get("unitize", False)))


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
                ctx = eval_context_from_json(json.loads(stripped[4:].strip()))
            except json.JSONDecodeError as exc:
                raise DescriptorError(f"line {lineno}: bad ctx JSON: {exc}") from exc
            continue
        assertions.append((lineno, parse_assertion(stripped)))
    return AssertionFile(ctx, tuple(assertions))
