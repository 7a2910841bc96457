"""Exception types shared across the package."""


class TrunclatError(Exception):
    """Base class for every error raised by this library."""


class SpaceMismatch(TrunclatError):
    """Operands live in different spaces."""


class EmptySet(TrunclatError):
    """A nonempty collection was required."""


class PreconditionViolated(TrunclatError):
    """An operation's stated precondition does not hold for the inputs."""


class NegativeInput(TrunclatError):
    """A positive-cone argument was required."""


class DescriptorError(TrunclatError):
    """A JSON descriptor (space, truncation, element, config) is malformed."""


class DslError(TrunclatError):
    """Base class for expression-language errors."""


class ParseError(DslError):
    """Syntax error, with the byte offset and the token kinds that were expected."""

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        self.offset = offset
        self.expected = expected
        suffix = f" (expected one of: {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{message} at offset {offset}{suffix}")


class EvalError(DslError):
    """Runtime error while evaluating a term."""


class UnboundVariable(EvalError):
    """A free variable has no binding in the environment."""


class NegativeTruncArgument(EvalError):
    """tr(...) was applied to a value outside the positive cone."""


class OneOutsideUnitization(EvalError):
    """The unit symbol or a scalar constant was used outside a unitization context."""
