"""Exception types shared across the package, and the digit-safe integer
text their messages use."""

from __future__ import annotations


def int_text(value: int) -> str:
    """Decimal text of value, or a summary such as '<5001-digit integer>'.

    The summary replaces values that str() refuses under the interpreter's
    int-to-str digit limit (Python 3.11+), so that formatting a witness
    never raises.
    """
    try:
        return str(value)
    except ValueError:
        from .engine import digit_count  # engine imports this module

        return f"<{digit_count(value)}-digit integer>"


class SomosError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpecError(SomosError):
    """A sequence spec violates its structural invariants."""


class ZeroDenominatorError(SomosError):
    """The divisor term a_{n-k} is zero, so the recurrence step is undefined."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"zero divisor at index {index}")


class IndexOutOfRangeError(SomosError):
    """A required sequence index is not present in the buffer."""


class NonIntegralTermError(SomosError):
    """Integer-mode generation hit a non-exact division.

    Carries the witness event and the partial buffer generated so far.
    """

    def __init__(self, event, buffer):
        self.event = event
        self.buffer = buffer
        super().__init__(
            f"non-integral term at index {event.index}: "
            f"remainder {int_text(event.remainder)} dividing by a[{event.index}-k]"
        )


class ParseError(SomosError):
    """A b-file line could not be parsed."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class GapError(SomosError):
    """b-file indices are not consecutive."""

    def __init__(self, line_no: int, expected: int, found: int):
        self.line_no = line_no
        self.expected = expected
        self.found = found
        super().__init__(f"line {line_no}: expected index {expected}, found {found}")
