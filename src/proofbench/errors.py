"""Shared error types.

ParseError is raised by every parser in the package (programs, statements,
derivation files) and always carries the first offending position together
with the set of things that would have been acceptable there.
"""

from __future__ import annotations

import sys


class ParseError(ValueError):
    def __init__(self, position: int, expected: tuple[str, ...], message: str = ""):
        self.position = position
        self.expected = tuple(expected)
        detail = message or "expected " + " or ".join(expected)
        super().__init__(f"parse error at position {position}: {detail}")


class NestingError(ParseError):
    """Input nested deeper than a parser admits."""


def numeral_value(digits: str, position: int) -> int:
    """The value of a run of ASCII digits that starts at position.

    A run longer than Python's integer-string limit (sys.get_int_max_str_digits(),
    4,300 digits by default) is a ParseError there, not int()'s ValueError.
    """
    try:
        return int(digits)
    except ValueError:
        raise ParseError(position, (f"numeral of at most {sys.get_int_max_str_digits()} digits",)) from None


class ResourceLimitError(RuntimeError):
    """A configured memory or size budget would be exceeded.

    budget names the budget (the keyword argument that sets it, where one
    does), limit is its value, and attempted is the size the call would
    have reached.  The message is unchanged by them.
    """

    def __init__(self, message: str, *, budget: str | None = None, limit: int | None = None,
                 attempted: int | None = None):
        super().__init__(message)
        self.budget = budget
        self.limit = limit
        self.attempted = attempted
