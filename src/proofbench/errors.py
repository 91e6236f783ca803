"""Shared error types.

ParseError is raised by every parser in the package (programs, statements,
derivation files) and always carries the first offending position together
with the set of things that would have been acceptable there.
"""

from __future__ import annotations

import sys


class ParseError(ValueError):
    def __init__(self, position: int, expected: tuple[str, ...]):
        self.position = position
        self.expected = tuple(expected)

    def __str__(self) -> str:  # written when printed, not at each raise: most are caught unread
        return f"parse error at position {self.position}: expected " + " or ".join(self.expected)


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


def _all_digits(fn, *args):
    """fn(*args) with Python's integer-string limit lifted, and restored after.
    Only a shortlex rank's own conversions, the rendering of report rows and a
    budget error's message lift it: numerals read from programs and derivation
    files keep their documented limit."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:  # an interpreter without the limit
        return fn(*args)
    limit = limit()
    sys.set_int_max_str_digits(0)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(limit)


class ResourceLimitError(RuntimeError):
    """A configured memory or size budget would be exceeded.

    budget names the budget (the config key or keyword argument that sets
    it, where one does), limit is its value, and attempted is the size the
    call would have reached.  The message is written from them, in one form:
    "<attempted> exceeds the <budget> budget of <limit>".
    """

    def __init__(self, budget: str, limit: int, attempted: int):
        super().__init__(_all_digits("{} exceeds the {} budget of {}".format, attempted, budget, limit))
        self.budget = budget
        self.limit = limit
        self.attempted = attempted
