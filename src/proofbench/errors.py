"""Shared error types.

ParseError is raised by every parser in the package (programs, statements,
derivation files) and always carries the first offending position together
with the set of things that would have been acceptable there.
"""

from __future__ import annotations


class ParseError(ValueError):
    def __init__(self, position: int, expected: tuple[str, ...], message: str = ""):
        self.position = position
        self.expected = tuple(expected)
        detail = message or "expected " + " or ".join(expected)
        super().__init__(f"parse error at position {position}: {detail}")


class NestingError(ParseError):
    """Input nested deeper than a parser admits."""


class ResourceLimitError(RuntimeError):
    """A configured memory or size budget would be exceeded."""
