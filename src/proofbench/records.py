"""Typed tuple records: the package's immutable value types.

record(name, fields) returns a named tuple class, with __slots__ = (), that
keeps the contract of a frozen dataclass:

- A record equals only a record of its own class.  Its __eq__ and __ne__
  answer themselves and never return NotImplemented, since Python would then
  try the other side, and tuple equality would make a plain tuple, or a
  same-shaped record of another class, compare equal to it.
- A record is always true, even one without fields.
- Its repr is the dataclass repr, `Reject(line=6, reason='rule-mismatch')`,
  and assigning a field raises AttributeError.

Records exist for start-up and construction cost.  Importing `dataclasses`
loads `inspect`, about 10 ms of every CLI command, and decorating a class
cost about 0.9 ms more; a frozen dataclass's __init__ also sets each field
through object.__setattr__, where a named tuple's __new__ builds one tuple.

A record hashes as a tuple, and the tuple hash recurses in C with no depth
check: hashing a tree a million records deep kills the interpreter.  A
module whose records nest without a depth limit gives them a Python-level
__hash__ (qlang does), so that a deep hash raises RecursionError instead.
"""

import sys
from collections import namedtuple


def _eq(self, other):
    return type(self) is type(other) and tuple.__eq__(self, other)


def _ne(self, other):
    return type(self) is not type(other) or tuple.__ne__(self, other)


def _true(self):
    return True


def record(name: str, fields: str) -> type:
    """A record class called name, with the space-separated fields.  A
    subclass that validates or defaults its fields overrides __new__ and
    builds the record with tuple.__new__(cls, values)."""
    return type(name, (namedtuple(name, fields),), {
        "__slots__": (),
        "__module__": sys._getframe(1).f_globals["__name__"],  # the defining module, for repr and pickle
        "__eq__": _eq,
        "__ne__": _ne,
        "__hash__": tuple.__hash__,
        "__bool__": _true,
    })
