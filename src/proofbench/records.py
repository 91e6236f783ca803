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

Records nest to any depth.  What would recurse once per level reads walk(root)
instead: repr always, and == where tuple.__eq__ raises RecursionError.  The
tuple hash recurses in C with no depth check and kills the interpreter on a
tree a million records deep, so Q-lang's nodes and pi_system's Sum are deep
and hash by tree_hash; the package itself compares terms by pi_system._key.
"""

import sys
from collections import namedtuple

OPEN, LEAF, CLOSE = range(3)


def walk(root: tuple):
    """Yield (OPEN, t) on entering each tuple t of root, root first, (LEAF, v) for
    each other value v and (CLOSE, t) on leaving t, depth first from an explicit stack."""
    yield OPEN, root
    nodes, stack = [root], [iter(root)]  # the open tuples, and an iterator over each one's rest
    while stack:
        for item in stack[-1]:
            if isinstance(item, tuple):
                yield OPEN, item
                nodes.append(item)
                stack.append(iter(item))
                break
            yield LEAF, item
        else:
            stack.pop()
            yield CLOSE, nodes.pop()


def tree_hash(root: tuple) -> int:
    """A hash of root's walk, folded as it streams: equal trees hash alike."""
    h = 0
    for event, item in walk(root):
        h = hash((h, event, item) if event is LEAF else (h, event))
    return h


def _walks_equal(a: tuple, b: tuple) -> bool:
    """a == b from their walks side by side: identity, then class and length, then leaf ==."""
    for (event, x), (other, y) in zip(walk(a), walk(b)):
        if x is y or event is CLOSE:  # equal lengths keep the two walks' closes in step
            continue
        if event is not other or (type(x) is not type(y) or len(x) != len(y) if event is OPEN else not x == y):
            return False
    return True


def _eq(self, other):
    try:
        return type(self) is type(other) and tuple.__eq__(self, other)
    except RecursionError:
        return _walks_equal(self, other)


def _repr(self) -> str:
    out, labels = [], []  # per open tuple, an iterator over the text before each of its items
    for event, item in walk(self):
        if event is not CLOSE and labels:
            out.append(next(labels[-1]))
        if event is LEAF:
            out.append(repr(item))
        elif event is OPEN:
            names = getattr(item, "_fields", None)  # None for a plain tuple
            out.append("(" if names is None else type(item).__name__ + "(")
            labels.append(iter([", " * (i > 0) + ("" if names is None else names[i] + "=") for i in range(len(item))]))
        else:
            labels.pop()
            out.append(",)" if len(item) == 1 and type(item) is tuple else ")")
    return "".join(out)


def record(name: str, fields: str, deep: bool = False) -> type:
    """A record class called name, with the space-separated fields, hashed by
    tree_hash if deep.  A subclass that validates or defaults its fields
    overrides __new__ and builds the record with tuple.__new__(cls, values)."""
    return type(name, (namedtuple(name, fields),), {
        "__slots__": (),
        "__module__": sys._getframe(1).f_globals["__name__"],  # the defining module, for repr and pickle
        "__eq__": _eq,
        "__ne__": lambda self, other: not _eq(self, other),
        "__hash__": tree_hash if deep else tuple.__hash__,
        "__repr__": _repr,
        "__bool__": lambda self: True,
    })
