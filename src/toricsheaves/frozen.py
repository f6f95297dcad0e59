"""The base of the package's immutable value classes.

Each value class writes out its own ``__init__``, which sets the fields
through ``object.__setattr__``, an ``__eq__`` that holds only between
instances of the same class and compares the field tuples, and a
``__hash__`` of the field tuple.  This base adds the rest: assigning or
deleting an attribute raises ``AttributeError``, ``repr`` lists the fields
named in ``_fields`` as ``Name(field=value, ...)``, and copy and pickle
rebuild a value through its ``__init__``, which refused assignment would
otherwise stop for a class with ``__slots__``.  The methods are
written out, not generated by a class decorator at import, because
generating them executes source text for each method of each class, which
was a large share of the package's import time.
"""

from __future__ import annotations


class Frozen:
    """A value whose fields, named in _fields, are set once in __init__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
