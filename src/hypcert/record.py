"""Immutable value records, the base of the package's result classes.

A subclass lists its fields in ``__slots__``, in constructor order, and its
``__init__`` sets each field once with ``object.__setattr__``.  The base
supplies what a frozen dataclass would, written once and without generated
code: assignment and deletion raise ``AttributeError``; ``==`` holds only
between instances of the same class with equal fields; the hash is the
hash of the field tuple; the repr reads ``Name(field=value, ...)``; and a
pickle rebuilds the instance through its constructor, so any checks there
run again.
"""

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()
