"""The immutable value base: not dataclasses, whose import costs 0.9 MB."""

from operator import attrgetter


class Frozen:
    """Assignment raises; equality, hashing and repr read the fields named
    in ``__slots__``, in order.  Constructors use ``object.__setattr__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        # A C getter per class: a getattr loop hashed FinSets 4x slower.
        get = attrgetter(*cls.__slots__)  # a bare value for a single name
        cls._fields = property(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({body})"
