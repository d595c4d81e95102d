"""The immutable value base: not dataclasses, whose import costs 0.9 MB."""

from operator import attrgetter


class Frozen:
    """Assignment raises; equality, hashing and repr read the fields: the
    ``__slots__`` of the bases, then the class's own, in order.  A class
    with no fields compares by type.  Constructors use ``object.__setattr__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._names = names = tuple(
            n for c in reversed(cls.__mro__) for n in c.__dict__.get("__slots__", ())
        )
        # A C getter per class: a getattr loop hashed FinSets 4x slower.
        get = attrgetter(*names) if names else lambda x: ()
        # attrgetter of a single name returns a bare value
        cls._fields = property(get if len(names) != 1 else lambda x: (get(x),))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):  # pickle and copy would assign the slots
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._names)
        return f"{type(self).__name__}({body})"
