"""The base of the immutable domain records."""
from operator import attrgetter


class Record:
    """A record whose fields are its class's public `__slots__`, set once by `_set`.

    Assigning or deleting a field raises AttributeError, and records of one
    class are equal when their fields are. A private slot holds a value
    derived from the fields, and takes no part in equality. A record hashes
    only where its class defines `__hash__`: the params, networks and layers,
    which `cost_model` keys on, and the laws. Each spells out the tuple of
    its fields, because `cost_model` hashes a network, its layers and the
    params on every online decision.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*(s for s in cls.__slots__ if s[0] != "_"))  # record -> its fields

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)
