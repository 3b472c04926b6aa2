"""Frozen records whose methods are shared, not generated per class.

dataclass(frozen=True) writes the source of six methods (__init__,
__repr__, __eq__, __hash__, __setattr__, __delattr__) for every class it
decorates and compiles them when the class is created: about 1 ms a
class on a 2-core x86-64 host with Python 3.11, paid by every command for
every such class it imports. record(cls) keeps cls a dataclass, for
dataclasses.fields, __match_args__ and dataclasses.replace, and gives it
those methods from Record instead: they read the fields and behave as the
generated ones do.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields

class Record:
    """Base of the frozen records; see record."""

    __slots__ = ()
    _names: tuple = ()  # the fields, in order
    _defaults: dict = {}  # field -> default, for the fields that have one
    _compared: tuple = ()  # the fields that equality and hashing read

    def __init__(self, *args, **kwargs):
        names = self._names
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(names, args))  # past the refusing __setattr__

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """All field values, in order, from a call's arguments and the defaults."""
        names = cls._names
        if (len(args) > len(names) or not kwargs.keys() <= set(names)
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)} once each")
        values = dict(cls._defaults)
        values.update(zip(names, args))
        values.update(kwargs)
        if len(values) < len(names):
            missing = ", ".join(n for n in names if n not in values)
            raise TypeError(f"{cls.__name__}() missing arguments: {missing}")
        return [values[n] for n in names]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._names) + ")"


def record(cls):
    """cls, a subclass of Record, as a dataclass with Record's methods."""
    cls = dataclass(init=False, eq=False, repr=False)(cls)
    fs = fields(cls)
    if any(f.default_factory is not MISSING or not (f.init and f.repr) or f.hash is not None
           for f in fs):
        raise TypeError(f"{cls.__name__}: a record field takes only a default and compare")
    cls._names = tuple(f.name for f in fs)
    cls._defaults = {f.name: f.default for f in fs if f.default is not MISSING}
    cls._compared = tuple(f.name for f in fs if f.compare)
    return cls
