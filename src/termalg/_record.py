"""Frozen records: the value classes of the package.

`record` gives a class what `dataclass(frozen=True)` gave it, without
importing dataclasses, which loads inspect and compiles the generated
methods of every class at import time.
"""

from operator import attrgetter


def record(cls):
    """Make `cls` a frozen record of its annotated fields, in order.

    The record gets an __init__ taking the fields by position or keyword
    and then calling __post_init__, if the class has one. Records are
    equal when they are of the same class and their fields are equal,
    and hash as the tuple of their fields. The repr is Class(field=value,
    ...). Assigning or deleting an attribute raises AttributeError; the
    fields live in the instance __dict__, where cached_property keeps its
    values too. A class keeps each of these methods that it defines
    itself.
    """
    names = tuple(cls.__annotations__)
    get = attrgetter(*names)  # the value itself when there is one field

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    if len(names) == 1:

        def __hash__(self):
            return hash((get(self),))

    else:

        def __hash__(self):
            return hash(get(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    post = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args) :] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{cls.__qualname__}() takes {', '.join(names)}, once each")
        self.__dict__.update(zip(names, args))
        if post is not None:
            post(self)

    for method in [__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__]:
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls
