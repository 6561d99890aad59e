"""Frozen records: the constructor, equality, hash, repr and immutability
that the package's value classes share.

`record` does for a class what `@dataclass(frozen=True)` did, without
importing `dataclasses`, which pulls in `inspect`, `ast`, `dis` and
`tokenize` and compiles each generated method on its own; every
`python -m enclosures` call paid for both.  A record's fields are the
names its class body annotates, in order.  `fields` and `replace` stand
in for their `dataclasses` namesakes.
"""

import operator


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a record."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields(self))
    return f"{self.__class__.__qualname__}({shown})"


def record(cls):
    """Make cls a frozen record of the fields its own class body annotates.

    cls gets an `__init__` taking the fields in order, a field's class
    attribute as its default, and calling `__post_init__` last where cls
    has one; `__eq__` and `__hash__` over the tuple of the fields, and the
    `Name(field=value, ...)` repr, each unless cls or a base already defines
    it; `__match_args__`; and a `__setattr__` and `__delattr__` that raise
    FrozenInstanceError.  `__init__` writes the fields into the instance's
    `__dict__`, in order, past the frozen `__setattr__`; a field that cls's
    own `__slots__` lists is written through its slot's descriptor instead,
    so a class that lists all its fields there gives instances no
    `__dict__`, and such a field takes no default.  A `__post_init__` that
    converts the fields goes past the frozen `__setattr__` with
    `object.__setattr__`.
    Only `__init__` is compiled for cls, as it needs the fields' names and
    defaults; `__eq__` and `__hash__` share one `operator.attrgetter`.
    """
    names = tuple(cls.__annotations__)
    slots = cls.__dict__.get("__slots__", ())
    scope = {}
    params = []
    body = ["    _fields = self.__dict__" if set(names) - set(slots) else "    pass"]
    for name in names:
        if name in slots:  # its class attribute is the slot's descriptor, not a default
            params.append(name)
            scope[f"_s_{name}"] = cls.__dict__[name].__set__
            body.append(f"    _s_{name}(self, {name})")
            continue
        if name in cls.__dict__:
            scope[f"_d_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_d_{name}")
        else:
            params.append(name)
        body.append(f"    _fields[{name!r}] = {name}")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    lines = [f"def __init__({', '.join(['self', *params])}):", *body]
    exec("\n".join(lines), scope)
    # attrgetter takes at least one name, and gives a bare value for one.
    get = operator.attrgetter(*names) if names else lambda r: ()
    key = (lambda r: (get(r),)) if len(names) == 1 else get

    def __eq__(self, other):
        return get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented

    methods = {"__init__": scope["__init__"], "__eq__": __eq__, "__hash__": lambda self: hash(key(self))}
    for method, function in methods.items():
        if method == "__init__" or getattr(cls, method) is getattr(object, method):
            function.__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, function)
    if cls.__repr__ is object.__repr__:
        cls.__repr__ = _repr
    cls.__match_args__ = names
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def fields(record) -> tuple[str, ...]:
    """The field names of a record or record class, in order."""
    return record.__match_args__


def replace(record, **changes):
    """A new record like record, with the fields named in changes replaced;
    it is built by the class's `__init__`, so `__post_init__` checks it."""
    kept = {name: getattr(record, name) for name in fields(record) if name not in changes}
    return type(record)(**kept, **changes)
