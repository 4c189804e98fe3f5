"""``record``: the dataclass methods of the spec and result classes, from closures.

Nothing is compiled and no module imported.  An instance keeps its fields in
one dict, set at once: the call's own ``**kwargs`` when they come by keyword.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def record(cls=None, *, frozen: bool = True):
    """Fields are the annotations, class attributes their defaults.  Gives ``__init__``
    (positional or keyword, then ``__post_init__``), field-order ``__eq__``, the dataclass
    ``__repr__`` and ``__match_args__``; frozen records refuse assignment and hash as
    their field tuple, mutable ones are unhashable."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    fields, n, get = frozenset(names), len(names), attrgetter(*names)
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    post = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            if args:
                given = len(args) + len(kwargs)
                kwargs.update(zip(names, args))
                if len(kwargs) != given:
                    raise TypeError(f"{cls.__name__}() got too many or repeated arguments")
            if len(kwargs) < n:
                kwargs = {**defaults, **kwargs}
            if kwargs.keys() != fields:
                raise TypeError(f"{cls.__name__}() missing {sorted(fields - kwargs.keys())}, "
                                f"unexpected {sorted(kwargs.keys() - fields)}")
        else:
            kwargs.update(zip(names, args))
        _set(self, "__dict__", kwargs)
        if post is not None:
            post(self)

    def __eq__(self, other):
        return get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(get(self) if n > 1 else (get(self),))

    def __repr__(self):
        values = zip(names, get(self) if n > 1 else (get(self),))
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in values)})"

    cls.__init__, cls.__eq__, cls.__repr__, cls.__match_args__ = __init__, __eq__, __repr__, names
    cls.__hash__ = __hash__ if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
