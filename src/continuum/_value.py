"""The frozen base of the package's value classes, in place of ``dataclasses``."""

_set = object.__setattr__  # how a value class sets its own fields
_MISSING = object()


class _Value:
    """Fields named in ``__match_args__``, kept in ``__slots__``, defaults in ``_defaults``; bound as a
    signature binds them, then ``__post_init__`` runs. Equality (same class only), hashing and the repr
    are a frozen dataclass's; assignment and deletion raise; pickle and copy rebuild by the constructor."""

    __slots__ = __match_args__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):  # the fields past ``args`` by keyword, else by default
            args += tuple(kwargs.pop(name) if name in kwargs else self._defaults.get(name, _MISSING) for name in names[len(args):])
            if kwargs or len(args) != len(names) or any(value is _MISSING for value in args):
                raise TypeError(f"{type(self).__name__}() takes the fields ({', '.join(names)})")
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__match_args__)})"

    def __reduce__(self):
        return type(self), self._fields()
