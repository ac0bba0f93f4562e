"""Immutable value records, the base of the package's data and report types.

A subclass lists its fields as class annotations, in order (those of a
record base first); a class attribute named after a field is its default.
Records are built from positional or keyword arguments, then
`__post_init__` runs. Two records are equal when they are of the same
class and their field tuples are equal; the hash is that of the field
tuple, the repr is `QualName(field=value!r, ...)`, and no attribute can be
set or deleted. `replace(**changes)` returns a copy with the named fields
changed, built through the same checks.
"""


class Record:

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(dict.fromkeys(
            name for base in reversed(cls.__mro__)
            for name in base.__dict__.get("__annotations__", ())))
        cls._defaults = {name: getattr(cls, name) for name in cls._fields
                         if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__} takes {len(fields)} "
                            f"fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name in values or name not in fields:
                raise TypeError(f"{cls.__qualname__} got a repeated or "
                                f"unknown field {name!r}")
            values[name] = value
        for name in fields:
            if name not in values:
                if name not in self._defaults:
                    raise TypeError(
                        f"{cls.__qualname__} is missing field {name!r}")
                values[name] = self._defaults[name]
        self.__dict__.update((name, values[name]) for name in fields)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
