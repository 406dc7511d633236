"""Value records: the part of a dataclass lagkit uses, without generated code.

Creating a dataclass execs generated methods, about a millisecond per class,
which a cold `lagkit check` would pay for every record type it imports.  A
Record subclass names its fields in `_fields`, and class attributes give
defaults (shared by every record, so never a mutable one).  Records compare
by type and fields, print like dataclasses, support replace(), refuse
assignment and compute their hash once.
vars(record) maps each field to its value, in `_fields` order.
"""

from __future__ import annotations

_MISSING = object()  # the default of a field that has none


class Record:
    __slots__ = ("__dict__", "_hash")  # the hash, once computed
    _fields: tuple[str, ...] = ()
    _template: dict = {}  # field -> its class-attribute default, or _MISSING
    _required: frozenset = frozenset()  # the fields without a default

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._template = {name: getattr(cls, name, _MISSING) for name in cls._fields}
        cls._required = frozenset(k for k, v in cls._template.items() if v is _MISSING)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if args:
            if not kwargs and len(args) == len(fields):
                self.__dict__.update(zip(fields, args))
                self.__post_init__()
                return
            if len(args) > len(fields) or not kwargs.keys().isdisjoint(fields[: len(args)]):
                raise self._misfit()
            kwargs.update(zip(fields, args))
        if not (kwargs.keys() >= self._required and kwargs.keys() <= self._template.keys()):
            raise self._misfit()
        self.__dict__.update(self._template)  # in field order, then filled in
        self.__dict__.update(kwargs)
        self.__post_init__()

    def _misfit(self) -> TypeError:
        return TypeError(f"{type(self).__name__} takes the fields ({', '.join(self._fields)})")

    def __post_init__(self):
        """Validate the fields; subclasses override."""

    def replace(self, **changes):
        """A copy with the given fields changed (a name that is no field makes
        one argument too many)."""
        return type(self)(*{**self.__dict__, **changes}.values())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # first call: a spec hashes its whole tree
            object.__setattr__(self, "_hash", hash(tuple(self.__dict__.values())))
            return self._hash

    def __getstate__(self):
        return self.__dict__  # without the hash: str hashes differ between processes

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")
