"""Frozen value types without ``dataclasses``, whose import loads inspect, ast and dis.

A subclass's ``__init__`` sets every field with one ``self.__dict__.update``; then none can be
assigned or deleted.  Repr, equality (same type only) and hash go over the fields in order.
"""


class Record:
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in self.__dict__.items())})"

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))
