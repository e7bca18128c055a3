"""The one JSON rendering of the library's result records."""

from dataclasses import fields
from functools import cache

_PLAIN = frozenset((float, int, str, bool, type(None)))


def _json_value(value):
    if type(value) in _PLAIN:
        return value
    if isinstance(value, tuple):
        return list(map(_json_value, value))
    return value.to_json() if hasattr(value, "to_json") else value


@cache
def _keys(cls) -> tuple[tuple[str, str], ...]:
    return tuple((f.name, f.metadata.get("json_key", f.name)) for f in fields(cls))


class Record:
    """Mixin for result dataclasses: ``to_json`` maps each field, in
    declaration order, to its JSON form under its name (or the ``json_key``
    of its metadata).  Tuples become lists, objects with a ``to_json`` render
    through it, and other values pass through."""

    __slots__ = ()

    def to_json(self) -> dict:
        out = {}
        for name, key in _keys(type(self)):
            value = getattr(self, name)
            # most fields are plain floats: skip the call
            out[key] = value if type(value) in _PLAIN else _json_value(value)
        return out
