"""One value rule and one JSON codec for the pipeline's small records.

A record is a frozen dataclass that mixes in :class:`Record`; its field
list and annotations, written once in the dataclass, rule both.  Building a
record, in Python or from JSON, checks each value against its annotation:
``float`` takes a finite int or float (never a bool, NaN or infinity) and
stores a float, ``int`` takes an int only, ``tuple[...]`` takes a list or
tuple of the right length and stores a tuple, ``X | None`` takes None or an
``X``, and a nested record takes that record or a dict it decodes.  A
missing field takes its default and is an error if it has none.  Encoding
writes every field that is not None or an empty mapping, with nested records
and tuples encoded recursively (tuples as lists).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing


class Record:
    """Mixin checking a frozen dataclass's fields and deriving ``as_dict``/``from_dict``.

    Subclasses name, as class keywords, the error type that every failure
    (of the field rule, their own ``__post_init__``, which calls this one
    first, or a nested record) is raised as, and whether ``from_dict``
    ignores keys that name no field rather than refusing them:
    ``class T(Record, error=ConfigurationError, ignore_unknown=False)``.
    """

    error: typing.ClassVar[type[ValueError]]
    ignore_unknown: typing.ClassVar[bool]

    def __init_subclass__(cls, *, error: type[ValueError], ignore_unknown: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.error = error
        cls.ignore_unknown = ignore_unknown

    def __post_init__(self):
        for name, hint in _field_hints(type(self)).items():
            try:
                value = _decode(hint, getattr(self, name))
            except (TypeError, ValueError, OverflowError) as exc:
                raise self.error(f"{type(self).__name__}.{name}: {exc}") from exc
            object.__setattr__(self, name, value)

    def as_dict(self) -> dict:
        record = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not (value is None or value == {}):
                record[f.name] = _encode(value)
        return record

    @classmethod
    def from_dict(cls, record):
        try:
            if not isinstance(record, dict):
                raise TypeError(f"expected a JSON object, got {type(record).__name__}")
            hints = _field_hints(cls)
            unknown = sorted(set(record) - set(hints))
            if unknown and not cls.ignore_unknown:
                raise ValueError(f"unknown fields {unknown}")
            return cls(**{name: record[name] for name in hints if name in record})
        except cls.error:
            raise
        except (TypeError, ValueError) as exc:
            raise cls.error(f"invalid {cls.__name__} record: {exc}") from exc


@functools.cache
def _field_hints(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _encode(value):
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode(hint, value):
    if type(hint) is type:  # a plain class, not tuple[...] or X | None
        if issubclass(hint, Record):
            return value if isinstance(value, hint) else hint.from_dict(value)
        accepted = (int, float) if hint is float else hint
        if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
            raise TypeError(f"expected {hint.__name__}, got {value!r}")
        if hint is float:
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"expected a finite number, got {value!r}")
        return value
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        args = typing.get_args(hint)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"expected {len(args)} items, got {len(value)}")
        return tuple(_decode(arg, item) for arg, item in zip(args, value))
    (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return None if value is None else _decode(inner, value)
