"""One JSON codec for the pipeline's small records.

A record is a frozen dataclass that mixes in :class:`Record`.  Its JSON
form is derived from its fields and their annotations, so each record's
field list is written once, in the dataclass.  Encoding writes every
field that is not None or an empty mapping, with nested records and
tuples encoded recursively (tuples as lists).  Decoding checks each value
against its field's annotation: ``float`` takes a finite JSON int or float
(never a bool, NaN or Infinity) and stores a float, ``int`` takes a JSON int only,
``tuple[...]`` takes a list of the right length, ``X | None`` takes null
or an ``X``, and a nested record is decoded by this same code.  A missing
field takes its default and is an error if it has none.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing


class Record:
    """Mixin deriving ``as_dict``/``from_dict`` for a frozen dataclass.

    Subclasses name, as class keywords, the error type that every decoding
    failure (including one from ``__post_init__`` or a nested record) is
    raised as, and whether keys that name no field are ignored rather than
    refused: ``class T(Record, error=ConfigurationError, ignore_unknown=False)``.
    """

    error: typing.ClassVar[type[ValueError]]
    ignore_unknown: typing.ClassVar[bool]

    def __init_subclass__(cls, *, error: type[ValueError], ignore_unknown: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.error = error
        cls.ignore_unknown = ignore_unknown

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
            values = {}
            for name, hint in hints.items():
                if name in record:
                    try:
                        values[name] = _decode(hint, record[name])
                    except (TypeError, ValueError, OverflowError) as exc:
                        raise cls.error(f"{cls.__name__}.{name}: {exc}") from exc
            return cls(**values)
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
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return None if value is None else _decode(inner, value)
    if origin is tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        args = typing.get_args(hint)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"expected {len(args)} items, got {len(value)}")
        return tuple(_decode(arg, item) for arg, item in zip(args, value))
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint.from_dict(value)
    accepted = (int, float) if hint is float else hint
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise TypeError(f"expected {hint.__name__}, got {value!r}")
    if hint is float:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value!r}")
    return value
