"""One JSON codec for every saved dataclass: models, configs, specs, results.

A dataclass is encoded field by field under the field's own name; numpy
arrays become nested lists, tuples become lists, nested dataclasses become
objects.  Decoding reads the field types from the class's type hints, so a
file carries no format tags.  The decoder is strict: an unexpected key, a
missing required key or a non-numeric array raises a ``ValueError`` naming the
class and the key, before any numpy code sees the data.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

import numpy as np


def to_json(obj):
    """JSON-ready form of a dataclass (or of any value inside one)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    return obj


@functools.cache
def _fields(cls) -> tuple[dict, tuple[str, ...]]:
    """(type hint per field, names of the fields without a default)."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = tuple(
        f.name for f in fields if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    return {f.name: hints[f.name] for f in fields}, required


def from_json(cls, obj):
    """Rebuild ``cls`` from ``to_json`` output; ``cls(**fields)`` runs its checks."""
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__}: expected a JSON object, got {type(obj).__name__}")
    hints, required = _fields(cls)
    unexpected = sorted(set(obj) - set(hints))
    if unexpected:
        raise ValueError(f"{cls.__name__}: unexpected keys {unexpected}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValueError(f"{cls.__name__}: missing keys {missing}")
    return cls(**{k: _decode(hint, obj[k], f"{cls.__name__}.{k}") for k, hint in hints.items() if k in obj})


def _decode(hint, value, where: str):
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):  # only ``X | None`` occurs
        if value is None:
            return None
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
        origin = typing.get_origin(hint)
    if hint is np.ndarray:
        return _decode_array(value, where)
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value)
    if origin is tuple:
        item = typing.get_args(hint)[0]
        if item is str and isinstance(value, str):  # a lone path where a list of paths is expected
            return (value,)
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected a list, got {type(value).__name__}")
        return tuple(_decode(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        key_type, value_type = typing.get_args(hint)
        if not isinstance(value, dict):
            raise ValueError(f"{where}: expected a JSON object, got {type(value).__name__}")
        return {key_type(k): _decode(value_type, v, f"{where}[{k!r}]") for k, v in value.items()}
    return value


def _decode_array(value, where: str) -> np.ndarray:
    try:
        a = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"{where}: not a numeric array ({exc})") from None
    if a.dtype.kind not in "fi":  # JSON numbers load as float64 or int64
        raise ValueError(f"{where}: not a numeric array")
    return a
