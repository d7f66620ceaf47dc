"""One JSON codec for every saved dataclass: models, configs, specs, results.

A dataclass is encoded field by field under the field's own name; numpy
arrays become nested lists, tuples become lists, nested dataclasses become
objects.  Decoding reads the field types from the class's type hints, so a
file carries no format tags.  The decoder is strict: an unexpected key, a
missing required key, a non-numeric array or a scalar of the wrong JSON type
(``bool`` is not an ``int``; an ``int`` is a valid ``float`` and stays an
``int``) raises a ``ValueError`` naming the class and the key, before any
numpy code sees the data.

``json_chunks`` yields the canonical text of a value,
``json.dumps(to_json(obj), sort_keys=True)``, in pieces, so that a large
model's bytes are built without first turning all of it into Python lists.
``write_atomic`` writes such pieces to a file, whole or not at all; every
file the package writes goes through it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import stat
import types
import typing

import numpy as np


# The JSON types each scalar hint accepts; bool, an int subclass, only for bool.
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}

# About how many numbers of an array one chunk of ``json_chunks`` holds.
CHUNK_ITEMS = 4096


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


def json_chunks(obj):
    """Yield strings that join to ``json.dumps(to_json(obj), sort_keys=True)``.

    An array of more than ``CHUNK_ITEMS`` numbers is encoded a block of rows
    at a time, about ``CHUNK_ITEMS`` numbers (at least one row) per block, so
    only one block's lists exist at once.  Keys sort as ``json.dumps`` sorts
    them, before a non-string key becomes its JSON text (``2`` before ``10``).
    """
    if dataclasses.is_dataclass(obj):
        yield from _object_chunks(sorted((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    elif isinstance(obj, dict):
        yield from _object_chunks(sorted(obj.items()))
    elif isinstance(obj, np.ndarray) and obj.size > CHUNK_ITEMS:
        rows = max(1, CHUNK_ITEMS // obj[0].size)
        yield "["
        for start in range(0, len(obj), rows):
            yield ("" if start == 0 else ", ") + json.dumps(obj[start : start + rows].tolist())[1:-1]
        yield "]"
    elif isinstance(obj, (tuple, list)):
        yield "["
        for i, v in enumerate(obj):
            if i:
                yield ", "
            yield from json_chunks(v)
        yield "]"
    else:
        yield json.dumps(to_json(obj))


def _object_chunks(items):
    yield "{"
    for i, (key, value) in enumerate(items):
        yield ("" if i == 0 else ", ") + json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": "
        yield from json_chunks(value)
    yield "}"


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


def read_json(path, build):
    """``build`` applied to the JSON in the file ``path`` names.  An error in
    the file's text or content is a ``ValueError`` that names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return build(json.load(fh))
        except (ValueError, TypeError) as exc:  # json's decode errors and UnicodeDecodeError are ValueErrors too
            raise ValueError(f"{os.fspath(path)}: {exc}") from None


def write_atomic(path, chunks) -> None:
    """Write the strings ``chunks`` yields, UTF-8 encoded and with no newline
    translation, to the file ``path`` names, creating its directory.

    The chunks go to a new temporary file beside that file, which then
    replaces it, so a write that fails part way (the disk, or ``chunks``
    raising) leaves any earlier file as it was and no truncated one.  A
    symlink at ``path`` is followed, not replaced, and a replaced file keeps
    its permission bits.
    """
    target = os.path.realpath(path)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    tmp = f"{target}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if os.path.exists(target):
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


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
    if hint in _SCALARS and (
        not isinstance(value, _SCALARS[hint]) or (isinstance(value, bool) and hint is not bool)
    ):
        raise ValueError(f"{where}: expected {hint.__name__}, got {type(value).__name__}")
    return value


def _decode_array(value, where: str) -> np.ndarray:
    try:
        a = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"{where}: not a numeric array ({exc})") from None
    if a.dtype.kind not in "fi":  # JSON numbers load as float64 or int64
        raise ValueError(f"{where}: not a numeric array")
    return a
