"""The binary artifact format shared by model and embedding files.

A file is one JSON header line, then a blob of little-endian float64
values: named arrays one after another, row-major. The header names the
format and its version, lists every array as ``[name, shape]`` in blob
order under ``arrays``, holds the data record the file was trained on
(or null) under ``data``, and carries the sha256 of the blob, so a
truncated or edited file is refused on load.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .corpus import DataContract


class ChecksumError(IOError):
    """Stored checksum does not match the file contents, or the header is malformed."""


def write_artifact(path, header: dict, arrays: dict[str, np.ndarray],
                   data: DataContract | None) -> None:
    """Write ``header`` with the array list, data record and checksum as one line, then the blob."""
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays.values())
    header = {
        **header,
        "arrays": [[name, list(a.shape)] for name, a in arrays.items()],
        "data": None if data is None else vars(data),
        "checksum": hashlib.sha256(blob).hexdigest(),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(blob)


def _is_shape(shape) -> bool:
    return isinstance(shape, list) and all(
        type(n) is int and n >= 0 for n in shape  # type(): a bool is no dimension
    )


def read_artifact(path, format_name: str, version: int, required: dict[str, type | tuple]):
    """Return (header, arrays, data record) of a checked file of the given format.

    ``required`` maps each header key the format adds to the type (or
    tuple of types) its value must have. The arrays come back by name in
    file order, as writable float64 arrays; the data record is None when
    the file was saved without one. Every malformed header (a missing or
    wrong-typed value, an array list that does not describe the blob, a
    data record that does not parse), and every checksum mismatch, raises
    ChecksumError.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ChecksumError(f"unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise ChecksumError("header is not a JSON object")
    if header.get("format") != format_name or header.get("version") != version:
        raise ChecksumError(f"not a {format_name} v{version} file")
    required = {**required, "arrays": list, "data": (dict, type(None))}
    missing = [key for key in ("checksum", *required) if key not in header]
    if missing:
        raise ChecksumError(f"{format_name} header lacks {missing}")
    mistyped = [key for key, kind in required.items() if not isinstance(header[key], kind)]
    if mistyped:
        raise ChecksumError(f"{format_name} header has values of the wrong type: {mistyped}")
    if hashlib.sha256(blob).hexdigest() != header["checksum"]:
        raise ChecksumError(f"{format_name} blob checksum mismatch")

    listed = header["arrays"]
    if not all(isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
               and _is_shape(entry[1]) for entry in listed):
        raise ChecksumError(f"{format_name} arrays must be [name, shape] pairs "
                            "with shapes of non-negative integers")
    shapes = {name: tuple(shape) for name, shape in listed}
    if len(shapes) != len(listed):
        raise ChecksumError(f"{format_name} arrays repeat a name")
    sizes = [math.prod(shape) for shape in shapes.values()]
    if len(blob) != 8 * sum(sizes):
        raise ChecksumError(f"blob holds {len(blob)} bytes, header implies {8 * sum(sizes)}")
    values = np.frombuffer(blob, dtype="<f8").astype(np.float64)  # one writable copy
    pieces = np.split(values, np.cumsum(sizes)[:-1])
    arrays = {name: piece.reshape(shape) for (name, shape), piece in zip(shapes.items(), pieces)}

    try:  # a nested value of the wrong type surfaces here as TypeError or ValueError
        data = None if header["data"] is None else DataContract.from_dict(header["data"])
    except (TypeError, ValueError) as e:
        raise ChecksumError(f"malformed {format_name} header: {e}") from e
    return header, arrays, data
