"""The binary artifact format shared by model and embedding files.

A file is one JSON header line, then a blob of little-endian float64
values. The header names the format and its version and carries the
sha256 of the blob, so a truncated or edited file is refused on load.
"""

from __future__ import annotations

import hashlib
import json


class ChecksumError(IOError):
    """Stored checksum does not match the file contents, or the header is malformed."""


def write_artifact(path, header: dict, blob: bytes) -> None:
    """Write ``header`` plus the blob's checksum as one line, then the blob."""
    header = {**header, "checksum": hashlib.sha256(blob).hexdigest()}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(blob)


def read_artifact(path, format_name: str, version: int, required: dict[str, type | tuple]):
    """Return (header, blob) of a checked file of the given format.

    ``required`` maps each header key the format needs to the type (or
    tuple of types) its value must have. Every malformed header, a
    missing or wrong-typed ``required`` value included, and every
    checksum mismatch raises ChecksumError.
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
    missing = [key for key in ("checksum", *required) if key not in header]
    if missing:
        raise ChecksumError(f"{format_name} header lacks {missing}")
    mistyped = [key for key, kind in required.items() if not isinstance(header[key], kind)]
    if mistyped:
        raise ChecksumError(f"{format_name} header has values of the wrong type: {mistyped}")
    if hashlib.sha256(blob).hexdigest() != header["checksum"]:
        raise ChecksumError(f"{format_name} blob checksum mismatch")
    return header, blob
