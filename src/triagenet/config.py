"""One schema for configuration: how a JSON dict becomes checked values.

Every value is checked against the annotation of the field or parameter
it sets. An integer setting refuses a bool and a float; a float setting
takes an int; a tuple setting takes a JSON list of the right length
whose items pass the same check, and comes back as a tuple.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import typing
from types import MappingProxyType

_EXPECTED = {int: "an integer", float: "a number", str: "a string", dict: "an object"}
_ACCEPTED = {int: numbers.Integral, float: numbers.Real}


class ConfigError(ValueError):
    """A configuration value is of the wrong type, out of range, or inconsistent."""


def _check_value(name: str, value, kind):
    if typing.get_origin(kind) is tuple:
        items = typing.get_args(kind)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        if items[-1] is Ellipsis:
            items = (items[0],) * len(value)
        elif len(value) != len(items):
            raise ConfigError(f"{name} must be a list of {len(items)} values, got {value!r}")
        return tuple(
            _check_value(f"{name}[{i}]", v, k) for i, (v, k) in enumerate(zip(value, items))
        )
    if isinstance(value, bool) or not isinstance(value, _ACCEPTED.get(kind, kind)):
        raise ConfigError(f"{name} must be {_EXPECTED[kind]}, got {value!r}")
    return value


def check(data, types, section: str = "") -> dict:
    """``data`` with every value checked against ``types`` and lists made tuples.

    ``section`` names the config section in messages; "" is the top level.
    Raises ConfigError for a non-object, an unknown key, or a wrong type.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{section or 'config'} must be a JSON object")
    unknown = sorted(set(data) - set(types))
    if unknown:
        what = f"{section} settings" if section else "config sections"
        raise ConfigError(f"unknown {what}: {unknown}")
    prefix = f"{section}." if section else ""
    return {key: _check_value(prefix + key, value, types[key]) for key, value in data.items()}


@functools.cache  # resolving annotations costs about 0.1 ms a class
def field_types(cls) -> MappingProxyType:
    """Each dataclass field of ``cls`` mapped to its resolved annotation, read-only."""
    hints = typing.get_type_hints(cls)
    return MappingProxyType({f.name: hints[f.name] for f in dataclasses.fields(cls)})


class Schema:
    """Base of the config dataclasses: one ``from_dict`` and one type check.

    A subclass names its config ``section`` and extends ``validate`` with
    its range rules after calling this one.
    """

    section = ""

    @classmethod
    def from_dict(cls, data):
        """Build from a JSON object: lists become tuples, then ``validate`` runs."""
        obj = cls(**check(data, field_types(cls), cls.section))
        obj.validate()
        return obj

    def validate(self) -> None:
        """Type-check every field, so a directly built object is checked too."""
        types = field_types(type(self))
        check({name: getattr(self, name) for name in types}, types, self.section)
