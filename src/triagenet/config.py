"""One schema for configuration: how a JSON dict becomes checked values.

Every value is checked against the annotation of the field or parameter
it sets. An integer setting refuses a bool and a float; a float setting
takes an int; a tuple setting takes a JSON list of the right length
whose items pass the same check, and comes back as a tuple; a list
setting takes a JSON list of any length whose items pass it.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import typing
from types import MappingProxyType

_EXPECTED = {int: "an integer", float: "a number", str: "a string", dict: "an object"}
# the concrete type first: isinstance stops there before the slower ABC check
_ACCEPTED = {int: (int, numbers.Integral), float: (float, numbers.Real)}


class ConfigError(ValueError):
    """A configuration value is of the wrong type, out of range, or inconsistent."""


@functools.cache  # typing's introspection costs more than the check itself
def _shape(kind) -> tuple:
    """An annotation's sequence type (None for a scalar), its item kinds, and
    ``{X}`` for a list or ``tuple[X, ...]``, whose items must all be X (else empty)."""
    origin, items = typing.get_origin(kind), typing.get_args(kind)
    same = origin is list or (origin is tuple and items[-1] is Ellipsis)
    return origin, items, frozenset(items[:1] if same else ())


def _check_value(name: str, value, kind):
    origin, items, same = _shape(kind)
    if origin is None:
        if isinstance(value, bool) or not isinstance(value, _ACCEPTED.get(kind, kind)):
            raise ConfigError(f"{name} must be {_EXPECTED[kind]}, got {value!r}")
        return value
    if same and type(value) in (list, tuple) and set(map(type, value)) <= same:
        # exact classes throughout, the common case: one pass in C
        return value if type(value) is origin else origin(value)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    if same:
        items = items[:1] * len(value)
    elif len(value) != len(items):
        raise ConfigError(f"{name} must be a list of {len(items)} values, got {value!r}")
    return origin(_check_value(f"{name}[{i}]", v, k) for i, (v, k) in enumerate(zip(value, items)))


def check(data, types, section: str = "") -> dict:
    """``data`` with every value checked against ``types``; sequences become the annotated type.

    ``section`` names the config section in messages; "" is the top level.
    Raises ConfigError for a non-object, an unknown key, or a wrong type.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{section or 'config'} must be a JSON object")
    if not data.keys() <= types.keys():
        what = f"{section} settings" if section else "config sections"
        raise ConfigError(f"unknown {what}: {sorted(data.keys() - types.keys())}")
    prefix = f"{section}." if section else ""
    checked = {}
    for key, value in data.items():
        kind = types[key]  # a value of exactly the annotated class passes without a call
        checked[key] = value if type(value) is kind else _check_value(prefix + key, value, kind)
    return checked


def exact_check(types) -> typing.Callable[[object], bool]:
    """A test, built once from ``types``, that ``check(value, types)`` would pass
    ``value``'s items through unchanged: ``value`` is a dict whose keys are all in
    ``types``, each value exactly of its annotated class, and a list or
    ``tuple[X, ...]`` exactly of its own class with items exactly of X.

    True means ``check`` returns a dict of the same objects. False means only that
    ``check`` must give the verdict: it takes an int for a float, for one.
    """
    kinds = {}
    for name, kind in types.items():
        origin, _, same = _shape(kind)
        # (class, item classes); a fixed-length tuple's length is check's to test
        kinds[name] = (kind, None) if origin is None else (origin, same) if same else (None, None)

    def exact(value) -> bool:
        if type(value) is not dict or not value.keys() <= kinds.keys():
            return False
        for key, x in value.items():
            kind, items = kinds[key]
            if type(x) is not kind or items is not None and not set(map(type, x)) <= items:
                return False
        return True

    return exact


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
