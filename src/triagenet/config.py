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
import operator
import typing

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
        # exact classes throughout, such as a JSON list for a tuple: one pass in C
        return value if type(value) is origin else origin(value)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    if same:
        items = items[:1] * len(value)
    elif len(value) != len(items):
        raise ConfigError(f"{name} must be a list of {len(items)} values, got {value!r}")
    checked = origin(_check_value(f"{name}[{i}]", v, k) for i, (v, k) in enumerate(zip(value, items)))
    # a sequence that needs no change passes as itself, as check passes an exact one
    return value if type(value) is origin and all(map(operator.is_, checked, value)) else checked


class Fields(dict):
    """Names mapped to their annotations, each one's shape worked out once: ``exact[name]``
    is the class a value must have to pass ``check`` as itself and, for a list or
    ``tuple[X, ...]``, its items' class (else None); a fixed-length tuple has none."""

    def __init__(self, types):
        super().__init__(types)
        self.exact = {}
        for name, kind in self.items():
            origin, _, same = _shape(kind)
            self.exact[name] = (kind, None) if origin is None else (origin, same) if same else (None, None)


def check(data, types, section: str = "") -> dict:
    """``data`` with every value checked against ``types`` (a ``Fields``, or a mapping to
    build one from); sequences become the annotated type, and a value that needs no
    change passes as itself, as does ``data`` when all do.

    ``section`` names the config section in messages; "" is the top level.
    Raises ConfigError for a non-object, an unknown key, or a wrong type.
    """
    if not isinstance(types, Fields):
        types = Fields(types)
    if not isinstance(data, dict):
        raise ConfigError(f"{section or 'config'} must be a JSON object")
    if not data.keys() <= types.keys():
        what = f"{section} settings" if section else "config sections"
        raise ConfigError(f"unknown {what}: {sorted(data.keys() - types.keys())}")
    exact = types.exact
    checked = data  # copied at the first value that does not pass as itself
    for key, value in data.items():
        cls, items = exact[key]
        if type(value) is not cls or items is not None and not set(map(type, value)) <= items:
            if checked is data:
                checked = dict(data)
            checked[key] = _check_value(f"{section}.{key}" if section else key, value, types[key])
    return checked


@functools.cache  # resolving annotations costs about 0.1 ms a class
def field_types(cls) -> Fields:
    """Each dataclass field of ``cls`` mapped to its resolved annotation; callers share it."""
    hints = typing.get_type_hints(cls)
    return Fields({f.name: hints[f.name] for f in dataclasses.fields(cls)})


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
        """Type-check every field, so a directly built object is checked too. A field
        that ``check`` would convert, such as a list for a tuple, is refused: the
        object would keep it unhashable and unequal to its ``from_dict`` twin."""
        types = field_types(type(self))
        values = {name: getattr(self, name) for name in types}
        for name, value in check(values, types, self.section).items():
            if value is not values[name]:  # converted, as a list to a tuple
                kind = typing.get_origin(types[name]).__name__
                raise ConfigError(f"{self.section}.{name} must be a {kind}, got {values[name]!r}")
