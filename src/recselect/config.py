"""The rules a config value must follow, in one place.

A rule returns the value it checked or raises a ConfigError naming the key and
the value found, which the CLI prints as one ``config error:`` line (exit 2).
"""

from __future__ import annotations

import inspect
import json
import math

from .errors import ConfigError


def load_config(path: str) -> dict:
    """The JSON object in the file at ``path``; a missing file, bad JSON or another JSON value is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, found {type(config).__name__}")
    return config


def is_integer(value) -> bool:
    """An int that is not a bool: JSON's ``true`` loads as a bool, and Python's bools are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite int or float that is not a bool: Python's json module reads ``NaN`` and ``Infinity``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def is_boolean(value) -> bool:
    return isinstance(value, bool)


def is_file_name(value) -> bool:
    """A string naming one file inside a directory: not empty, ``.`` or ``..``, and without a path separator."""
    return isinstance(value, str) and value not in ("", ".", "..") and "/" not in value and "\\" not in value


def expect(what: str, value, accepts, expected: str):
    """``value`` once ``accepts(value)`` holds; else a ConfigError: '<what> must be <expected>, found <value>'."""
    if not accepts(value):
        raise ConfigError(f"{what} must be {expected}, found {value!r}")
    return value


def check_keys(owner: str, entry: dict, known) -> None:
    """ConfigError naming the first key of ``entry`` that is not in ``known``."""
    for key in entry:
        if key not in known:
            raise ConfigError(f"{owner} has unknown key {key!r}; known: {list(known)}")


def keyword_defaults(fn) -> dict[str, object]:
    """The parameters of ``fn`` that have a default, mapped to that default."""
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


def check_parameters(owner: str, params, defaults: dict[str, object]) -> dict:
    """A copy of ``params`` once each name is in ``defaults`` and each value is of its default's type.

    An int default takes an integer, a float default any finite number, and any other a value of its type.
    """
    expect(f"{owner} params", params, lambda p: isinstance(p, dict), "an object")
    check_keys(f"{owner} params", params, defaults)
    for name, value in params.items():
        kind = type(defaults[name])
        accepts = {int: is_integer, float: is_number}.get(kind, lambda v: type(v) is kind)
        expect(f"{owner} parameter {name!r}", value, accepts, f"of type {kind.__name__}")
    return dict(params)
