"""The package's two error types, the type check every config runs when
it is built, and the JSON reader of config and report files.

Every failure the package detects raises `AecError`, a `ValueError` whose
message names the bad value, file or line. `StageError` wraps a failure
with the name of the pipeline stage it occurred in; the CLI prints it and
exits with code 2.
"""

import json
import sys
from dataclasses import fields
from typing import Union, get_args, get_origin, get_type_hints

# annotation -> the types it admits, all of which the config fingerprint's
# JSON encodes; a bool is neither
_NUMBER_TYPES = {int: int, float: (int, float)}


class AecError(ValueError):
    """A failure detected by this package."""


class StageError(AecError):
    """Wraps a failure with the name of the pipeline stage it occurred in."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def _is_number(value, kind):
    return (isinstance(value, _NUMBER_TYPES[kind]) and not isinstance(value, bool)
            and (kind is int or abs(value) <= sys.float_info.max))


def check_field_types(config):
    """Raise an AecError naming the first field of the dataclass `config`
    whose value does not fit its annotation: `int` needs an int and
    `float` a finite int or float, neither a bool; `Tuple[int, ...]` needs
    a tuple or list of such ints, and any other type, such as `str` or a
    nested config, an instance of it; `Optional[...]` also admits None."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        hint, value = hints[f.name], getattr(config, f.name)
        if get_origin(hint) is Union:  # Optional[X]
            if value is None:
                continue
            hint = get_args(hint)[0]
        if get_origin(hint) is tuple:
            kind = get_args(hint)[0]
            ok = (isinstance(value, (tuple, list))
                  and all(_is_number(v, kind) for v in value))
            need = f"a sequence of {kind.__name__}"
        elif hint in _NUMBER_TYPES:
            ok = _is_number(value, hint)
            need = "a finite float" if hint is float else "int"
        else:
            ok = isinstance(value, hint)
            need = "a " + hint.__name__
        if not ok:
            raise AecError(f"{type(config).__name__}.{f.name} must be {need}, "
                           f"got {value!r}")


def read_json(path):
    """The JSON value in the file at `path`; a file that is not UTF-8 JSON
    raises an AecError naming it, with the decoder's line and column."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise AecError(f"{path} is not valid JSON: {e}") from e
