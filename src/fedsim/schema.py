"""An interpreter for the JSON Schema keywords the run summaries use.

`schemas/summary.schema.json` is the one statement of what a summary
holds. This module checks a summary against it in-package, so no `sim`
command pays for importing a general validator library (about 100 ms of
start-up) to check the one summary it writes. It implements only the
keywords that file uses, and on them agrees with the reference Python
validator for JSON Schema draft 2020-12, messages and paths included:

- bool is neither a number nor an integer;
- an integral float such as 1.0 is an integer, and ints are compared as
  ints, never rounded to float;
- NaN passes `minimum`, `maximum` and `exclusiveMinimum`;
- `const` and `enum` compare with type, so True is not 1;
- `pattern` matches with `re.search`, anywhere in the string.

`check_schema` refuses every other keyword, so an edit to the schema
cannot go silently unchecked.
"""

from __future__ import annotations

import numbers
import re
from typing import NamedTuple

DRAFT = "https://json-schema.org/draft/2020-12/schema"
_ANNOTATIONS = ("$schema", "title")  # carry no constraint


class Error(NamedTuple):
    """Where an instance fails (keys from the root) and why, in the
    reference validator's words. A failed `oneOf` keeps each branch's
    errors, in branch order."""

    message: str
    absolute_path: tuple
    branches: tuple = ()


def _is_number(v) -> bool:
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


def _equal(a, b) -> bool:
    """JSON equality: True is not 1, but 1 is 1.0."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _type(types, instance, schema, path):
    types = types if isinstance(types, list) else [types]
    if not any(_TYPES[t](instance) for t in types):
        yield Error(f"{instance!r} is not of type {', '.join(map(repr, types))}", path)


def _const(const, instance, schema, path):
    if not _equal(instance, const):
        yield Error(f"{const!r} was expected", path)


def _enum(enums, instance, schema, path):
    if not any(_equal(each, instance) for each in enums):
        yield Error(f"{instance!r} is not one of {enums!r}", path)


def _minimum(bound, instance, schema, path):
    if _is_number(instance) and instance < bound:
        yield Error(f"{instance!r} is less than the minimum of {bound!r}", path)


def _maximum(bound, instance, schema, path):
    if _is_number(instance) and instance > bound:
        yield Error(f"{instance!r} is greater than the maximum of {bound!r}", path)


def _exclusive_minimum(bound, instance, schema, path):
    if _is_number(instance) and instance <= bound:
        yield Error(f"{instance!r} is less than or equal to the minimum of {bound!r}", path)


def _pattern(pattern, instance, schema, path):
    if isinstance(instance, str) and not re.search(pattern, instance):
        yield Error(f"{instance!r} does not match {pattern!r}", path)


def _required(names, instance, schema, path):
    if isinstance(instance, dict):
        for name in names:
            if name not in instance:
                yield Error(f"{name!r} is a required property", path)


def _properties(properties, instance, schema, path):
    if isinstance(instance, dict):
        for name, sub in properties.items():
            if name in instance:
                yield from schema_errors(sub, instance[name], path + (name,))


def _additional_properties(allowed, instance, schema, path):
    if isinstance(instance, dict):  # check_schema admits only `false`
        known = schema.get("properties", {})
        extras = sorted((name for name in instance if name not in known), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            names = ", ".join(map(repr, extras))
            yield Error(f"Additional properties are not allowed ({names} {verb} unexpected)", path)


def _one_of(branches, instance, schema, path):
    failed = []
    for i, branch in enumerate(branches):
        errors = list(schema_errors(branch, instance, path))
        if errors:
            failed.append(errors)
            continue
        also = [b for b in branches[i + 1:] if next(schema_errors(b, instance, path), None) is None]
        if also:
            reprs = ", ".join(map(repr, also + [branch]))
            yield Error(f"{instance!r} is valid under each of {reprs}", path)
        return
    yield Error(f"{instance!r} is not valid under any of the given schemas", path, tuple(failed))


_KEYWORDS = {
    "type": _type,
    "const": _const,
    "enum": _enum,
    "minimum": _minimum,
    "maximum": _maximum,
    "exclusiveMinimum": _exclusive_minimum,
    "pattern": _pattern,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "oneOf": _one_of,
}


def schema_errors(schema: dict, instance, path: tuple = ()):
    """Every way `instance` fails `schema`, in the reference validator's
    order (the schema's keyword order). `schema` must pass `check_schema`."""
    for key, value in schema.items():
        if key not in _ANNOTATIONS:
            yield from _KEYWORDS[key](value, instance, schema, path)


def check_schema(schema, where: str = "#") -> None:
    """Raise ValueError unless `schema` uses only what this module implements."""
    if not isinstance(schema, dict):
        raise ValueError(f"{where}: a schema must be an object")
    for key, value in schema.items():
        if key == "$schema" and value != DRAFT:
            raise ValueError(f"{where}: unsupported $schema {value!r}")
        if key not in _KEYWORDS and key not in _ANNOTATIONS:
            raise ValueError(f"{where}: unsupported schema keyword {key!r}")
    types = schema.get("type", [])
    for name in types if isinstance(types, list) else [types]:
        if name not in _TYPES:
            raise ValueError(f"{where}: unsupported type {name!r}")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError(f"{where}: only additionalProperties: false is supported")
    for name, sub in schema.get("properties", {}).items():
        check_schema(sub, f"{where}/properties/{name}")
    for i, sub in enumerate(schema.get("oneOf", [])):
        check_schema(sub, f"{where}/oneOf/{i}")
