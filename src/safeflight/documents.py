"""One checker for the package's documents: scenario files and plan documents.

Each format is described once, by a JSON Schema: SCENARIO_SCHEMA in cli and
PLAN_SCHEMA in planner, whose objects object_schema writes. Two walks of a
schema read a document. violation finds the shallowest place where the
document breaks the schema, with JSON Schema's meaning of the keywords those
schemas use. converted then makes every schema number a float and every
integer an int; a number too large for a float, or an integer beyond
+-2**53, is a ValueError naming its path. checked runs both. Where a node
holds its type alone, both walks settle a value by its exact type, and an
array of such items by one pass over its entry types; they walk the entries
one by one only where that pass fails. A message names a value by its
type, its length or its first 24 characters, never whole. This module
imports nothing from the package, and no jsonschema.
"""

from __future__ import annotations

# The Python types of each JSON type; a bool is only a boolean, and 3.0 is an integer too.
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "number": (int, float)}
_TYPES["integer"] = int

# A value's JSON type, as a message names it; a bool is no integer.
_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean"}
_TYPE_NAMES.update({int: "an integer", float: "a number", type(None): "null"})

# The exact types whose values a node holding its type alone accepts as they stand, so the
# walks settle them without a call; of those, converted keeps _KEPT's as they are (it bounds
# every integer, so it keeps none).
_PLAIN = {"string": {str}, "boolean": {bool}, "number": {int, float}, "integer": {int}}
_KEPT = {"string": {str}, "boolean": {bool}, "number": {float}}
_NONE = frozenset()


def _plain(schema: dict, table: dict) -> set:
    """The exact types in table of schema's type if schema holds its type alone, else none."""
    return table.get(schema.get("type"), _NONE) if len(schema) == 1 else _NONE


def _type_name(value) -> str:
    return _TYPE_NAMES.get(type(value)) or f"a {type(value).__name__}"


def _brief(value) -> str:
    """repr(value), cut to 24 characters."""
    text = repr(value)
    return text if len(text) <= 24 else f"{text[:21]}..."


def _same(value, expected) -> bool:
    """JSON equality for const and enum: true and 1 differ, 1.0 and 1 do not."""
    return isinstance(value, bool) == isinstance(expected, bool) and value == expected


def _where(path: tuple) -> str:
    return "/".join(map(str, path)) or "<root>"


def _is_type(value, kind: str) -> bool:
    if type(value) is bool:
        return kind == "boolean"
    return isinstance(value, _TYPES[kind]) or (
        kind == "integer" and isinstance(value, float) and value.is_integer()
    )


def _errors(value, schema: dict, path: tuple, found: list) -> list:
    """found, with (path, message) appended for every way value breaks schema.

    Covers type, const, enum, and the object and array keywords, which apply
    only to values of their type.
    """
    kind = schema.get("type")
    if kind is not None and not _is_type(value, kind):
        found.append((path, f"{_type_name(value)} is not of type {kind!r}"))
    if "const" in schema and not _same(value, schema["const"]):
        found.append((path, f"{schema['const']!r} was expected"))
    if "enum" in schema and not any(_same(value, v) for v in schema["enum"]):
        found.append((path, f"{_brief(value)} is not one of {schema['enum']!r}"))
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                found.append((path, f"{key!r} is a required property"))
        if schema.get("additionalProperties") is False and not value.keys() <= props.keys():
            extra = ", ".join(_brief(key) for key in value if key not in props)
            found.append((path, f"unknown field(s) {extra}"))
        for key, sub in props.items():
            if key in value and type(value[key]) not in _plain(sub, _PLAIN):
                _errors(value[key], sub, path + (key,), found)
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            found.append((path, f"{len(value)} items, fewer than the minimum {schema['minItems']}"))
        if len(value) > schema.get("maxItems", len(value)):
            found.append((path, f"{len(value)} items, more than the maximum {schema['maxItems']}"))
        items = schema.get("items", {})
        if not _plain(items, _PLAIN).issuperset(map(type, value)):
            for i, item in enumerate(value):
                _errors(item, items, path + (i,), found)
    return found


def violation(doc, schema: dict) -> tuple[tuple, str] | None:
    """The shallowest (path, message) where doc breaks schema, or None."""
    return min(_errors(doc, schema, (), []), key=lambda e: len(e[0]), default=None)


def exact_int(name: str, value: int) -> int:
    """value, or a ValueError naming the field and its digit count where |value| > 2**53.

    Past 2**53 a float no longer holds every integer, and the error never
    prints the integer itself, which may run to hundreds of digits.
    """
    if abs(value) > 2**53:
        raise ValueError(f"{name}: a {len(str(abs(value)))}-digit integer is beyond 2**53")
    return value


def converted(value, schema: dict, path: tuple = ()):
    """A schema-valid value with every schema number a float and every integer an int.

    A float, string or bool that its node holds with its type alone is
    returned as it is, and so is an array of them. A number too large for a
    float, or an integer beyond +-2**53, is a ValueError naming its path.
    """
    kind = schema.get("type")
    if kind == "number":
        try:
            return float(value)
        except OverflowError:
            digits = len(str(abs(value)))
            raise ValueError(
                f"{_where(path)}: a {digits}-digit integer is too large for a float"
            ) from None
    if kind == "integer":
        return exact_int(_where(path), int(value))
    if kind == "object":
        props = schema["properties"]
        return {
            k: v if type(v) in _plain(props[k], _KEPT) else converted(v, props[k], path + (k,))
            for k, v in value.items()
        }
    if kind == "array":
        items = schema["items"]
        if _plain(items, _KEPT).issuperset(map(type, value)):
            return value
        return [converted(v, items, path + (i,)) for i, v in enumerate(value)]
    return value


def object_schema(properties: dict, required: list | None = None) -> dict:
    """The schema of an object with these properties and no others, the required ones named."""
    schema = {"type": "object", "properties": properties, "additionalProperties": False}
    return schema if required is None else {**schema, "required": required}


def checked(doc, schema: dict):
    """converted(doc, schema), or a ValueError naming the path where doc breaks schema."""
    error = violation(doc, schema)
    if error is not None:
        raise ValueError(f"schema violation at {_where(error[0])}: {error[1]}")
    return converted(doc, schema)
