"""One checker for the package's documents: scenario files and plan documents.

Each format is described once, by a JSON Schema: SCENARIO_SCHEMA in cli and
PLAN_SCHEMA in planner, whose objects object_schema writes. On first use a
schema is compiled into one walk per node, and one walk checks a document
against the keywords, with JSON Schema's meaning, and converts it, every
schema number to a float and every integer to an int. A node holding its
type alone keeps a float, string or bool as it stands, and its parent settles
such values by their exact type without a call, an array of them in one pass
over its entry types. A message names a value by its type, its length or its
first 24 characters. A schema may not change after its first use. This
module imports nothing from the package.
"""

from __future__ import annotations

# The Python types of each JSON type; a bool is only a boolean, and 3.0 is an integer too.
_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "boolean": (bool,)}
_TYPES.update(number=(int, float), integer=(int,))

# A value's JSON type, as a message names it; a bool is no integer.
_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean"}
_TYPE_NAMES.update({int: "an integer", float: "a number", type(None): "null"})

# The exact types a node holding its type alone keeps as they stand (it bounds every
# integer); its parent settles such a value without a call.
_KEPT = {"string": {str}, "boolean": {bool}, "number": {float}}

# Compiled walks by id(schema), each held with its schema so that the id stays its own.
_WALKS: dict[int, tuple] = {}


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


def _number(value, kind: str, path: tuple, big: list):
    """A float at a number node, an int within +-2**53 at an integer node; else value."""
    try:
        number = float(value) if kind == "number" else int(value)
        if kind == "number" or abs(number) <= 2**53:  # past it, floats skip integers
            return number
        why = "beyond 2**53"
    except OverflowError:
        number, why = value, "too large for a float"
    big.append(ValueError(f"{_where(path)}: a {len(str(abs(number)))}-digit integer is {why}"))
    return value


def _compile(schema: dict) -> tuple[set, object]:
    """(kept, walk) of one schema node: the exact types it keeps, as _KEPT says, and its walk.

    walk(value, path, found, big) gives value converted. It appends (path,
    message) to found for each way value breaks schema, in the schema's
    order, and a ValueError to big for each number it cannot convert, in
    document order. head checks type, const and enum, which a value of the
    node's exact type passes without the call where the node has neither
    const nor enum; then the object or array keywords apply to a value of
    their type, or a number or integer is converted.
    """
    kind, const, options = schema.get("type"), schema.get("const"), schema.get("enum")
    plain = _TYPES.get(kind, ()) if "const" not in schema and options is None else ()

    def head(value, path: tuple, found: list) -> bool:
        typed = kind is None or _is_type(value, kind)
        if not typed:
            found.append((path, f"{_type_name(value)} is not of type {kind!r}"))
        if "const" in schema and not _same(value, const):
            found.append((path, f"{const!r} was expected"))
        if options is not None and not any(_same(value, v) for v in options):
            found.append((path, f"{_brief(value)} is not one of {options!r}"))
        return typed

    if schema.keys() & {"properties", "required", "additionalProperties"}:
        props = schema.get("properties", {})
        nodes = {key: _compile(sub) for key, sub in props.items()}
        rank = {key: i for i, key in enumerate(props)}
        required = schema.get("required", ())
        needed, closed = frozenset(required), schema.get("additionalProperties") is False

        def walk(value, path, found, big):
            if not (type(value) in plain or head(value, path, found) and isinstance(value, dict)):
                return value
            if not value.keys() >= needed:
                missing = (key for key in required if key not in value)
                found.extend((path, f"{key!r} is a required property") for key in missing)
            if closed and not value.keys() <= props.keys():
                extra = ", ".join(_brief(key) for key in value if key not in props)
                found.append((path, f"unknown field(s) {extra}"))
            start, out = len(found), dict(value)
            for key, item in value.items():
                if key in nodes and type(item) not in nodes[key][0]:
                    out[key] = nodes[key][1](item, path + (key,), found, big)
            if len(found) > start:  # the properties' errors in the schema's order, as ties go
                found[start:] = sorted(found[start:], key=lambda e: rank[e[0][len(path)]])
            return out

    elif schema.keys() & {"items", "minItems", "maxItems"}:
        kept, each = _compile(schema.get("items", {}))
        least, most = schema.get("minItems", 0), schema.get("maxItems", float("inf"))

        def walk(value, path, found, big):
            if not (type(value) in plain or head(value, path, found) and isinstance(value, list)):
                return value
            if len(value) < least:
                found.append((path, f"{len(value)} items, fewer than the minimum {least}"))
            if len(value) > most:
                found.append((path, f"{len(value)} items, more than the maximum {most}"))
            if kept.issuperset(map(type, value)):
                return value
            return [each(item, path + (i,), found, big) for i, item in enumerate(value)]

    else:
        numeric = kind in ("number", "integer")

        def walk(value, path, found, big):
            if not (type(value) in plain or head(value, path, found)) or not numeric:
                return value
            return _number(value, kind, path, big)

    return _KEPT.get(kind, set()) if len(schema) == 1 else set(), walk


def _walk(doc, schema: dict) -> tuple[object, list, list]:
    """doc converted, the violations found and the conversion errors, from one walk."""
    entry = _WALKS.get(id(schema))
    if entry is None:
        if len(_WALKS) >= 32:
            _WALKS.clear()
        entry = _WALKS[id(schema)] = (schema, _compile(schema)[1])
    found, big = [], []
    return entry[1](doc, (), found, big), found, big


def violation(doc, schema: dict) -> tuple[tuple, str] | None:
    """The shallowest (path, message) where doc breaks schema, or None."""
    return min(_walk(doc, schema)[1], key=lambda e: len(e[0]), default=None)


def object_schema(properties: dict, required: list | None = None) -> dict:
    """The schema of an object with these properties and no others, the required ones named."""
    schema = {"type": "object", "properties": properties, "additionalProperties": False}
    return schema if required is None else {**schema, "required": required}


def checked(doc, schema: dict):
    """doc converted, or a ValueError naming the shallowest path where it breaks schema.

    Failing that, the error names the first number too large for a float, or
    integer beyond +-2**53, in document order.
    """
    value, found, big = _walk(doc, schema)
    if found:
        path, message = min(found, key=lambda e: len(e[0]))
        raise ValueError(f"schema violation at {_where(path)}: {message}")
    if big:
        raise big[0]
    return value
