"""Field tables: the one checker behind every ``repro-*-v1`` document.

Schema modules declare each JSON object kind as a table mapping a field
name to ``(types, description)``, or to ``(types, default, description)``
where an input document's fields are optional.  ``types`` is a type or
a tuple of types (any of them): ``type(None)`` makes a field nullable,
``object`` takes any value, and a bool matches only a field that lists
``bool``.  ``tools/check_docs.py`` renders the same tables into the
docs.  This module imports nothing, so every schema module can use it.
"""

#: Default column of a field that must be present.
REQUIRED = "(required)"


def type_name(types) -> str:
    """A field's types as messages and docs show them (``int | null``)."""
    if isinstance(types, tuple):
        return " | ".join(type_name(t) for t in types)
    if types is type(None):
        return "null"
    if types is object:
        return "any"
    return types.__name__


def check_fields(obj, fields: dict, where: str, also=()) -> list[str]:
    """Problems with ``obj`` against one field table (empty = valid).

    A field is required unless its row carries a default other than
    :data:`REQUIRED`.  A key in neither ``fields`` nor ``also`` is
    reported as unexpected.  Each problem starts with ``where``.
    """
    if not isinstance(obj, dict):
        return [f"{where}: must be an object, got {type(obj).__name__}"]
    problems = []
    for name, row in fields.items():
        if name not in obj:
            if len(row) == 2 or row[1] is REQUIRED:
                problems.append(f"{where}: missing field {name!r}")
            continue
        types, value = row[0], obj[name]
        accepted = types if isinstance(types, tuple) else (types,)
        if object in accepted:
            continue
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and bool not in accepted
        ):
            problems.append(
                f"{where}: field {name!r} must be {type_name(types)}, "
                f"got {type(value).__name__}"
            )
    extras = [name for name in obj if name not in fields and name not in also]
    if extras:
        problems.append(f"{where}: unexpected fields {sorted(extras)}")
    return problems


def require_valid(problems: list[str], schema: str, error) -> None:
    """Raise ``error`` listing the first 20 ``problems``, if any."""
    if problems:
        shown = "\n  ".join(problems[:20])
        more = (
            f"\n  ... and {len(problems) - 20} more"
            if len(problems) > 20 else ""
        )
        raise error(f"document does not conform to {schema}:\n  {shown}{more}")
