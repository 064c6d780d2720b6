"""Property schemas.

Graphsurge's property graph model supports string, integer, and boolean
properties (paper §2). A :class:`Schema` declares the typed properties of
nodes or edges and validates/coerces raw values at import time.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterable, Mapping

from repro.errors import SchemaError


class PropertyType(enum.Enum):
    """The three property types the paper's implementation supports."""

    STRING = "str"
    INT = "int"
    BOOL = "bool"

    @classmethod
    def parse(cls, text: str) -> "PropertyType":
        for member in cls:
            if member.value == text:
                return member
        raise SchemaError(f"unknown property type {text!r} "
                          f"(expected one of: str, int, bool)")

    def coerce(self, raw: Any) -> Any:
        """Convert a raw (usually CSV string) value to this type."""
        if self is PropertyType.STRING:
            return str(raw)
        if self is PropertyType.INT:
            try:
                return int(raw)
            except (TypeError, ValueError):
                raise SchemaError(f"cannot read {raw!r} as int") from None
        if raw in (True, False):
            return bool(raw)
        text = str(raw).strip().lower()
        if text in ("true", "1", "t", "yes"):
            return True
        if text in ("false", "0", "f", "no"):
            return False
        raise SchemaError(f"cannot read {raw!r} as bool")


class Schema:
    """An ordered mapping of property name to :class:`PropertyType`."""

    def __init__(self, fields: Mapping[str, PropertyType] = ()):
        self.fields: Dict[str, PropertyType] = dict(fields)

    @classmethod
    def from_header(cls, columns: Iterable[str]) -> "Schema":
        """Parse ``name:type`` column declarations (type defaults to str)."""
        fields: Dict[str, PropertyType] = {}
        for column in columns:
            name, _, type_text = column.partition(":")
            name = name.strip()
            if not name:
                raise SchemaError(f"empty property name in column {column!r}")
            if name in fields:
                raise SchemaError(f"duplicate property {name!r}")
            ptype = PropertyType.parse(type_text.strip()) if type_text else \
                PropertyType.STRING
            fields[name] = ptype
        return cls(fields)

    def coerce_row(self, row: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate and coerce one record against the schema."""
        out: Dict[str, Any] = {}
        for name, ptype in self.fields.items():
            if name not in row:
                raise SchemaError(f"missing property {name!r} in row {row!r}")
            out[name] = ptype.coerce(row[name])
        return out

    def __contains__(self, name: str) -> bool:
        return name in self.fields

    def __len__(self) -> int:
        return len(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Schema({self.fields})"
