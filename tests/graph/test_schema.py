"""Schema parsing and coercion."""

import pytest

from repro.errors import SchemaError
from repro.graph.schema import PropertyType, Schema


class TestPropertyType:
    def test_parse_all_types(self):
        assert PropertyType.parse("str") is PropertyType.STRING
        assert PropertyType.parse("int") is PropertyType.INT
        assert PropertyType.parse("bool") is PropertyType.BOOL

    def test_parse_unknown_raises(self):
        with pytest.raises(SchemaError, match="unknown property type"):
            PropertyType.parse("float")

    def test_int_coercion(self):
        assert PropertyType.INT.coerce("42") == 42
        assert PropertyType.INT.coerce(7) == 7
        with pytest.raises(SchemaError):
            PropertyType.INT.coerce("forty")

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("True", True), ("1", True), ("yes", True),
        ("false", False), ("0", False), ("no", False), (True, True),
        (False, False), ("t", True), ("f", False), (" TRUE ", True),
        ("No", False),
    ])
    def test_bool_coercion(self, raw, expected):
        assert PropertyType.BOOL.coerce(raw) is expected

    def test_bool_garbage_raises(self):
        with pytest.raises(SchemaError):
            PropertyType.BOOL.coerce("maybe")

    def test_string_coercion(self):
        assert PropertyType.STRING.coerce(42) == "42"


class TestSchema:
    def test_from_header_with_types(self):
        schema = Schema.from_header(["city:str", "age:int", "vip:bool"])
        assert schema.fields == {
            "city": PropertyType.STRING,
            "age": PropertyType.INT,
            "vip": PropertyType.BOOL,
        }

    def test_type_defaults_to_string(self):
        schema = Schema.from_header(["name"])
        assert schema.fields["name"] is PropertyType.STRING

    def test_duplicate_column_raises(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema.from_header(["a:int", "a:str"])

    def test_empty_name_raises(self):
        with pytest.raises(SchemaError, match="empty property name"):
            Schema.from_header([":int"])

    def test_coerce_row(self):
        schema = Schema.from_header(["age:int", "vip:bool"])
        assert schema.coerce_row({"age": "30", "vip": "true"}) == {
            "age": 30, "vip": True}

    def test_coerce_row_missing_property(self):
        schema = Schema.from_header(["age:int"])
        with pytest.raises(SchemaError, match="missing property"):
            schema.coerce_row({})

    def test_contains_and_len(self):
        schema = Schema.from_header(["a:int"])
        assert "a" in schema
        assert "b" not in schema
        assert len(schema) == 1

    def test_equality_compares_names_and_types(self):
        schema = Schema.from_header(["a:int", "b"])
        assert schema == Schema({"a": PropertyType.INT,
                                 "b": PropertyType.STRING})
        assert schema != Schema.from_header(["a:str", "b"])
        assert schema != {"a": PropertyType.INT, "b": PropertyType.STRING}
