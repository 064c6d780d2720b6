"""GVDL parser tests over the paper's listings and error paths."""

import pytest

from repro.errors import GvdlSyntaxError
from repro.gvdl.ast import (
    AggregateViewStmt,
    And,
    BoolLiteral,
    FilteredViewStmt,
    GroupByPredicates,
    GroupByProperties,
    Literal,
    Not,
    Or,
    PropRef,
    ViewCollectionStmt,
)
from repro.gvdl.parser import parse, parse_program


class TestFilteredViews:
    def test_listing_1(self):
        stmt = parse(
            "create view CA-Long-Calls on Calls edges where "
            "src.state = 'CA' and dst.state = 'CA' and duration > 10 "
            "and year = 2019")
        assert isinstance(stmt, FilteredViewStmt)
        assert stmt.name == "CA-Long-Calls"
        assert stmt.source == "Calls"
        assert isinstance(stmt.predicate, And)
        assert len(stmt.predicate.operands) == 4

    def test_src_dst_and_edge_refs(self):
        stmt = parse("create view v on g edges where src.a = 1 and "
                     "dst.b = 2 and c = 3")
        refs = stmt.predicate.operands
        assert refs[0].left == PropRef("src", "a")
        assert refs[1].left == PropRef("dst", "b")
        assert refs[2].left == PropRef("edge", "c")

    def test_literal_types(self):
        stmt = parse("create view v on g edges where a = 'x' and b = 5 "
                     "and c = true and d = false")
        literals = [c.right for c in stmt.predicate.operands]
        assert literals == [Literal("x"), Literal(5), Literal(True),
                            Literal(False)]

    def test_operator_precedence_or_binds_loosest(self):
        stmt = parse("create view v on g edges where a = 1 and b = 2 "
                     "or c = 3")
        assert isinstance(stmt.predicate, Or)
        assert isinstance(stmt.predicate.operands[0], And)

    def test_parentheses_override(self):
        stmt = parse("create view v on g edges where a = 1 and "
                     "(b = 2 or c = 3)")
        assert isinstance(stmt.predicate, And)
        assert isinstance(stmt.predicate.operands[1], Or)

    def test_not_and_diamond_operator(self):
        stmt = parse("create view v on g edges where not a <> 1")
        assert isinstance(stmt.predicate, Not)
        assert stmt.predicate.operand.op == "!="

    def test_prop_to_prop_comparison(self):
        stmt = parse("create view v on g edges where src.city = dst.city")
        cmp = stmt.predicate
        assert cmp.left == PropRef("src", "city")
        assert cmp.right == PropRef("dst", "city")


class TestViewCollections:
    def test_listing_3(self):
        stmt = parse(
            "create view collection call-analysis on Calls "
            "[D1-Y2010: duration <= 1 and year <= 2010], "
            "[D2-Y2010: duration <= 2 and year <= 2010], "
            "[D34-Y2010: duration <= 34 and year <= 2010]")
        assert isinstance(stmt, ViewCollectionStmt)
        assert [name for name, _p in stmt.views] == [
            "D1-Y2010", "D2-Y2010", "D34-Y2010"]

    def test_single_view_collection(self):
        stmt = parse("create view collection c on g [only: x = 1]")
        assert len(stmt.views) == 1

    def test_missing_bracket_raises(self):
        with pytest.raises(GvdlSyntaxError):
            parse("create view collection c on g only: x = 1")

    def test_duplicate_view_name_rejected(self):
        """Two views called ``a`` used to parse and materialize, and only
        failed later in ``outputs_by_view()``; the CSV and serve payloads
        carried two indistinguishable ``a`` blocks."""
        with pytest.raises(GvdlSyntaxError,
                           match="collection 'c' declares view 'a' more"):
            parse("create view collection c on g "
                  "[a: w <= 1], [b: w <= 2], [a: w <= 3]")


class TestAggregateViews:
    def test_listing_4_city_calls(self):
        stmt = parse(
            "create view City-Calls-City on Calls "
            "nodes group by city aggregate num-phones: count(*) "
            "edges aggregate total-duration: sum(duration)")
        assert isinstance(stmt, AggregateViewStmt)
        assert stmt.group_by == GroupByProperties(("city",))
        assert stmt.node_aggregates[0].name == "num-phones"
        assert stmt.node_aggregates[0].func == "count"
        assert stmt.edge_aggregates[0].func == "sum"
        assert stmt.edge_aggregates[0].arg == "duration"

    def test_listing_4_predicate_groups(self):
        stmt = parse(
            "create view g on Calls nodes group by ["
            "(profession = 'Doctor' and city = 'NY'),"
            "(profession = 'Lawyer' and city = 'LA')]"
            " aggregate count(*)")
        assert isinstance(stmt.group_by, GroupByPredicates)
        assert len(stmt.group_by.predicates) == 2
        assert stmt.node_aggregates[0].output_name() == "count_all"

    def test_group_by_multiple_properties(self):
        stmt = parse("create view v on g nodes group by city, state")
        assert stmt.group_by == GroupByProperties(("city", "state"))

    def test_all_aggregate_functions(self):
        stmt = parse("create view v on g nodes group by city aggregate "
                     "count(*), sum(x), min(x), max(x), avg(x)")
        assert [a.func for a in stmt.node_aggregates] == [
            "count", "sum", "min", "max", "avg"]

    def test_star_only_for_count(self):
        with pytest.raises(GvdlSyntaxError, match=r"sum\(\*\)"):
            parse("create view v on g nodes group by c aggregate sum(*)")


class TestPrograms:
    def test_multiple_statements(self):
        statements = parse_program(
            "create view a on g edges where x = 1; "
            "create view b on g edges where y = 2;")
        assert len(statements) == 2

    def test_parse_rejects_multiple(self):
        with pytest.raises(GvdlSyntaxError, match="exactly one"):
            parse("create view a on g edges where x = 1; "
                  "create view b on g edges where y = 2")

    def test_empty_program(self):
        assert parse_program("") == []
        assert parse_program("  # just a comment\n") == []

    def test_garbage_statement(self):
        with pytest.raises(GvdlSyntaxError, match="expected 'create'"):
            parse_program("drop view v")

    def test_bool_literal_predicate(self):
        stmt = parse("create view v on g edges where true")
        assert stmt.predicate == BoolLiteral(True)

    def test_missing_comparison_operator(self):
        with pytest.raises(GvdlSyntaxError, match="comparison"):
            parse("create view v on g edges where duration")

    def test_str_rendering_round_readable(self):
        stmt = parse("create view v on g edges where "
                     "not (a = 1 or src.b >= 'x')")
        rendered = str(stmt.predicate)
        assert "not" in rendered and "or" in rendered
        assert "src.b" in rendered
