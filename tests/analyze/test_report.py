"""Findings, report rendering, serialization, and rule-level ignores."""

import json

import pytest

from repro.analyze import RULES, Severity, analyze
from repro.analyze.report import AnalysisReport
from repro.differential import Dataflow


def dirty_dataflow():
    """One ERROR (unguarded negate) and one WARNING (dangling chain)."""
    df = Dataflow()
    edges = df.new_input("edges")

    def body(inner, scope):
        return inner.concat(inner.map(lambda rec: rec, name="flip").negate())

    df.capture(edges.iterate(body, name="loop"), "out")
    edges.map(lambda rec: rec, name="dead")
    return df


class TestRuleCatalog:
    def test_ids_are_unique_and_namespaced(self):
        assert all(rule_id.startswith("GS-") for rule_id in RULES)
        plan = [r for r in RULES if r.startswith("GS-P")]
        udf = [r for r in RULES if r.startswith("GS-U")]
        assert len(plan) == 7 and len(udf) == 5

    def test_every_rule_has_catalog_text(self):
        for rule in RULES.values():
            assert rule.title and rule.rationale


class TestReport:
    def test_ok_reflects_error_findings_only(self):
        report = analyze(dirty_dataflow())
        assert not report.ok
        assert {f.rule for f in report.errors()} == {"GS-P102"}
        assert {f.rule for f in report.warnings()} == {"GS-P104"}
        assert report.by_rule() == {"GS-P102": 1, "GS-P104": 1}

    def test_sorted_findings_put_errors_first(self):
        report = analyze(dirty_dataflow())
        severities = [f.severity for f in report.sorted_findings()]
        assert severities == sorted(
            severities, key=[Severity.ERROR, Severity.WARNING,
                             Severity.INFO].index)

    def test_render_mentions_counts_and_hints(self):
        text = analyze(dirty_dataflow()).render()
        assert "1 error(s), 1 warning(s)" in text
        assert "GS-P102" in text and "hint:" in text

    def test_clean_render(self):
        df = Dataflow()
        df.capture(df.new_input("edges").map(lambda rec: rec), "out")
        text = analyze(df).render()
        assert "no findings: the plan is clean" in text

    def test_json_payload(self):
        report = analyze(dirty_dataflow())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is False
        assert payload["by_rule"] == {"GS-P102": 1, "GS-P104": 1}
        assert [(f["rule"], f["severity"]) for f in payload["findings"]] == \
            [("GS-P102", "error"), ("GS-P104", "warning")]

    def test_operator_paths_are_stable_addresses(self):
        report = analyze(dirty_dataflow())
        error = report.errors()[0]
        assert error.operator.startswith("root/loop/")
        assert "#" in error.operator


class TestRuleIgnores:
    def test_ignore_drops_rule_and_counts_suppressed(self):
        report = analyze(dirty_dataflow(), ignore=["GS-P102", "GS-P104"])
        assert report.ok and not report.findings
        assert report.suppressed == 2

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="GS-P999"):
            analyze(dirty_dataflow(), ignore=["GS-P999"])


class TestReportHelpers:
    def test_extend_appends(self):
        report = AnalysisReport()
        other = analyze(dirty_dataflow())
        report.extend(other.findings)
        assert len(report.findings) == 2
