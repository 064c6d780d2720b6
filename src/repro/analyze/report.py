"""Findings, severities, and the analysis report.

A :class:`Finding` is one rule violation located at an operator (plan
pass) or a user callable (UDF pass). :class:`AnalysisReport` collects the
findings of one :func:`repro.analyze.analyze` run and renders / serializes
them; :class:`repro.errors.AnalysisError` (raised by strict mode) carries
the report so callers can still inspect everything programmatically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List


class Severity(enum.Enum):
    """How bad a finding is.

    * ``ERROR`` — the plan is wrong or nondeterministic: strict mode
      refuses to run it, ``make analyze`` / the CI lint job fail.
    * ``WARNING`` — legal but wasteful or fragile; reported, never fatal.
    * ``INFO`` — observations (e.g. UDF sources the linter could not
      inspect).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Rule:
    """One analyzer rule: stable id, default severity, catalog text."""

    id: str
    severity: Severity
    title: str
    rationale: str


@dataclass(frozen=True)
class Finding:
    """One rule violation with its location and a fix hint."""

    rule: str
    severity: Severity
    #: Operator path ``root/<loop>/<op>#<index>`` for plan findings, or
    #: ``<op path> udf <callable>`` for UDF findings.
    operator: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = (f"{self.severity.value.upper():7} {self.rule} "
                f"{self.operator}: {self.message}")
        if self.hint:
            text += f"\n        hint: {self.hint}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "operator": self.operator,
            "message": self.message,
            "hint": self.hint,
        }


_SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass
class AnalysisReport:
    """Everything one analyzer run found, plus coverage counters."""

    findings: List[Finding] = field(default_factory=list)
    #: Operators the plan pass walked.
    operators_scanned: int = 0
    #: User callables the UDF pass inspected.
    udfs_scanned: int = 0
    #: Callables skipped because no source was available (builtins,
    #: C functions, interactively defined lambdas).
    udfs_skipped: int = 0
    #: Findings silenced by ``# analyze: ignore[rule-id]`` comments.
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity finding was recorded."""
        return not self.errors()

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def sorted_findings(self) -> List[Finding]:
        return sorted(
            self.findings,
            key=lambda f: (_SEVERITY_ORDER[f.severity], f.rule, f.operator))

    def render(self) -> str:
        lines = [
            f"analysis: {self.operators_scanned} operator(s), "
            f"{self.udfs_scanned} UDF(s) inspected"
            + (f", {self.udfs_skipped} UDF(s) without source"
               if self.udfs_skipped else "")
            + (f", {self.suppressed} finding(s) suppressed"
               if self.suppressed else "")
        ]
        if not self.findings:
            lines.append("no findings: the plan is clean")
            return "\n".join(lines)
        errors, warnings = self.errors(), self.warnings()
        lines.append(f"{len(errors)} error(s), {len(warnings)} warning(s), "
                     f"{len(self.findings) - len(errors) - len(warnings)} "
                     f"info")
        for finding in self.sorted_findings():
            lines.append(finding.render())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "operators_scanned": self.operators_scanned,
            "udfs_scanned": self.udfs_scanned,
            "udfs_skipped": self.udfs_skipped,
            "suppressed": self.suppressed,
            "by_rule": self.by_rule(),
            "findings": [f.to_dict() for f in self.sorted_findings()],
        }

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)
