"""Experiment reporting."""

from repro.bench.harness import ExperimentResult
from repro.bench.reporting import save_report, to_markdown


def sample_rows():
    return [
        ExperimentResult("exp", "ds", "WCC", "cfg", "diff-only", 5,
                         1.234, 1000, 900, 0),
        ExperimentResult("exp", "ds", "WCC", "cfg", "scratch", 5,
                         2.5, 3000, 2800, 4),
    ]


class TestReporting:
    def test_markdown_table(self):
        text = to_markdown(sample_rows(), title="Sample")
        assert "### Sample" in text
        assert "| diff-only |" in text.replace("|diff-only|", "| diff-only |") or \
            "diff-only" in text
        assert text.count("\n") >= 4

    def test_save_report(self, tmp_path):
        save_report(sample_rows(), tmp_path, "exp")
        assert (tmp_path / "exp.csv").exists()
        assert (tmp_path / "exp.md").exists()
        csv_lines = (tmp_path / "exp.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3
        assert csv_lines[0].startswith("experiment,")

    def test_cli_save_flag(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["table4", "--quick", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "table4.csv").exists()
        assert (tmp_path / "table4.md").exists()
