"""CLI behavior: exit codes, JSON document shape, --write-baseline,
--list-rules, bad paths."""

import json
import textwrap

import pytest

from repro.lint.cli import main


def snippet(source: str) -> str:
    return textwrap.dedent(source).lstrip()


VIOLATING = snippet(
    """
    import time

    def schedule():
        return time.time()
    """
)

CLEAN = "def schedule(now: int) -> int:\n    return now + 1\n"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, box, capsys):
        path = box.write("sched/mod.py", CLEAN)
        assert main([str(path), "--no-baseline"]) == 0
        out = capsys.readouterr().out
        assert "repro-lint: clean" in out

    def test_findings_exit_one(self, box, capsys):
        path = box.write("sched/mod.py", VIOLATING)
        assert main([str(path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "fix:" in out  # the autofix hint rides along

    def test_missing_path_exits_two(self, box, capsys):
        assert main([str(box.root / "nope.py")]) == 2
        assert "no such path" in capsys.readouterr().err


class TestJsonFormat:
    def test_document_shape(self, box, capsys):
        path = box.write("sched/mod.py", VIOLATING)
        assert main([str(path), "--no-baseline", "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["files"] == 1
        assert document["ok"] is False
        (finding,) = document["findings"]
        assert finding["rule"] == "DET001"
        assert finding["path"].endswith("sched/mod.py")
        assert finding["symbol"] == "schedule"
        assert finding["hint"]

    def test_clean_json(self, box, capsys):
        path = box.write("sched/mod.py", CLEAN)
        assert main([str(path), "--no-baseline", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["findings"] == []


class TestBaselineFlow:
    def test_write_baseline_then_clean(self, box, tmp_path, capsys):
        path = box.write("sched/mod.py", VIOLATING)
        baseline = tmp_path / "baseline.json"

        assert (
            main([str(path), "--baseline", str(baseline), "--write-baseline"])
            == 0
        )
        assert baseline.is_file()
        capsys.readouterr()

        assert main([str(path), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_stale_baseline_is_reported(self, box, tmp_path, capsys):
        path = box.write("sched/mod.py", VIOLATING)
        baseline = tmp_path / "baseline.json"
        main([str(path), "--baseline", str(baseline), "--write-baseline"])
        capsys.readouterr()

        box.write("sched/mod.py", CLEAN)
        assert main([str(path), "--baseline", str(baseline)]) == 0
        assert "stale baseline" in capsys.readouterr().out


class TestListRules:
    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_catalog_lists_every_rule(self, fmt, capsys):
        assert main(["--list-rules", "--format", fmt]) == 0
        out = capsys.readouterr().out
        for rule_id in [
            "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
            "LAY001", "LAY002", "LAY003",
            "CON001", "CON003",
            "LINT001", "LINT002", "LINT003",
        ]:
            assert rule_id in out
