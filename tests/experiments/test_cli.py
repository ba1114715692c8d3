"""Tests for the experiments CLI."""

import shlex
from pathlib import Path

import pytest

from repro.experiments.cli import _nonnegative_int, _rate_cell, build_parser, main

ROOT = Path(__file__).resolve().parents[2]
COMMAND = "python -m repro.experiments"
DOCS = ("README.md", "EXPERIMENTS.md")


def documented_commands(doc):
    """Every ``python -m repro.experiments`` argv in one doc file, with
    backslash continuations joined and shell comments dropped."""
    text = (ROOT / doc).read_text().replace("\\\n", " ")
    commands = []
    for line in text.splitlines():
        _, found, rest = line.partition(COMMAND)
        if found:
            commands.append(shlex.split(rest.split("`")[0], comments=True))
    return commands


class TestRateCell:
    """Regression: zero-candidate runs must render '-', not divide."""

    def test_normal_ratio(self):
        assert _rate_cell(1, 4) == "25.0%"

    def test_zero_denominator_renders_dash(self):
        assert _rate_cell(0, 0) == "-"
        assert _rate_cell(5, 0) == "-"

    def test_negative_denominator_renders_dash(self):
        assert _rate_cell(1, -3) == "-"

    def test_nonnegative_int_accepts_zero(self):
        assert _nonnegative_int("0") == 0
        assert _nonnegative_int("7") == 7

    def test_nonnegative_int_rejects_negative(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _nonnegative_int("-1")


class TestCli:
    def test_fig_quality_runs(self, capsys):
        code = main(
            [
                "fig-quality",
                "--sizes", "5",
                "--seeds", "1",
                "--existing", "10",
                "--sa-iterations", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slide 15" in out

    def test_fig_future_runs(self, capsys):
        code = main(
            [
                "fig-future",
                "--sizes", "5",
                "--seeds", "1",
                "--existing", "10",
            ]
        )
        assert code == 0
        assert "slide 17" in capsys.readouterr().out

    def test_all_runs_everything(self, capsys):
        code = main(
            [
                "all",
                "--sizes", "5",
                "--seeds", "1",
                "--existing", "10",
                "--sa-iterations", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slide 15" in out and "slide 16" in out and "slide 17" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig-everything"])

    def test_verbose_progress(self, capsys):
        main(
            [
                "fig-runtime",
                "--sizes", "5",
                "--seeds", "1",
                "--existing", "10",
                "--sa-iterations", "20",
                "-v",
            ]
        )
        assert "size=5" in capsys.readouterr().out


class TestScenariosCli:
    def test_list_shows_at_least_five_families(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        from repro.gen import families

        names = families.family_names()
        assert len(names) >= 5
        for name in names:
            assert name in out

    def test_describe_family(self, capsys):
        assert main(["scenarios", "describe", "hetero-speed"]) == 0
        out = capsys.readouterr().out
        assert "hetero-speed" in out
        assert "tiny" in out

    def test_describe_unknown_family_raises(self):
        from repro.experiments.cli import _scenarios_describe
        from repro.utils.errors import InvalidModelError

        with pytest.raises(InvalidModelError):
            _scenarios_describe("no-such-family")

    @pytest.mark.parametrize(
        "argv,cause",
        [
            (
                ["scenarios", "describe", "no-such-family"],
                "unknown scenario family 'no-such-family'",
            ),
            (
                ["scenarios", "run", "no-such-family"],
                "unknown scenario family 'no-such-family'",
            ),
            (
                ["scenarios", "run", "hetero-mixed", "--preset", "medium"],
                "has no preset 'medium'",
            ),
            (
                ["scenarios", "run", "uniform-baseline",
                 "--cache-path", "/tmp/x.db", "--strategies", "MH"],
                "cache_path '/tmp/x.db' needs cache_store='sqlite'",
            ),
            (
                ["fig-quality", "--sizes", "8", "--seeds", "1",
                 "--cache-store", "sqlite"],
                "cache_store='sqlite' requires a cache_path",
            ),
        ],
    )
    def test_bad_input_is_a_one_line_error(self, capsys, argv, cause):
        """Library errors reach the user as one ``error:`` line on
        stderr and exit code 2, never as a traceback."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert cause in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv,bad",
        [
            (["scenarios", "run", "uniform-baseline", "--strategies", "XX"],
             "XX"),
            (["scenarios", "run", "uniform-baseline", "--strategies", "SA@0"],
             "SA@0"),
            (["scenarios", "run", "uniform-baseline", "--strategies", "SA@x"],
             "SA@x"),
            (["scenarios", "run", "uniform-baseline", "--sa-iterations", "-5"],
             "-5"),
            (["scenarios", "run", "uniform-baseline", "--budget-seconds", "-1"],
             "-1"),
            (["scenarios", "portfolio", "uniform-baseline",
              "--strategies", "MH", "XX"], "XX"),
            (["scenarios", "sweep", "--strategies", "QQ"], "QQ"),
        ],
    )
    def test_bad_value_is_rejected_before_running(self, capsys, argv, bad):
        """Bad option values stop at argument parsing: exit code 2, no
        traceback, nothing run, and an ``error:`` line naming the value."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        error = captured.err.strip().splitlines()[-1]
        assert "error:" in error
        assert repr(bad) in error

    @pytest.mark.parametrize("name", ["XX", "SA@0", "SA@x", "MH@2"])
    def test_library_rejects_bad_strategy_names(self, name):
        """Library callers get a ``ValueError`` that is also a
        ``ReproError`` (the CLI's one-line error class)."""
        from repro.experiments.runner import strategy_for_family
        from repro.utils.errors import ConfigError, ReproError

        with pytest.raises(ConfigError) as exc:
            strategy_for_family(name, 1, True, 1, 10)
        assert isinstance(exc.value, ValueError)
        assert isinstance(exc.value, ReproError)
        assert repr(name) in str(exc.value)

    def test_run_family(self, capsys):
        code = main(
            [
                "scenarios", "run", "bursty",
                "--seed", "2",
                "--sa-iterations", "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bursty" in out
        for strategy in ("AH", "MH", "SA"):
            assert strategy in out

    def test_run_can_save_scenario(self, capsys, tmp_path):
        from repro.serialize.scenario_codec import load_scenario

        path = tmp_path / "scenario.json"
        code = main(
            [
                "scenarios", "run", "uniform-baseline",
                "--strategies", "AH",
                "--save", str(path),
            ]
        )
        assert code == 0
        scenario = load_scenario(path)
        assert scenario.params.n_current == 5

    def test_sweep_prints_matrix(self, capsys):
        code = main(
            [
                "scenarios", "sweep",
                "--families", "uniform-baseline",
                "--strategies", "AH", "MH",
                "--sa-iterations", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stress matrix" in out
        assert "off" in out and "on" in out

    def test_smoke_single_family(self, capsys):
        code = main(
            [
                "scenarios", "smoke",
                "--families", "forkjoin",
                "--sa-iterations", "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "forkjoin" in out and "ok" in out

    def test_scenarios_requires_action(self):
        with pytest.raises(SystemExit):
            main(["scenarios"])

    def test_run_with_zero_budget_renders_dashes(self, capsys):
        """Regression: a run cut by ``--budget-evals 0`` reports zero
        probes and must print '-' rate cells instead of dividing."""
        code = main(
            [
                "scenarios", "run", "uniform-baseline",
                "--strategies", "MH",
                "--budget-evals", "0",
            ]
        )
        assert code == 0
        assert "-" in capsys.readouterr().out

    def test_budget_evals_rejects_negative(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "scenarios", "run", "uniform-baseline",
                    "--strategies", "MH",
                    "--budget-evals", "-1",
                ]
            )


class TestStoreCli:
    def test_run_with_sqlite_store_prints_store_stats(
        self, capsys, tmp_path
    ):
        args = [
            "scenarios", "run", "uniform-baseline",
            "--strategies", "MH",
            "--cache-store", "sqlite",
            "--cache-path", str(tmp_path / "store.sqlite"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "store hits" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "store hits" in warm

    def test_smoke_warm_store_gate(self, capsys, tmp_path):
        """The CI determinism gate: a second smoke run against a warm
        store must clear --min-store-hit-rate and reproduce the same
        design fingerprints byte-for-byte."""
        path = str(tmp_path / "smoke.sqlite")
        base = [
            "scenarios", "smoke",
            "--families", "forkjoin",
            "--sa-iterations", "30",
            "--cache-store", "sqlite",
            "--cache-path", path,
        ]
        assert main(base) == 0
        cold = capsys.readouterr().out
        assert main(base + ["--min-store-hit-rate", "0.9"]) == 0
        warm = capsys.readouterr().out

        def fingerprints(out):
            lines = iter(out.splitlines())
            block = []
            for line in lines:
                if line.strip() == "design fingerprints:":
                    for entry in lines:
                        if not entry.startswith(" "):
                            break
                        block.append(entry.strip())
                    break
            return block

        cold_prints = fingerprints(cold)
        assert cold_prints, "no fingerprint block in smoke output"
        assert fingerprints(warm) == cold_prints

    def test_smoke_cold_store_fails_hit_rate_gate(self, capsys, tmp_path):
        """A cold store cannot clear the warm-restart gate -- the CLI
        must exit non-zero, loudly."""
        code = main(
            [
                "scenarios", "smoke",
                "--families", "forkjoin",
                "--sa-iterations", "30",
                "--cache-store", "sqlite",
                "--cache-path", str(tmp_path / "cold.sqlite"),
                "--min-store-hit-rate", "0.9",
            ]
        )
        assert code == 1

    def test_sqlite_store_requires_path(self, capsys):
        code = main(
            [
                "scenarios", "run", "uniform-baseline",
                "--strategies", "MH",
                "--cache-store", "sqlite",
            ]
        )
        assert code == 2
        assert "requires a cache_path" in capsys.readouterr().err


class TestDocumentedCommands:
    """The docs' example commands must stay runnable: each one parses
    against the current argument parser (no run)."""

    @pytest.mark.parametrize("doc", DOCS)
    def test_doc_has_commands(self, doc):
        assert documented_commands(doc)

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(argv, id=f"{doc}:{' '.join(argv)}")
            for doc in DOCS
            for argv in documented_commands(doc)
        ],
    )
    def test_documented_command_parses(self, argv):
        build_parser().parse_args(argv)
