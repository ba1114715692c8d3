"""Self-hosting: the live tree must lint clean, and the analyzer must
actually catch a seeded injection into a kernel file.

The injection test is the CI tripwire the acceptance criteria ask
for: copy ``sched/list_scheduler.py`` into a scratch tree, plant a
``time.time()`` call inside ``run_pass``, and assert the self-lint
verdict flips from clean to failing.
"""

import ast
import json
from pathlib import Path

from repro.lint import load_config, run_lint
from repro.lint.config import LintConfig
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
PYPROJECT = REPO_ROOT / "pyproject.toml"
BASELINE = REPO_ROOT / "lint-baseline.json"


def live_config():
    return load_config(explicit=PYPROJECT)


class TestLiveTree:
    def test_defaults_mirror_the_live_file(self):
        """Fixture snippets lint as the live tree does: the built-in
        layers, kernel layers, float-equality modules and hot paths
        are the file's.  The two allowlists live only in the file."""
        live = live_config()
        defaults = LintConfig()
        for name in ("layers", "kernel_layers", "float_eq_modules",
                     "hot_paths"):
            assert getattr(live, name) == getattr(defaults, name), name

    def test_src_repro_is_clean(self):
        result = run_lint([SRC], config=live_config(), baseline_path=BASELINE)
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_checked_in_baseline_is_empty(self):
        document = json.loads(BASELINE.read_text(encoding="utf-8"))
        assert document["entries"] == [], (
            "the baseline must stay empty: fix or suppress (with a "
            "reason) instead of grandfathering"
        )

    def test_no_stale_baseline_entries(self):
        result = run_lint([SRC], config=live_config(), baseline_path=BASELINE)
        assert not result.stale_baseline

    def test_every_live_suppression_carries_a_reason(self):
        # LINT001 would already fail test_src_repro_is_clean, but spell
        # the policy out: each live # repro: allow[...] has a reason.
        from repro.lint.engine import iter_python_files
        from repro.lint.suppressions import parse_suppressions

        for path in iter_python_files([SRC]):
            for suppression in parse_suppressions(
                path.read_text(encoding="utf-8")
            ):
                assert suppression.reason, (
                    f"{path}:{suppression.line}: reasonless suppression"
                )

    def test_cli_on_live_tree_exits_zero(self, capsys):
        code = main(
            [
                str(SRC),
                "--config",
                str(PYPROJECT),
                "--baseline",
                str(BASELINE),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "repro-lint: clean" in out


def _inject_wall_clock(source: str, function: str) -> str:
    """Insert ``time.time()`` as the first statement of ``function``.

    Located via ``ast`` (not string surgery) so the test keeps working
    as the scheduler evolves; indentation is taken from the function's
    real first body statement.
    """
    tree = ast.parse(source)
    target = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    first = target.body[0]
    indent = " " * first.col_offset
    probe = f"{indent}import time\n{indent}_injected = time.time()\n"
    lines = source.splitlines(keepends=True)
    at = first.lineno - 1
    return "".join(lines[:at]) + probe + "".join(lines[at:])


class TestSeededInjection:
    def _lint_copy(self, box, mutate):
        source = (SRC / "sched" / "list_scheduler.py").read_text(
            encoding="utf-8"
        )
        path = box.write("sched/list_scheduler.py", mutate(source))
        return run_lint([path], config=live_config())

    def test_pristine_copy_is_clean(self, box):
        result = self._lint_copy(box, lambda source: source)
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_injected_wall_clock_fails_self_lint(self, box):
        result = self._lint_copy(
            box, lambda source: _inject_wall_clock(source, "run_pass")
        )
        assert not result.ok
        rules = {finding.rule for finding in result.findings}
        assert "DET001" in rules
        (det,) = [f for f in result.findings if f.rule == "DET001"]
        assert "run_pass" in det.symbol

    def test_injected_global_rng_fails_self_lint(self, box):
        def inject(source: str) -> str:
            return source + (
                "\n\nimport random\n\n"
                "def _tiebreak():\n"
                "    return random.random()\n"
            )

        result = self._lint_copy(box, inject)
        assert not result.ok
        assert {f.rule for f in result.findings} == {"DET002"}
