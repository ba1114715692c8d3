"""Fixture pairs for CON001 (footprint contract) and CON003 (hot-path
I/O)."""

import textwrap


def snippet(source: str) -> str:
    return textwrap.dedent(source).lstrip()


def rules_in(findings):
    return sorted({f.rule for f in findings})


class TestTransformationFootprint:
    def test_positive_union_member_missing_footprint(self, box):
        box.write(
            "core/transformations.py",
            snippet(
                """
                from typing import Union

                class RemapProcess:
                    def apply(self, design):
                        return design

                    def describe(self):
                        return "remap"

                Transformation = Union["RemapProcess"]
                """
            ),
        )
        findings = box.run().findings
        con = [f for f in findings if f.rule == "CON001"]
        assert len(con) == 1
        assert con[0].symbol == "RemapProcess"

    def test_positive_duck_typed_move_class(self, box):
        # Not in the union, but walks and quacks like a move: apply +
        # describe without footprint still breaks the delta kernel.
        box.write(
            "core/extra_moves.py",
            snippet(
                """
                class NudgeDeadline:
                    def apply(self, design):
                        return design

                    def describe(self):
                        return "nudge"
                """
            ),
        )
        findings = box.run().findings
        assert [f for f in findings if f.rule == "CON001"]

    def test_negative_complete_member(self, box):
        box.write(
            "core/transformations.py",
            snippet(
                """
                from typing import Union

                class RemapProcess:
                    def apply(self, design):
                        return design

                    def describe(self):
                        return "remap"

                    def footprint(self, design):
                        return None

                Transformation = Union["RemapProcess"]
                """
            ),
        )
        findings = box.run().findings
        assert "CON001" not in rules_in(findings)

    def test_negative_unrelated_class(self, box):
        box.write(
            "core/other.py",
            snippet(
                """
                class Report:
                    def describe(self):
                        return "report"
                """
            ),
        )
        findings = box.run().findings
        assert "CON001" not in rules_in(findings)


class TestHotPathIO:
    def test_positive_print_in_run_pass(self, box):
        findings = box.findings(
            snippet(
                """
                def run_pass(state):
                    print("scheduling", state)
                    return state
                """
            )
        )
        assert [f for f in findings if f.rule == "CON003"]

    def test_positive_logging_in_evaluate_move(self, box):
        findings = box.findings(
            snippet(
                """
                import logging

                log = logging.getLogger(__name__)

                def evaluate_move(parent, move):
                    logging.info("evaluating %s", move)
                    return None
                """
            ),
            layer="engine",
        )
        assert [f for f in findings if f.rule == "CON003"]

    def test_positive_open_in_divergence(self, box):
        findings = box.findings(
            snippet(
                """
                def _divergence(parent, fp):
                    with open("trace.log", "w") as fh:
                        fh.write("x")
                    return 0
                """
            ),
            layer="engine",
        )
        assert [f for f in findings if f.rule == "CON003"]

    def test_positive_print_in_run_kernel(self, box):
        """The compiled pass's entry point is a hot path too."""
        findings = box.findings(
            snippet(
                """
                class ArraySpec:
                    def run_kernel(self, st):
                        print("pass", st)
                """
            )
        )
        assert [f for f in findings if f.rule == "CON003"]

    def test_positive_print_in_evaluate_key(self, box):
        """The one compiled call of a cold evaluation is a hot path,
        under the built-in defaults as under the live file."""
        findings = box.findings(
            snippet(
                """
                def evaluate_key(arrays, future, weights, key):
                    print("pricing", key)
                    return None
                """
            ),
            layer="core",
        )
        assert [f for f in findings if f.rule == "CON003"]

    def test_negative_io_outside_hot_path(self, box):
        findings = box.findings(
            snippet(
                """
                def report(state):
                    print("done", state)
                """
            )
        )
        assert not [f for f in findings if f.rule == "CON003"]

    def test_negative_clean_hot_path(self, box):
        findings = box.findings(
            snippet(
                """
                def run_pass(state):
                    return sorted(state)
                """
            )
        )
        assert not [f for f in findings if f.rule == "CON003"]
