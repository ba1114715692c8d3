"""Tests for the ASCII table renderer."""

from repro.experiments.reporting import format_table


class TestFormatTable:
    def test_headers_and_rows(self):
        out = format_table(["a", "bb"], [(1, 2.5), (30, 4.0)])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "bb" in lines[0]
        assert set(lines[1]) <= {"-", "+"}
        assert len(lines) == 4

    def test_title(self):
        out = format_table(["x"], [(1,)], title="My Figure")
        assert out.splitlines()[0] == "My Figure"

    def test_float_precision_small_vs_large(self):
        out = format_table(["x"], [(0.0061,), (123.456,)])
        assert "0.006" in out
        assert "123.5" in out

    def test_empty_rows(self):
        out = format_table(["col"], [])
        assert "col" in out

    def test_column_alignment(self):
        out = format_table(["name", "v"], [("aa", 1), ("bbbb", 22)])
        lines = out.splitlines()
        # All data rows share the header's width.
        assert len(lines[2]) == len(lines[3]) == len(lines[0])

    def test_strings_pass_through(self):
        out = format_table(["s"], [("hello",)])
        assert "hello" in out


class TestMaskTimes:
    """The CI figure gate diffs masked CLI output: only the time
    columns may be masked, every other cell must survive."""

    def test_masks_only_time_columns(self):
        from mask_times import mask

        tables = "\n\n".join([
            format_table(
                ["current size", "SA [s]", "SA obj"],
                [(10, 0.18, 7.516), (20, 12.5, 14.1)],
                title="Fig",
            ),
            format_table(["strategy", "sched ms"], [("SA", "1899.1")]),
        ])
        assert mask(tables) == (
            "Fig\n"
            "current size | SA [s] | SA obj\n-+-\n"
            "10 | * | 7.516\n20 | * | 14.1\n"
            "\n"
            "strategy | sched ms\n-+-\nSA | *\n"
        )
