"""Mask the wall-clock columns of the experiments CLI's tables.

Reads ``python -m repro.experiments`` output on stdin and writes it
back with every time column's cells replaced by ``*``, table cells
stripped of their padding and separator rules collapsed, so two runs
of the same seeded figures print the same text however long they took.
CI diffs the masked output of ``all`` against ``figures_all.txt``::

    PYTHONPATH=src python -m repro.experiments all \
        | python tests/experiments/mask_times.py > figures.txt
    diff tests/experiments/figures_all.txt figures.txt
"""

import re
import sys

TIME_COLUMNS = frozenset(
    {"AH [s]", "MH [s]", "SA [s]", "sched ms", "decode ms"}
)
RULE = re.compile(r"^-+(\+-+)*$")


def mask(text: str) -> str:
    """``text`` with its tables' time columns masked."""
    masked = None  # time-column indices of the current table
    out = []
    for line in text.splitlines():
        if RULE.match(line):
            out.append("-+-")
            continue
        if " | " not in line:
            masked = None
            out.append(line)
            continue
        cells = [cell.strip() for cell in line.split(" | ")]
        if masked is None:
            masked = {i for i, cell in enumerate(cells) if cell in TIME_COLUMNS}
        else:
            cells = ["*" if i in masked else c for i, c in enumerate(cells)]
        out.append(" | ".join(cells))
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    sys.stdout.write(mask(sys.stdin.read()))
