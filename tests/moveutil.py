"""Move enumeration for tests: every single-process remap of a design.

Imported by name from any test module (``tests/`` is on the import path
through its ``conftest.py``).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.transformations import RemapProcess
from repro.model.mapping import Mapping


def remap_moves(
    mapping: Mapping, process_ids: Iterable[str]
) -> List[RemapProcess]:
    """All single-process remap moves for the given processes."""
    moves: List[RemapProcess] = []
    for pid in process_ids:
        current = mapping.node_of(pid)
        process = mapping.application.process(pid)
        for node_id in process.allowed_nodes:
            if node_id != current:
                moves.append(RemapProcess(pid, node_id))
    return moves
