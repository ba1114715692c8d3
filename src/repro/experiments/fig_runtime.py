"""Experiment 2 (slide 16): design runtime of AH, MH and SA.

Same scenarios as experiment 1; the harness reports each strategy's
average wall-clock design time per current-application size.  The paper
(on 2001 hardware) reports minutes for SA, well under a minute for MH
and near-zero for AH; absolute values will differ here, but the
ordering AH << MH << SA and the growth with application size must
reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    ExperimentConfig,
    FamilyMatrixRecord,
    cells_of,
    mean,
    preset_size,
)


@dataclass(frozen=True)
class RuntimeRow:
    """One point of the slide-16 figure (seconds, averaged over seeds)."""

    size: int
    scenarios: int
    avg_runtime_ah: float
    avg_runtime_mh: float
    avg_runtime_sa: float


def fig_runtime(
    config: Optional[ExperimentConfig] = None,
    records: Optional[List[FamilyMatrixRecord]] = None,
    verbose: bool = False,
) -> List[RuntimeRow]:
    """Compute the slide-16 rows (running the matrix if needed)."""
    if config is None:
        config = ExperimentConfig()
    if records is None:
        records = config.run_matrix(verbose=verbose)

    rows: List[RuntimeRow] = []
    for preset in config.presets:
        cell = [
            {name: r.result.runtime_seconds for name, r in runs.items()}
            for runs in cells_of(records, preset)
        ]
        if not cell:
            continue
        rows.append(
            RuntimeRow(
                size=preset_size(preset),
                scenarios=len(cell),
                avg_runtime_ah=mean(c["AH"] for c in cell),
                avg_runtime_mh=mean(c["MH"] for c in cell),
                avg_runtime_sa=mean(c["SA"] for c in cell),
            )
        )
    return rows


def render(rows: Sequence[RuntimeRow]) -> str:
    """The figure as an ASCII table."""
    return format_table(
        ["current size", "scenarios", "AH [s]", "MH [s]", "SA [s]"],
        [
            (
                r.size,
                r.scenarios,
                round(r.avg_runtime_ah, 3),
                round(r.avg_runtime_mh, 2),
                round(r.avg_runtime_sa, 2),
            )
            for r in rows
        ],
        title=(
            "Fig (slide 16): average design time vs "
            "current-application size"
        ),
    )
