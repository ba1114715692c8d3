"""Experiment 1 (slide 15): design quality of AH and MH versus SA.

For each current-application size, the three strategies design the same
randomly generated scenarios and the harness reports the *average
percentage deviation* of AH's and MH's objective from the near-optimal
SA value:

    deviation(X) = 100 * (C_X - C_SA) / C_SA

The paper reports AH deviating by roughly 50-130% and MH staying within
a few percent to a few tens of percent of SA, with AH's deviation
shrinking for very large current applications (less slack left, fewer
ways to differ).  Scenarios where SA reaches objective 0 use a floor of
1.0 in the denominator so the deviation stays finite; scenarios where
any strategy finds no valid design are excluded from the average (all
strategies share IM, so this is rare and symmetric).
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
class QualityRow:
    """One point of the slide-15 figure."""

    size: int
    scenarios: int
    avg_deviation_ah: float
    avg_deviation_mh: float
    avg_objective_sa: float


def deviation(objective: float, reference: float) -> float:
    """Percentage deviation from the SA reference, floored denominator."""
    return 100.0 * (objective - reference) / max(reference, 1.0)


def fig_quality(
    config: Optional[ExperimentConfig] = None,
    records: Optional[List[FamilyMatrixRecord]] = None,
    verbose: bool = False,
) -> List[QualityRow]:
    """Compute the slide-15 rows (running the matrix if needed)."""
    if config is None:
        config = ExperimentConfig()
    if records is None:
        records = config.run_matrix(verbose=verbose)

    rows: List[QualityRow] = []
    for preset in config.presets:
        cell = [
            {name: r.result.objective for name, r in runs.items()}
            for runs in cells_of(records, preset)
            if all(r.result.valid for r in runs.values())
        ]
        if not cell:
            continue
        rows.append(
            QualityRow(
                size=preset_size(preset),
                scenarios=len(cell),
                avg_deviation_ah=mean(
                    deviation(c["AH"], c["SA"]) for c in cell
                ),
                avg_deviation_mh=mean(
                    deviation(c["MH"], c["SA"]) for c in cell
                ),
                avg_objective_sa=mean(c["SA"] for c in cell),
            )
        )
    return rows


def render(rows: Sequence[QualityRow]) -> str:
    """The figure as an ASCII table."""
    return format_table(
        ["current size", "scenarios", "AH dev %", "MH dev %", "SA obj"],
        [
            (
                r.size,
                r.scenarios,
                r.avg_deviation_ah,
                r.avg_deviation_mh,
                r.avg_objective_sa,
            )
            for r in rows
        ],
        title=(
            "Fig (slide 15): avg % deviation from near-optimal (SA) "
            "vs current-application size"
        ),
    )
