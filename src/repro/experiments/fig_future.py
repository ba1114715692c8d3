"""Experiment 3 (slide 17): future-application mappability.

After the current application is designed with AH versus MH, concrete
future applications (random graphs drawn from the characterized family)
arrive; each either fits in the remaining slack (the Initial Mapper
finds a valid design without touching anything) or does not.  The
harness reports the percentage that fit, per strategy and
current-application size.

The paper's result: designs produced by the future-aware MH accept a
much larger share of future applications than AH designs, and the gap
persists across current-application sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.strategy import fits_future_application
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    ExperimentConfig,
    FamilyMatrixRecord,
    cells_of,
    mean,
    preset_size,
)
from repro.gen.scenario import generate_future_application
from repro.utils.rng import spawn_rngs


@dataclass(frozen=True)
class FutureRow:
    """One point of the slide-17 figure."""

    size: int
    scenarios: int
    future_apps: int
    pct_mapped_ah: float
    pct_mapped_mh: float


def fig_future(
    config: Optional[ExperimentConfig] = None,
    records: Optional[List[FamilyMatrixRecord]] = None,
    verbose: bool = False,
) -> List[FutureRow]:
    """Compute the slide-17 rows.

    When ``records`` is omitted the matrix is run with AH and MH only
    (SA is not part of this experiment in the paper).
    """
    if config is None:
        config = ExperimentConfig()
    if records is None:
        records = config.run_matrix(strategies=("AH", "MH"), verbose=verbose)

    rows: List[FutureRow] = []
    for preset in config.presets:
        size = preset_size(preset)
        cell = [
            runs
            for runs in cells_of(records, preset)
            if runs["AH"].result.valid and runs["MH"].result.valid
        ]
        if not cell:
            continue
        hits: Dict[str, List[float]] = {"AH": [], "MH": []}
        total_futures = 0
        for runs in cell:
            futures = _future_apps(config, runs["AH"], size)
            total_futures += len(futures)
            for future_app in futures:
                for name, fits in hits.items():
                    fits.append(
                        1.0
                        if fits_future_application(
                            runs[name].result.schedule,
                            future_app,
                            runs[name].scenario.architecture,
                        )
                        else 0.0
                    )
        rows.append(
            FutureRow(
                size=size,
                scenarios=len(cell),
                future_apps=total_futures,
                pct_mapped_ah=100.0 * mean(hits["AH"]),
                pct_mapped_mh=100.0 * mean(hits["MH"]),
            )
        )
        if verbose:
            r = rows[-1]
            print(
                f"size={size}: AH {r.pct_mapped_ah:.0f}% vs "
                f"MH {r.pct_mapped_mh:.0f}% over {r.future_apps} futures"
            )
    return rows


def _future_apps(
    config: ExperimentConfig, record: FamilyMatrixRecord, size: int
):
    """The concrete future applications tested against one cell's
    scenario (``record`` is any run of the cell; all share its seed)."""
    rngs = spawn_rngs(
        record.seed * 104_729 + size, config.future_apps_per_scenario
    )
    return [
        generate_future_application(
            record.scenario,
            config.n_future_processes,
            rng,
            name=f"future{i}",
            demand_fraction=config.future_demand_fraction,
        )
        for i, rng in enumerate(rngs)
    ]


def render(rows: Sequence[FutureRow]) -> str:
    """The figure as an ASCII table."""
    return format_table(
        ["current size", "scenarios", "futures", "AH mapped %", "MH mapped %"],
        [
            (
                r.size,
                r.scenarios,
                r.future_apps,
                r.pct_mapped_ah,
                r.pct_mapped_mh,
            )
            for r in rows
        ],
        title=(
            "Fig (slide 17): % of future applications mappable "
            "after AH vs MH design"
        ),
    )
