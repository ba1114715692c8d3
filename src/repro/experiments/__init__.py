"""Experiment harnesses regenerating the paper's figures.

Three experiments (slides 15-17):

* :mod:`~repro.experiments.fig_quality` -- average percentage deviation
  of AH's and MH's objective from the near-optimal SA reference, as a
  function of current-application size.
* :mod:`~repro.experiments.fig_runtime` -- average design runtime of
  AH, MH and SA over the same scenarios.
* :mod:`~repro.experiments.fig_future` -- percentage of concrete future
  applications that can still be mapped after the current application
  was designed with AH versus MH.

Each harness is exposed both as a library function returning structured
rows and through the CLI (``python -m repro.experiments <figure>`` or
the ``repro-experiments`` console script).  All three fold the records
of one :func:`~repro.experiments.runner.run_family_matrix` run over
``uniform-baseline`` presets (``--presets``).  Defaults are the
laptop-scale ``fig-10``/``fig-20``/``fig-30``; ``--paper-scale`` selects
the paper's sizes, ``paper-40`` ... ``paper-320`` (existing 400
processes, current 40-320, future 80).
"""

from repro.experiments.runner import (
    ExperimentConfig,
    FamilyMatrixRecord,
    run_family_matrix,
)
from repro.experiments.fig_quality import QualityRow, fig_quality
from repro.experiments.fig_runtime import RuntimeRow, fig_runtime
from repro.experiments.fig_future import FutureRow, fig_future
from repro.experiments.reporting import format_table

__all__ = [
    "ExperimentConfig",
    "FamilyMatrixRecord",
    "run_family_matrix",
    "QualityRow",
    "fig_quality",
    "RuntimeRow",
    "fig_runtime",
    "FutureRow",
    "fig_future",
    "format_table",
]
