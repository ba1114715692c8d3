"""Lint configuration: built-in defaults + ``[tool.repro-lint]``.

The shipped layers, kernel layers, float-equality modules and hot
paths mirror the checked-in ``pyproject.toml`` section, so fixture
snippets lint identically with or without a config file (a tier-1
test pins the match); the file is authoritative for the live tree and
alone carries the layering allowlist and the timing-boundary set.

``tomllib`` only exists on Python 3.11+; on 3.10 a tiny fallback
parser handles the restricted TOML subset this section uses (string
and list-of-string values, ``#`` comments, multi-line arrays).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.10
    tomllib = None

#: Layers in import order: an entry may import strictly-earlier
#: entries (and itself).  ``tdma`` precedes ``model`` because
#: ``model.architecture`` embeds the bus description.  ``lint`` is
#: last: it may see everything but nothing imports it.
DEFAULT_LAYERS: Tuple[str, ...] = (
    "utils",
    "tdma",
    "model",
    "sched",
    "engine",
    "search",
    "core",
    "gen",
    "serialize",
    "analysis",
    "experiments",
    "lint",
)

#: Layers whose modules are determinism kernels (DET rules apply).
DEFAULT_KERNEL_LAYERS: Tuple[str, ...] = (
    "model",
    "tdma",
    "sched",
    "engine",
    "search",
    "core",
)

#: ``module:qualname`` prefixes allowed to read the wall clock
#: (DET001).  These are the timing *boundaries*: budget accounting in
#: the search loop and the portfolio race, and the ``runtime_seconds``
#: reporting sites.  Time read there feeds stats and stopping only --
#: never a scheduling or acceptance decision.
DEFAULT_TIMING_ALLOWLIST: Tuple[str, ...] = (
    "repro.search.loop:SearchLoop.program",
    "repro.search.portfolio:PortfolioRunner.run",
    "repro.search.portfolio:_SharedBudget",
    "repro.search.portfolio:first_valid",
    "repro.core.strategy:timed",
)

#: ``src -> dst [:: reason]`` module-level import edges exempt from
#: LAY001.  Empty by default; the live tree's entries live in
#: ``pyproject.toml`` next to the code they grandfather.
DEFAULT_IMPORT_ALLOWLIST: Tuple[str, ...] = ()

#: Module prefixes where float ``==``/``!=`` is a determinism hazard
#: (DET006): scheduler decisions and metric kernels.
DEFAULT_FLOAT_EQ_MODULES: Tuple[str, ...] = (
    "repro.sched",
    "repro.engine.delta",
    "repro.core.metrics",
    "repro.core.array_metrics",
    "repro.core.slack",
)

#: Function names treated as scheduling/delta hot paths (CON003): from
#: ``run_kernel`` on, the production path of every cold evaluation,
#: then the search step that makes a candidate (the moves' ``apply``,
#: ``random_move`` and the key readers and patchers, and the
#: neighbourhood scorer MH and SA's polish run once per step).
DEFAULT_HOT_PATHS: Tuple[str, ...] = (
    "run_pass",
    "resume_state",
    "evaluate_move",
    "_divergence",
    "evaluate_state_delta",
    "best_fit_unplaced_total_hist",
    "run_kernel",
    "schedule_design",
    "lower_candidate",
    "signature",
    "evaluate_candidate",
    "evaluate_key",
    "kernel_context",
    "apply",
    "random_move",
    "key_under",
    "node_at",
    "delay_at",
    "remapped",
    "swapped",
    "delayed",
    "generate_moves",
    "rank_candidates",
    "swap_neighbours",
)


@dataclass
class LintConfig:
    """Effective configuration for one lint run."""

    layers: Tuple[str, ...] = DEFAULT_LAYERS
    kernel_layers: Tuple[str, ...] = DEFAULT_KERNEL_LAYERS
    timing_allowlist: Tuple[str, ...] = DEFAULT_TIMING_ALLOWLIST
    import_allowlist: Tuple[str, ...] = DEFAULT_IMPORT_ALLOWLIST
    float_eq_modules: Tuple[str, ...] = DEFAULT_FLOAT_EQ_MODULES
    hot_paths: Tuple[str, ...] = DEFAULT_HOT_PATHS
    exclude: Tuple[str, ...] = ()
    source: Optional[Path] = None
    _layer_rank: Dict[str, int] = field(default_factory=dict, repr=False)
    _import_allow: Dict[Tuple[str, str], str] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        self._layer_rank = {name: i for i, name in enumerate(self.layers)}
        self._import_allow = {}
        for entry in self.import_allowlist:
            spec, _, reason = entry.partition("::")
            src, arrow, dst = spec.partition("->")
            if not arrow:
                raise ValueError(
                    f"malformed import-allowlist entry {entry!r}: "
                    "expected 'src.module -> dst.module [:: reason]'"
                )
            key = (src.strip(), dst.strip())
            self._import_allow[key] = reason.strip()

    # -- layering ------------------------------------------------------
    def layer_rank(self, layer: str) -> Optional[int]:
        """Position of ``layer`` in the DAG (None = outside the DAG)."""
        return self._layer_rank.get(layer)

    def import_allowed(self, src_module: str, dst_module: str) -> bool:
        """Whether the allowlist grandfathers ``src -> dst``."""
        return (src_module, dst_module) in self._import_allow

    # -- determinism ---------------------------------------------------
    def is_kernel(self, layer: str) -> bool:
        return layer in self.kernel_layers

    def timing_allowed(self, module: str, qualname: str) -> bool:
        """Whether a wall-clock read at ``module:qualname`` is a
        declared timing boundary (prefix match on the qualname)."""
        site = f"{module}:{qualname}"
        return any(
            site == entry or site.startswith(entry + ".")
            for entry in self.timing_allowlist
        )

    def float_eq_applies(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.float_eq_modules
        )


def _parse_toml_fallback(text: str) -> dict:
    """Minimal TOML for ``[tool.repro-lint]`` on Python 3.10.

    Supports exactly what the section uses: ``[table.headers]``,
    ``key = "string"``, ``key = true/false`` and (possibly multi-line)
    arrays of strings.  Anything fancier should run on 3.11+.
    """
    data: dict = {}
    current = data
    lines = iter(text.splitlines())
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = data
            for part in line[1:-1].strip().split("."):
                part = part.strip().strip('"')
                current = current.setdefault(part, {})
            continue
        if "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip().strip('"')
        value = value.strip()
        if value.startswith("["):
            while not _array_closed(value):
                value += " " + next(lines).strip()
            current[key] = re.findall(r'"((?:[^"\\]|\\.)*)"', value)
        elif value.startswith('"'):
            match = re.match(r'"((?:[^"\\]|\\.)*)"', value)
            current[key] = match.group(1) if match else ""
        elif value in ("true", "false"):
            current[key] = value == "true"
        else:
            try:
                current[key] = int(value.split("#")[0].strip())
            except ValueError:
                current[key] = value
    return data


def _array_closed(fragment: str) -> bool:
    """Whether a TOML array literal is complete (quote-aware)."""
    in_string = False
    escaped = False
    depth = 0
    for ch in fragment:
        if escaped:
            escaped = False
            continue
        if in_string:
            if ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                return True
    return False


def _read_pyproject(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    if tomllib is not None:
        return tomllib.loads(text)
    return _parse_toml_fallback(text)


def find_pyproject(start: Path) -> Optional[Path]:
    """The nearest ``pyproject.toml`` at or above ``start``."""
    node = start if start.is_dir() else start.parent
    for candidate in [node, *node.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(
    start: Optional[Path] = None, explicit: Optional[Path] = None
) -> LintConfig:
    """Configuration for a run rooted at ``start``.

    ``explicit`` points straight at a ``pyproject.toml``; otherwise the
    file is searched upward from ``start`` (default: cwd).  A missing
    file or missing ``[tool.repro-lint]`` section yields the built-in
    defaults.
    """
    pyproject = explicit or find_pyproject(start or Path.cwd())
    if pyproject is None:
        return LintConfig()
    section = (
        _read_pyproject(pyproject).get("tool", {}).get("repro-lint", {})
    )
    if not section:
        return LintConfig(source=pyproject)

    def str_list(key: str, default: Sequence[str]) -> Tuple[str, ...]:
        value = section.get(key)
        if value is None:
            return tuple(default)
        if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value
        ):
            raise ValueError(
                f"[tool.repro-lint] {key} must be an array of strings"
            )
        return tuple(value)

    return LintConfig(
        layers=str_list("layers", DEFAULT_LAYERS),
        kernel_layers=str_list("kernel-layers", DEFAULT_KERNEL_LAYERS),
        timing_allowlist=str_list(
            "timing-allowlist", DEFAULT_TIMING_ALLOWLIST
        ),
        import_allowlist=str_list(
            "import-allowlist", DEFAULT_IMPORT_ALLOWLIST
        ),
        float_eq_modules=str_list(
            "float-eq-modules", DEFAULT_FLOAT_EQ_MODULES
        ),
        hot_paths=str_list("hot-paths", DEFAULT_HOT_PATHS),
        exclude=str_list("exclude", ()),
        source=pyproject,
    )


__all__ = ["LintConfig", "load_config", "find_pyproject"]
