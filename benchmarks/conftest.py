"""Result records of the reference-layer benchmarks.

``bench_delta``, ``bench_sched`` and ``bench_eval`` time the delta
kernel, the array core and array pricing against the reference shapes
they replaced.  Every *timed* run writes one machine-readable record
per benchmark (median wall time plus ``extra_info``), so those
comparisons stay diffable as data; ``--benchmark-disable`` smoke runs
leave the files untouched.  The benchmark of record is ``perfbench/``.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

#: Where the machine-readable benchmark results land (committed, so
#: the perf trajectory across PRs is diffable).
BENCH_RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_engine.json"

#: The scheduler-core trajectory record (bench_sched): repo-root, so
#: the array-over-object speedup claim is diffable per PR.
BENCH_SCHED_PATH = Path(__file__).resolve().parent.parent / "BENCH_sched.json"

#: The end-to-end evaluation trajectory record (bench_eval): repo-root,
#: so the array-metrics-over-decode-always speedup claim is diffable
#: per PR.
BENCH_EVAL_PATH = Path(__file__).resolve().parent.parent / "BENCH_eval.json"


def _merge_rows(path: Path, rows) -> list:
    """Merge ``rows`` into the file's stored results by benchmark name.

    A partial run (one bench file, or an aborted session) updates only
    the rows it actually timed and keeps every other file's trajectory
    data intact.
    """
    merged = {}
    if path.exists():
        try:
            previous = json.loads(path.read_text())
            merged = {row["name"]: row for row in previous.get("results", ())}
        except (ValueError, KeyError, TypeError):
            merged = {}
    merged.update({row["name"]: row for row in rows})
    return sorted(merged.values(), key=lambda row: row["name"])


def _write_results(path: Path, results, extra=None) -> None:
    payload = {
        "schema": 1,
        "python": platform.python_version(),
        "results": results,
    }
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sched_summary(rows) -> dict:
    """The array-core headline: per-candidate speedup on medium."""
    for row in rows:
        info = row["extra_info"]
        if (
            info.get("sched_record") == "array"
            and info.get("preset") == "medium"
        ):
            return {
                "summary": {
                    "medium_median_array_us": info.get("median_array_us"),
                    "medium_median_object_us": info.get("median_object_us"),
                    "medium_median_scratch_us": info.get("median_scratch_us"),
                    "medium_speedup_vs_object": info.get("speedup_vs_object"),
                    "medium_speedup_vs_scratch": info.get(
                        "speedup_vs_scratch"
                    ),
                }
            }
    return {}


def _eval_summary(rows) -> dict:
    """The evaluation headline: end-to-end speedup on medium."""
    for row in rows:
        info = row["extra_info"]
        if (
            info.get("eval_record") == "array"
            and info.get("preset") == "medium"
        ):
            return {
                "summary": {
                    "medium_median_array_us": info.get("median_array_us"),
                    "medium_median_object_us": info.get("median_object_us"),
                    "medium_median_decode_always_us": info.get(
                        "median_decode_always_us"
                    ),
                    "medium_speedup_vs_object": info.get("speedup_vs_object"),
                    "medium_speedup_vs_decode_always": info.get(
                        "speedup_vs_decode_always"
                    ),
                }
            }
    return {}


def pytest_sessionfinish(session, exitstatus):
    """Persist per-bench medians after timed runs.

    The ``bench_delta`` workloads land in
    ``benchmarks/BENCH_engine.json``; the ``bench_sched`` workloads
    (tagged ``sched_record`` in their ``extra_info``) in the repo-root
    ``BENCH_sched.json`` with the array-core speedup summary, and the
    ``bench_eval`` workloads (tagged ``eval_record``) in the repo-root
    ``BENCH_eval.json`` with the end-to-end evaluation summary.
    ``--benchmark-disable`` smoke runs leave all three untouched.
    """
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None:
        return
    rows = []
    for bench in benchmark_session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None:  # --benchmark-disable / skipped
            continue
        if hasattr(stats, "stats"):  # Metadata wrapper on some versions
            stats = stats.stats
        rows.append(
            {
                "name": bench.fullname,
                "median_seconds": stats.median,
                "mean_seconds": stats.mean,
                "rounds": stats.rounds,
                "extra_info": dict(bench.extra_info),
            }
        )
    if not rows:
        return
    sched_rows = [
        row for row in rows if "sched_record" in row["extra_info"]
    ]
    eval_rows = [
        row for row in rows if "eval_record" in row["extra_info"]
    ]
    engine_rows = [
        row
        for row in rows
        if "sched_record" not in row["extra_info"]
        and "eval_record" not in row["extra_info"]
    ]
    if engine_rows:
        _write_results(
            BENCH_RESULTS_PATH, _merge_rows(BENCH_RESULTS_PATH, engine_rows)
        )
    if sched_rows:
        merged = _merge_rows(BENCH_SCHED_PATH, sched_rows)
        _write_results(
            BENCH_SCHED_PATH, merged, extra=_sched_summary(merged)
        )
    if eval_rows:
        merged = _merge_rows(BENCH_EVAL_PATH, eval_rows)
        _write_results(
            BENCH_EVAL_PATH, merged, extra=_eval_summary(merged)
        )
