"""Infeasibility certificates for cells no design can schedule.

A job is *boxed in* when the frozen base schedule leaves it, on every
node it may run on, no free interval inside its release-to-deadline
window as long as its WCET there.  Current processes only add
occupancy and precedences only delay starts, so one boxed-in job makes
every mapping and priority assignment of the scenario unschedulable.

The certificate is read off the compiled array columns: the base run
lists, the per-job release and deadline, and the WCET rows (``-1``
marks a node the process may not run on).
"""

from __future__ import annotations

import functools

from repro.core.strategy import design_application
from repro.engine.compiled_spec import CompiledSpec
from repro.gen import families


def largest_free(starts, ends, lo: int, hi: int) -> int:
    """The longest free stretch of one node's base runs inside [lo, hi)."""
    best = 0
    cursor = lo
    for start, end in zip(starts, ends):
        if start >= hi:
            break
        if end > cursor:
            best = max(best, start - cursor)
            cursor = end
    return max(best, hi - cursor)


def boxed_in_jobs(spec) -> dict:
    """Every boxed-in job: ``job key -> (release, deadline, rooms)``.

    ``rooms`` maps each allowed node to ``(largest free interval,
    WCET)``; a job is listed only when every room is smaller than its
    WCET.
    """
    arrays = CompiledSpec(spec).arrays
    boxed = {}
    for j, key in enumerate(arrays.job_keys):
        release = arrays.job_release[j]
        deadline = min(arrays.job_deadline[j], arrays.horizon)
        wcets = arrays.wcet[arrays.job_pid[j]]
        rooms = {
            nid: (
                largest_free(
                    arrays.base_runs_s[n], arrays.base_runs_e[n],
                    release, deadline,
                ),
                wcets[n],
            )
            for n, nid in enumerate(arrays.node_ids)
            if wcets[n] >= 0
        }
        if all(room < wcet for room, wcet in rooms.values()):
            boxed[key] = (release, deadline, rooms)
    return boxed


@functools.lru_cache(maxsize=None)
def cell_spec(family: str, preset: str, seed: int):
    return families.get_family(family).build(preset, seed).spec()


def test_largest_free_clips_runs_to_the_window():
    starts, ends = [10, 40, 90], [20, 60, 120]
    assert largest_free(starts, ends, 0, 100) == 30  # [60, 90)
    assert largest_free(starts, ends, 15, 45) == 20  # [20, 40)
    assert largest_free(starts, ends, 100, 200) == 80  # [120, 200)
    assert largest_free([], [], 5, 9) == 4


class TestForkjoinMedium:
    """perfbench's infeasible ``forkjoin``/``medium``/2 cell."""

    def test_seed_2_has_boxed_in_jobs(self):
        boxed = boxed_in_jobs(cell_spec("forkjoin", "medium", 2))
        assert sorted(boxed) == [
            (f"current.g1.P{i}", 0) for i in (1, 3, 4, 5)
        ]
        assert boxed[("current.g1.P1", 0)] == (
            0,
            1200,
            {"N0": (89, 177), "N2": (77, 260), "N3": (62, 209),
             "N4": (21, 270)},
        )

    def test_certificate_is_sound(self):
        """A boxed-in cell has no valid design."""
        assert not design_application(
            cell_spec("forkjoin", "medium", 2), "AH"
        ).valid

    def test_seed_1_has_none(self):
        assert boxed_in_jobs(cell_spec("forkjoin", "medium", 1)) == {}
