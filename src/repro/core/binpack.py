"""Bin packing for the first design criterion.

Metric C1 asks how much of the hypothetical largest future application
*cannot* be packed into the slack of the current design: future
processes (objects sized by WCET) are packed into processor slack gaps
(bins sized by gap length); future messages into TDMA slot residuals.

The paper uses a **best-fit** policy (slide 12), the only one here:
:func:`best_fit` packs and records placements, and the metric kernels
compute its unplaced total from the bags and bin multisets alone.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass
class PackResult:
    """Outcome of packing objects into bins.

    Attributes
    ----------
    placed:
        (object size, bin index) for every packed object.
    unplaced:
        Sizes of the objects that fit in no bin.
    residuals:
        Remaining capacity per bin after packing.
    """

    placed: List[Tuple[int, int]] = field(default_factory=list)
    unplaced: List[int] = field(default_factory=list)
    residuals: List[int] = field(default_factory=list)

    @property
    def placed_total(self) -> int:
        """Total size successfully packed."""
        return sum(size for size, _ in self.placed)

    @property
    def unplaced_total(self) -> int:
        """Total size that could not be packed."""
        return sum(self.unplaced)

    @property
    def unplaced_fraction(self) -> float:
        """Unpacked share of the total demand, in [0, 1]."""
        total = self.placed_total + self.unplaced_total
        if total == 0:
            return 0.0
        return self.unplaced_total / total


def best_fit(objects: Sequence[int], bins: Sequence[int]) -> PackResult:
    """Best-fit decreasing packing: the tightest bin that still fits.

    This is the policy of the paper's first criterion: it preserves
    large gaps for large future processes by consuming the snuggest
    gap first.  Implemented over a sorted residual list (bisect), with
    runs of equal-size objects placed as a batch: while the tightest
    eligible bin keeps fitting the size, best fit provably keeps
    draining that same bin (its residual shrinks below every other
    eligible bin), so a run consumes ``floor(residual / size)`` objects
    per bin visit instead of paying one pool update per object.  The
    future bags of the design metrics draw from small size histograms,
    which makes packing cost scale with *distinct* sizes.
    """
    for size in objects:
        if size <= 0:
            raise ValueError(f"object sizes must be positive, got {size}")
    for cap in bins:
        if cap < 0:
            raise ValueError(f"bin capacities must be non-negative, got {cap}")
    order = sorted(objects, reverse=True)
    # Sorted (residual, bin index) pairs; ties broken by bin index so the
    # packing is deterministic.
    pool: List[Tuple[int, int]] = sorted((cap, i) for i, cap in enumerate(bins))
    residuals = list(bins)
    result = PackResult(residuals=residuals)
    placed = result.placed
    unplaced = result.unplaced
    n = len(order)
    i = 0
    while i < n:
        size = order[i]
        run = i + 1
        while run < n and order[run] == size:
            run += 1
        count = run - i
        i = run
        while count:
            pos = bisect.bisect_left(pool, (size, -1))
            if pos == len(pool):
                unplaced.extend([size] * count)
                break
            res, idx = pool.pop(pos)
            # Drain: while the bin still fits the size it stays the
            # tightest eligible bin, so consecutive equal objects land
            # in it back to back -- exactly one object at a time in the
            # classical formulation, batched here.
            take = min(count, res // size)
            left = res - take * size
            residuals[idx] = left
            if left > 0:
                bisect.insort(pool, (left, idx))
            placed.extend([(size, idx)] * take)
            count -= take
    return result


def best_fit_unplaced_total(
    ordered_objects: Sequence[int], bins: Sequence[int]
) -> int:
    """Total size :func:`best_fit` leaves unplaced, computed lean.

    The metric hot path only consumes the unplaced total, which is a
    pure function of the bin-capacity *multiset* (tie-breaking between
    equal residuals swaps bins of identical value, leaving the residual
    multiset -- and hence every later fit decision -- unchanged) and of
    the object multiset.  ``ordered_objects`` must be pre-sorted in
    descending order (the caller caches the sorted bag).

    Within one run of equal-size objects, best fit drains the eligible
    bins in ascending residual order -- once the tightest eligible bin
    stops fitting, the next one is strictly larger -- so a whole size
    class reduces to a cumulative-capacity scan over the sorted
    residuals, vectorized here with numpy.  Exactly
    ``best_fit(objects, bins).unplaced_total`` for the same multisets.
    """
    pool = np.sort(np.asarray(bins, dtype=np.int64))
    unplaced = 0
    n = len(ordered_objects)
    i = 0
    while i < n:
        size = ordered_objects[i]
        run = i + 1
        while run < n and ordered_objects[run] == size:
            run += 1
        count = run - i
        i = run
        j = int(np.searchsorted(pool, size, side="left"))
        eligible = pool[j:]
        if not eligible.size:
            unplaced += size * count
            continue
        capacities = eligible // size
        cumulative = np.cumsum(capacities)
        if int(cumulative[-1]) <= count:
            # Every eligible bin is drained to its remainder.
            unplaced += size * (count - int(cumulative[-1]))
            pool = np.sort(np.concatenate([pool[:j], eligible % size]))
            continue
        k = int(np.searchsorted(cumulative, count, side="left"))
        taken_before = int(cumulative[k - 1]) if k else 0
        partial = int(eligible[k]) - (count - taken_before) * size
        pool = np.sort(
            np.concatenate(
                [pool[:j], eligible[:k] % size, [partial], eligible[k + 1 :]]
            )
        )
    return unplaced


def best_fit_unplaced_total_hist(
    size_runs: Sequence[Tuple[int, int]],
    hist: Dict[int, int],
    consume: bool = False,
) -> int:
    """:func:`best_fit_unplaced_total` over a bin-capacity *histogram*.

    ``hist`` maps a residual value to how many bins currently hold it;
    ``size_runs`` is the object bag run-length encoded as ``(size,
    count)`` pairs in descending size order (the callers cache the
    encoding per spec).  With ``consume`` the histogram is mutated in
    place (single-use histograms skip a defensive copy); otherwise the
    input is left untouched.  The unplaced total is a pure function of
    the two multisets, and within one run of equal-size objects best
    fit drains eligible bins in ascending residual order, each bin
    hosting ``floor(value / size)`` objects -- so whole *value
    classes* drain at once: all bins of one value go to ``value %
    size`` together, and at most one bin per run is left partially
    drained.  The metric workloads have few distinct object sizes and
    few distinct residual values, which makes this walk over the
    histogram far cheaper than sorting the flat residual vector.

    The sorted value list is built once and maintained incrementally:
    drained values are deleted lazily (skipped when no longer in the
    histogram) and new remainder values are insorted.  A value can
    appear twice in the list (a remainder recreating a lazily-deleted
    value); that is benign, because a run either deletes a value from
    the histogram before walking on (the duplicate is then skipped) or
    stops at it.

    Exactly ``best_fit(objects, bins).unplaced_total`` for the same
    multisets.
    """
    if not consume:
        hist = dict(hist)
    values = sorted(hist)
    insort = bisect.insort
    unplaced = 0
    for size, count in size_runs:
        # Remainders created below are always < the current size, so
        # they are insorted strictly below the walk cursor (shifting
        # it by one) and can never join this run's ascending walk.
        i = bisect.bisect_left(values, size)
        while count and i < len(values):
            value = values[i]
            i += 1
            bins = hist.get(value)
            if not bins:
                continue
            per = value // size
            capacity = per * bins
            if capacity <= count:
                # Every bin of this value drains to value % size.
                del hist[value]
                remainder = value % size
                if remainder:
                    if remainder in hist:
                        hist[remainder] += bins
                    else:
                        hist[remainder] = bins
                        insort(values, remainder)
                        i += 1
                count -= capacity
            else:
                full, rest = divmod(count, per)
                untouched = bins - full - (1 if rest else 0)
                if untouched:
                    hist[value] = untouched
                else:
                    del hist[value]
                remainder = value % size
                if full and remainder:
                    if remainder in hist:
                        hist[remainder] += full
                    else:
                        hist[remainder] = full
                        insort(values, remainder)
                if rest:
                    partial = value - rest * size
                    if partial:
                        if partial in hist:
                            hist[partial] += 1
                        else:
                            hist[partial] = 1
                            insort(values, partial)
                count = 0
                break
        unplaced += size * count
    return unplaced
