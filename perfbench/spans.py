"""Span tracing for the benchmark's traced run.

The tracer wraps the system's public entry points from outside the
program: each wrapped attribute is replaced, on the class or module
where callers look it up, by a function that records one span (layer
name, start, end, parent span, run id) around the original call.
Spans live in flat in-memory arrays and are written once, when the
run ends.

:func:`fold` turns the spans into per-layer *self* times -- a span's
duration minus the part of it its direct children cover -- so the
layers plus ``other_s`` (the traced total minus every self time) sum to
the traced total exactly.

Only the parent process records spans: a fork hook switches tracing
off in children, so the shards of a distributed race run untraced and
the race reports its parent-side spans plus the shards' busy seconds.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
import weakref
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

ROOT_SPAN = "run"


def _silence_in_child(ref: "weakref.ref[Tracer]") -> None:
    tracer = ref()
    if tracer is not None:
        tracer.active = False


class Tracer:
    """Flat, append-only span store plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.counters: Dict[str, float] = {}
        self.run_id = -1
        self.active = False
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _silence_in_child(ref))

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    @contextlib.contextmanager
    def span(self, name: str, run_id: int) -> Iterator[None]:
        """A root span: one public call of run ``run_id``."""
        self.run_id = run_id
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        after: Optional[Callable[["Tracer", object, tuple], None]] = None,
        opaque: bool = False,
    ) -> None:
        """Record a ``layer`` span around every call of ``owner.attr``.

        ``after(tracer, result, args)`` runs after each traced call (to
        count outcomes).  An ``opaque`` span records no nested spans:
        its whole duration is its own self time.
        """
        original = owner.__dict__[attr]
        nid = self.name_id(layer)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            idx = tracer.open(nid)
            if opaque:
                tracer.active = False
            try:
                result = original(*args, **kwargs)
            finally:
                if opaque:
                    tracer.active = True
                tracer.close(idx)
            if after is not None:
                after(tracer, result, args)
            return result

        functools.update_wrapper(traced, original)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, layers: Sequence["Layer"]) -> None:
        for layer in layers:
            for owner in layer.owners():
                self.wrap(owner, layer.attr, layer.name, layer.after, layer.opaque)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """The spans as numpy columns: name, start, end, parent, run."""
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.run, dtype=np.int32),
        )

    def write(self, path: str) -> None:
        """Write every span (and the name table) to one ``.npz`` file."""
        name, start, end, parent, run = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            run=run,
        )


# ----------------------------------------------------------------------
# folding spans into a closed budget
# ----------------------------------------------------------------------
def self_times(start, end, parent):
    """Each span's duration minus the durations of its direct children."""
    duration = (np.asarray(end) - np.asarray(start)).astype(np.float64)
    parent = np.asarray(parent)
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered


def fold(
    names: Sequence[str], name, start, end, parent, total_ns: float
) -> Dict[str, float]:
    """Self seconds per layer, plus ``other_s`` closing the budget.

    ``total_ns`` is the traced total; root spans named
    :data:`ROOT_SPAN` are the runs themselves, so their self time is
    exactly the unattributed remainder and lands in ``other_s``.
    """
    own = self_times(start, end, parent)
    per_name = np.bincount(
        np.asarray(name), weights=own, minlength=len(names)
    )
    layers: Dict[str, float] = {}
    attributed = 0.0
    for nid, label in enumerate(names):
        if label == ROOT_SPAN:
            continue
        layers[f"{label}_s"] = per_name[nid] / 1e9
        attributed += per_name[nid]
    layers["other_s"] = (total_ns - attributed) / 1e9
    return layers


# ----------------------------------------------------------------------
# the wrapped entry points
# ----------------------------------------------------------------------
class Layer:
    """One traced attribute: ``module[.cls].attr`` recorded as ``name``.

    With ``all_classes`` set, every concrete class of ``module`` that
    defines ``attr`` itself is patched: the proposers, acceptors and
    moves implement a protocol, and callers look the method up on each
    implementing class.
    """

    def __init__(
        self,
        name: str,
        module: str,
        attr: str,
        cls: Optional[str] = None,
        after=None,
        opaque: bool = False,
        all_classes: bool = False,
    ) -> None:
        self.name = name
        self.module = module
        self.attr = attr
        self.cls = cls
        self.after = after
        self.opaque = opaque
        self.all_classes = all_classes

    def owners(self) -> List[object]:
        module = importlib.import_module(self.module)
        if self.all_classes:
            return [
                obj
                for _, obj in inspect.getmembers(module, inspect.isclass)
                if obj.__module__ == module.__name__
                and self.attr in obj.__dict__
                and getattr(obj, "_is_protocol", False) is False
            ]
        if self.cls is not None:
            return [getattr(module, self.cls)]
        return [module]


def _count_kernel(tracer: Tracer, result, args) -> None:
    tracer.count("sched.kernel.calls")
    if args[1].success:
        tracer.count("sched.kernel.ok")


def _count_decode(tracer: Tracer, result, args) -> None:
    tracer.count("sched.decode.calls")


def _count_delta(tracer: Tracer, result, args) -> None:
    tracer.count("engine.delta.calls")
    if result[1]:
        tracer.count("engine.delta.used")


def _count_lookup(tracer: Tracer, result, args) -> None:
    tracer.count("engine.cache.lookups")
    if result[0]:
        tracer.count("engine.cache.hits")


def _count_moves(tracer: Tracer, result, args) -> None:
    tracer.count("search.moves", len(result))


LAYERS = (
    Layer("gen.build", "repro.gen.families.base", "build",
          cls="ScenarioFamily", opaque=True),
    Layer("engine.compile", "repro.engine.compiled_spec", "__init__",
          cls="CompiledSpec"),
    Layer("engine.compile", "repro.sched.arrays", "__init__",
          cls="ArraySpec"),
    Layer("core.initial_map", "repro.core.initial_mapping",
          "try_map_and_schedule", cls="InitialMapper"),
    Layer("sched.lower", "repro.sched.arrays", "lower_candidate",
          cls="ArraySpec"),
    Layer("sched.kernel", "repro.sched.arrays", "run_kernel",
          cls="ArraySpec", after=_count_kernel),
    Layer("sched.resume", "repro.sched.arrays", "divergence",
          cls="ArraySpec"),
    Layer("sched.resume", "repro.sched.arrays", "resume_state",
          cls="ArraySpec"),
    Layer("sched.resume", "repro.sched.arrays", "clean_mask",
          cls="ArraySpec"),
    Layer("sched.decode", "repro.sched.arrays", "decode_schedule",
          cls="ArraySpec", after=_count_decode),
    Layer("core.metrics", "repro.core.array_metrics",
          "evaluate_state_delta"),
    Layer("engine.delta", "repro.engine.delta", "evaluate_move",
          cls="DeltaEvaluator", after=_count_delta),
    Layer("engine.signature", "repro.engine.compiled_spec", "signature",
          cls="CompiledSpec"),
    Layer("engine.cache.lookup", "repro.engine.cache", "lookup",
          cls="EvaluationCache", after=_count_lookup),
    Layer("engine.store.open", "repro.engine.store", "__init__",
          cls="SqliteResultStore"),
    Layer("engine.store.commit", "repro.engine.store", "commit",
          cls="SqliteResultStore"),
    Layer("core.apply", "repro.core.transformations", "apply",
          all_classes=True),
    Layer("search.propose", "repro.search.proposers", "propose",
          after=_count_moves, all_classes=True),
    Layer("search.accept", "repro.search.acceptors", "decide",
          all_classes=True),
)
