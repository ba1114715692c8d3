"""The compiled evaluation pass: schedule, price and mix in C.

``native.c`` holds two entry points.  ``kernel`` is the cold pass of
:meth:`ArraySpec.run_kernel
<repro.sched.arrays.ArraySpec.run_kernel>`, which reads a candidate
straight from its packed key (:meth:`CompiledSpec.signature
<repro.engine.compiled_spec.CompiledSpec.signature>`) and records the
jobs in pop order and each job's start.  ``evaluate``
runs the same pass and then prices and mixes its result: the
best-fit slide-14 objective of
:func:`~repro.engine.evaluation.evaluate_key`, one call per cold
candidate.  This module builds and loads it and wraps it:

* :class:`KernelContext` -- one spec's immutable lowering as C arrays,
  built on the spec's first compiled pass, plus the scratch state and
  the bound objective of ``evaluate``, built on the first priced pass;
* :class:`NativeRunState` -- one ``kernel`` pass on one key, with its
  own buffer, whose busy runs, bus occupancy, pop order and job starts
  decode on demand;
* :class:`NativePricedState` -- one ``evaluate`` call on the scratch,
  which keeps the seven metric fields as one record and no columns.

The module is built and loaded when this file is imported, so a timed
region never spans a compile.  The build runs ``native_build.py`` in a
child process -- this process never imports cffi's builder or
setuptools -- and lands in ``_build/`` next to this file, named by a
hash of the C source, the build script and cffi's version plus the
interpreter's extension suffix.  A fresh build deletes this
interpreter's builds of earlier sources.  The kernel reads the
little-endian key in host order, so the module loads only on a
little-endian host.
When that check, the build or the load fails, one ``RuntimeWarning``
names the cause, :data:`MODULE` is ``None`` and the Python kernel
serves every pass.
"""

from __future__ import annotations

import hashlib
import importlib.util
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path
from types import ModuleType
from typing import (
    TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.arrays import ArrayMetricGeometry, ArraySpec

HERE = Path(__file__).resolve().parent
SOURCE = HERE / "native.c"
BUILD_SCRIPT = HERE / "native_build.py"
BUILD_DIR = HERE / "_build"
#: This interpreter's extension suffix, the tail of every build's name.
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"

#: Failure kinds ``kernel`` and ``evaluate`` return (0 is success); see
#: ``native.c``.
FAIL_HORIZON, FAIL_DEADLINE, FAIL_BUS, FAIL_CYCLE, FAIL_WCET = 1, 2, 3, 4, 5
#: State header words: kind, scheduled count, job, edge, end time, then
#: the C2P and C2m of an ``evaluate`` call and its five doubles (C1P,
#: C1m, both penalties and the objective).
_KIND, _SCHEDULED, _JOB, _EDGE, _END, _C2P, _C2M, _MIX = range(8)
_HEADER = _MIX + 5
_WORD = 8


class NativeBuildError(RuntimeError):
    """The build script exited with an error."""


def module_path() -> Path:
    """Where the build of the current source lives (it may not exist).

    The name hashes the C source, the build script and the version of
    cffi's runtime backend, which a built module must match; importing
    the backend fails early, with a plain cause, when cffi is missing.
    """
    import _cffi_backend

    digest = hashlib.sha256(
        SOURCE.read_bytes()
        + BUILD_SCRIPT.read_bytes()
        + _cffi_backend.__version__.encode()
    ).hexdigest()[:16]
    return BUILD_DIR / f"_native_{digest}{EXT_SUFFIX}"


def _build(path: Path) -> None:
    name = path.name.split(".", 1)[0]
    proc = subprocess.run(
        [sys.executable, str(BUILD_SCRIPT), name, str(path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode:
        lines = (proc.stderr or proc.stdout).strip().splitlines()
        raise NativeBuildError(
            lines[-1] if lines else f"exit status {proc.returncode}"
        )


def _prune(current: Path) -> None:
    """Delete the builds of earlier sources next to ``current``.

    Only names with this interpreter's extension suffix go; another
    interpreter's builds stay, and an unlink that fails is ignored.
    """
    for stale in current.parent.glob(f"_native_*{EXT_SUFFIX}"):
        if stale != current:
            try:
                stale.unlink()
            except OSError:
                pass


def _import(path: Path) -> ModuleType:
    spec = importlib.util.spec_from_file_location(
        path.name.split(".", 1)[0], path
    )
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load() -> Optional[ModuleType]:
    """Build (when missing) and import the compiled pass.

    Returns ``None`` after one ``RuntimeWarning`` naming the cause when
    the host is not little-endian or either step fails; the callers
    then run the Python pass.
    """
    if sys.byteorder != "little":
        return _unavailable(
            f"{sys.byteorder}-endian host; the kernel reads the "
            "little-endian packed key in host byte order"
        )
    try:
        path = module_path()
        if not path.exists():
            _build(path)
            _prune(path)
        return _import(path)
    except (OSError, ImportError, subprocess.SubprocessError,
            NativeBuildError) as exc:
        return _unavailable(exc)


def _unavailable(cause: object) -> None:
    warnings.warn(
        f"compiled evaluation pass unavailable ({cause}); "
        "using the Python pass",
        RuntimeWarning,
        stacklevel=3,
    )
    return None


#: The loaded extension module (``.ffi`` and ``.lib``), or ``None``.
MODULE: Optional[ModuleType] = load()


class KernelContext:
    """One spec's lowering as C arrays, plus its state layout.

    Every array the C structs point into is held in ``_keep``, so the
    pointers stay valid as long as the context lives.  Price geometry
    (with its scratch) is built per ``T_min`` on first use, like
    :meth:`ArraySpec.metric_geometry`.

    The context also owns the scratch state of ``evaluate``, the one
    compiled call of a cold best-fit evaluation: :meth:`bind` builds
    it, once, and sets the objective the call mixes.  The scratch's bus
    region holds the base occupancy between calls.  ``future`` and
    ``weights`` are the objects the bound objective was built from;
    callers compare them with ``is`` to tell whether it still applies.
    There is one context per :class:`ArraySpec`, so one per engine and
    one per shard.  An engine was never safe to share between threads,
    and the shared scratch does not change that.
    """

    __slots__ = (
        "ffi", "lib", "alloc", "ptr", "key_size", "state_size", "n_jobs",
        "_keep", "_prices", "_log_cap", "_gap_room", "_mix_runs",
        "scratch", "metrics", "future", "weights", "price", "mix", "record",
    )

    def __init__(self, spec: "ArraySpec", module: ModuleType) -> None:
        ffi = module.ffi
        self.ffi = ffi
        self.lib = module.lib
        self.alloc = ffi.new_allocator(should_clear_after_alloc=False)
        self._keep: List[Any] = []
        self._prices: Dict[int, Any] = {}
        self.scratch: Any = None
        self.metrics: Any = None
        self.future: object = None
        self.weights: object = None
        self.price: Any = None
        self.mix: Any = None
        self.record: Any = None
        self._mix_runs: Any = None
        n_nodes = len(spec.node_ids)
        base_ptr = [0]
        for runs in spec.base_runs_s:
            base_ptr.append(base_ptr[-1] + len(runs))
        run_cap = max(len(runs) for runs in spec.base_runs_s) + spec.n_jobs
        n_jobs = spec.n_jobs
        n_pids = len(spec.pids)
        self.key_size = spec.key_layout.struct.size
        self.n_jobs = n_jobs

        k = ffi.new("kernel_ctx *")
        k.n_jobs = n_jobs
        k.n_nodes = n_nodes
        k.n_occ = spec.n_occ
        k.n_sources = len(spec.sources)
        k.n_pids = n_pids
        k.n_msgs = spec.n_messages
        k.horizon = spec.horizon
        k.round_length = spec.round_length
        k.job_pid = self._array(spec.job_pid)
        k.deadline = self._array(spec.job_deadline)
        k.deadline_f = self._array(spec.job_deadline, "double[]")
        k.static_order = self._array(spec.static_order)
        k.release = self._array(spec.job_release)
        k.preds0 = self._array(spec.preds0)
        k.sources = self._array(spec.sources)
        k.wcet = self._array([w for row in spec.wcet for w in row])
        k.out_ptr = self._array(spec.out_ptr)
        k.edge_msg = self._array(spec.edge_msg)
        k.edge_dst = self._array(spec.edge_dst)
        k.edge_dst_pid = self._array(spec.edge_dst_pid)
        k.edge_size = self._array(spec.edge_size)
        k.slot_off = self._array(spec.slot_offset)
        k.slot_len = self._array(spec.slot_length)
        k.slot_cap = self._array(spec.slot_capacity)
        k.occ_count = self._array(spec.occ_count)
        k.occ_base = self._array(spec.occ_base)
        k.base_ptr = self._array(base_ptr)
        k.base_s = self._array([s for runs in spec.base_runs_s for s in runs])
        k.base_e = self._array([e for runs in spec.base_runs_e for e in runs])
        k.base_used = self._array(spec.base_bus_used_flat.tolist())
        # State layout: the header (the outcome and the metric fields
        # of an evaluate call), then the run columns, run counts, bus
        # occupancy, the loop scratch and the unpacked key: node
        # indices, delays, heap ranks and two (urgency, job) sort
        # buffers of two words per job each; then the jobs in pop
        # order and each job's start.  The scratch state adds the log
        # of written occurrences: each is logged once, and only a
        # cross-node delivery writes one.
        k.run_cap = run_cap
        k.off_runs_s = _HEADER
        k.off_runs_e = k.off_runs_s + n_nodes * run_cap
        k.off_run_n = k.off_runs_e + n_nodes * run_cap
        k.off_bus = k.off_run_n + n_nodes
        k.off_earliest = k.off_bus + spec.n_occ
        k.off_preds = k.off_earliest + n_jobs
        k.off_heap = k.off_preds + n_jobs
        k.off_job_of_rank = k.off_heap + n_jobs
        k.off_node = k.off_job_of_rank + n_jobs
        k.off_delay = k.off_node + n_pids
        k.off_rank = k.off_delay + spec.n_messages
        k.off_sort = k.off_rank + n_jobs
        k.off_pop = k.off_sort + 4 * n_jobs
        k.off_start = k.off_pop + n_jobs
        k.off_log = k.off_start + n_jobs
        self.state_size = k.off_log
        self._log_cap = min(spec.n_occ, len(spec.edge_dst))
        # Room of the gap histogram: a best-fit walk needs 2 * bins + 2
        # entries, and a node has one gap more than runs, of which a
        # pass adds one per job at most.
        self._gap_room = 2 * (n_nodes + base_ptr[-1] + n_jobs) + 4
        self.ptr = k

    def _array(self, values: List[int], ctype: str = "int64_t[]") -> Any:
        data = self.ffi.new(ctype, values)
        self._keep.append(data)
        return data

    def price_context(self, geom: "ArrayMetricGeometry") -> Any:
        """The C price geometry of one ``T_min`` and its scratch: the
        per-window buffers and room for the gap and bus histograms
        (built once)."""
        g = self._prices.get(geom.t_min)
        if g is None:
            k = self.ptr
            g = self.ffi.new("price_ctx *")
            hist = sorted(geom.base_resid_hist.items())
            g.n_windows = geom.n_windows
            g.window_width = geom.window_width
            g.base_m = len(hist)
            # The bus histogram's values are distinct residuals, from
            # the lowest base residual (or 0) to the largest capacity,
            # so it needs no more room than that range, nor than the
            # patch and a best-fit walk over every occurrence.
            low = min([0] + [value for value, _ in hist[:1]])
            high = int(geom.caps_flat.max(initial=0))
            g.gap_room = self._gap_room
            g.bus_room = min(len(hist) + 2 * k.n_occ, high - low + 1) + 4
            g.window_lengths = self._array(geom.window_lengths)
            g.caps = self._array(geom.caps_flat.tolist())
            g.win = self._array(geom.win_flat.tolist())
            g.base_val = self._array([value for value, _ in hist])
            g.base_cnt = self._array([count for _, count in hist])
            g.base_window_free = self._array(geom.base_window_free)
            scratch = self.alloc(
                "int64_t[]", 2 * (geom.n_windows + g.gap_room + g.bus_room)
            )
            self._keep.append(scratch)
            g.scratch = scratch
            self._prices[geom.t_min] = g
        return g

    def bind(
        self,
        future: object,
        weights: object,
        geom: "ArrayMetricGeometry",
        inputs: "ObjectiveInputs",
        record: type,
    ) -> None:
        """Set the objective ``evaluate`` mixes, built from ``future``
        and ``weights``; the first call builds the scratch state.

        ``record`` is the tuple type a priced pass returns its seven
        metric fields as (``DesignMetrics``), built in one step."""
        ffi = self.ffi
        if self.scratch is None:
            k = self.ptr
            scratch = self.alloc("int64_t[]", self.state_size + self._log_cap)
            ffi.memmove(scratch + k.off_bus, k.base_used, k.n_occ * _WORD)
            self.scratch = scratch
            self.metrics = ffi.cast("double *", scratch + _MIX)
        process, message = runs = tuple(
            ffi.new("int64_t[]", [x for run in bag for x in run])
            for bag in (inputs.process_runs, inputs.message_runs)
        )
        w1p, w1m, w2p, w2m = inputs.weights
        self.price = self.price_context(geom)
        self.mix = ffi.new("mix_ctx *", {
            "process_min": inputs.process_min,
            "n_process": len(inputs.process_runs),
            "n_message": len(inputs.message_runs),
            "process_runs": process,
            "message_runs": message,
            "process_total": inputs.process_total,
            "message_total": inputs.message_total,
            "t_need": inputs.t_need,
            "b_need": inputs.b_need,
            "normalize_second": bool(inputs.normalize_second),
            "w1p": w1p, "w1m": w1m, "w2p": w2p, "w2m": w2m,
        })
        self._mix_runs = runs  # the arrays self.mix points into
        self.record = record
        self.future = future
        self.weights = weights


class ObjectiveInputs(NamedTuple):
    """The slide-14 objective as ``evaluate`` reads it.

    The future process and message bags as ``(size, count)`` runs in
    descending size order, with their totals; ``process_min`` is the
    smallest process size (gaps below it host nothing).  Then the
    future's needs, the four weights and the normalisation flag.
    """

    process_min: int
    process_runs: Sequence[Tuple[int, int]]
    process_total: int
    message_runs: Sequence[Tuple[int, int]]
    message_total: int
    t_need: int
    b_need: int
    weights: Tuple[float, float, float, float]
    normalize_second: bool


class NativeState:
    """One compiled pass over one packed key, as the Python kernel's
    state: ``success``, ``failure_reason``, ``scheduled`` and ``total``.

    :meth:`ArraySpec.run_kernel
    <repro.sched.arrays.ArraySpec.run_kernel>` runs it and formats a
    failure from :meth:`failure` and :meth:`node_index` straight after.
    The C code writes every word it later reads, so ``buf`` is not
    cleared.
    """

    __slots__ = (
        "context", "key", "buf",
        "success", "failure_reason", "scheduled", "total",
    )

    columns = False
    record = False

    def __init__(self, context: KernelContext, key: bytes, buf: Any) -> None:
        if len(key) != context.key_size:
            raise ValueError(
                f"packed key of {len(key)} bytes; this spec's keys have "
                f"{context.key_size}"
            )
        self.context = context
        self.key = key
        self.buf = buf
        self.success = False
        self.failure_reason: Optional[str] = None
        self.scheduled = 0
        self.total = context.n_jobs

    def run(self) -> int:  # pragma: no cover - every subclass defines it
        """Run the compiled call; returns the failure kind (0 on
        success)."""
        raise NotImplementedError

    def failure(self) -> Tuple[int, int, int]:
        """The failing job, edge and end time of a failed pass."""
        buf = self.buf
        return buf[_JOB], buf[_EDGE], buf[_END]

    def node_index(self, p: int) -> int:
        """The node index of process ``p``, as the pass unpacked it."""
        return self.buf[self.context.ptr.off_node + p]


class NativeRunState(NativeState):
    """One cold pass of the compiled kernel over one key.

    Stands in for an :class:`~repro.sched.arrays.ArrayRunState` built
    with ``record=False`` and decodes from its buffer on demand the
    final busy runs and bus occupancy and the two placement columns a
    Python pass with columns also gives: :attr:`pop_order` and
    :attr:`job_start`.  The buffer is allocated per state and never
    shared.
    """

    __slots__ = ()

    def __init__(self, context: KernelContext, key: bytes) -> None:
        super().__init__(
            context, key, context.alloc("int64_t[]", context.state_size)
        )

    def run(self) -> int:
        context = self.context
        buf = self.buf
        context.lib.kernel(context.ptr, self.key, buf)
        self.scheduled = buf[_SCHEDULED]
        kind: int = buf[_KIND]
        self.success = kind == 0
        return kind

    @property
    def pop_order(self) -> List[int]:
        """The jobs the pass placed, in pop order."""
        k = self.context.ptr
        return self.context.ffi.unpack(self.buf + k.off_pop, self.scheduled)

    @property
    def job_start(self) -> List[int]:
        """Each job's start time (a successful pass places every job)."""
        k = self.context.ptr
        return self.context.ffi.unpack(self.buf + k.off_start, k.n_jobs)

    @property
    def rank_of_job(self) -> List[int]:
        """Each job's heap rank, as the pass computed it from the key."""
        k = self.context.ptr
        return self.context.ffi.unpack(self.buf + k.off_rank, k.n_jobs)

    def _runs(self, offset: int) -> List[List[int]]:
        k = self.context.ptr
        unpack = self.context.ffi.unpack
        buf = self.buf
        return [
            unpack(buf + offset + n * k.run_cap, buf[k.off_run_n + n])
            for n in range(k.n_nodes)
        ]

    @property
    def runs_s(self) -> List[List[int]]:
        """Per-node busy-run starts, canonical (merged) form."""
        return self._runs(self.context.ptr.off_runs_s)

    @property
    def runs_e(self) -> List[List[int]]:
        """Per-node busy-run ends, aligned with :attr:`runs_s`."""
        return self._runs(self.context.ptr.off_runs_e)

    @property
    def bus_used(self) -> "np.ndarray":
        """Used bytes per slot occurrence (flat, node-contiguous)."""
        k = self.context.ptr
        return np.array(
            self.context.ffi.unpack(self.buf + k.off_bus, k.n_occ),
            dtype=np.int64,
        )


class NativePricedState(NativeState):
    """One cold best-fit evaluation: pass, price and mix in one call.

    Runs ``evaluate`` on the context's scratch state, so its context
    must be bound (:meth:`KernelContext.bind`); the next call reuses
    the scratch.  On success :attr:`metrics` holds the seven metric
    fields as one record of the bound type, built in one step; it is
    ``None`` otherwise.  The state never holds the run or bus columns.
    """

    __slots__ = ("metrics",)

    def __init__(self, context: KernelContext, key: bytes) -> None:
        if context.mix is None:
            raise ValueError("bind an objective before a priced pass")
        super().__init__(context, key, context.scratch)
        self.metrics: Any = None

    def run(self) -> int:
        context = self.context
        buf = self.buf
        kind: int = context.lib.evaluate(
            context.ptr, context.price, context.mix, self.key, buf
        )
        self.scheduled = buf[_SCHEDULED]
        if kind == 0:
            self.success = True
            c1p, c1m, pen2p, pen2m, objective = context.ffi.unpack(
                context.metrics, 5
            )
            self.metrics = _new_record(context.record, (
                c1p, c1m, buf[_C2P], buf[_C2M], pen2p, pen2m, objective,
            ))
        return kind


_new_record = tuple.__new__
