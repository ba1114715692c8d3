"""Compile ``native.c`` into a cffi extension module.

:mod:`repro.sched.native` runs this file as a script in a child
process, so the process that loads the module never imports cffi's
builder or setuptools::

    python src/repro/sched/native_build.py MODULE_NAME OUTPUT_PATH

The module is compiled in a temporary directory next to
``OUTPUT_PATH`` and moved into place by an atomic rename, so a
concurrent build of the same source never exposes a partial file.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

#: The declarations cffi binds; they must match ``native.c``.
CDEF = """
typedef struct {
    int64_t n_jobs, n_nodes, n_occ, n_sources, n_pids, n_msgs;
    int64_t horizon, round_length;
    const int64_t *job_pid, *deadline, *release, *preds0, *sources;
    const double *deadline_f;
    const int64_t *static_order;
    const int64_t *wcet;
    const int64_t *out_ptr, *edge_msg, *edge_dst, *edge_dst_pid, *edge_size;
    const int64_t *slot_off, *slot_len, *slot_cap, *occ_count, *occ_base;
    const int64_t *base_ptr, *base_s, *base_e;
    const int64_t *base_used;
    int64_t run_cap, off_runs_s, off_runs_e, off_run_n, off_bus;
    int64_t off_earliest, off_preds, off_heap, off_job_of_rank;
    int64_t off_node, off_delay, off_rank, off_sort, off_pop, off_start,
        off_log;
} kernel_ctx;

typedef struct {
    int64_t n_windows, window_width, base_m, gap_room, bus_room;
    const int64_t *window_lengths, *caps, *win;
    const int64_t *base_val, *base_cnt;
    const int64_t *base_window_free;
    int64_t *scratch;
} price_ctx;

typedef struct {
    int64_t process_min, n_process, n_message;
    const int64_t *process_runs, *message_runs;
    int64_t process_total, message_total, t_need, b_need, normalize_second;
    double w1p, w1m, w2p, w2m;
} mix_ctx;

int64_t kernel(const kernel_ctx *k, const char *key, int64_t *st);
int64_t evaluate(const kernel_ctx *k, const price_ctx *g, const mix_ctx *x,
                 const char *key, int64_t *st);
int64_t best_fit_unplaced(int64_t *val, int64_t *cnt, int64_t m,
                          const int64_t *runs, int64_t n_runs);
void mix(const mix_ctx *x, int64_t process_unplaced, int64_t message_unplaced,
         int64_t c2p, int64_t c2m, double *out);
"""

#: Compiler flags of the module.  ``-ffp-contract=off`` keeps every
#: float multiply and add of the mix a separate rounding, as in Python:
#: GCC fuses ``a * b + c`` into one FMA by default where the target has
#: one (aarch64, for example), and clang does so within an expression.
COMPILE_ARGS = ["-ffp-contract=off"]


def build(name: str, output: str) -> None:
    """Compile ``native.c`` as module ``name`` and move it to ``output``."""
    from cffi import FFI

    ffi = FFI()
    ffi.cdef(CDEF)
    with open(os.path.join(HERE, "native.c")) as fh:
        ffi.set_source(name, fh.read(), extra_compile_args=COMPILE_ARGS)
    directory = os.path.dirname(output)
    os.makedirs(directory, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".build-", dir=directory)
    try:
        os.replace(ffi.compile(tmpdir=tmp), output)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    # A script's own directory leads sys.path; drop it so this
    # package's modules (trace, schedule, ...) cannot shadow the
    # standard library while cffi and setuptools import.
    sys.path[:] = [
        p for p in sys.path if os.path.abspath(p or os.curdir) != HERE
    ]
    build(sys.argv[1], sys.argv[2])
