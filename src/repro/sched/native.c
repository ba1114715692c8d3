/* The compiled evaluation pass of the array scheduler core.
 *
 * Two entry points, called through the cffi binding in native.py:
 *
 *   kernel   -- the cold pass of ArraySpec.run_kernel, read
 *               straight from the candidate's packed key: the heap
 *               ranks np.lexsort gives the Python pass, pop order over
 *               the rank heap, gap search with canonical run insertion,
 *               the TDMA scan with the message-delay re-scan, and the
 *               horizon / deadline / bus checks in the Python kernel's
 *               order.  On failure it reports a kind plus the job, the
 *               edge and the end time; Python formats the failure
 *               string.  It records two columns, the jobs in pop
 *               order and each job's start, which the neighbourhood
 *               proposer reads.  Its state owns its buffers.
 *   evaluate -- one cold best-fit evaluation on the context's scratch
 *               state: the same pass, then the slide-14 price (the
 *               best-fit unplaced totals of the future process and
 *               message bags, C2P and C2m) and the float mix, which
 *               follows core/array_metrics.py's _mix operation by
 *               operation.  It allocates nothing.
 *
 * The scratch state's bus region holds the base occupancy between
 * calls: the pass logs each occurrence on its first positive write,
 * the price patches the base histogram at those occurrences only, and
 * evaluate writes the base values back on every exit path.
 *
 * Every loop below mirrors one Python loop of sched/arrays.py or
 * core/array_metrics.py / core/binpack.py; all integer operands are
 * non-negative, so C division equals Python floor division.  The float
 * expressions are the urgency, deadline - priority, the float64
 * subtraction of ArraySpec.lower_candidate (the rank sort is its
 * np.lexsort), and the mix, built with -ffp-contract=off so no
 * multiply and add fuse.
 */
#include <stdint.h>
#include <string.h>

typedef int64_t i64;

typedef struct {
    i64 n_jobs, n_nodes, n_occ, n_sources, n_pids, n_msgs;
    i64 horizon, round_length;
    const i64 *job_pid, *deadline, *release, *preds0, *sources;
    const double *deadline_f;  /* deadlines as doubles, for urgencies */
    const i64 *static_order;   /* the jobs in static-rank order */
    const i64 *wcet; /* n_pids x n_nodes, -1 where a process may not run */
    const i64 *out_ptr, *edge_msg, *edge_dst, *edge_dst_pid, *edge_size;
    const i64 *slot_off, *slot_len, *slot_cap, *occ_count, *occ_base;
    const i64 *base_ptr, *base_s, *base_e; /* frozen busy runs, CSR by node */
    const i64 *base_used;
    /* state layout, in int64 words (see KernelContext in native.py) */
    i64 run_cap, off_runs_s, off_runs_e, off_run_n, off_bus;
    i64 off_earliest, off_preds, off_heap, off_job_of_rank;
    i64 off_node, off_delay, off_rank, off_sort, off_pop, off_start, off_log;
} kernel_ctx;

/* The price geometry of one T_min and its scratch: per-window busy
 * time and free bytes, the gap histogram and the bus histogram, of
 * gap_room and bus_room entries each. */
typedef struct {
    i64 n_windows, window_width, base_m, gap_room, bus_room;
    const i64 *window_lengths, *caps, *win;
    const i64 *base_val, *base_cnt; /* base residual histogram, ascending */
    const i64 *base_window_free;
    i64 *scratch;
} price_ctx;

/* The objective's inputs: both future bags as (size, count) runs in
 * descending size order (a bag is empty when it has no runs), their
 * totals, the future's needs, the weights and the normalisation flag. */
typedef struct {
    i64 process_min, n_process, n_message;
    const i64 *process_runs, *message_runs;
    i64 process_total, message_total, t_need, b_need, normalize_second;
    double w1p, w1m, w2p, w2m;
} mix_ctx;

enum { PASS_OK, FAIL_HORIZON, FAIL_DEADLINE, FAIL_BUS, FAIL_CYCLE, FAIL_WCET };
/* State header: the outcome, then the seven metric fields of an
 * evaluate call (two integers, then five doubles). */
enum { ST_KIND, ST_SCHEDULED, ST_JOB, ST_EDGE, ST_END, ST_C2P, ST_C2M, ST_MIX };
enum { MIX_C1P, MIX_C1M, MIX_PEN2P, MIX_PEN2M, MIX_OBJECTIVE, MIX_N };

/* The packed key of CompiledSpec.signature: per process (sorted ids)
 * an int32 node index and a float64 priority, then per message (sorted
 * ids) an int64 delay, all little-endian.  native.py loads this module
 * only on little-endian hosts, so the fields read in host order; they
 * are unaligned, so every read is a memcpy. */
enum { KEY_PROCESS = 12, KEY_PRIORITY = 4 };

static i64 fail(i64 *st, i64 kind, i64 scheduled, i64 job, i64 edge, i64 end)
{
    st[ST_KIND] = kind;
    st[ST_SCHEDULED] = scheduled;
    st[ST_JOB] = job;
    st[ST_EDGE] = edge;
    st[ST_END] = end;
    return kind;
}

typedef struct {
    double urgency;
    i64 job;
} ranked;

/* numpy's sort order: NaN after every number; NaN against NaN and
 * -0.0 against 0.0 are ties. */
static int before(double a, double b)
{
    return a < b || (b != b && a == a);
}

enum { SORT_RUN = 16 };

/* Stable sort by urgency: insertion-sorted runs of SORT_RUN, then
 * bottom-up merges between a and tmp, skipping a merge whose halves are
 * already in order.  Returns the buffer that holds the result.  Started
 * in static-rank order, this is np.lexsort((static_rank, urgency)). */
static ranked *sort_by_urgency(ranked *a, ranked *tmp, i64 n)
{
    for (i64 lo = 0; lo < n; lo += SORT_RUN) {
        i64 hi = lo + SORT_RUN < n ? lo + SORT_RUN : n;
        for (i64 i = lo + 1; i < hi; i++) {
            ranked x = a[i];
            i64 at = i;
            for (; at > lo && before(x.urgency, a[at - 1].urgency); at--)
                a[at] = a[at - 1];
            a[at] = x;
        }
    }
    for (i64 width = SORT_RUN; width < n; width *= 2) {
        for (i64 lo = 0; lo < n; lo += 2 * width) {
            i64 mid = lo + width < n ? lo + width : n;
            i64 hi = lo + 2 * width < n ? lo + 2 * width : n;
            i64 i = lo, j = mid, out = lo;
            if (mid < hi && before(a[mid].urgency, a[mid - 1].urgency))
                while (i < mid && j < hi)
                    tmp[out++] = before(a[j].urgency, a[i].urgency) ? a[j++]
                                                                    : a[i++];
            memcpy(tmp + out, a + i, (mid - i) * sizeof *a);
            memcpy(tmp + out + (mid - i), a + j, (hi - j) * sizeof *a);
        }
        ranked *swap = a;
        a = tmp;
        tmp = swap;
    }
    return a;
}

/* Ranks are distinct, so any binary min-heap pops heapq's sequence. */
static void heap_push(i64 *heap, i64 *size, i64 value)
{
    i64 i = (*size)++;
    while (i > 0) {
        i64 parent = (i - 1) / 2;
        if (heap[parent] <= value)
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = value;
}

static i64 heap_pop(i64 *heap, i64 *size)
{
    i64 top = heap[0];
    i64 last = heap[--(*size)];
    i64 n = *size, i = 0;
    for (;;) {
        i64 child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap[child + 1] < heap[child])
            child++;
        if (heap[child] >= last)
            break;
        heap[i] = heap[child];
        i = child;
    }
    if (n)
        heap[i] = last;
    return top;
}

/* The pass.  Without a log it copies the base occupancy into the
 * state's bus region; with one, the region already holds it, and the
 * pass appends each occurrence it raises above the base to log. */
static i64 pass(const kernel_ctx *k, const char *key, i64 *st, i64 *log,
                i64 *n_log)
{
    const i64 cap = k->run_cap, n_jobs = k->n_jobs;
    i64 *runs_s = st + k->off_runs_s, *runs_e = st + k->off_runs_e;
    i64 *run_n = st + k->off_run_n, *bus = st + k->off_bus;
    i64 *earliest = st + k->off_earliest, *preds = st + k->off_preds;
    i64 *heap = st + k->off_heap, *job_of_rank = st + k->off_job_of_rank;
    i64 *node_of = st + k->off_node, *delays = st + k->off_delay;
    i64 *rank_of_job = st + k->off_rank;
    i64 *pop = st + k->off_pop, *starts = st + k->off_start;
    ranked *order = (ranked *)(st + k->off_sort);
    i64 heap_n = 0, scheduled = 0;

    /* Unpack the key: node indices and delays, then the urgencies of
     * the jobs in static-rank order, sorted into heap ranks. */
    for (i64 p = 0; p < k->n_pids; p++) {
        int32_t node;
        memcpy(&node, key + KEY_PROCESS * p, sizeof node);
        node_of[p] = node;
    }
    memcpy(delays, key + KEY_PROCESS * k->n_pids, k->n_msgs * sizeof(i64));
    for (i64 r = 0; r < n_jobs; r++) {
        i64 j = k->static_order[r];
        double priority;
        memcpy(&priority, key + KEY_PROCESS * k->job_pid[j] + KEY_PRIORITY,
               sizeof priority);
        order[r].urgency = k->deadline_f[j] - priority;
        order[r].job = j;
    }
    order = sort_by_urgency(order, order + n_jobs, n_jobs);
    for (i64 r = 0; r < n_jobs; r++) {
        job_of_rank[r] = order[r].job;
        rank_of_job[order[r].job] = r;
    }

    for (i64 n = 0; n < k->n_nodes; n++) {
        i64 count = k->base_ptr[n + 1] - k->base_ptr[n];
        memcpy(runs_s + n * cap, k->base_s + k->base_ptr[n], count * sizeof(i64));
        memcpy(runs_e + n * cap, k->base_e + k->base_ptr[n], count * sizeof(i64));
        run_n[n] = count;
    }
    if (!log)
        memcpy(bus, k->base_used, k->n_occ * sizeof(i64));
    memcpy(earliest, k->release, n_jobs * sizeof(i64));
    memcpy(preds, k->preds0, n_jobs * sizeof(i64));
    for (i64 s = 0; s < k->n_sources; s++)
        heap_push(heap, &heap_n, rank_of_job[k->sources[s]]);

    while (heap_n) {
        i64 j = job_of_rank[heap_pop(heap, &heap_n)];
        i64 p = k->job_pid[j], n = node_of[p];
        i64 w = k->wcet[p * k->n_nodes + n];
        if (w < 0)
            return fail(st, FAIL_WCET, scheduled, j, -1, 0);

        /* IntervalSet.earliest_fit over the node's run columns. */
        i64 *ss = runs_s + n * cap, *ee = runs_e + n * cap;
        i64 nr = run_n[n], cursor = earliest[j];
        i64 lo = 0, hi = nr; /* bisect_right(ss, cursor) */
        while (lo < hi) {
            i64 mid = (lo + hi) / 2;
            if (ss[mid] <= cursor)
                lo = mid + 1;
            else
                hi = mid;
        }
        i64 idx = lo - 1;
        if (idx >= 0 && ee[idx] > cursor)
            cursor = ee[idx];
        idx++;
        while (idx < nr) {
            if (ss[idx] - cursor >= w)
                break;
            if (ee[idx] > cursor)
                cursor = ee[idx];
            idx++;
        }
        i64 start = cursor, end = start + w;
        if (end > k->horizon)
            return fail(st, FAIL_HORIZON, scheduled, j, -1, end);
        if (end > k->deadline[j])
            return fail(st, FAIL_DEADLINE, scheduled, j, -1, end);

        /* Canonical insertion at idx: only adjacency can merge. */
        if (idx > 0 && ee[idx - 1] == start) {
            if (idx < nr && ss[idx] == end) {
                ee[idx - 1] = ee[idx];
                memmove(ss + idx, ss + idx + 1, (nr - idx - 1) * sizeof(i64));
                memmove(ee + idx, ee + idx + 1, (nr - idx - 1) * sizeof(i64));
                run_n[n] = nr - 1;
            } else {
                ee[idx - 1] = end;
            }
        } else if (idx < nr && ss[idx] == end) {
            ss[idx] = start;
        } else {
            memmove(ss + idx + 1, ss + idx, (nr - idx) * sizeof(i64));
            memmove(ee + idx + 1, ee + idx, (nr - idx) * sizeof(i64));
            ss[idx] = start;
            ee[idx] = end;
            run_n[n] = nr + 1;
        }
        pop[scheduled++] = j;
        starts[j] = start;

        for (i64 t = k->out_ptr[j]; t < k->out_ptr[j + 1]; t++) {
            i64 dj = k->edge_dst[t], arrival;
            if (node_of[k->edge_dst_pid[t]] == n) {
                arrival = end;
            } else {
                i64 size = k->edge_size[t];
                i64 threshold = k->slot_cap[n] - size;
                i64 offset = k->slot_off[n], count = k->occ_count[n];
                i64 *used = bus + k->occ_base[n];
                i64 r;
                if (threshold < 0) {
                    r = count;
                } else {
                    /* first_occurrence_not_before(n, end), then scan */
                    r = end <= offset
                        ? 0
                        : (end - offset + k->round_length - 1) / k->round_length;
                    while (r < count && used[r] > threshold)
                        r++;
                    /* message delay: re-scan from the next occurrence */
                    for (i64 delay = delays[k->edge_msg[t]];
                         delay > 0 && r < count; delay--) {
                        r++;
                        while (r < count && used[r] > threshold)
                            r++;
                    }
                }
                if (r >= count)
                    return fail(st, FAIL_BUS, scheduled, j, t, end);
                if (log && size > 0
                    && used[r] == k->base_used[k->occ_base[n] + r])
                    log[(*n_log)++] = k->occ_base[n] + r;
                used[r] += size;
                arrival = r * k->round_length + offset + k->slot_len[n];
            }
            if (arrival > earliest[dj])
                earliest[dj] = arrival;
            if (--preds[dj] == 0)
                heap_push(heap, &heap_n, rank_of_job[dj]);
        }
    }
    if (scheduled != n_jobs)
        return fail(st, FAIL_CYCLE, scheduled, -1, -1, 0);
    return fail(st, PASS_OK, scheduled, -1, -1, 0);
}

i64 kernel(const kernel_ctx *k, const char *key, i64 *st)
{
    return pass(k, key, st, NULL, NULL);
}

/* ------------------------------------------------------------------ */
/* pricing                                                              */
/* ------------------------------------------------------------------ */

/* First index in val[0..m) holding a value >= x. */
static i64 lower_bound(const i64 *val, i64 m, i64 x)
{
    i64 lo = 0, hi = m;
    while (lo < hi) {
        i64 mid = (lo + hi) / 2;
        if (val[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Add `bins` bins of value `value`; returns 1 when a new entry was
 * inserted (shifting every later entry up by one), else 0. */
static i64 hist_add(i64 *val, i64 *cnt, i64 *m, i64 value, i64 bins)
{
    i64 pos = lower_bound(val, *m, value);
    if (pos < *m && val[pos] == value) {
        cnt[pos] += bins;
        return 0;
    }
    memmove(val + pos + 1, val + pos, (*m - pos) * sizeof(i64));
    memmove(cnt + pos + 1, cnt + pos, (*m - pos) * sizeof(i64));
    val[pos] = value;
    cnt[pos] = bins;
    (*m)++;
    return 1;
}

/* best_fit_unplaced_total_hist over a histogram of m ascending values
 * (zero counts are deleted entries).  `runs` holds n_runs (size, count)
 * pairs in descending size order.  The histogram is consumed; it needs
 * room for 2 * (bins with a positive value) + 2 entries. */
i64 best_fit_unplaced(i64 *val, i64 *cnt, i64 m, const i64 *runs, i64 n_runs)
{
    i64 unplaced = 0;
    for (i64 r = 0; r < n_runs; r++) {
        i64 size = runs[2 * r], count = runs[2 * r + 1];
        i64 live = 0;
        for (i64 i = 0; i < m; i++) {
            if (cnt[i]) {
                val[live] = val[i];
                cnt[live++] = cnt[i];
            }
        }
        m = live;
        /* Remainders are < size, so they land below the cursor. */
        for (i64 i = lower_bound(val, m, size); count && i < m; i++) {
            i64 value = val[i], bins = cnt[i];
            if (!bins)
                continue;
            i64 per = value / size, capacity = per * bins, rem = value % size;
            if (capacity <= count) {
                cnt[i] = 0;
                if (rem)
                    i += hist_add(val, cnt, &m, rem, bins);
                count -= capacity;
            } else {
                i64 full = count / per, rest = count % per;
                cnt[i] = bins - full - (rest ? 1 : 0);
                if (full && rem)
                    i += hist_add(val, cnt, &m, rem, full);
                if (rest)
                    hist_add(val, cnt, &m, value - rest * size, 1);
                count = 0;
            }
        }
        unplaced += size * count;
    }
    return unplaced;
}

/* _mix of core/array_metrics.py, with C1P and C1m from the unplaced
 * totals: every int becomes a double before it meets a double, and the
 * objective sums left to right.  out: C1P, C1m, both penalties and the
 * objective. */
void mix(const mix_ctx *x, i64 process_unplaced, i64 message_unplaced,
         i64 c2p, i64 c2m, double *out)
{
    double c1p = x->n_process
        ? 100.0 * (double)process_unplaced / (double)x->process_total
        : 0.0;
    double c1m = x->n_message
        ? 100.0 * (double)message_unplaced / (double)x->message_total
        : 0.0;
    double pen2p = (double)(x->t_need - c2p);
    double pen2m = (double)(x->b_need - c2m);
    pen2p = pen2p > 0.0 ? pen2p : 0.0; /* max(0.0, x) */
    pen2m = pen2m > 0.0 ? pen2m : 0.0;
    if (x->normalize_second) {
        if (x->t_need > 0)
            pen2p = 100.0 * pen2p / (double)x->t_need;
        if (x->b_need > 0)
            pen2m = 100.0 * pen2m / (double)x->b_need;
    }
    out[MIX_C1P] = c1p;
    out[MIX_C1M] = c1m;
    out[MIX_PEN2P] = pen2p;
    out[MIX_PEN2M] = pen2m;
    out[MIX_OBJECTIVE] =
        x->w1p * c1p + x->w1m * c1m + x->w2p * pen2p + x->w2m * pen2m;
}

/* Price a finished pass on the scratch state: node slack from the run
 * columns, bus slack by patching the base at the n_log logged
 * occurrences, then the mix; the results go to the state header. */
static void price(const kernel_ctx *k, const price_ctx *g, const mix_ctx *x,
                  i64 *st, const i64 *log, i64 n_log)
{
    const i64 cap = k->run_cap, width = g->window_width, n_win = g->n_windows;
    const i64 *runs_s = st + k->off_runs_s, *runs_e = st + k->off_runs_e;
    const i64 *run_n = st + k->off_run_n, *used = st + k->off_bus;
    i64 *busy = g->scratch, *window_free = busy + n_win;
    i64 *gap_val = window_free + n_win, *gap_cnt = gap_val + g->gap_room;
    i64 *val = gap_cnt + g->gap_room, *cnt = val + g->bus_room;
    i64 c2p = 0, gap_m = 0, m = g->base_m;

    /* Node slack: gaps >= process_min (C1P bins) and the busy time
     * split over the T_min windows (C2P). */
    for (i64 n = 0; n < k->n_nodes; n++) {
        const i64 *ss = runs_s + n * cap, *ee = runs_e + n * cap;
        i64 cursor = 0, window_min = 0;
        memset(busy, 0, n_win * sizeof(i64));
        for (i64 i = 0; i < run_n[n]; i++) {
            i64 start = ss[i], end = ee[i];
            if (start - cursor >= x->process_min) /* process_min >= 1 */
                hist_add(gap_val, gap_cnt, &gap_m, start - cursor, 1);
            cursor = end;
            for (i64 w = start / width; start < end; w++) {
                i64 boundary = (w + 1) * width;
                if (boundary >= end) {
                    busy[w] += end - start;
                    break;
                }
                busy[w] += boundary - start;
                start = boundary;
            }
        }
        if (k->horizon - cursor >= x->process_min)
            hist_add(gap_val, gap_cnt, &gap_m, k->horizon - cursor, 1);
        for (i64 w = 0; w < n_win; w++) {
            i64 slack = g->window_lengths[w] - busy[w];
            if (w == 0 || slack < window_min)
                window_min = slack;
        }
        c2p += window_min;
    }
    i64 process_unplaced = best_fit_unplaced(
        gap_val, gap_cnt, gap_m, x->process_runs, x->n_process);

    /* Bus: patch the base residual histogram and per-window free bytes
     * at the logged occurrences.  Each is logged once and its base
     * residual is in the histogram, so any patch order gives the same
     * histogram. */
    memcpy(val, g->base_val, g->base_m * sizeof(i64));
    memcpy(cnt, g->base_cnt, g->base_m * sizeof(i64));
    memcpy(window_free, g->base_window_free, n_win * sizeof(i64));
    for (i64 l = 0; l < n_log; l++) {
        i64 i = log[l], before = k->base_used[i], after = used[i];
        cnt[lower_bound(val, m, g->caps[i] - before)]--;
        hist_add(val, cnt, &m, g->caps[i] - after, 1);
        if (g->win[i] >= 0)
            window_free[g->win[i]] -= after - before;
    }
    i64 c2m = window_free[0];
    for (i64 w = 1; w < n_win; w++)
        if (window_free[w] < c2m)
            c2m = window_free[w];
    i64 message_unplaced = best_fit_unplaced(
        val, cnt, m, x->message_runs, x->n_message);

    double out[MIX_N];
    mix(x, process_unplaced, message_unplaced, c2p, c2m, out);
    st[ST_C2P] = c2p;
    st[ST_C2M] = c2m;
    memcpy(st + ST_MIX, out, sizeof out);
}

/* One cold best-fit evaluation on the scratch state `st`, whose bus
 * region holds the base occupancy and holds it again on return.
 * Returns the failure kind (0 on success, with the metrics in the
 * header). */
i64 evaluate(const kernel_ctx *k, const price_ctx *g, const mix_ctx *x,
             const char *key, i64 *st)
{
    i64 *log = st + k->off_log, *bus = st + k->off_bus;
    i64 n_log = 0;
    i64 kind = pass(k, key, st, log, &n_log);
    if (kind == PASS_OK)
        price(k, g, x, st, log, n_log);
    for (i64 l = 0; l < n_log; l++)
        bus[log[l]] = k->base_used[log[l]];
    return kind;
}
