/* The shared-cache step loop of S_LRU, S_FIFO and S_MARK, compiled.
 *
 * A line-for-line twin of _shared_stamp_kernel in shared.py, over dense
 * page ids 0..width-1.  Recency order is a doubly linked list through
 * next/prev with a sentinel at index `width`: a fetched page goes to the
 * tail, an LRU or marking hit moves its page to the tail, a FIFO hit leaves
 * it in place, and the victim scan walks from the head past pages still
 * fetching or pinned by a hit in this step.  That is the Python kernel's
 * dict insertion order, page for page.  busy[q] < 0 means q is not cached.
 *
 * out receives faults[p], hits[p], completion[p], then the step count.
 * Returns 0, or 1 when the cache is full and every cell is busy, 2 when a
 * page id is outside [0, width), 3 when memory runs out.
 */
#include <stdint.h>
#include <stdlib.h>

enum { MODE_LRU = 0, MODE_FIFO = 1, MODE_MARK = 2 };

int repro_shared_kernel(int64_t p, const int64_t *lengths, const int64_t *ids,
                        int64_t width, int64_t cache_size, int64_t tau,
                        int64_t mode, int64_t *out)
{
    int64_t *faults = out, *hits = out + p, *completion = out + 2 * p;
    int64_t sentinel = width, n = width + 1, total = 0, size = 0, steps = 0;
    int64_t npending = 0, i, j, k, q;
    int rc = 0;
    int64_t *next = malloc(n * sizeof *next);
    int64_t *prev = malloc(n * sizeof *prev);
    int64_t *busy = malloc(n * sizeof *busy);
    int64_t *pinned = malloc(n * sizeof *pinned);
    char *marked = calloc(n, 1);
    int64_t *start = malloc(p * sizeof *start);
    int64_t *pos = calloc(p, sizeof *pos);
    int64_t *ready = calloc(p, sizeof *ready);
    int64_t *pending = malloc(p * sizeof *pending);

    if (!next || !prev || !busy || !pinned || !marked || !start || !pos
        || !ready || !pending) {
        rc = 3;
        goto done;
    }
    for (q = 0; q < width; q++) {
        busy[q] = -1;
        pinned[q] = -1;
    }
    next[sentinel] = prev[sentinel] = sentinel;
    for (j = 0; j < p; j++) {
        start[j] = total;
        total += lengths[j];
        faults[j] = hits[j] = 0;
        completion[j] = -1;
        if (lengths[j] > 0)
            pending[npending++] = j;
    }
    for (i = 0; i < total; i++) {
        if (ids[i] < 0 || ids[i] >= width) {
            rc = 2;
            goto done;
        }
    }

    while (npending > 0) {
        int64_t t = ready[pending[0]], kept = 0;
        for (k = 1; k < npending; k++)
            if (ready[pending[k]] < t)
                t = ready[pending[k]];
        steps++;
        for (k = 0; k < npending; k++) {
            int64_t page, done_at;
            j = pending[k];
            if (ready[j] != t) {
                pending[kept++] = j;
                continue;
            }
            page = ids[start[j] + pos[j]];
            if (busy[page] >= 0 && busy[page] < t) {
                /* hit */
                if (mode != MODE_FIFO) {
                    next[prev[page]] = next[page];
                    prev[next[page]] = prev[page];
                    prev[page] = prev[sentinel];
                    next[page] = sentinel;
                    next[prev[sentinel]] = page;
                    prev[sentinel] = page;
                }
                if (mode == MODE_MARK)
                    marked[page] = 1;
                pinned[page] = t;
                hits[j]++;
                ready[j] = t + 1;
                done_at = t;
            } else {
                if (busy[page] < 0) {
                    /* fault: evict if full, then fetch to the tail */
                    if (size >= cache_size) {
                        int64_t victim = -1, fallback = -1;
                        for (q = next[sentinel]; q != sentinel; q = next[q]) {
                            if (busy[q] >= t || pinned[q] == t)
                                continue;
                            if (mode != MODE_MARK || !marked[q]) {
                                victim = q;
                                break;
                            }
                            if (fallback < 0)
                                fallback = q;
                        }
                        if (victim < 0 && fallback >= 0) {
                            /* phase change: every candidate is marked */
                            for (q = next[sentinel]; q != sentinel; q = next[q])
                                marked[q] = 0;
                            victim = fallback;
                        }
                        if (victim < 0) {
                            rc = 1;
                            goto done;
                        }
                        next[prev[victim]] = next[victim];
                        prev[next[victim]] = prev[victim];
                        busy[victim] = -1;
                        pinned[victim] = -1;
                        marked[victim] = 0;
                        size--;
                    }
                    prev[page] = prev[sentinel];
                    next[page] = sentinel;
                    next[prev[sentinel]] = page;
                    prev[sentinel] = page;
                    busy[page] = t + tau;
                    if (mode == MODE_MARK)
                        marked[page] = 1;
                    size++;
                }
                /* a fault, or a request to a page still in flight */
                faults[j]++;
                ready[j] = t + 1 + tau;
                done_at = t + tau;
            }
            pos[j]++;
            if (pos[j] >= lengths[j])
                completion[j] = done_at;
            else
                pending[kept++] = j;
        }
        npending = kept;
    }
    out[3 * p] = steps;

done:
    free(next);
    free(prev);
    free(busy);
    free(pinned);
    free(marked);
    free(start);
    free(pos);
    free(ready);
    free(pending);
    return rc;
}
