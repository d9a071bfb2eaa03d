/* The search of solver._Searcher, step for step: the same propagation, the
 * same branching and the same chronological backtracking, so it visits the
 * same tree and reports the same leaves in the same order.  apply,
 * propagate and decide port the _Searcher methods of those names.
 *
 * values are int8 (0 unassigned, 1 IN, 2 OUT); nfree[a] counts a's unassigned
 * bodies, or is SUPPORTED once one of them is OUT; unsup[a] flags the IN
 * atoms not supported, n_unsup counts them.  heads_of/bodies_of are CSR in
 * rule order.  The queue is LIFO, entries atom << 2 | value.  Each pending
 * decision keeps a copy of values, nfree and unsup (6 bytes per atom).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { UNASSIGNED = 0, IN = 1, OUT = 2, SUPPORTED = -1 };

typedef int (*leaf_fn)(const uint8_t *in_bits); /* nonzero: stop the search */

typedef struct {
    int32_t n, *hoff, *hadj, *boff, *badj, *order, *nfree, *queue, n_unsup;
    int8_t *val, *unsup;
    int64_t qlen, propagations, applies;
} S;

static void push(S *s, int32_t atom, int v) { s->queue[s->qlen++] = atom << 2 | v; }

static int32_t first_free_body(const S *s, int32_t h) {
    for (int32_t k = s->boff[h]; k < s->boff[h + 1]; k++)
        if (s->val[s->badj[k]] == UNASSIGNED) return s->badj[k];
    return -1;
}

static int apply(S *s, int v, int32_t atom) {
    s->applies++;
    int8_t st = s->val[atom];
    if (st != UNASSIGNED) return st == v;
    s->val[atom] = (int8_t)v;
    if (v == OUT) {
        for (int32_t k = s->hoff[atom]; k < s->hoff[atom + 1]; k++) {
            int32_t a = s->hadj[k];
            if (s->nfree[a] != SUPPORTED) {
                s->nfree[a] = SUPPORTED;
                if (s->unsup[a]) s->unsup[a] = 0, s->n_unsup--;
            }
            st = s->val[a];
            if (st == UNASSIGNED) push(s, a, IN);
            else if (st == OUT) return 0;
        }
        for (int32_t k = s->boff[atom]; k < s->boff[atom + 1]; k++) {
            st = s->val[s->badj[k]];
            if (st == UNASSIGNED) push(s, s->badj[k], IN);
            else if (st == OUT) return 0;
        }
        return 1;
    }
    for (int32_t k = s->hoff[atom]; k < s->hoff[atom + 1]; k++) {
        int32_t h = s->hadj[k], f = s->nfree[h];
        if (f == SUPPORTED) continue;
        f = --s->nfree[h];
        if (f > 1) continue;
        st = s->val[h];
        if (st == IN) {
            int32_t b = f == 0 ? -1 : first_free_body(s, h);
            if (b < 0) return 0;
            push(s, b, OUT);
        } else if (st == UNASSIGNED && f == 0) {
            push(s, h, OUT); /* h can never be supported */
        }
    }
    int32_t f = s->nfree[atom];
    if (f == SUPPORTED) return 1;
    if (!s->unsup[atom]) s->unsup[atom] = 1, s->n_unsup++;
    if (f == 1) {
        int32_t b = first_free_body(s, atom);
        if (b < 0) return 0;
        push(s, b, OUT);
    }
    return f > 0; /* f == 0: no candidate left, a conflict */
}

static int propagate(S *s) {
    s->propagations++;
    while (s->qlen) {
        int32_t e = s->queue[--s->qlen];
        if (!apply(s, e & 3, e >> 2)) {
            s->qlen = 0;
            return 0;
        }
    }
    return 1;
}

static int32_t decide(const S *s) {
    if (s->n_unsup) {
        int32_t best = -1;
        for (int32_t a = 0; a < s->n; a++)
            if (s->unsup[a] && (best < 0 || s->nfree[a] < s->nfree[best])) best = a;
        int32_t b = first_free_body(s, best);
        if (b >= 0) return b;
    }
    for (int32_t i = 0; i < s->n; i++)
        if (s->val[s->order[i]] == UNASSIGNED) return s->order[i];
    return -1;
}

/* CSR of `to` grouped by `by`, in rule order. */
static void csr(int32_t n, int64_t m, const int32_t *by, const int32_t *to, int32_t *off, int32_t *adj) {
    for (int64_t r = 0; r < m; r++) off[by[r] + 1]++;
    for (int32_t x = 0; x < n; x++) off[x + 1] += off[x];
    int32_t *pos = off; /* filled in place, then shifted back */
    for (int64_t r = 0; r < m; r++) adj[pos[by[r]]++] = to[r];
    for (int32_t x = n; x > 0; x--) off[x] = off[x - 1];
    off[0] = 0;
}

/* Searches the program `heads[r] <- not bodies[r]`, r < m, over n < 2^29
 * atoms and calls leaf() with the IN atoms of each leaf as a little-endian
 * bitmask.  counts gets the propagate and apply calls.  Returns 0, or -1 when
 * out of memory. */
int randasp_search(int32_t n, int64_t m, const int32_t *heads, const int32_t *bodies, leaf_fn leaf, int64_t *counts) {
    S s = {.n = n};
    size_t nb = ((size_t)n + 7) / 8, depth = 0, cap = 0;
    s.hoff = calloc((size_t)n + 1, 4), s.boff = calloc((size_t)n + 1, 4);
    s.hadj = malloc((size_t)m * 4 + 4), s.badj = malloc((size_t)m * 4 + 4);
    s.order = malloc((size_t)n * 4 + 4);
    s.queue = malloc(((size_t)m * 3 + (size_t)n * 3 + 1) * 4); /* see the bound below */
    size_t snap = (size_t)n * 6; /* the searched state, nfree | val | unsup, in one block */
    uint8_t *state = calloc(snap + 1, 1), *bits = malloc(nb + 1), *snaps = NULL;
    int32_t *decided = NULL, *cnt = calloc(2 * (size_t)m + 2, 4); /* decided: (atom, n_unsup) pairs */
    int rc = -1;
    if (!s.hoff || !s.boff || !s.hadj || !s.badj || !s.order || !s.queue || !state || !bits || !cnt)
        goto done;
    s.nfree = (int32_t *)state, s.val = (int8_t *)(state + (size_t)n * 4), s.unsup = (int8_t *)(state + (size_t)n * 5);
    csr(n, m, bodies, heads, s.hoff, s.hadj); /* heads_of[body] */
    csr(n, m, heads, bodies, s.boff, s.badj); /* bodies_of[head] */
    /* order: atoms by degree, highest first, lowest index on ties */
    int32_t maxdeg = 0;
    for (int32_t x = 0; x < n; x++) {
        int32_t d = s.hoff[x + 1] - s.hoff[x] + s.boff[x + 1] - s.boff[x];
        cnt[d]++;
        if (d > maxdeg) maxdeg = d;
    }
    for (int32_t d = maxdeg, start = 0; d >= 0; d--) {
        int32_t c = cnt[d];
        cnt[d] = start, start += c;
    }
    for (int32_t x = 0; x < n; x++) s.order[cnt[s.hoff[x + 1] - s.hoff[x] + s.boff[x + 1] - s.boff[x]]++] = x;
    for (int32_t x = 0; x < n; x++) s.nfree[x] = s.boff[x + 1] - s.boff[x];
    /* One propagation assigns each atom at most once, and an assignment
     * pushes at most deg + 1 entries: at most 2m + n, on top of the initial
     * entries (n + m at the root). */
    for (int32_t x = 0; x < n; x++)
        if (s.nfree[x] == 0) push(&s, x, OUT); /* heads no rule: never in S */
    for (int64_t r = 0; r < m; r++)
        if (heads[r] == bodies[r]) push(&s, heads[r], IN); /* self-loop head: never out of S */
    int ok = propagate(&s);
    for (;;) {
        if (ok) {
            int32_t atom = decide(&s);
            if (atom >= 0) {
                if (depth == cap) {
                    size_t c2 = cap ? 2 * cap : 16;
                    uint8_t *sn = realloc(snaps, c2 * snap);
                    if (!sn) goto done;
                    snaps = sn;
                    int32_t *dc = realloc(decided, c2 * 8);
                    if (!dc) goto done;
                    decided = dc, cap = c2;
                }
                memcpy(snaps + depth * snap, state, snap);
                decided[2 * depth] = atom, decided[2 * depth + 1] = s.n_unsup, depth++;
                push(&s, atom, OUT);
                ok = propagate(&s);
                continue;
            }
            memset(bits, 0, nb);
            for (int32_t a = 0; a < n; a++)
                if (s.val[a] == IN) bits[a >> 3] |= (uint8_t)(1u << (a & 7));
            if (leaf(bits)) break;
        }
        if (!depth) break; /* every IN branch tried */
        depth--;
        memcpy(state, snaps + depth * snap, snap);
        s.n_unsup = decided[2 * depth + 1];
        push(&s, decided[2 * depth], IN);
        ok = propagate(&s);
    }
    counts[0] = s.propagations, counts[1] = s.applies;
    rc = 0;
done:
    free(s.hoff), free(s.boff), free(s.hadj), free(s.badj), free(s.order), free(s.queue);
    free(state), free(bits), free(snaps), free(decided), free(cnt);
    return rc;
}
