/* The search of solver._Searcher, step for step: the same propagation, the
 * same branching and the same chronological backtracking, so it visits the
 * same tree and reports the same leaves in the same order.  propagate ports
 * _Searcher._propagate with _apply inlined, one queue pop per _apply call;
 * decide ports _decide.
 *
 * values are int8 (0 unassigned, 1 IN, 2 OUT); nfree[a] counts a's unassigned
 * bodies, or is SUPPORTED once one of them is OUT; unsup[a] flags the IN
 * atoms not supported, n_unsup counts them.  heads_of is CSR in rule order;
 * bodies_of is the caller's bodies read in place, with offsets counted over
 * heads, so the rules must come sorted by head, as Program.n2_arrays are
 * (by head, then body).  The queue is LIFO, entries atom << 2 | value.  Each
 * pending decision keeps a copy of values, nfree and unsup (6 bytes per atom)
 * and a 12-byte record (atom, n_unsup, cursor); cursor is where decide's
 * scan of the degree order starts.
 *
 * An OUT assignment visits every neighbour without a data-dependent branch:
 * it stores the neighbour's IN entry at queue[qlen] on every visit and
 * advances qlen only if the neighbour is unassigned, and it notes an OUT
 * neighbour in a flag that is tested once the loop ends.  Finishing the loop
 * after a conflict changes nothing that is kept: a conflict clears the queue,
 * and the search restores a snapshot before it goes on, or ends.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { UNASSIGNED = 0, IN = 1, OUT = 2, SUPPORTED = -1 };

typedef int (*leaf_fn)(const uint8_t *in_bits); /* nonzero: stop the search */

typedef struct {
    int32_t n, *hoff, *hadj, *boff, *order, *nfree, *queue, n_unsup, cursor;
    const int32_t *badj;
    int8_t *val, *unsup;
    int64_t qlen, propagations, applies;
} S;

static void push(S *s, int32_t atom, int v) { s->queue[s->qlen++] = atom << 2 | v; }

static int32_t first_free_body(const int32_t *boff, const int32_t *badj, const int8_t *val, int32_t h) {
    for (int32_t k = boff[h]; k < boff[h + 1]; k++)
        if (val[badj[k]] == UNASSIGNED) return badj[k];
    return -1;
}

/* Pops and applies queue entries until the queue is empty (1) or an entry
 * conflicts (0, the queue cleared). */
static int propagate(S *s) {
    const int32_t *restrict hoff = s->hoff, *restrict hadj = s->hadj, *restrict boff = s->boff, *restrict badj = s->badj;
    int32_t *restrict queue = s->queue, *restrict nfree = s->nfree, n_unsup = s->n_unsup;
    int8_t *restrict val = s->val, *restrict unsup = s->unsup;
    int64_t qlen = s->qlen, applies = s->applies;
    int ok = 0;
    s->propagations++;
    while (qlen) {
        int32_t e = queue[--qlen], atom = e >> 2, v = e & 3;
        applies++;
        int st = val[atom];
        if (st != UNASSIGNED) {
            if (st != v) goto done;
            continue;
        }
        val[atom] = (int8_t)v;
        if (v == OUT) {
            int conflict = 0;
            for (int32_t k = hoff[atom]; k < hoff[atom + 1]; k++) {
                int32_t a = hadj[k];
                n_unsup -= unsup[a]; /* SUPPORTED implies unsup[a] == 0 */
                unsup[a] = 0, nfree[a] = SUPPORTED;
                st = val[a];
                queue[qlen] = a << 2 | IN;
                qlen += st == UNASSIGNED;
                conflict |= st == OUT;
            }
            for (int32_t k = boff[atom]; k < boff[atom + 1]; k++) {
                int32_t b = badj[k];
                st = val[b];
                queue[qlen] = b << 2 | IN;
                qlen += st == UNASSIGNED;
                conflict |= st == OUT;
            }
            if (conflict) goto done;
            continue;
        }
        for (int32_t k = hoff[atom]; k < hoff[atom + 1]; k++) {
            int32_t h = hadj[k], f = nfree[h];
            f -= f != SUPPORTED;
            nfree[h] = f;
            if ((uint32_t)f > 1u) continue; /* SUPPORTED, or a candidate to spare */
            st = val[h];
            if (st == IN) {
                int32_t b = f == 0 ? -1 : first_free_body(boff, badj, val, h);
                if (b < 0) goto done;
                queue[qlen++] = b << 2 | OUT;
            } else if (st == UNASSIGNED && f == 0) {
                queue[qlen++] = h << 2 | OUT; /* h can never be supported */
            }
        }
        int32_t f = nfree[atom];
        if (f == SUPPORTED) continue;
        unsup[atom] = 1, n_unsup++; /* only IN atoms are flagged, and atom was unassigned */
        if (f == 0) goto done; /* no candidate left */
        if (f == 1) {
            int32_t b = first_free_body(boff, badj, val, atom);
            if (b < 0) goto done;
            queue[qlen++] = b << 2 | OUT;
        }
    }
    ok = 1;
done:
    s->qlen = ok ? qlen : 0, s->applies = applies, s->n_unsup = n_unsup;
    return ok;
}

/* The atom to branch on, or -1 at a leaf.  The unsupported atom with the
 * fewest free candidates, lowest index on ties: a successful propagation
 * leaves each of them at least two, so the scan stops at the first with two,
 * or once it has seen all n_unsup of them.  Along one branch atoms are only
 * ever assigned, so every atom of the degree order before s->cursor stays
 * assigned until the search backtracks past the decision that set it. */
static int32_t decide(S *s) {
    const int32_t n = s->n, *nfree = s->nfree;
    const int8_t *val = s->val, *unsup = s->unsup;
    if (s->n_unsup) {
        int32_t best = -1, left = s->n_unsup;
        for (int32_t a = 0; left && a < n; a++) {
            if (!(a & 7) && n - a >= 8) {
                uint64_t w;
                memcpy(&w, unsup + a, 8);
                if (!w) {
                    a += 7; /* eight atoms, none flagged */
                    continue;
                }
            }
            if (unsup[a]) {
                left--;
                if (best < 0 || nfree[a] < nfree[best]) {
                    best = a;
                    if (nfree[a] <= 2) break;
                }
            }
        }
        int32_t b = first_free_body(s->boff, s->badj, val, best);
        if (b >= 0) return b;
    }
    for (int32_t i = s->cursor; i < n; i++)
        if (val[s->order[i]] == UNASSIGNED) {
            s->cursor = i;
            return s->order[i];
        }
    s->cursor = n;
    return -1;
}

/* off[x] is the number of rules r with by[r] < x; off must come zeroed. */
static void offsets(int32_t n, int64_t m, const int32_t *by, int32_t *off) {
    for (int64_t r = 0; r < m; r++) off[by[r] + 1]++;
    for (int32_t x = 0; x < n; x++) off[x + 1] += off[x];
}

/* CSR of `to` grouped by `by`, in rule order. */
static void csr(int32_t n, int64_t m, const int32_t *by, const int32_t *to, int32_t *off, int32_t *adj) {
    offsets(n, m, by, off);
    int32_t *pos = off; /* filled in place, then shifted back */
    for (int64_t r = 0; r < m; r++) adj[pos[by[r]]++] = to[r];
    for (int32_t x = n; x > 0; x--) off[x] = off[x - 1];
    off[0] = 0;
}

/* Searches the program `heads[r] <- not bodies[r]`, r < m < 2^31, sorted by
 * head, over n < 2^29 atoms and calls leaf() with the IN atoms of each leaf as
 * a little-endian bitmask.  counts gets the propagate and apply calls.
 * Returns 0, or -1 when out of memory. */
int randasp_search(int32_t n, int64_t m, const int32_t *heads, const int32_t *bodies, leaf_fn leaf, int64_t *counts) {
    S s = {.n = n};
    size_t nb = ((size_t)n + 7) / 8, depth = 0, cap = 0;
    s.hoff = calloc((size_t)n + 1, 4), s.boff = calloc((size_t)n + 1, 4);
    s.hadj = malloc((size_t)m * 4 + 4), s.badj = bodies;
    s.order = malloc((size_t)n * 4 + 4);
    s.queue = malloc(((size_t)m * 3 + (size_t)n * 3 + 1) * 4); /* see the bound below */
    size_t snap = (size_t)n * 6; /* the searched state, nfree | val | unsup, in one block */
    uint8_t *state = calloc(snap + 1, 1), *bits = malloc(nb + 1), *snaps = NULL;
    int32_t *decided = NULL, *cnt = calloc(2 * (size_t)m + 2, 4); /* decided: (atom, n_unsup, cursor) */
    int rc = -1;
    if (!s.hoff || !s.boff || !s.hadj || !s.order || !s.queue || !state || !bits || !cnt)
        goto done;
    s.nfree = (int32_t *)state, s.val = (int8_t *)(state + (size_t)n * 4), s.unsup = (int8_t *)(state + (size_t)n * 5);
    csr(n, m, bodies, heads, s.hoff, s.hadj); /* heads_of[body] */
    offsets(n, m, heads, s.boff);             /* bodies_of[head] is bodies itself */
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
    /* The queue bound.  One propagation assigns each atom at most once, and
     * an assignment pushes at most deg + 1 entries: at most 2m + n, on top of
     * the initial entries (n + m at the root, one after a decision), so qlen
     * never exceeds 3m + 2n.  An OUT assignment also stores at queue[qlen]
     * without pushing, which needs one slot past that: 3m + 3n + 1 leaves
     * n + 1. */
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
                    int32_t *dc = realloc(decided, c2 * 12);
                    if (!dc) goto done;
                    decided = dc, cap = c2;
                }
                memcpy(snaps + depth * snap, state, snap);
                int32_t *d = decided + 3 * depth++;
                d[0] = atom, d[1] = s.n_unsup, d[2] = s.cursor;
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
        const int32_t *d = decided + 3 * depth;
        s.n_unsup = d[1], s.cursor = d[2];
        push(&s, d[0], IN);
        ok = propagate(&s);
    }
    counts[0] = s.propagations, counts[1] = s.applies;
    rc = 0;
done:
    free(s.hoff), free(s.boff), free(s.hadj), free(s.order), free(s.queue);
    free(state), free(bits), free(snaps), free(decided), free(cnt);
    return rc;
}
