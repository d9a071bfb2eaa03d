/* Five entry points, none of which calls back into Python: randasp_sample,
 * generate's skip walk, and randasp_enumerate, the search of
 * solver._Searcher, each return one buffer that their caller releases with
 * randasp_free; randasp_check is the two answer-set conditions of
 * solver._is_n2_answer_set_mask; and randasp_trial, one whole sweep trial of
 * experiments._count_chunk, is randasp_sample's draw, randasp_enumerate's
 * search and tally, which checks each leaf with randasp_check as it adds the
 * trial into the caller's sums, and it frees both buffers before it returns.
 *
 * The search of solver._Searcher, step for step: the same propagation, the
 * same branching and the same chronological backtracking, so it visits the
 * same tree and reaches the same leaves in the same order.  propagate ports
 * _Searcher._propagate with _apply inlined, one queue pop per _apply call;
 * decide ports _decide.  search has one leaf step, keep, which appends the
 * leaf to its caller's buffer of masks and stops the search at limit
 * leaves.  search also reads a stop flag once per decision, which another
 * thread may set while it runs: randasp_trial takes its sweep's flag, and
 * randasp_enumerate one that is never set.
 *
 * values are int8 (0 unassigned, 1 IN, 2 OUT); nfree[a] counts a's unassigned
 * bodies, or is SUPPORTED once one of them is OUT; unsup[a] flags the IN
 * atoms not supported, n_unsup counts them.  heads_of is CSR in rule order;
 * bodies_of is the caller's bodies read in place, with offsets counted over
 * heads, so the rules must come sorted by head, and distinct, as
 * Program.n2_arrays and randasp_sample's rules are (strictly by head, then
 * body).  The queue is LIFO, entries atom << 2 | value.  Each pending
 * decision keeps a copy of values, nfree and unsup (6 bytes per atom) and a
 * 12-byte record (atom, n_unsup, cursor); cursor is where decide's scan of
 * the degree order starts.
 *
 * An OUT assignment visits every neighbour without a data-dependent branch:
 * it stores the neighbour's IN entry at queue[qlen] on every visit and
 * advances qlen only if the neighbour is unassigned, and it notes an OUT
 * neighbour in a flag that is tested once the loop ends.  Finishing the loop
 * after a conflict changes nothing that is kept: a conflict clears the queue,
 * and the search restores a snapshot before it goes on, or ends.
 *
 * An IN assignment splits its loop over the heads in two.  The first loop
 * only decrements, without a branch, and stores each head at cand[nc],
 * advancing nc when the head is left with at most one candidate; the second
 * takes those deferred heads in the same order and pushes or conflicts as
 * one loop would have.  That is the same queue in the same order: a head
 * appears once among an atom's heads, as the rules are distinct, the first
 * loop writes only nfree, and the second reads nfree and val as they stand
 * after it.  A conflict in the second loop leaves the later decrements
 * done, which is harmless for the reason above.  The first loop stores at
 * most one head per rule, so cand holds m + 1: room without relying on the
 * rules being distinct, and an allocation that is nonempty when m is 0.
 *
 * decide reads unsup in words of eight flags and visits only the set bytes
 * of each, lowest first, so it meets the flagged atoms in index order.  The
 * block that holds unsup ends in 8 bytes that stay zero, as no snapshot
 * copies them, so the last word reads no further than the block.
 * randasp_check and keep take no branch on the bits they read:
 * randasp_check ORs each atom's verdict into one flag, and keep ORs each IN
 * atom's bit into its mask.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { UNASSIGNED = 0, IN = 1, OUT = 2, SUPPORTED = -1 };

typedef struct {
    int32_t n, *hoff, *hadj, *boff, *order, *nfree, *queue, *cand, n_unsup, cursor;
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
    int32_t *restrict queue = s->queue, *restrict nfree = s->nfree, *restrict cand = s->cand, n_unsup = s->n_unsup;
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
        int32_t nc = 0;
        for (int32_t k = hoff[atom]; k < hoff[atom + 1]; k++) {
            int32_t h = hadj[k], f = nfree[h];
            f -= f != SUPPORTED;
            nfree[h] = f;
            cand[nc] = h;
            nc += (uint32_t)f <= 1u; /* not SUPPORTED, and at most one candidate left */
        }
        for (int32_t i = 0; i < nc; i++) {
            int32_t h = cand[i], f = nfree[h];
            st = val[h];
            if (st == IN) {
                int32_t b = f == 0 ? -1 : first_free_body(boff, badj, val, h);
                if (b < 0) goto done;
                queue[qlen++] = b << 2 | OUT;
            } else if (st == UNASSIGNED && f == 0) {
                queue[qlen++] = h << 2 | OUT; /* h can never be supported */
            }
        }
        int32_t f = nfree[atom], us = f != SUPPORTED;
        unsup[atom] = (int8_t)us, n_unsup += us; /* only IN atoms are flagged, and atom was unassigned */
        if ((uint32_t)f > 1u) continue; /* SUPPORTED, or a candidate to spare */
        if (f == 0) goto done;          /* no candidate left */
        int32_t b = first_free_body(boff, badj, val, atom);
        if (b < 0) goto done;
        queue[qlen++] = b << 2 | OUT;
    }
    ok = 1;
done:
    s->qlen = ok ? qlen : 0, s->applies = applies, s->n_unsup = n_unsup;
    return ok;
}

/* The unsupported atom with the fewest free candidates, lowest index on
 * ties, of the n_unsup > 0 flagged: a successful propagation leaves each of
 * them at least two, so the scan stops at the first with two, or once it has
 * seen all n_unsup of them.  It reads unsup a word of eight flags at a time
 * and visits only the set bytes of each. */
static int32_t fewest_free(const S *s) {
    const int32_t *nfree = s->nfree;
    const int8_t *unsup = s->unsup;
    int32_t best = -1, left = s->n_unsup;
    for (int32_t a = 0; left; a += 8) {
        uint64_t w;
        memcpy(&w, unsup + a, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        w = __builtin_bswap64(w); /* flag a + i in bits 8i to 8i + 7 */
#endif
        for (; w; w &= w - 1) { /* each flag is 0 or 1: one set bit per flagged byte */
            int32_t x = a + (__builtin_ctzll(w) >> 3);
            left--;
            if (best < 0 || nfree[x] < nfree[best]) {
                best = x;
                if (nfree[x] <= 2) return x;
            }
        }
    }
    return best;
}

/* The atom to branch on, or -1 at a leaf: the first free candidate of
 * fewest_free's atom, else the first unassigned atom of the degree order.
 * Along one branch atoms are only ever assigned, so every atom of the degree
 * order before s->cursor stays assigned until the search backtracks past the
 * decision that set it. */
static int32_t decide(S *s) {
    const int32_t n = s->n;
    const int8_t *val = s->val;
    if (s->n_unsup) {
        int32_t b = first_free_body(s->boff, s->badj, val, fewest_free(s));
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

/* The two answer-set conditions of solver._is_n2_answer_set_mask for the set
 * S whose little-endian bitmask is bits (of (n + 7) / 8 bytes): no rule has
 * its head and its body outside S, and every atom of S heads a rule whose
 * body is outside S.  Reads only the rules and bits.  The rules must be
 * sorted by head, every atom in [0, n): one pass over the atoms walks each
 * atom's rules.  Returns 1 if S is an answer set and 0 if not; -1 if the
 * walk ends with rules left, which a head out of order causes (it may also
 * give 0 first). */
int randasp_check(int32_t n, int64_t m, const int32_t *heads, const int32_t *bodies, const uint8_t *bits) {
    int64_t r = 0;
    int bad = 0;
    for (int32_t a = 0; a < n; a++) {
        int in = bits[a >> 3] >> (a & 7) & 1, supported = 0; /* supported: a body of a outside S */
        for (; r < m && heads[r] == a; r++) supported |= !(bits[bodies[r] >> 3] >> (bodies[r] & 7) & 1);
        bad |= in ^ supported; /* a in S unsupported, or a outside S with a body outside S */
    }
    return bad ? 0 : r == m ? 1 : -1; /* a rule left over: its head came out of order */
}

/* randasp_trial's error codes, -1 to -6; search returns -1 and -5 too */
enum { TRIAL_REJECTED = -6, TRIAL_STOPPED, TRIAL_TOO_MANY_RULES, TRIAL_OVERFLOW, TRIAL_NO_PROGRAM, TRIAL_NO_MEMORY };

/* The leaves search keeps: at most limit of them (0: all), each a little-endian
 * bitmask of its IN atoms, (n + 7) / 8 bytes, in masks in tree order.  masks
 * has room for cap leaves and belongs to whoever called search. */
typedef struct {
    int32_t n;
    int64_t limit, kept, cap;
    uint8_t *masks;
} Leaves;

/* The leaf step of search: appends the bitmask of the atoms val holds IN to
 * masks, which grows by doubling.  Returns 0 to go on, 1 once limit leaves
 * are kept, or TRIAL_NO_MEMORY. */
static int keep(Leaves *k, const int8_t *val) {
    size_t nb = ((size_t)k->n + 7) / 8;
    if (k->kept == k->cap) {
        int64_t cap = k->cap ? 2 * k->cap : 16;
        uint8_t *masks = realloc(k->masks, (size_t)cap * nb + 1); /* + 1: nb is 0 when n is */
        if (!masks) return TRIAL_NO_MEMORY;
        k->masks = masks, k->cap = cap;
    }
    uint8_t *bits = memset(k->masks + (size_t)k->kept++ * nb, 0, nb);
    for (int32_t a = 0; a < k->n; a++) bits[a >> 3] |= (uint8_t)((val[a] == IN) << (a & 7));
    return k->limit > 0 && k->kept >= k->limit;
}

/* Searches the program `heads[r] <- not bodies[r]`, r < m < 2^31, distinct
 * and sorted by head, over n < 2^29 atoms and hands each leaf to keep(leaves, s.val).
 * counts gets the propagate and apply calls.  Returns 0, TRIAL_NO_MEMORY, or
 * TRIAL_STOPPED when *stop is nonzero at a decision (counts then unset). */
static int search(int32_t n, int64_t m, const int32_t *heads, const int32_t *bodies, Leaves *leaves,
                  const volatile int32_t *stop, int64_t *counts) {
    S s = {.n = n};
    size_t depth = 0, cap = 0;
    s.hoff = calloc((size_t)n + 1, 4), s.boff = calloc((size_t)n + 1, 4);
    s.hadj = malloc((size_t)m * 4 + 4), s.badj = bodies;
    s.order = malloc((size_t)n * 4 + 4), s.cand = malloc((size_t)m * 4 + 4);
    s.queue = malloc(((size_t)m * 3 + (size_t)n * 3 + 1) * 4); /* see the bound below */
    size_t snap = (size_t)n * 6; /* the searched state, nfree | val | unsup, in one block */
    uint8_t *state = calloc(snap + 8, 1), *snaps = NULL; /* + 8: zeros for fewest_free's last word */
    int32_t *decided = NULL, *cnt = calloc(2 * (size_t)m + 2, 4); /* decided: (atom, n_unsup, cursor) */
    int rc = TRIAL_NO_MEMORY;
    if (!s.hoff || !s.boff || !s.hadj || !s.order || !s.cand || !s.queue || !state || !cnt)
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
    int ok = propagate(&s), taken = 0; /* keep's last result */
    for (;;) {
        if (ok) {
            int32_t atom = decide(&s);
            if (atom >= 0) {
                if (*stop) {
                    rc = TRIAL_STOPPED;
                    goto done;
                }
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
            if ((taken = keep(leaves, s.val))) break;
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
    rc = taken < 0 ? taken : 0;
done:
    free(s.hoff), free(s.boff), free(s.hadj), free(s.order), free(s.cand), free(s.queue);
    free(state), free(snaps), free(decided), free(cnt);
    return rc;
}

/* The leaves of the program `heads[r] <- not bodies[r]`, as search takes it,
 * in the order search reaches them, unchecked: at most limit of them (0:
 * all).  *out gets their bitmasks, (n + 7) / 8 bytes each, in one buffer for
 * randasp_free (NULL when there are none), and counts the propagate and
 * apply calls.  Returns the number of leaves, or -1 when out of memory (*out
 * then NULL). */
int64_t randasp_enumerate(int32_t n, int64_t m, const int32_t *heads, const int32_t *bodies, int64_t limit,
                          uint8_t **out, int64_t *counts) {
    static const int32_t never = 0;
    Leaves k = {.n = n, .limit = limit};
    if (search(n, m, heads, bodies, &k, &never, counts)) {
        free(k.masks);
        *out = NULL;
        return -1;
    }
    *out = k.masks;
    return k.kept;
}

void randasp_free(void *p) { free(p); }

/* The draws of generate.generate_with_stats, one attempt a call.  Draw i of
 * the splitmix64 stream `seed` is mix64(seed + (i + 1) * GAMMA), its uniform u
 * is ((z >> 11) + 1) * 2^-53, exact in a double, and its skip is
 * int(min(log(u) / log_q, total)) with libm's log, the function Python's
 * math.log calls.  The ratio is never NaN (log(u) <= 0 and log_q < 0).
 * Below 2^62 the cast truncates it exactly, and a skip of at least total
 * ends the walk whatever its value, so a larger ratio (inf, for a subnormal
 * prob) takes total, and pos + 1 + skip stays below 2^63 (total < 2^62).
 * No other float operation is taken, so build without -ffast-math. */
static const uint64_t GAMMA = 0x9E3779B97F4A7C15u;

static uint64_t mix64(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

/* The next success of the Bernoulli walk over [0, total) after pos, or a
 * position >= total at its end; takes draw *draw and advances it. */
static int64_t next_success(uint64_t seed, uint64_t *draw, int64_t pos, double log_q, int64_t total) {
    uint64_t z = mix64(seed + ++*draw * GAMMA);
    double ratio = log((double)((z >> 11) + 1) * 0x1p-53) / log_q;
    return pos + 1 + (ratio < 0x1p62 ? (int64_t)ratio : total);
}

/* rules, the heads of cap / 2 rules in [0, cap / 2) and their bodies in
 * [cap / 2, cap), grown to room for cap rules: the bodies move up to
 * [cap, 3 cap / 2).  NULL when out of memory, rules then freed. */
static int32_t *grown(int32_t *rules, int64_t cap) {
    int32_t *r = realloc(rules, (size_t)cap * 8);
    if (!r) free(rules);
    else memcpy(r + cap, r + cap / 2, (size_t)cap * 2);
    return r;
}

/* One program over n atoms from stream seed: each pure rule a <- not b
 * (a != b) with probability p, then each contradiction a <- not a with
 * probability d, given as log_p = log1p(-p) and log_d = log1p(-d), 0 for
 * a probability of 0 (a walk that takes no draw).  The pure walk takes
 * draws 0, 1, ... over the positions [0, n(n-1)), position j being the
 * pair (j / (n-1), r + (r >= a)) with r = j % (n-1); the contradiction
 * walk goes on from the next unused draw.  The walks give the pure rules in
 * (a, b) order, then the contradictions, which are merged in by the key
 * a * n + b: *out gets the m rules in (head, body) order, the order
 * Program.from_n2_arrays holds them in, as one buffer for randasp_free with
 * the heads in [0, m) and the bodies in [m, 2m) (NULL when m is 0).
 * Returns m, or -1 when out of memory (*out then NULL). */
int64_t randasp_sample(uint64_t seed, int32_t n, double log_p, double log_d, int32_t **out) {
    uint64_t draw = 0; /* draws taken */
    int64_t m = 0, pure = 0, total = (int64_t)n * (n - 1);
    double mean = -expm1(log_p) * (double)total - expm1(log_d) * n; /* the expected rule count */
    int64_t cap = (int64_t)(mean + 8 * sqrt(mean)) + 64; /* over eight standard deviations: rarely outgrown */
    int32_t *rules = malloc((size_t)cap * 8);
    if (!rules) goto fail;
    if (log_p < 0 && total > 0)
        for (int64_t j = -1; (j = next_success(seed, &draw, j, log_p, total)) < total; m++) {
            if (m == cap && !(rules = grown(rules, cap *= 2))) goto fail;
            int32_t a = (int32_t)(j / (n - 1)), r = (int32_t)(j % (n - 1));
            rules[m] = a, rules[cap + m] = r + (r >= a);
        }
    pure = m;
    if (log_d < 0 && n > 0)
        for (int64_t i = -1; (i = next_success(seed, &draw, i, log_d, n)) < n; m++) {
            if (m == cap && !(rules = grown(rules, cap *= 2))) goto fail;
            rules[m] = rules[cap + m] = (int32_t)i;
        }
    if (pure < m) { /* merge the contradictions in from the back, out of a copy */
        int32_t *con = malloc((size_t)(m - pure) * 4);
        if (!con) goto fail;
        memcpy(con, rules + pure, (size_t)(m - pure) * 4);
        for (int64_t i = pure - 1, j = m - pure - 1, k = m - 1; j >= 0; k--)
            if (i >= 0 && (int64_t)rules[i] * n + rules[cap + i] > (int64_t)con[j] * (n + 1))
                rules[k] = rules[i], rules[cap + k] = rules[cap + i], i--;
            else
                rules[k] = rules[cap + k] = con[j--];
        free(con);
    }
    memmove(rules + m, rules + cap, (size_t)m * 4);
    if (!m) free(rules), rules = NULL;
    *out = rules;
    return m;
fail:
    free(rules);
    *out = NULL;
    return -1;
}

/* Step 3 of randasp_trial: checks each leaf k holds with randasp_check, in
 * tree order, and adds the trial into sums: the count of answer sets, its
 * square, the attempts before its draw and, from sums[3], the histogram of
 * the sets by size.  Returns 0, TRIAL_REJECTED at the first leaf that fails
 * its check, or TRIAL_OVERFLOW where a sum would leave int64; after either,
 * sums hold part of the trial. */
static int tally(int32_t n, int64_t m, const int32_t *heads, const int32_t *bodies, const Leaves *k, int64_t attempts,
                 int64_t *sums) {
    size_t nb = ((size_t)n + 7) / 8;
    for (int64_t l = 0; l < k->kept; l++) {
        const uint8_t *bits = k->masks + (size_t)l * nb;
        if (randasp_check(n, m, heads, bodies, bits) != 1) return TRIAL_REJECTED;
        size_t i = 0;
        int64_t size = 0;
        for (uint64_t w; i + 8 <= nb; i += 8) {
            memcpy(&w, bits + i, 8);
            size += __builtin_popcountll(w);
        }
        for (; i < nb; i++) size += __builtin_popcount(bits[i]);
        if (__builtin_add_overflow(sums[3 + size], 1, &sums[3 + size])) return TRIAL_OVERFLOW;
    }
    int64_t sq;
    if (__builtin_mul_overflow(k->kept, k->kept, &sq) || __builtin_add_overflow(sums[0], k->kept, &sums[0]) ||
        __builtin_add_overflow(sums[1], sq, &sums[1]) || __builtin_add_overflow(sums[2], attempts, &sums[2]))
        return TRIAL_OVERFLOW;
    return 0;
}

/* Trial `seed` of a sweep, whose sums are those that generate_with_stats
 * and enumerate_answer_sets give for it, in three steps:
 * randasp_sample draws from sub-seed mix64(seed + (a + 1) * GAMMA),
 * mix_seed's stream, for attempt a = 0, 1, ... until a draw is nonempty or
 * max_draws attempts are spent; search keeps at most limit leaves (0: all),
 * reading *stop at each decision, which another thread sets to end the
 * trial early; and tally checks the leaves and adds the trial into sums.
 * Returns 0 or an error code: TRIAL_NO_PROGRAM when every draw is empty,
 * TRIAL_TOO_MANY_RULES at 2^31 rules or more, TRIAL_STOPPED, tally's
 * errors, or TRIAL_NO_MEMORY; after an error sums hold part of the trial. */
int randasp_trial(uint64_t seed, int32_t n, double log_p, double log_d, int64_t max_draws, int64_t limit,
                  int64_t *sums, const volatile int32_t *stop) {
    int64_t m = 0, attempt = 0, counts[2];
    int32_t *rules = NULL;
    for (; attempt < max_draws; attempt++)
        if ((m = randasp_sample(mix64(seed + (uint64_t)(attempt + 1) * GAMMA), n, log_p, log_d, &rules))) break;
    if (m <= 0) return m ? TRIAL_NO_MEMORY : TRIAL_NO_PROGRAM;
    Leaves k = {.n = n, .limit = limit};
    int rc = m > INT32_MAX ? TRIAL_TOO_MANY_RULES : search(n, m, rules, rules + m, &k, stop, counts);
    if (!rc) rc = tally(n, m, rules, rules + m, &k, attempt, sums);
    free(rules), free(k.masks);
    return rc;
}
