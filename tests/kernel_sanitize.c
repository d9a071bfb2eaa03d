/* Runs the kernel's entry points randasp_sample, randasp_enumerate and
 * randasp_trial, and tally, the last step of randasp_trial, under
 * AddressSanitizer and UndefinedBehaviorSanitizer:
 *
 *   cc -O1 -g -Wall -Wextra -Werror -fsanitize=address,undefined \
 *      -fno-sanitize-recover=all tests/kernel_sanitize.c -lm -o kernel_sanitize && ./kernel_sanitize
 *
 * Each search runs at the limits 0 (none), 1 and 7.  It exits 1 on a wrong
 * count, rule or error code, and a sanitizer ends it on a memory error or
 * undefined behaviour.  test_solver.py and the CI build and run it. */
#include "../src/randasp/_search.c"

#include <stdio.h>

static int failures;

#define EXPECT(cond) ((cond) ? (void)0 : (void)(failures++, fprintf(stderr, "%s:%d: %s\n", __FILE__, __LINE__, #cond)))

static const int64_t LIMITS[] = {0, 1, 7};

static int64_t popcount(const uint8_t *bits, size_t nb) {
    int64_t c = 0;
    for (size_t i = 0; i < nb; i++) c += __builtin_popcount(bits[i]);
    return c;
}

static int64_t clip(int64_t count, int64_t limit) { return limit && limit < count ? limit : count; }

/* Enumerates the program with each limit: it must take min(limit, full)
 * leaves, each an answer set that passes randasp_check.  Returns the full
 * count; full_counts gets its propagate and apply calls. */
static int64_t enumerated(int32_t n, int64_t m, const int32_t *heads, const int32_t *bodies, int64_t *full_counts) {
    size_t nb = ((size_t)n + 7) / 8;
    int64_t full = 0;
    for (size_t l = 0; l < sizeof LIMITS / sizeof *LIMITS; l++) { /* limit 0 first */
        int64_t limit = LIMITS[l], counts[2];
        uint8_t *masks;
        int64_t leaves = randasp_enumerate(n, m, heads, bodies, limit, &masks, counts);
        EXPECT(leaves >= 0 && (leaves > 0) == (masks != NULL));
        if (!limit) full = leaves, memcpy(full_counts, counts, sizeof counts);
        EXPECT(leaves == clip(full, limit));
        for (int64_t i = 0; i < leaves; i++) EXPECT(randasp_check(n, m, heads, bodies, masks + i * nb) == 1);
        randasp_free(masks);
    }
    return full;
}

/* k disjoint two-cycles a <- not b, b <- not a, then x <- not z and
 * y <- not z over three more atoms: 2^k answer sets, each of k + 2 atoms, so
 * the buffer of masks grows from 16 to 2^k.  Then its twin, the same arrays
 * with the heads of x and y swapped: the search reads the same program
 * (both rules have the body z), so it walks the same tree, and
 * randasp_enumerate returns the same leaves, unchecked.  randasp_check
 * rejects every leaf of arrays out of head order, so tally stops at the
 * first leaf with TRIAL_REJECTED, having added nothing. */
static void two_cycles(int32_t k) {
    int32_t n = 2 * k + 3, m = 2 * k + 2, x = 2 * k, y = 2 * k + 1;
    size_t nb = ((size_t)n + 7) / 8;
    int32_t *heads = malloc((size_t)m * 4), *twin = malloc((size_t)m * 4), *bodies = malloc((size_t)m * 4);
    for (int32_t i = 0; i < 2 * k; i++) heads[i] = twin[i] = i, bodies[i] = i ^ 1;
    heads[x] = twin[y] = x, heads[y] = twin[x] = y, bodies[x] = bodies[y] = 2 * k + 2;
    int64_t full = (int64_t)1 << k, counts[2], *sums = calloc((size_t)n + 4, 8);
    uint8_t *masks, *twin_masks;
    EXPECT(enumerated(n, m, heads, bodies, counts) == full);
    for (size_t l = 0; l < sizeof LIMITS / sizeof *LIMITS; l++) {
        int64_t limit = LIMITS[l], leaves = clip(full, limit), twin_counts[2];
        EXPECT(randasp_enumerate(n, m, heads, bodies, limit, &masks, counts) == leaves);
        EXPECT(randasp_enumerate(n, m, twin, bodies, limit, &twin_masks, twin_counts) == leaves);
        EXPECT(!memcmp(masks, twin_masks, (size_t)leaves * nb) && !memcmp(counts, twin_counts, sizeof counts));
        memset(sums, 0, ((size_t)n + 4) * 8);
        Leaves kept = {.n = n, .kept = leaves, .masks = masks}, twin_kept = {.n = n, .kept = leaves, .masks = twin_masks};
        EXPECT(tally(n, m, twin, bodies, &twin_kept, 3, sums) == TRIAL_REJECTED);
        for (int32_t s = 0; s < n + 4; s++) EXPECT(sums[s] == 0);
        EXPECT(tally(n, m, heads, bodies, &kept, 3, sums) == 0);
        EXPECT(sums[0] == leaves && sums[1] == leaves * leaves && sums[2] == 3 && sums[3 + k + 2] == leaves);
        randasp_free(masks), randasp_free(twin_masks);
    }
    free(heads), free(twin), free(bodies), free(sums);
}

/* The search of a program written out: it must reach exactly the leaves
 * want, in this order, with the propagate and apply calls want_counts. */
static void searched(int32_t n, int64_t m, const int32_t *heads, const int32_t *bodies, int64_t leaves,
                     const uint8_t *want, const int64_t *want_counts) {
    uint8_t *masks;
    int64_t counts[2], full[2];
    EXPECT(enumerated(n, m, heads, bodies, full) == leaves);
    EXPECT(randasp_enumerate(n, m, heads, bodies, 0, &masks, counts) == leaves);
    EXPECT(!memcmp(counts, want_counts, sizeof counts) && !memcmp(full, want_counts, sizeof full));
    EXPECT(!leaves || !memcmp(masks, want, (size_t)leaves * (((size_t)n + 7) / 8)));
    randasp_free(masks);
}

/* A star: every atom but c = n - 1 has the one rule a <- not c, so c is
 * the body of n - 1 rules and an IN assignment of c defers every one of
 * their heads, each left without a candidate.  With the contradiction
 * c <- not c the root assigns c IN, which defers all n heads, c's own
 * last: cand takes one head for each of the m = n rules, the other n - 1
 * heads are pushed OUT, and c conflicts.
 * Without it, c <- not 0 is c's rule: c is decided, OUT first, and the
 * leaves are everything but c, then c alone. */
static void star(int32_t n, int contradiction) {
    int32_t c = n - 1, *heads = malloc((size_t)n * 4), *bodies = malloc((size_t)n * 4);
    for (int32_t a = 0; a < n; a++) heads[a] = a, bodies[a] = c;
    if (!contradiction) bodies[c] = 0;
    size_t nb = ((size_t)n + 7) / 8;
    uint8_t *want = calloc(2, nb);
    for (int32_t a = 0; a < c; a++) want[a >> 3] |= (uint8_t)(1u << (a & 7));
    want[nb + (c >> 3)] |= (uint8_t)(1u << (c & 7));
    const int64_t root_conflict[2] = {1, 1}, both_branches[2] = {3, 2 * (int64_t)n + 2};
    searched(n, n, heads, bodies, contradiction ? 0 : 2, want, contradiction ? root_conflict : both_branches);
    free(heads), free(bodies), free(want);
}

/* Two deferred heads that each reach their last candidate in one apply, the
 * second of them in conflict, below the root: of the programs over up to
 * six atoms that a random search met, the one with a leaf and the fewest
 * rules.  In the IN branch of the decision 1, 4 OUT pushes 3 IN above the
 * 3 OUT that the IN head 2 asked for, with only 3 left.  3 IN then defers
 * the heads 1 and 2, both IN: 1 pushes its last candidate 0 OUT, and 2,
 * left without one, conflicts. */
static void deferred_conflict(void) {
    static const int32_t heads[] = {0, 1, 1, 2, 2, 2, 3, 3, 3, 4}, bodies[] = {1, 0, 3, 1, 2, 3, 1, 2, 4, 1};
    static const uint8_t want[] = {0x1d}; /* {0, 2, 3, 4}, the OUT branch's */
    static const int64_t want_counts[2] = {3, 10};
    searched(5, 10, heads, bodies, 1, want, want_counts);
}

/* randasp_sample's draw from stream seed, checked against the two walks,
 * taken again here: its keys h * n + b strictly increase, its rules with
 * head != body are the pure walk's in walk order, and the others are the
 * contradiction walk's.  *rules gets the draw; returns its rule count. */
static int64_t drawn(uint64_t seed, int32_t n, double log_p, double log_d, int32_t **rules) {
    int64_t m = randasp_sample(seed, n, log_p, log_d, rules), total = (int64_t)n * (n - 1), pos = -1;
    const int32_t *heads = *rules, *bodies = *rules + m;
    uint64_t draw = 0;
    EXPECT(m >= 0 && (m > 0) == (*rules != NULL));
    for (int64_t r = 0; r < m; r++) {
        EXPECT(r == 0 || (int64_t)heads[r - 1] * n + bodies[r - 1] < (int64_t)heads[r] * n + bodies[r]);
        if (heads[r] == bodies[r]) continue;
        pos = next_success(seed, &draw, pos, log_p, total);
        int32_t a = (int32_t)(pos / (n - 1)), b = (int32_t)(pos % (n - 1));
        EXPECT(pos < total && heads[r] == a && bodies[r] == b + (b >= a));
    }
    if (log_p < 0 && total > 0) EXPECT(next_success(seed, &draw, pos, log_p, total) >= total);
    pos = -1;
    for (int64_t r = 0; r < m; r++)
        if (heads[r] == bodies[r]) EXPECT((pos = next_success(seed, &draw, pos, log_d, n)) == heads[r]);
    if (log_d < 0 && n > 0) EXPECT(next_success(seed, &draw, pos, log_d, n) >= n);
    return m;
}

/* Trials 0..15 of the model (n, c1, c2) through randasp_trial, and the same
 * draws through randasp_enumerate; full[t] is each trial's count of answer
 * sets, from solver._Searcher. */
static void draws(int32_t n, double c1, double c2, const int64_t *full) {
    double log_p = c1 > 0 ? log1p(-c1 / n) : 0, log_d = c2 > 0 ? log1p(-c2 / n) : 0;
    size_t nb = ((size_t)n + 7) / 8;
    int64_t *sums = calloc((size_t)n + 4, 8);
    for (uint64_t t = 0; t < 16; t++) {
        int32_t *rules;
        int64_t m = drawn(mix64(t + GAMMA), n, log_p, log_d, &rules), full_counts[2]; /* attempt 0: none is empty */
        EXPECT(m > 0 && enumerated(n, m, rules, rules + m, full_counts) == full[t]);
        for (size_t l = 0; l < sizeof LIMITS / sizeof *LIMITS; l++) {
            static const int32_t never = 0;
            int64_t limit = LIMITS[l], kept = clip(full[t], limit), counts[2];
            uint8_t *masks;
            memset(sums, 0, ((size_t)n + 4) * 8);
            EXPECT(randasp_trial(t, n, log_p, log_d, 100000, limit, sums, &never) == 0);
            EXPECT(sums[0] == kept && sums[1] == kept * kept && sums[2] == 0);
            EXPECT(randasp_enumerate(n, m, rules, rules + m, limit, &masks, counts) == kept);
            for (int64_t i = 0; i < kept; i++) sums[3 + popcount(masks + i * nb, nb)]--;
            for (int32_t s = 0; s <= n; s++) EXPECT(sums[3 + s] == 0); /* the trial's histogram is the masks' */
            randasp_free(masks);
        }
        randasp_free(rules);
    }
    free(sums);
}

/* grown, the step that doubles randasp_sample's rule buffer, which a draw
 * is unlikely ever to take (the first buffer holds the expected count and
 * over eight standard deviations more): from 1 rule to 64, every rule kept
 * in place. */
static void growth(void) {
    int64_t cap = 1;
    int32_t *rules = malloc(8);
    for (int32_t m = 0; m < 64; m++) {
        if (m == cap) EXPECT((rules = grown(rules, cap *= 2)) != NULL);
        rules[m] = m, rules[cap + m] = -m;
        for (int32_t r = 0; r <= m; r++) EXPECT(rules[r] == r && rules[cap + r] == -r);
    }
    free(rules);
}

int main(void) {
    growth();
    two_cycles(10);
    star(100, 1), star(100, 0), star(9, 1), star(9, 0);
    deferred_conflict();
    static const int64_t n200[16] = {0, 0, 0, 2, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0};
    static const int64_t n60[16] = {0, 1, 4, 0, 3, 2, 0, 2, 2, 0, 0, 0, 1, 0, 0, 1};
    draws(200, 5.0, 0.0, n200);
    draws(60, 10.0, 4.0, n60);
    for (uint64_t seed = 0; seed < 4; seed++) { /* about 9000 rules, 150 of them contradictions */
        int32_t *rules;
        EXPECT(drawn(seed, 300, log1p(-30.0 / 300), log1p(-150.0 / 300), &rules) > 8192);
        randasp_free(rules);
    }
    if (failures) fprintf(stderr, "%d checks failed\n", failures);
    return failures != 0;
}
