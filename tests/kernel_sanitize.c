/* Runs the kernel's search entry points, randasp_enumerate and randasp_trial
 * (through its leaf step, keep, in the histogram mode randasp_trial uses),
 * under AddressSanitizer and UndefinedBehaviorSanitizer:
 *
 *   cc -O1 -g -fsanitize=address,undefined -fno-sanitize-recover=all \
 *      tests/kernel_sanitize.c -lm -o kernel_sanitize && ./kernel_sanitize
 *
 * Each case runs at the limits 0 (none), 1 and 7.  It exits 1 on a wrong
 * count or a wrong error code, and a sanitizer ends it on a memory error or
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

/* Enumerates the program with each limit, then searches it in the histogram
 * mode of randasp_trial.  Both must take the same leaves, min(limit, full)
 * of them, each an answer set that passes randasp_check, and stop at the
 * same point of the tree.  Returns the full count; full_counts gets its
 * propagate and apply calls. */
static int64_t both_modes(int32_t n, int64_t m, const int32_t *heads, const int32_t *bodies, int64_t *full_counts) {
    static const int32_t never = 0;
    size_t nb = ((size_t)n + 7) / 8;
    int64_t full = 0, *hist = calloc((size_t)n + 1, 8);
    for (size_t l = 0; l < sizeof LIMITS / sizeof *LIMITS; l++) { /* limit 0 first */
        int64_t limit = LIMITS[l], counts[2], tally_counts[2];
        uint8_t *masks;
        int64_t leaves = randasp_enumerate(n, m, heads, bodies, limit, &masks, counts);
        EXPECT(leaves >= 0 && (leaves > 0) == (masks != NULL));
        if (!limit) full = leaves, memcpy(full_counts, counts, sizeof counts);
        EXPECT(leaves == clip(full, limit));
        memset(hist, 0, ((size_t)n + 1) * 8);
        for (int64_t i = 0; i < leaves; i++) {
            EXPECT(randasp_check(n, m, heads, bodies, masks + i * nb) == 1);
            hist[popcount(masks + i * nb, nb)]--;
        }
        randasp_free(masks);
        Leaves k = {.n = n, .m = m, .limit = limit, .hist = hist, .heads = heads, .bodies = bodies};
        EXPECT(search(n, m, heads, bodies, &k, &never, tally_counts) == 0);
        EXPECT(k.kept == leaves && !memcmp(counts, tally_counts, sizeof counts));
        for (int32_t s = 0; s <= n; s++) EXPECT(hist[s] == 0); /* every set enumerated was tallied, by size */
    }
    free(hist);
    return full;
}

/* k disjoint two-cycles a <- not b, b <- not a, then x <- not z and
 * y <- not z over three more atoms: 2^k answer sets, so the buffer of masks
 * grows from 16 to 2^k.  Then its twin, the same arrays with the heads of x
 * and y swapped: the search reads the same program (both rules have the
 * body z), so it walks the same tree, and randasp_enumerate returns the same
 * leaves, unchecked.  randasp_check rejects every leaf of arrays out of head
 * order, so the histogram leaf step stops at the first leaf with
 * TRIAL_REJECTED, having added nothing. */
static void two_cycles(int32_t k) {
    static const int32_t never = 0;
    int32_t n = 2 * k + 3, m = 2 * k + 2, x = 2 * k, y = 2 * k + 1;
    size_t nb = ((size_t)n + 7) / 8;
    int32_t *heads = malloc((size_t)m * 4), *twin = malloc((size_t)m * 4), *bodies = malloc((size_t)m * 4);
    for (int32_t i = 0; i < 2 * k; i++) heads[i] = twin[i] = i, bodies[i] = i ^ 1;
    heads[x] = twin[y] = x, heads[y] = twin[x] = y, bodies[x] = bodies[y] = 2 * k + 2;
    int64_t full = (int64_t)1 << k, counts[2], first[2], *hist = calloc((size_t)n + 1, 8);
    uint8_t *masks, *twin_masks;
    EXPECT(both_modes(n, m, heads, bodies, counts) == full);
    EXPECT(randasp_enumerate(n, m, heads, bodies, 1, &masks, first) == 1); /* the search up to its first leaf */
    randasp_free(masks);
    for (size_t l = 0; l < sizeof LIMITS / sizeof *LIMITS; l++) {
        int64_t limit = LIMITS[l], leaves = clip(full, limit), twin_counts[2], tally_counts[2];
        EXPECT(randasp_enumerate(n, m, heads, bodies, limit, &masks, counts) == leaves);
        EXPECT(randasp_enumerate(n, m, twin, bodies, limit, &twin_masks, twin_counts) == leaves);
        EXPECT(!memcmp(masks, twin_masks, (size_t)leaves * nb) && !memcmp(counts, twin_counts, sizeof counts));
        for (int64_t i = 0; i < leaves; i++) EXPECT(randasp_check(n, m, twin, bodies, twin_masks + i * nb) != 1);
        randasp_free(masks), randasp_free(twin_masks);
        Leaves t = {.n = n, .m = m, .limit = limit, .hist = hist, .heads = twin, .bodies = bodies};
        EXPECT(search(n, m, twin, bodies, &t, &never, tally_counts) == TRIAL_REJECTED);
        EXPECT(t.kept == 0 && !memcmp(first, tally_counts, sizeof first));
        for (int32_t s = 0; s <= n; s++) EXPECT(hist[s] == 0);
    }
    free(heads), free(twin), free(bodies), free(hist);
}

/* Trials 0..15 of the model (n, c1, c2) through randasp_trial, with a first
 * rule buffer of 64 that every draw outgrows, and the same draws through
 * randasp_enumerate; full[t] is each trial's count of answer sets, from
 * solver._Searcher. */
static void draws(int32_t n, double c1, double c2, const int64_t *full) {
    double log_p = c1 > 0 ? log1p(-c1 / n) : 0, log_d = c2 > 0 ? log1p(-c2 / n) : 0;
    size_t nb = ((size_t)n + 7) / 8;
    int64_t *sums = calloc((size_t)n + 4, 8);
    for (uint64_t t = 0; t < 16; t++) {
        uint64_t sub = mix64(t + GAMMA); /* attempt 0: no draw here is empty */
        int64_t m = randasp_sample(sub, n, log_p, log_d, 0, NULL);
        int32_t *rules = malloc((size_t)m * 8), *heads = malloc((size_t)m * 4), *bodies = malloc((size_t)m * 4);
        EXPECT(m > 0 && randasp_sample(sub, n, log_p, log_d, m, rules) == m);
        int64_t *key = malloc((size_t)m * 8); /* into head order, as randasp_trial merges the contradictions */
        for (int64_t r = 0; r < m; r++) key[r] = (int64_t)rules[r] * n + rules[m + r];
        for (int64_t r = 1; r < m; r++) /* insertion sort: the contradictions come last, few of them */
            for (int64_t j = r; j > 0 && key[j - 1] > key[j]; j--) {
                int64_t x = key[j];
                key[j] = key[j - 1], key[j - 1] = x;
            }
        for (int64_t r = 0; r < m; r++) heads[r] = (int32_t)(key[r] / n), bodies[r] = (int32_t)(key[r] % n);
        int64_t full_counts[2];
        EXPECT(both_modes(n, m, heads, bodies, full_counts) == full[t]);
        for (size_t l = 0; l < sizeof LIMITS / sizeof *LIMITS; l++) {
            static const int32_t never = 0;
            int64_t limit = LIMITS[l], kept = clip(full[t], limit), counts[2];
            uint8_t *masks;
            memset(sums, 0, ((size_t)n + 4) * 8);
            EXPECT(randasp_trial(t, n, log_p, log_d, 64, 100000, limit, sums, &never) == 0);
            EXPECT(sums[0] == kept && sums[1] == kept * kept && sums[2] == 0);
            EXPECT(randasp_enumerate(n, m, heads, bodies, limit, &masks, counts) == kept);
            for (int64_t i = 0; i < kept; i++) sums[3 + popcount(masks + i * nb, nb)]--;
            for (int32_t s = 0; s <= n; s++) EXPECT(sums[3 + s] == 0); /* the trial's histogram is the masks' */
            randasp_free(masks);
        }
        free(rules), free(heads), free(bodies), free(key);
    }
    free(sums);
}

int main(void) {
    two_cycles(10);
    static const int64_t n200[16] = {0, 0, 0, 2, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0};
    static const int64_t n60[16] = {0, 1, 4, 0, 3, 2, 0, 2, 2, 0, 0, 0, 1, 0, 0, 1};
    draws(200, 5.0, 0.0, n200);
    draws(60, 10.0, 4.0, n60);
    if (failures) fprintf(stderr, "%d checks failed\n", failures);
    return failures != 0;
}
