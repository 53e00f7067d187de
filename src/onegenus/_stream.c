/* The packed sieve stream of onegenus.sieve._Runner, compiled.

   onegenus_sieve_span sieves the words a = outer_base[o] + contrib(j) mod m
   for outer indices o in [lo, hi) and inner indices j in [inner_lo,
   inner_hi), and does exactly what _Runner._process_range_numpy does over
   the same words: the same survivors in the same order (inner block of
   `block` words, then outer residue, then inner word, then bit), the same
   per-prime tally and the same count of valid bits.

   contrib(j) is the sum of one CRT lift per P2 prime, its digits being j in
   mixed radix with the first prime fastest.  Within a block an odometer
   steps it: the next index changes the lowest digit, with carries, and each
   change adds the difference of two lifts mod m.  The residues of contrib
   mod the first-window primes step with it, so divisions happen only once
   per block.

   The first window of primes takes a mod q from the split residues (outer
   mod q) + (inner mod q), plus q - (m mod q) when the sum a wrapped past m,
   indexing the tables repeated three times.  It always ORs and always
   credits popcount(t & ~w), with no branch per prime; the later primes run
   only while the word still has a live bit, taking a mod q by a Barrett
   reduction.  Every a is below m < 2^62, and each survivor a + k*m is at
   most the limit, which the caller keeps below 2^64.

   Returns the number of survivors written to out, -1 when they would not
   fit in capacity (then tally_out and counts_out are untouched) or -2 when
   scratch memory cannot be allocated.  counts_out receives the number of
   valid bits and the number of words.  */
#include <stdint.h>
#include <stdlib.h>

#define ALL_HIT 0xFFFFFFFFu

static inline uint64_t mod_barrett(uint64_t a, uint64_t q, uint64_t mu)
{
    /* mu = floor(2^64 / q): the estimate falls short by at most one q */
    uint64_t r = a - (uint64_t)(((unsigned __int128)a * mu) >> 64) * q;
    return r >= q ? r - q : r;
}

int64_t onegenus_sieve_span(
    uint64_t m, uint64_t lo_r, uint64_t hi_r, const uint32_t *valid_masks,
    const int64_t *outer_base, int64_t n_outer,
    int64_t n_digits, const int64_t *digit_counts, const int64_t *const *digit_lifts,
    int64_t n_first, const int64_t *first_q, const uint16_t *outer_res,
    const uint16_t *wrap_fix, const uint32_t *const *tables3,
    int64_t n_primes, const int64_t *primes, const uint32_t *const *tables,
    int64_t lo, int64_t hi, int64_t inner_lo, int64_t inner_hi, int64_t block,
    uint64_t *out, int64_t capacity, int64_t *tally_out, int64_t *counts_out)
{
    int64_t span = inner_hi - inner_lo < block ? inner_hi - inner_lo : block;
    int64_t n_lifts = 0;
    for (int64_t j = 0; j < n_digits; j++)
        n_lifts += digit_counts[j];
    if (span < 1)
        span = 1;

    /* one allocation for: contrib and its residues per block word; per
       (digit, value) the step to the next value, mod m and mod each q
       without and with the wrap past m; and the first window's tables
       offset by the outer residue's residues, without and with the wrap */
    size_t bytes = sizeof(uint64_t) * (size_t)(span + n_lifts + 2 * n_primes + n_digits)
                 + sizeof(uint32_t *) * (size_t)(2 * n_first)
                 + sizeof(uint16_t) * (size_t)(n_first * (span + 2 * n_lifts));
    uint64_t *contrib = malloc(bytes);
    if (!contrib)
        return -2;
    uint64_t *step = contrib + span;
    uint64_t *mu = step + n_lifts;
    int64_t *tally = (int64_t *)(mu + n_primes);
    int64_t *digit = tally + n_primes;
    const uint32_t **first_tables = (const uint32_t **)(digit + n_digits);
    uint16_t *inner_res = (uint16_t *)(first_tables + 2 * n_first);
    uint16_t *step_res = inner_res + n_first * span;
    uint16_t *step_res_wrap = step_res + n_first * n_lifts;

    for (int64_t i = 0; i < n_primes; i++) {
        mu[i] = UINT64_MAX / (uint64_t)primes[i];
        tally[i] = 0;
    }
    for (int64_t j = 0, e = 0; j < n_digits; j++) {
        const int64_t *lift = digit_lifts[j];
        for (int64_t d = 0; d < digit_counts[j]; d++, e++) {
            uint64_t next = (uint64_t)lift[d + 1 < digit_counts[j] ? d + 1 : 0];
            uint64_t delta = next + (m - (uint64_t)lift[d]);
            if (delta >= m)
                delta -= m;
            step[e] = delta;
            for (int64_t i = 0; i < n_first; i++) {
                uint64_t q = (uint64_t)first_q[i];
                step_res[e * n_first + i] = (uint16_t)(delta % q);
                step_res_wrap[e * n_first + i] = (uint16_t)((delta % q + q - m % q) % q);
            }
        }
    }

    int64_t n_out = 0, valid = 0, words = 0;
    for (int64_t s = inner_lo; s < inner_hi; s += block) {
        int64_t len = inner_hi - s < block ? inner_hi - s : block;

        /* the digits of s by divmod, then an odometer over the block */
        uint64_t c = 0;
        int64_t rest = s;
        for (int64_t j = 0; j < n_digits; j++) {
            digit[j] = rest % digit_counts[j];
            rest /= digit_counts[j];
            c += (uint64_t)digit_lifts[j][digit[j]];
            if (c >= m)
                c -= m;
        }
        uint16_t *res = inner_res;
        for (int64_t i = 0; i < n_first; i++)
            res[i] = (uint16_t)(c % (uint64_t)first_q[i]);
        for (int64_t k = 0; k < len; k++) {
            uint16_t *next = res + n_first;
            contrib[k] = c;
            if (k + 1 == len)
                break;
            for (int64_t i = 0; i < n_first; i++)
                next[i] = res[i];
            for (int64_t j = 0, base = 0; j < n_digits; base += digit_counts[j++]) {
                int64_t e = base + digit[j];
                c += step[e];
                int wrapped = c >= m;
                if (wrapped)
                    c -= m;
                const uint16_t *dr = (wrapped ? step_res_wrap : step_res) + e * n_first;
                for (int64_t i = 0; i < n_first; i++) {
                    uint32_t x = (uint32_t)next[i] + dr[i];
                    next[i] = (uint16_t)(x >= (uint32_t)first_q[i] ? x - (uint32_t)first_q[i] : x);
                }
                if (++digit[j] < digit_counts[j])
                    break;
                digit[j] = 0;
            }
            res = next;
        }

        for (int64_t o = lo; o < hi; o++) {
            uint64_t ob = (uint64_t)outer_base[o];
            for (int64_t i = 0; i < n_first; i++) {
                first_tables[i] = tables3[i] + outer_res[i * n_outer + o];
                first_tables[n_first + i] = first_tables[i] + wrap_fix[i];
            }
            for (int64_t k = 0; k < len; k++) {
                uint64_t a = ob + contrib[k];
                uint32_t wrapped = a >= m;
                a -= m & -(uint64_t)wrapped;
                uint32_t vm = valid_masks[((a < lo_r) << 3) | ((a > hi_r) << 2) | (a & 3)];
                valid += __builtin_popcount(vm);
                uint32_t w = ~vm;
                if (w == ALL_HIT)
                    continue;
                const uint16_t *ir = inner_res + k * n_first;
                const uint32_t *const *ft = first_tables + (n_first & -(int64_t)wrapped);
                for (int64_t i = 0; i < n_first; i++) {
                    uint32_t t = ft[i][ir[i]];
                    tally[i] += __builtin_popcount(t & ~w);
                    w |= t;
                }
                for (int64_t i = n_first; i < n_primes && w != ALL_HIT; i++) {
                    uint32_t t = tables[i][mod_barrett(a, (uint64_t)primes[i], mu[i])];
                    tally[i] += __builtin_popcount(t & ~w);
                    w |= t;
                }
                if (w == ALL_HIT)
                    continue;
                uint32_t rem = ~w;
                if (n_out + __builtin_popcount(rem) > capacity) {
                    free(contrib);
                    return -1;
                }
                for (; rem; rem &= rem - 1)
                    out[n_out++] = a + (uint64_t)__builtin_ctz(rem) * m;
            }
        }
        words += len * (hi - lo);
    }

    for (int64_t i = 0; i < n_primes; i++)
        tally_out[i] = tally[i];
    counts_out[0] = valid;
    counts_out[1] = words;
    free(contrib);
    return n_out;
}
