/* The packed sieve stream of onegenus.sieve._Runner, compiled.

   onegenus_sieve_span sieves the words a = outer_base[o] + contrib(j) mod m
   for outer indices o in [lo, hi) and inner indices j in [inner_lo,
   inner_hi), and does exactly what _Runner._process_range_numpy does over
   the same words: the same survivors in the same order (inner block of
   `block` words, then outer residue, then inner word, then bit), the same
   per-prime tally and the same count of valid bits.  The tables that stay
   fixed for a run come in one struct onegenus_stream, built once per runner.

   contrib(j) is the sum of one CRT lift per P2 prime, its digits being j in
   mixed radix with the first prime fastest.  Within a block an odometer
   steps it: the next index changes the lowest digit, with carries, and each
   change adds the difference of two lifts mod m.  The residues of contrib
   mod the first-window primes step with it, written prime-major, so
   divisions happen only once per block.

   Per outer residue the block is walked in sub-blocks of SUB words, whose
   per-word arrays stay in L1 cache:
   1. each word's a, its wrap flag (whether outer + inner passed m), and its
      hit word w = ~(valid mask), crediting popcount(valid mask) to the count
      of valid bits;
   2. per first-window prime q, a mod q from the split residues (outer mod
      q) + (inner mod q), plus q - (m mod q) for a wrapped word, indexing q's
      table repeated three times: t = table3[...], the prime's tally gains
      popcount(t & ~w), and w |= t, with no branch;
   3. the indices of the words that still have a live bit are compacted,
      and only those words, in order, run the later primes, taking a mod q by
      a Barrett reduction, and emit their survivors.
   Steps 1 and 2 and the compaction come in two versions that give the same
   w, tallies and live list.  The plain C one fuses them word by word.  The
   AVX-512 one (F, BW, VL and VPOPCNTDQ) runs them as passes over the
   sub-block, 16 words at a time: gathers, vpopcntd and compress.  It is
   compiled with a target attribute, so that the build needs no -march flag
   and one built file serves every CPU, and is ~2.5 times as fast.
   onegenus_stream_simd picks a version by __builtin_cpu_supports, once per
   process, and says which; compilers without those attributes, other
   targets, and a build with ONEGENUS_NO_SIMD defined (which the tests make,
   to run the plain version on any CPU) get the plain version only.

   Every a is below m < 2^62, and each survivor a + k*m is at most the limit,
   which the caller keeps below 2^64.  Returns the number of survivors written
   to out, -1 when they would not fit in capacity (then tally_out and
   counts_out are untouched), -2 when scratch memory cannot be allocated or
   -3 when the struct holds more than FIRST_MAX first-window primes.
   counts_out receives the number of valid bits and the number of words.  */
#include <stdint.h>
#include <stdlib.h>

#define ALL_HIT 0xFFFFFFFFu
#define SUB 1024 /* words per sub-block, a multiple of 16 */
#define FIRST_MAX 8 /* at most this many first-window primes: sieve._FIRST_MAX */

#if !defined(ONEGENUS_NO_SIMD) && defined(__x86_64__) \
    && (defined(__clang__) ? __clang_major__ >= 8 : defined(__GNUC__) && __GNUC__ >= 8)
#define ONEGENUS_AVX512 1
#include <immintrin.h>
#else
#define ONEGENUS_AVX512 0
#endif

struct onegenus_stream {
    uint64_t m, lo_r, hi_r;
    const uint32_t *valid_masks; /* 16, by (a < lo_r, a > hi_r, a mod 4) */
    const int64_t *outer_base;
    int64_t n_outer;
    int64_t n_digits;
    const int64_t *digit_counts;
    const int64_t *const *digit_lifts;
    /* per (digit, value), in digit order: the step to the next value mod m,
       and a row of FIRST_MAX residues of it mod each first-window q, the
       first n_first used, without and with the wrap past m (step - m mod q) */
    const uint64_t *step;
    const uint16_t *step_res, *step_res_wrap;
    int64_t n_first;           /* the first window: primes[0..n_first), n_first <= FIRST_MAX */
    const int64_t *first_q;
    const uint16_t *outer_res; /* n_first rows of n_outer */
    const uint16_t *wrap_fix;
    const uint32_t *const *tables3;
    int64_t n_primes;
    const int64_t *primes;
    const uint64_t *mu; /* floor((2^64 - 1) / q) per prime */
    const uint32_t *const *tables;
};

/* Steps 1 and 2 and the compaction over the len <= SUB words ob + contrib[k]
   mod m, whose residues mod the i-th first-window prime are inner_res[i *
   stride + k]; ft[i] is that prime's table3 shifted by ob's residue, and
   ft[n_first + i] that shifted further by wrap_fix[i], for a wrapped word.
   Writes the hit words to w, the indices of the live ones to live, adds to
   tally and valid, and returns the number of live words.  */
typedef int64_t first_window_fn(const struct onegenus_stream *st, uint64_t ob,
                                const uint64_t *contrib, const uint16_t *inner_res,
                                int64_t stride, const uint32_t *const *ft, int64_t len,
                                uint32_t *w, int32_t *live, int64_t *tally, int64_t *valid);

/* Without SIMD, the steps are fused: word by word, its hit word stays in a
   register through the first window, which a separate pass per prime would
   load and store each time.  */
static int64_t first_window_plain(const struct onegenus_stream *st, uint64_t ob,
                                  const uint64_t *contrib, const uint16_t *inner_res,
                                  int64_t stride, const uint32_t *const *ft, int64_t len,
                                  uint32_t *w, int32_t *live, int64_t *tally, int64_t *valid)
{
    const uint64_t m = st->m;
    const int64_t n_first = st->n_first;
    int64_t credit[FIRST_MAX] = {0}, v = 0, n = 0;
    for (int64_t k = 0; k < len; k++) {
        uint64_t a = ob + contrib[k];
        uint64_t wrapped = a >= m;
        a -= m & -wrapped;
        uint32_t vm = st->valid_masks[((a < st->lo_r) << 3) | ((a > st->hi_r) << 2) | (a & 3)];
        v += __builtin_popcount(vm);
        uint32_t x = ~vm;
        if (x != ALL_HIT) {
            const uint32_t *const *t3 = ft + (n_first & -(int64_t)wrapped);
            const uint16_t *ir = inner_res + k;
            for (int64_t i = 0; i < n_first; i++, ir += stride) {
                uint32_t t = t3[i][*ir];
                credit[i] += __builtin_popcount(t & ~x);
                x |= t;
            }
        }
        w[k] = x;
        live[n] = (int32_t)k;
        n += x != ALL_HIT;
    }
    *valid += v;
    for (int64_t i = 0; i < n_first; i++)
        tally[i] += credit[i];
    return n;
}

#if ONEGENUS_AVX512
#define AVX512 __attribute__((target("avx512f,avx512bw,avx512vl,avx512vpopcntdq")))

/* Steps 1 and 2 and the compaction one after the other, 16 words at a
   time, adding wrap_fix to the index of a wrapped word; the lanes past len
   get w = ALL_HIT, so they credit nothing and are never live.  w and live
   hold SUB + 16.  */
AVX512 static int64_t first_window_avx512(const struct onegenus_stream *st, uint64_t ob,
                                          const uint64_t *contrib, const uint16_t *inner_res,
                                          int64_t stride, const uint32_t *const *ft, int64_t len,
                                          uint32_t *w, int32_t *live, int64_t *tally,
                                          int64_t *valid)
{
    __mmask16 wrap[SUB / 16];
    const __m512i m = _mm512_set1_epi64((int64_t)st->m), base = _mm512_set1_epi64((int64_t)ob);
    const __m512i lo_r = _mm512_set1_epi64((int64_t)st->lo_r);
    const __m512i hi_r = _mm512_set1_epi64((int64_t)st->hi_r);
    const __m512i masks = _mm512_loadu_si512(st->valid_masks);
    const __m512i all = _mm512_set1_epi32(-1);
    int64_t groups = (len + 15) / 16;
    __m512i v = _mm512_setzero_si512();
    for (int64_t g = 0; g < groups; g++) {
        int64_t k = 16 * g;
        __mmask16 lanes = len - k >= 16 ? 0xFFFF : (__mmask16)((1u << (len - k)) - 1);
        __m512i a0 = _mm512_add_epi64(base, _mm512_maskz_loadu_epi64((__mmask8)lanes, contrib + k));
        __m512i a1 = _mm512_add_epi64(base, _mm512_maskz_loadu_epi64((__mmask8)(lanes >> 8),
                                                                    contrib + k + 8));
        __mmask8 w0 = _mm512_cmpge_epu64_mask(a0, m), w1 = _mm512_cmpge_epu64_mask(a1, m);
        a0 = _mm512_mask_sub_epi64(a0, w0, a0, m);
        a1 = _mm512_mask_sub_epi64(a1, w1, a1, m);
        __mmask16 below = _mm512_cmplt_epu64_mask(a0, lo_r)
                        | (__mmask16)(_mm512_cmplt_epu64_mask(a1, lo_r) << 8);
        __mmask16 above = _mm512_cmpgt_epu64_mask(a0, hi_r)
                        | (__mmask16)(_mm512_cmpgt_epu64_mask(a1, hi_r) << 8);
        __m512i r = _mm512_inserti64x4(_mm512_castsi256_si512(_mm512_cvtepi64_epi32(a0)),
                                       _mm512_cvtepi64_epi32(a1), 1);
        r = _mm512_and_si512(r, _mm512_set1_epi32(3));
        r = _mm512_mask_or_epi32(r, below, r, _mm512_set1_epi32(8));
        r = _mm512_mask_or_epi32(r, above, r, _mm512_set1_epi32(4));
        __m512i vm = _mm512_maskz_permutexvar_epi32(lanes, r, masks);
        v = _mm512_add_epi32(v, _mm512_popcnt_epi32(vm));
        _mm512_storeu_si512(w + k, _mm512_xor_si512(vm, all));
        wrap[g] = (__mmask16)(w0 | (w1 << 8));
    }
    *valid += _mm512_reduce_add_epi32(v);
    for (int64_t i = 0; i < st->n_first; i++) {
        const uint32_t *t3 = ft[i];
        const uint16_t *ir = inner_res + i * stride;
        const __m512i fix = _mm512_set1_epi32(st->wrap_fix[i]);
        __m512i credit = _mm512_setzero_si512();
        for (int64_t g = 0; g < groups; g++) {
            int64_t k = 16 * g;
            __mmask16 lanes = len - k >= 16 ? 0xFFFF : (__mmask16)((1u << (len - k)) - 1);
            __m512i idx = _mm512_cvtepu16_epi32(_mm256_maskz_loadu_epi16(lanes, ir + k));
            idx = _mm512_mask_add_epi32(idx, wrap[g], idx, fix);
            __m512i t = _mm512_i32gather_epi32(idx, t3, 4);
            __m512i x = _mm512_loadu_si512(w + k);
            credit = _mm512_add_epi32(credit, _mm512_popcnt_epi32(_mm512_andnot_si512(x, t)));
            _mm512_storeu_si512(w + k, _mm512_or_si512(x, t));
        }
        tally[i] += _mm512_reduce_add_epi32(credit);
    }
    int64_t n = 0;
    const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    for (int64_t g = 0; g < groups; g++) {
        int64_t k = 16 * g;
        __mmask16 alive = _mm512_cmpneq_epu32_mask(_mm512_loadu_si512(w + k), all);
        __m512i index = _mm512_add_epi32(iota, _mm512_set1_epi32((int32_t)k));
        _mm512_storeu_si512(live + n, _mm512_maskz_compress_epi32(alive, index));
        n += __builtin_popcount(alive);
    }
    return n;
}
#endif

/* 1 when the AVX-512 passes run on this CPU, else 0; decided on the first call */
int onegenus_stream_simd(void)
{
#if ONEGENUS_AVX512
    static int simd = -1;
    if (simd < 0) {
        __builtin_cpu_init();
        simd = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")
            && __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512vpopcntdq");
    }
    return simd;
#else
    return 0;
#endif
}

static inline uint64_t mod_barrett(uint64_t a, uint64_t q, uint64_t mu)
{
    /* mu = floor(2^64 / q): the estimate falls short by at most one q */
    uint64_t r = a - (uint64_t)(((unsigned __int128)a * mu) >> 64) * q;
    return r >= q ? r - q : r;
}

int64_t onegenus_sieve_span(const struct onegenus_stream *st, int64_t lo, int64_t hi,
                            int64_t inner_lo, int64_t inner_hi, int64_t block,
                            uint64_t *out, int64_t capacity, int64_t *tally_out,
                            int64_t *counts_out)
{
    const uint64_t m = st->m;
    const int64_t n_digits = st->n_digits, n_first = st->n_first, n_primes = st->n_primes;
    const int64_t *digit_counts = st->digit_counts, *first_q = st->first_q;
    if (n_first > FIRST_MAX)
        return -3;
    first_window_fn *first_window = first_window_plain;
#if ONEGENUS_AVX512
    if (onegenus_stream_simd())
        first_window = first_window_avx512;
#endif
    int64_t span = inner_hi - inner_lo < block ? inner_hi - inner_lo : block;
    if (span < 1)
        span = 1;

    /* one allocation for: contrib and its residues per block word, the
       tally, the odometer's digits, and the first window's tables offset by
       the outer residue's residues, without and with the wrap */
    size_t bytes = sizeof(uint64_t) * (size_t)(span + n_primes + n_digits)
                 + sizeof(uint32_t *) * (size_t)(2 * n_first)
                 + sizeof(uint16_t) * (size_t)(FIRST_MAX * span);
    uint64_t *contrib = malloc(bytes);
    if (!contrib)
        return -2;
    int64_t *tally = (int64_t *)(contrib + span);
    int64_t *digit = tally + n_primes;
    const uint32_t **first_tables = (const uint32_t **)(digit + n_digits);
    uint16_t *inner_res = (uint16_t *)(first_tables + 2 * n_first);
    uint16_t res[FIRST_MAX] = {0}, q[FIRST_MAX] = {0};
    const uint64_t *step = st->step, *mu = st->mu;
    const uint16_t *step_res = st->step_res, *step_res_wrap = st->step_res_wrap;
    uint32_t w[SUB + 16];
    int32_t live[SUB + 16];

    for (int64_t i = 0; i < n_primes; i++)
        tally[i] = 0;
    for (int64_t i = 0; i < n_first; i++)
        q[i] = (uint16_t)first_q[i];

    int64_t n_out = 0, valid = 0, words = 0;
    for (int64_t s = inner_lo; s < inner_hi; s += block) {
        int64_t len = inner_hi - s < block ? inner_hi - s : block;

        /* the digits of s by divmod, then an odometer over the block */
        uint64_t c = 0;
        int64_t rest = s;
        for (int64_t j = 0; j < n_digits; j++) {
            digit[j] = rest % digit_counts[j];
            rest /= digit_counts[j];
            c += (uint64_t)st->digit_lifts[j][digit[j]];
            if (c >= m)
                c -= m;
        }
        for (int64_t i = 0; i < n_first; i++)
            res[i] = (uint16_t)(c % (uint64_t)first_q[i]);
        for (int64_t k = 0;; k++) {
            contrib[k] = c;
            uint16_t *ir = inner_res + k;
            for (int i = 0; i < FIRST_MAX; i++, ir += span)
                *ir = res[i];
            if (k + 1 == len)
                break;
            for (int64_t j = 0, base = 0; j < n_digits; base += digit_counts[j++]) {
                int64_t e = base + digit[j];
                c += step[e];
                int wrapped = c >= m;
                if (wrapped)
                    c -= m;
                const uint16_t *dr = (wrapped ? step_res_wrap : step_res) + e * FIRST_MAX;
                for (int i = 0; i < FIRST_MAX; i++) { /* below 2q <= 2^16 */
                    uint16_t x = (uint16_t)(res[i] + dr[i]);
                    res[i] = x >= q[i] ? (uint16_t)(x - q[i]) : x;
                }
                if (++digit[j] < digit_counts[j])
                    break;
                digit[j] = 0;
            }
        }

        for (int64_t o = lo; o < hi; o++) {
            uint64_t ob = (uint64_t)st->outer_base[o];
            for (int64_t i = 0; i < n_first; i++) {
                first_tables[i] = st->tables3[i] + st->outer_res[i * st->n_outer + o];
                first_tables[n_first + i] = first_tables[i] + st->wrap_fix[i];
            }
            for (int64_t k0 = 0; k0 < len; k0 += SUB) {
                int64_t sub = len - k0 < SUB ? len - k0 : SUB;
                int64_t n_live = first_window(st, ob, contrib + k0, inner_res + k0, span,
                                              first_tables, sub, w, live, tally, &valid);
                for (int64_t j = 0; j < n_live; j++) {
                    int64_t k = live[j];
                    uint64_t a = ob + contrib[k0 + k];
                    a -= m & -(uint64_t)(a >= m);
                    uint32_t x = w[k];
                    for (int64_t i = n_first; i < n_primes && x != ALL_HIT; i++) {
                        uint32_t t = st->tables[i][mod_barrett(a, (uint64_t)st->primes[i], mu[i])];
                        tally[i] += __builtin_popcount(t & ~x);
                        x |= t;
                    }
                    if (x == ALL_HIT)
                        continue;
                    uint32_t rem = ~x;
                    if (n_out + __builtin_popcount(rem) > capacity) {
                        free(contrib);
                        return -1;
                    }
                    for (; rem; rem &= rem - 1)
                        out[n_out++] = a + (uint64_t)__builtin_ctz(rem) * m;
                }
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
