/* The packed sieve stream of onegenus.sieve._Runner, compiled.

   onegenus_sieve_span sieves the words a = outer_base[o] + contrib(j) mod m
   for outer indices o in [lo, hi) and inner indices j in [inner_lo,
   inner_hi), and does exactly what _Runner._process_range_numpy does over
   the same words: the same survivors in the same order (inner block of
   `block` words, then outer residue, then inner word, then bit), the same
   per-prime tally and the same count of valid bits.  The tables that stay
   fixed for a run come in one struct onegenus_stream, built once per runner.

   contrib(j) is the sum of one CRT lift per P2 prime, its digits being j in
   mixed radix with the first prime fastest.  The lowest digits (the two
   lowest, or fewer where their tables would be too large) form a wheel:
   the `group` consecutive indices that share the higher digits have
   contrib = hi + wheel[d] mod m, hi the higher digits' lift and wheel[d]
   that of the lowest ones, d = j mod group.  Per block, an odometer steps
   hi once per group, adding the difference of two lifts mod m, and takes hi
   mod each first-window prime by a Barrett reduction; the block's words
   become segments, each a run of one group of at most SUB words.

   Per outer residue and segment, with x = (outer_base[o] + hi) mod m, each
   word is a = x + wheel[d], less m when that reaches m (its wrap).  So its
   residue mod a first-window prime q is y0 + wheel[d] mod q, or y1 +
   wheel[d] mod q for a wrapped word, with y0 = x mod q and y1 = (x - m) mod
   q taken from the split (outer mod q) + (hi mod q) + q - (m mod q) if the
   sum wrapped, with no division.  q's rows, row y holding table_q[(y +
   wheel[d]) mod q] for d < group, turn that into two contiguous rows per
   segment and prime.  Then:
   1. each word's a, its wrap flag and its hit word w = ~(valid mask),
      crediting popcount(valid mask) to the count of valid bits;
   2. per first-window prime q, t = the word's entry of row y0, or of row y1
      for a wrapped word: the prime's tally gains popcount(t & ~w), and
      w |= t, with no branch;
   3. the indices of the words that still have a live bit are compacted,
      and those words, their a and w, join a pending buffer of at most
      PENDING words, in order.  When the next segment's would not fit, and
      once at the end of the call, the later primes run over it: per prime,
      one branchless pass takes each a mod q by a Barrett reduction, credits
      popcount(u & ~w) to the prime's tally and sets w |= u, u the table
      word, then the words still live are compacted in place, and the passes
      stop once none are.  The survivors of the words left follow, in order.
      A fully hit word credits nothing, so the tally does not depend on when
      it is dropped, and the output is that of a walk word by word.
   Steps 1 and 2 and the compaction come in two versions that give the same
   w, tallies and live list, both fused so that a word's w stays in a
   register through the first window.  The plain C one goes word by word,
   the row chosen by a pointer select.  The AVX-512 one (F, BW, VL and
   VPOPCNTDQ) goes 16 words at a time: two masked row loads merged by the
   wrap mask, vpopcntd and compress.  It is compiled with a target
   attribute, so that the build needs no -march flag and one built file
   serves every CPU.  onegenus_stream_simd picks a version by
   __builtin_cpu_supports, once per process, and says which; compilers
   without those attributes, other targets, and a build with
   ONEGENUS_NO_SIMD defined (which the tests make, to run the plain version
   on any CPU) get the plain version only.

   Every a is below m < 2^62, and each survivor a + k*m is at most the limit,
   which the caller keeps below 2^64.  Returns the number of survivors written
   to out, -1 when they would not fit in capacity (then tally_out and
   counts_out are untouched), -2 when scratch memory cannot be allocated or
   -3 when the struct holds more than FIRST_MAX first-window primes.
   counts_out receives the number of valid bits and the number of words.  */
#include <stdint.h>
#include <stdlib.h>

#define ALL_HIT 0xFFFFFFFFu
#define SUB 1024 /* at most this many words per segment, a multiple of 16 */
#define PENDING 4096 /* at most this many live words wait for the later primes, >= SUB */
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
    int64_t group;          /* inner indices per group: the wheel digits' counts multiplied */
    const uint64_t *wheel;  /* per d < group: the wheel digits' lifts summed, mod m */
    /* the higher digits, the odometer's: their counts, lifts and, per
       (digit, value) in digit order, the step to the next value mod m */
    int64_t n_digits;
    const int64_t *digit_counts;
    const int64_t *const *digit_lifts;
    const uint64_t *step;
    int64_t n_first;           /* the first window: primes[0..n_first), n_first <= FIRST_MAX */
    const int64_t *first_q;
    const uint16_t *outer_res; /* n_first rows of n_outer */
    const uint16_t *wrap_fix;  /* q - (m mod q) */
    const uint32_t *const *rows; /* per first-window q: q rows of group words */
    int64_t n_primes;
    const int64_t *primes;
    const uint64_t *mu; /* floor((2^64 - 1) / q) per prime */
    const uint32_t *const *tables;
};

/* A run of len words of one group, from wheel index d, whose higher digits
   lift to hi; res[i] is hi mod the i-th first-window prime.  */
struct segment {
    uint64_t hi;
    int64_t d, len;
    uint16_t res[FIRST_MAX];
};

/* Steps 1 and 2 and the compaction over the len <= SUB words x + wheel[k]
   mod m; rows[i] is the i-th first-window prime's row y0 and rows[FIRST_MAX
   + i] its row y1, both from the segment's first word.  The rows past
   n_first are zeros, so that both versions loop over FIRST_MAX primes, a
   loop the compiler unrolls.  Writes the hit words to w, the indices of the
   live ones to live, adds to tally and valid, and returns the number of live
   words.  */
typedef int64_t first_window_fn(const struct onegenus_stream *st, uint64_t x,
                                const uint64_t *wheel, const uint32_t *const *rows,
                                int64_t len, uint32_t *w, int32_t *live, int64_t *tally,
                                int64_t *valid);

/* Without SIMD, word by word: its hit word stays in a register through the
   first window, which a separate pass per prime would load and store each
   time, and a wrapped word takes its rows by a pointer select.  */
static int64_t first_window_plain(const struct onegenus_stream *st, uint64_t x,
                                  const uint64_t *wheel, const uint32_t *const *rows,
                                  int64_t len, uint32_t *w, int32_t *live, int64_t *tally,
                                  int64_t *valid)
{
    const uint64_t m = st->m;
    const int64_t n_first = st->n_first;
    int64_t credit[FIRST_MAX] = {0}, v = 0, n = 0;
    for (int64_t k = 0; k < len; k++) {
        uint64_t a = x + wheel[k];
        uint64_t wrapped = a >= m;
        a -= m & -wrapped;
        uint32_t vm = st->valid_masks[((a < st->lo_r) << 3) | ((a > st->hi_r) << 2) | (a & 3)];
        v += __builtin_popcount(vm);
        uint32_t h = ~vm;
        if (h != ALL_HIT) {
            const uint32_t *const *r = rows + (FIRST_MAX & -(int64_t)wrapped);
            for (int i = 0; i < FIRST_MAX; i++) {
                uint32_t t = r[i][k];
                credit[i] += __builtin_popcount(t & ~h);
                h |= t;
            }
        }
        w[k] = h;
        live[n] = (int32_t)k;
        n += h != ALL_HIT;
    }
    *valid += v;
    for (int64_t i = 0; i < n_first; i++)
        tally[i] += credit[i];
    return n;
}

#if ONEGENUS_AVX512
#define AVX512 __attribute__((target("avx512f,avx512bw,avx512vl,avx512vpopcntdq")))

/* Steps 1 and 2 and the compaction fused, 16 words at a time: the hit
   words stay in a register through the first window, with one credit
   vector per prime.  The lanes past len get w = ALL_HIT and load no row
   word, so they credit nothing and are never live.  live holds SUB + 16.  */
AVX512 static int64_t first_window_avx512(const struct onegenus_stream *st, uint64_t x,
                                          const uint64_t *wheel, const uint32_t *const *rows,
                                          int64_t len, uint32_t *w, int32_t *live,
                                          int64_t *tally, int64_t *valid)
{
    const __m512i m = _mm512_set1_epi64((int64_t)st->m), base = _mm512_set1_epi64((int64_t)x);
    const __m512i lo_r = _mm512_set1_epi64((int64_t)st->lo_r);
    const __m512i hi_r = _mm512_set1_epi64((int64_t)st->hi_r);
    const __m512i masks = _mm512_loadu_si512(st->valid_masks);
    const __m512i all = _mm512_set1_epi32(-1);
    const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    __m512i v = _mm512_setzero_si512(), credit[FIRST_MAX];
    for (int i = 0; i < FIRST_MAX; i++)
        credit[i] = _mm512_setzero_si512();
    int64_t n = 0;
    for (int64_t k = 0; k < len; k += 16) {
        __mmask16 in = len - k >= 16 ? 0xFFFF : (__mmask16)((1u << (len - k)) - 1);
        __m512i a0 = _mm512_add_epi64(base, _mm512_maskz_loadu_epi64((__mmask8)in, wheel + k));
        __m512i a1 = _mm512_add_epi64(base, _mm512_maskz_loadu_epi64((__mmask8)(in >> 8),
                                                                    wheel + k + 8));
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
        __m512i vm = _mm512_maskz_permutexvar_epi32(in, r, masks);
        v = _mm512_add_epi32(v, _mm512_popcnt_epi32(vm));
        __m512i h = _mm512_xor_si512(vm, all);
        __mmask16 wrap = (__mmask16)(w0 | (w1 << 8)) & in, unwrapped = in & ~wrap;
        for (int i = 0; i < FIRST_MAX; i++) {
            __m512i t = _mm512_mask_loadu_epi32(_mm512_maskz_loadu_epi32(unwrapped, rows[i] + k),
                                                wrap, rows[FIRST_MAX + i] + k);
            credit[i] = _mm512_add_epi32(credit[i], _mm512_popcnt_epi32(_mm512_andnot_si512(h, t)));
            h = _mm512_or_si512(h, t);
        }
        _mm512_storeu_si512(w + k, h);
        __mmask16 alive = _mm512_cmpneq_epu32_mask(h, all);
        __m512i index = _mm512_add_epi32(iota, _mm512_set1_epi32((int32_t)k));
        _mm512_storeu_si512(live + n, _mm512_maskz_compress_epi32(alive, index));
        n += __builtin_popcount(alive);
    }
    *valid += _mm512_reduce_add_epi32(v);
    for (int64_t i = 0; i < st->n_first; i++)
        tally[i] += _mm512_reduce_add_epi32(credit[i]);
    return n;
}
#endif

/* 1 when the AVX-512 first window runs on this CPU, else 0; decided on the first call */
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

/* Step 3 over the n pending words, a[j] and hit word h[j] in walk order:
   one branchless pass per later prime, after which the words that still
   have a live bit are compacted in place, until none are left; a fully hit
   word credits nothing, so when it is dropped does not change the tally.
   Then the survivors a + k*m, k a clear bit of h, follow out[0..n_out).
   Returns the new n_out, or -1 when they would not fit in capacity.  */
static int64_t later_primes(const struct onegenus_stream *st, uint64_t *a, uint32_t *h,
                            int64_t n, int64_t *tally, uint64_t *out, int64_t n_out,
                            int64_t capacity)
{
    for (int64_t i = st->n_first; i < st->n_primes && n; i++) {
        const uint64_t q = (uint64_t)st->primes[i], mu = st->mu[i];
        const uint32_t *table = st->tables[i];
        int64_t credit = 0, kept = 0;
        for (int64_t j = 0; j < n; j++) {
            uint64_t aj = a[j];
            uint32_t hj = h[j], u = table[mod_barrett(aj, q, mu)];
            credit += __builtin_popcount(u & ~hj);
            hj |= u;
            a[kept] = aj;
            h[kept] = hj;
            kept += hj != ALL_HIT;
        }
        tally[i] += credit;
        n = kept;
    }
    const uint64_t m = st->m;
    for (int64_t j = 0; j < n; j++) {
        uint32_t rem = ~h[j];
        if (n_out + __builtin_popcount(rem) > capacity)
            return -1;
        for (; rem; rem &= rem - 1)
            out[n_out++] = a[j] + (uint64_t)__builtin_ctz(rem) * m;
    }
    return n_out;
}

/* The segments of the len words from inner index s, into seg; returns their
   number.  digit holds the higher digits.  */
static int64_t block_segments(const struct onegenus_stream *st, int64_t s, int64_t len,
                              int64_t *digit, struct segment *seg)
{
    const uint64_t m = st->m;
    const int64_t group = st->group, n_digits = st->n_digits;
    /* the higher digits of s by divmod, then an odometer over them */
    uint64_t hi = 0;
    int64_t rest = s / group, d = s % group, n = 0;
    for (int64_t j = 0; j < n_digits; j++) {
        digit[j] = rest % st->digit_counts[j];
        rest /= st->digit_counts[j];
        hi += (uint64_t)st->digit_lifts[j][digit[j]];
        if (hi >= m)
            hi -= m;
    }
    for (int64_t k = 0; k < len; n++) {
        int64_t run = group - d < len - k ? group - d : len - k;
        seg[n].hi = hi;
        seg[n].d = d;
        seg[n].len = run < SUB ? run : SUB;
        for (int64_t i = 0; i < st->n_first; i++)
            seg[n].res[i] = (uint16_t)mod_barrett(hi, (uint64_t)st->first_q[i], st->mu[i]);
        k += seg[n].len;
        d += seg[n].len;
        if (d < group)
            continue;
        d = 0;
        for (int64_t j = 0, base = 0; j < n_digits; base += st->digit_counts[j++]) {
            hi += st->step[base + digit[j]];
            if (hi >= m)
                hi -= m;
            if (++digit[j] < st->digit_counts[j])
                break;
            digit[j] = 0;
        }
    }
    return n;
}

int64_t onegenus_sieve_span(const struct onegenus_stream *st, int64_t lo, int64_t hi,
                            int64_t inner_lo, int64_t inner_hi, int64_t block,
                            uint64_t *out, int64_t capacity, int64_t *tally_out,
                            int64_t *counts_out)
{
    const uint64_t m = st->m;
    const int64_t n_first = st->n_first, n_primes = st->n_primes, group = st->group;
    if (n_first > FIRST_MAX)
        return -3;
    first_window_fn *first_window = first_window_plain;
#if ONEGENUS_AVX512
    if (onegenus_stream_simd())
        first_window = first_window_avx512;
#endif
    int64_t span = inner_hi - inner_lo < block ? inner_hi - inner_lo : block;
    /* a block of span words touches at most span / group + 2 groups, each
       cut into runs of at most SUB words */
    int64_t max_segments = (span / group + 2) * ((group + SUB - 1) / SUB);

    /* one allocation for: the pending words' a, the tally, the odometer's
       digits, the block's segments and the pending words' hit words */
    size_t bytes = sizeof(uint64_t) * PENDING + sizeof(int64_t) * (size_t)(n_primes + st->n_digits)
                 + sizeof(struct segment) * (size_t)max_segments + sizeof(uint32_t) * PENDING;
    uint64_t *pend_a = malloc(bytes);
    if (!pend_a)
        return -2;
    int64_t *tally = (int64_t *)(pend_a + PENDING);
    int64_t *digit = tally + n_primes;
    struct segment *seg = (struct segment *)(digit + st->n_digits);
    uint32_t *pend_h = (uint32_t *)(seg + max_segments);
    static const uint32_t zero_row[SUB];
    const uint32_t *seg_rows[2 * FIRST_MAX]; /* y0 then y1 rows, FIRST_MAX of each */
    for (int i = 0; i < 2 * FIRST_MAX; i++)
        seg_rows[i] = zero_row;
    uint32_t w[SUB];
    int32_t live[SUB + 16];

    for (int64_t i = 0; i < n_primes; i++)
        tally[i] = 0;

    int64_t n_out = 0, valid = 0, words = 0, n_pend = 0;
    for (int64_t s = inner_lo; s < inner_hi; s += block) {
        int64_t len = inner_hi - s < block ? inner_hi - s : block;
        int64_t n_seg = block_segments(st, s, len, digit, seg);

        for (int64_t o = lo; o < hi; o++) {
            uint64_t ob = (uint64_t)st->outer_base[o];
            for (int64_t t = 0; t < n_seg; t++) {
                uint64_t x = ob + seg[t].hi;
                uint64_t wrapped = x >= m;
                x -= m & -wrapped;
                for (int64_t i = 0; i < n_first; i++) {
                    /* y0 = x mod q below 3q, then y1 = (x - m) mod q */
                    uint32_t q = (uint32_t)st->first_q[i], fix = st->wrap_fix[i];
                    uint32_t y0 = (uint32_t)st->outer_res[i * st->n_outer + o] + seg[t].res[i]
                                + (fix & -(uint32_t)wrapped);
                    y0 -= y0 >= q ? q : 0;
                    y0 -= y0 >= q ? q : 0;
                    uint32_t y1 = y0 + fix;
                    y1 -= y1 >= q ? q : 0;
                    seg_rows[i] = st->rows[i] + (size_t)y0 * (size_t)group + seg[t].d;
                    seg_rows[FIRST_MAX + i] = st->rows[i] + (size_t)y1 * (size_t)group + seg[t].d;
                }
                const uint64_t *wheel = st->wheel + seg[t].d;
                int64_t n_live = first_window(st, x, wheel, seg_rows, seg[t].len, w, live,
                                              tally, &valid);
                if (n_pend + n_live > PENDING) {
                    n_out = later_primes(st, pend_a, pend_h, n_pend, tally, out, n_out, capacity);
                    n_pend = 0;
                    if (n_out < 0)
                        goto done;
                }
                for (int64_t j = 0; j < n_live; j++) {
                    uint64_t a = x + wheel[live[j]];
                    pend_a[n_pend] = a - (m & -(uint64_t)(a >= m));
                    pend_h[n_pend++] = w[live[j]];
                }
            }
        }
        words += len * (hi - lo);
    }
    n_out = later_primes(st, pend_a, pend_h, n_pend, tally, out, n_out, capacity);
    if (n_out < 0)
        goto done;

    for (int64_t i = 0; i < n_primes; i++)
        tally_out[i] = tally[i];
    counts_out[0] = valid;
    counts_out[1] = words;
done:
    free(pend_a);
    return n_out;
}
