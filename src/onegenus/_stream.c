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
   3. the words that still have a live bit, their a and w, join a pending
      buffer of at most PENDING words, in order; when a segment's would not
      fit, and once at the end of the call, the later primes run over it:
      per prime, one branchless pass takes each a mod q, credits
      popcount(u & ~w) to the prime's tally and sets w |= u, u the table
      word, then the words still live are compacted in place, and the passes
      stop once none are.  The survivors of the words left follow, in order.
      A fully hit word credits nothing, so the tally does not depend on when
      it is dropped, and the output is that of a walk word by word.
   Each of the three steps comes in two versions that give the same tallies
   and pending words.  The plain C one goes word by word: per segment, y0,
   y1 and the row pointers in a loop over the primes; steps 1 and 2 fused,
   so that a word's w stays in a register through the first window, the row
   chosen by a pointer select, crediting int64 tallies; the live words'
   indices compacted, then copied to the pending buffer; a mod q by a
   Barrett reduction.  The AVX-512 one (F, BW, VL and VPOPCNTDQ):
   - per segment, y0 and y1 of the FIRST_MAX primes in one u16 vector, from
     the outer and segment residues and the masked wrap fix, reduced by
     min(y, y - q), and the row pointers row base + (y*group + d)*4 in two
     vectors of 64-bit lanes;
   - steps 1 and 2 fused, 16 words at a time: two masked row loads merged by
     the wrap mask and vpopcntd, the credits and valid bits kept in per-lane
     uint32 vectors across the segments of one outer residue and block and
     folded into the tally once per outer residue and block; the live words'
     a and w compressed straight into the pending buffer;
   - per later prime below VEC_Q_MAX, 8 words at a time: r = a mod q from
     x = (a >> 32)*(2^32 mod q) + (a mod 2^32), which is below 2^47 and so
     exact in a double, and floor(x*(1/q)) in doubles with one correction;
     a gather of the table words, vpopcntd, and a compress of a and w in
     place; fewer than 8 words left, and primes at or above VEC_Q_MAX, take
     the Barrett pass.
   The per-lane counters stay below 2^31: a lane takes at most one word per
   step of 16, so at most `block` words per outer residue and block, each
   adding at most 32, and the lanes together add at most 32 per word; so
   `block` is at most BLOCK_MAX.  The AVX-512 version is compiled with a
   target attribute, so that the build needs no -march flag and one built
   file serves every CPU.  onegenus_stream_simd picks a version by
   __builtin_cpu_supports, once per process, and says which; compilers
   without those attributes, other targets, and a build with
   ONEGENUS_NO_SIMD defined (which the tests make, to run the plain version
   on any CPU) get the plain version only.

   Every a is below m < 2^62, and each survivor a + k*m is at most the limit,
   which the caller keeps below 2^64.  Returns the number of survivors written
   to out, -1 when they would not fit in capacity (then tally_out and
   counts_out are untouched), -2 when scratch memory cannot be allocated, -3
   when the struct holds more than FIRST_MAX first-window primes or -4 when
   block is not in [1, BLOCK_MAX].  counts_out receives the number of valid
   bits and the number of words.  */
#include <stdint.h>
#include <stdlib.h>

#define ALL_HIT 0xFFFFFFFFu
#define SUB 1024 /* at most this many words per segment, a multiple of 16 */
#define PENDING 4096 /* at most this many live words wait for the later primes, >= SUB */
#define FIRST_MAX 8 /* at most this many first-window primes: sieve._FIRST_MAX */
#define BLOCK_MAX 67108864 /* 2^26: at most this many words per block, so 32*block < 2^32 */
/* 2^16: the vector pass takes the later primes below it.  Its doubles are
   exact for q below 2^21; the lower bound leaves a wide margin, and a test's
   config can hold a prime above it, whose table the runner builds.  */
#define VEC_Q_MAX 65536

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
   lift to hi; res[i] is hi mod the i-th first-window prime, 0 past n_first.  */
struct segment {
    uint64_t hi;
    int64_t d, len;
    uint16_t res[FIRST_MAX];
};

/* The words waiting for the later primes: a[j] and hit word h[j] in walk
   order, n of them; each array holds PENDING + 16, so that a full vector
   store at any n <= PENDING stays inside.  */
struct pending {
    uint64_t *a;
    uint32_t *h;
    int64_t n;
};

static const uint32_t zero_row[SUB]; /* the rows of the first-window primes past n_first */

static inline uint64_t mod_barrett(uint64_t a, uint64_t q, uint64_t mu)
{
    /* mu = floor(2^64 / q): the estimate falls short by at most one q */
    uint64_t r = a - (uint64_t)(((unsigned __int128)a * mu) >> 64) * q;
    return r >= q ? r - q : r;
}

/* One later prime's Barrett pass over the pending words from j to n,
   compacting those still live to kept on; adds to *credit and returns the
   new kept.  */
static int64_t later_pass(uint64_t *a, uint32_t *h, int64_t j, int64_t n, int64_t kept,
                          uint64_t q, uint64_t mu, const uint32_t *table, int64_t *credit)
{
    int64_t c = 0;
    for (; j < n; j++) {
        uint64_t aj = a[j];
        uint32_t hj = h[j], u = table[mod_barrett(aj, q, mu)];
        c += __builtin_popcount(u & ~hj);
        hj |= u;
        a[kept] = aj;
        h[kept] = hj;
        kept += hj != ALL_HIT;
    }
    *credit += c;
    return kept;
}

/* After the later primes: the survivors a + k*m, k a clear bit of h, of the
   n words left follow out[0..n_out).  Returns the new n_out, or -1 when
   they would not fit in capacity.  */
static int64_t emit_survivors(uint64_t m, const uint64_t *a, const uint32_t *h, int64_t n,
                              uint64_t *out, int64_t n_out, int64_t capacity)
{
    for (int64_t j = 0; j < n; j++) {
        uint32_t rem = ~h[j];
        if (n_out + __builtin_popcount(rem) > capacity)
            return -1;
        for (; rem; rem &= rem - 1)
            out[n_out++] = a[j] + (uint64_t)__builtin_ctz(rem) * m;
    }
    return n_out;
}

/* Step 3 over the pending words: the later primes, then their survivors
   after out[0..n_out); empties p.  Returns the new n_out, or -1 when the
   survivors would not fit in capacity.  */
typedef int64_t later_fn(const struct onegenus_stream *st, struct pending *p, int64_t *tally,
                         uint64_t *out, int64_t n_out, int64_t capacity);

/* Steps 1 to 3 over the n_seg segments of one block for outer index o,
   adding to tally and valid.  Returns the new n_out, or -1 when survivors
   would not fit in capacity.  */
typedef int64_t outer_fn(const struct onegenus_stream *st, int64_t o, const struct segment *seg,
                         int64_t n_seg, struct pending *p, int64_t *tally, int64_t *valid,
                         uint64_t *out, int64_t n_out, int64_t capacity);

static int64_t later_plain(const struct onegenus_stream *st, struct pending *p, int64_t *tally,
                           uint64_t *out, int64_t n_out, int64_t capacity)
{
    int64_t n = p->n;
    p->n = 0;
    for (int64_t i = st->n_first; i < st->n_primes && n; i++)
        n = later_pass(p->a, p->h, 0, n, 0, (uint64_t)st->primes[i], st->mu[i], st->tables[i],
                       &tally[i]);
    return emit_survivors(st->m, p->a, p->h, n, out, n_out, capacity);
}

/* Steps 1 and 2 and the compaction over the len <= SUB words x + wheel[k]
   mod m, word by word: its hit word stays in a register through the first
   window, which a separate pass per prime would load and store each time,
   and a wrapped word takes its rows by a pointer select.  rows[i] is the
   i-th first-window prime's row y0 and rows[FIRST_MAX + i] its row y1, both
   from the segment's first word; the rows past n_first are zeros, so that
   the loop over FIRST_MAX primes unrolls.  Writes the hit words to w, the
   indices of the live ones to live, adds to tally and valid, and returns
   the number of live words.  */
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

static int64_t outer_plain(const struct onegenus_stream *st, int64_t o, const struct segment *seg,
                           int64_t n_seg, struct pending *p, int64_t *tally, int64_t *valid,
                           uint64_t *out, int64_t n_out, int64_t capacity)
{
    const uint64_t m = st->m, ob = (uint64_t)st->outer_base[o];
    const int64_t n_first = st->n_first, group = st->group;
    const uint32_t *rows[2 * FIRST_MAX]; /* y0 then y1 rows, FIRST_MAX of each */
    for (int i = 0; i < 2 * FIRST_MAX; i++)
        rows[i] = zero_row;
    uint32_t w[SUB];
    int32_t live[SUB];
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
            rows[i] = st->rows[i] + (size_t)y0 * (size_t)group + seg[t].d;
            rows[FIRST_MAX + i] = st->rows[i] + (size_t)y1 * (size_t)group + seg[t].d;
        }
        const uint64_t *wheel = st->wheel + seg[t].d;
        int64_t n_live = first_window_plain(st, x, wheel, rows, seg[t].len, w, live, tally, valid);
        if (p->n + n_live > PENDING) {
            n_out = later_plain(st, p, tally, out, n_out, capacity);
            if (n_out < 0)
                return n_out;
        }
        for (int64_t j = 0; j < n_live; j++) {
            uint64_t a = x + wheel[live[j]];
            p->a[p->n] = a - (m & -(uint64_t)(a >= m));
            p->h[p->n++] = w[live[j]];
        }
    }
    return n_out;
}

#if ONEGENUS_AVX512
#define AVX512 __attribute__((target("avx512f,avx512bw,avx512vl,avx512vpopcntdq")))

AVX512 static int64_t later_avx512(const struct onegenus_stream *st, struct pending *p,
                                   int64_t *tally, uint64_t *out, int64_t n_out, int64_t capacity)
{
    uint64_t *a = p->a;
    uint32_t *h = p->h;
    int64_t n = p->n;
    p->n = 0;
    const __m512i low = _mm512_set1_epi64(0xFFFFFFFF);
    /* 2^52 as a double, and its bits: or-ed into an integer below 2^52 they
       give the double 2^52 + x, so that x converts by one subtraction */
    const __m512i magic = _mm512_castpd_si512(_mm512_set1_pd(0x1p52));
    const __m512d two52 = _mm512_set1_pd(0x1p52);
    const __m256i all = _mm256_set1_epi32(-1);
    for (int64_t i = st->n_first; i < st->n_primes && n; i++) {
        const uint64_t q = (uint64_t)st->primes[i];
        const uint32_t *table = st->tables[i];
        int64_t j = 0, kept = 0;
        if (q < VEC_Q_MAX) {
            /* a < 2^62 and q < 2^16, so x = (a >> 32)*(2^32 mod q) + (a mod 2^32),
               congruent to a mod q, is below 2^47 and exact in a double.
               x*(1/q) in doubles is off x/q by under 2^-51*x/q < 2^-4/q, so
               its floor f is floor(x/q), or one less where q divides x: the
               remainder r = x - f*q, exact by the fused multiply-add, is in
               [0, 2q) and one subtraction of q finishes it.  */
            const __m512i wrap = _mm512_set1_epi64((int64_t)((1ull << 32) % q));
            const __m512d qd = _mm512_set1_pd((double)q), inv = _mm512_set1_pd(1.0 / (double)q);
            __m256i credit = _mm256_setzero_si256();
            for (; j + 8 <= n; j += 8) {
                __m512i av = _mm512_loadu_si512(a + j);
                __m512i x = _mm512_add_epi64(_mm512_mul_epu32(_mm512_srli_epi64(av, 32), wrap),
                                             _mm512_and_si512(av, low));
                __m512d xd = _mm512_sub_pd(_mm512_castsi512_pd(_mm512_or_si512(x, magic)), two52);
                __m512d f = _mm512_roundscale_pd(_mm512_mul_pd(xd, inv),
                                                 _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
                __m512d r = _mm512_fnmadd_pd(f, qd, xd);
                r = _mm512_mask_sub_pd(r, _mm512_cmp_pd_mask(r, qd, _CMP_GE_OQ), r, qd);
                __m512i index = _mm512_xor_si512(_mm512_castpd_si512(_mm512_add_pd(r, two52)),
                                                 magic);
                __m256i u = _mm512_i64gather_epi32(index, table, 4);
                __m256i hv = _mm256_loadu_si256((const __m256i *)(h + j));
                credit = _mm256_add_epi32(credit, _mm256_popcnt_epi32(_mm256_andnot_si256(hv, u)));
                hv = _mm256_or_si256(hv, u);
                __mmask8 alive = _mm256_cmpneq_epu32_mask(hv, all);
                /* kept <= j: the stores reach no word not yet loaded */
                _mm512_storeu_si512(a + kept, _mm512_maskz_compress_epi64(alive, av));
                _mm256_storeu_si256((__m256i *)(h + kept), _mm256_maskz_compress_epi32(alive, hv));
                kept += __builtin_popcount(alive);
            }
            /* at most 32 per word of a pending buffer: no lane sum wraps */
            tally[i] += (uint32_t)_mm512_mask_reduce_add_epi32(0xFF, _mm512_castsi256_si512(credit));
        }
        n = later_pass(a, h, j, n, kept, q, st->mu[i], table, &tally[i]);
    }
    return emit_survivors(st->m, a, h, n, out, n_out, capacity);
}

/* Steps 1 to 3 over the segments, 16 words at a time.  The lanes past a
   segment's len get w = ALL_HIT and load no row word, so they credit
   nothing and are never live.  */
AVX512 static int64_t outer_avx512(const struct onegenus_stream *st, int64_t o,
                                   const struct segment *seg, int64_t n_seg, struct pending *p,
                                   int64_t *tally, int64_t *valid, uint64_t *out, int64_t n_out,
                                   int64_t capacity)
{
    const uint64_t m = st->m, ob = (uint64_t)st->outer_base[o];
    const __m512i mv = _mm512_set1_epi64((int64_t)m);
    const __m512i lo_r = _mm512_set1_epi64((int64_t)st->lo_r);
    const __m512i hi_r = _mm512_set1_epi64((int64_t)st->hi_r);
    const __m512i masks = _mm512_loadu_si512(st->valid_masks);
    const __m512i all = _mm512_set1_epi32(-1);

    /* the first window's primes, wrap fixes, residues of outer_base[o] and
       row bases in lanes, zero past n_first */
    const __mmask8 first = (__mmask8)((1u << st->n_first) - 1);
    uint16_t outer[FIRST_MAX] = {0};
    for (int64_t i = 0; i < st->n_first; i++)
        outer[i] = st->outer_res[i * st->n_outer + o];
    const __m128i q = _mm512_cvtepi64_epi16(_mm512_maskz_loadu_epi64(first, st->first_q));
    const __m128i fix = _mm_maskz_loadu_epi16(first, st->wrap_fix);
    const __m128i outer_res = _mm_loadu_si128((const __m128i *)outer);
    const __m512i row_base = _mm512_maskz_loadu_epi64(first, st->rows);
    const __m512i zero = _mm512_set1_epi64((int64_t)(uintptr_t)zero_row);
    const __m512i group = _mm512_set1_epi64(st->group);

    __m512i v = _mm512_setzero_si512(), credit[FIRST_MAX];
    for (int i = 0; i < FIRST_MAX; i++)
        credit[i] = _mm512_setzero_si512();
    const uint32_t *rows[2 * FIRST_MAX]; /* y0 then y1 rows, FIRST_MAX of each */
    for (int64_t t = 0; t < n_seg; t++) {
        const int64_t len = seg[t].len;
        if (p->n + len > PENDING) {
            n_out = later_avx512(st, p, tally, out, n_out, capacity);
            if (n_out < 0)
                return n_out;
        }
        uint64_t x = ob + seg[t].hi;
        __mmask8 wrapped = x >= m ? 0xFF : 0;
        x -= m & -(uint64_t)(wrapped & 1);

        /* y0 = x mod q below 3q, then y1 = (x - m) mod q, and their rows */
        __m128i y0 = _mm_add_epi16(outer_res, _mm_loadu_si128((const __m128i *)seg[t].res));
        y0 = _mm_mask_add_epi16(y0, wrapped, y0, fix);
        y0 = _mm_min_epu16(y0, _mm_sub_epi16(y0, q));
        y0 = _mm_min_epu16(y0, _mm_sub_epi16(y0, q));
        __m128i y1 = _mm_add_epi16(y0, fix);
        y1 = _mm_min_epu16(y1, _mm_sub_epi16(y1, q));
        const __m512i d = _mm512_set1_epi64(seg[t].d);
        __m512i r0 = _mm512_add_epi64(_mm512_mul_epu32(_mm512_cvtepu16_epi64(y0), group), d);
        __m512i r1 = _mm512_add_epi64(_mm512_mul_epu32(_mm512_cvtepu16_epi64(y1), group), d);
        r0 = _mm512_mask_add_epi64(zero, first, row_base, _mm512_slli_epi64(r0, 2));
        r1 = _mm512_mask_add_epi64(zero, first, row_base, _mm512_slli_epi64(r1, 2));
        _mm512_storeu_si512(rows, r0);
        _mm512_storeu_si512(rows + FIRST_MAX, r1);

        const uint64_t *wheel = st->wheel + seg[t].d;
        const __m512i base = _mm512_set1_epi64((int64_t)x);
        uint64_t *pend_a = p->a + p->n;
        uint32_t *pend_h = p->h + p->n;
        int64_t n = 0;
        for (int64_t k = 0; k < len; k += 16) {
            __mmask16 in = len - k >= 16 ? 0xFFFF : (__mmask16)((1u << (len - k)) - 1);
            __m512i a0 = _mm512_add_epi64(base, _mm512_maskz_loadu_epi64((__mmask8)in, wheel + k));
            __m512i a1 = _mm512_add_epi64(base, _mm512_maskz_loadu_epi64((__mmask8)(in >> 8),
                                                                        wheel + k + 8));
            __mmask8 w0 = _mm512_cmpge_epu64_mask(a0, mv), w1 = _mm512_cmpge_epu64_mask(a1, mv);
            a0 = _mm512_mask_sub_epi64(a0, w0, a0, mv);
            a1 = _mm512_mask_sub_epi64(a1, w1, a1, mv);
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
            __mmask16 alive = _mm512_cmpneq_epu32_mask(h, all);
            _mm512_storeu_si512(pend_h + n, _mm512_maskz_compress_epi32(alive, h));
            _mm512_storeu_si512(pend_a + n, _mm512_maskz_compress_epi64((__mmask8)alive, a0));
            n += __builtin_popcount(alive & 0xFF);
            _mm512_storeu_si512(pend_a + n, _mm512_maskz_compress_epi64((__mmask8)(alive >> 8), a1));
            n += __builtin_popcount(alive >> 8);
        }
        p->n += n;
    }
    /* each sum is at most 32 per word of the block: below 2^32 */
    *valid += (uint32_t)_mm512_reduce_add_epi32(v);
    for (int64_t i = 0; i < st->n_first; i++)
        tally[i] += (uint32_t)_mm512_reduce_add_epi32(credit[i]);
    return n_out;
}
#endif

/* 1 when the AVX-512 version runs on this CPU, else 0; decided on the first call */
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
        for (int64_t i = 0; i < FIRST_MAX; i++)
            seg[n].res[i] = i < st->n_first
                ? (uint16_t)mod_barrett(hi, (uint64_t)st->first_q[i], st->mu[i]) : 0;
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
    const int64_t n_primes = st->n_primes, group = st->group;
    if (st->n_first > FIRST_MAX)
        return -3;
    if (block < 1 || block > BLOCK_MAX)
        return -4;
    outer_fn *outer = outer_plain;
    later_fn *later = later_plain;
#if ONEGENUS_AVX512
    if (onegenus_stream_simd()) {
        outer = outer_avx512;
        later = later_avx512;
    }
#endif
    int64_t span = inner_hi - inner_lo < block ? inner_hi - inner_lo : block;
    /* a block of span words touches at most span / group + 2 groups, each
       cut into runs of at most SUB words */
    int64_t max_segments = (span / group + 2) * ((group + SUB - 1) / SUB);

    /* one allocation for: the pending words' a, the tally, the odometer's
       digits, the block's segments and the pending words' hit words */
    size_t bytes = sizeof(uint64_t) * (PENDING + 16)
                 + sizeof(int64_t) * (size_t)(n_primes + st->n_digits)
                 + sizeof(struct segment) * (size_t)max_segments
                 + sizeof(uint32_t) * (PENDING + 16);
    uint64_t *pend_a = malloc(bytes);
    if (!pend_a)
        return -2;
    int64_t *tally = (int64_t *)(pend_a + PENDING + 16);
    int64_t *digit = tally + n_primes;
    struct segment *seg = (struct segment *)(digit + st->n_digits);
    struct pending pend = {pend_a, (uint32_t *)(seg + max_segments), 0};

    for (int64_t i = 0; i < n_primes; i++)
        tally[i] = 0;

    int64_t n_out = 0, valid = 0, words = 0;
    for (int64_t s = inner_lo; s < inner_hi; s += block) {
        int64_t len = inner_hi - s < block ? inner_hi - s : block;
        int64_t n_seg = block_segments(st, s, len, digit, seg);
        for (int64_t o = lo; o < hi; o++) {
            n_out = outer(st, o, seg, n_seg, &pend, tally, &valid, out, n_out, capacity);
            if (n_out < 0)
                goto done;
        }
        words += len * (hi - lo);
    }
    n_out = later(st, &pend, tally, out, n_out, capacity);
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
