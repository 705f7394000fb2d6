/* GF(2^8) matrix times shard stack: the row loops behind gf256.gf_matmul.
 *
 * out[r] = XOR over j of coefficients[r][j] * shards[j], for every r < rows
 * and j < k, over GF(256) with the 0x11D polynomial.  `table` is
 * gf256._MUL_TABLE (256 x 256, row c is the map x -> c*x); `out` arrives
 * zeroed.  Every array is C-contiguous uint8; the Python side checks shapes
 * before calling.
 *
 * There is one loop per instruction set, chosen by the `isa` argument:
 *
 *   GF_AVX2 (2), GF_SSSE3 (1): the row-blocked split-nibble dot product.
 *     For four output rows at a time, each 32-byte (AVX2) or 16-byte (SSSE3)
 *     block of each input shard is loaded and split into nibbles once;
 *     c*x = c*(x & 0x0F) ^ c*(x & 0xF0) is one byte-shuffle lookup per half
 *     in a 16-entry table; the four products accumulate in registers, and
 *     each output block is stored once.  Columns past the last whole block
 *     go through the scalar loop.
 *   GF_SCALAR (0): one table lookup per byte, row by row.
 *
 * gf_kernel_isa() names the best loop this CPU runs (__builtin_cpu_supports);
 * the caller passes that or a lower value.  No -march flag is needed: only
 * the SIMD functions are compiled for their instruction sets.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) || defined(__i386__)
#define GF_X86 1
#include <immintrin.h>
#endif

enum { GF_SCALAR = 0, GF_SSSE3 = 1, GF_AVX2 = 2 };

/* Output rows per pass of the SIMD loops. */
#define GF_BLOCK_ROWS 4

/* Inputs the SIMD loops hold tables for: as many as a GF(256) code has. */
#define GF_MAX_K 255

/* Columns [start, length) of every output row, one lookup per byte. */
static void matmul_scalar(const uint8_t *table, const uint8_t *coefficients,
                          size_t rows, size_t k, const uint8_t *shards,
                          size_t start, size_t length, uint8_t *out)
{
    for (size_t r = 0; r < rows; r++) {
        uint8_t *dst = out + r * length;
        for (size_t j = 0; j < k; j++) {
            uint8_t c = coefficients[r * k + j];
            if (!c)
                continue;
            const uint8_t *row = table + 256 * (size_t)c;
            const uint8_t *in = shards + j * length;
            for (size_t i = start; i < length; i++)
                dst[i] ^= row[in[i]];
        }
    }
}

#ifdef GF_X86
/* One input's low- and high-nibble product tables for the rows of a pass. */
typedef uint8_t nibble_tables[GF_BLOCK_ROWS][2][16];

/* The tables of the pass starting at row r0: one entry for each input shard
 * that some row of the pass multiplies by a nonzero coefficient (all zero
 * for a row past the last), its index in `inputs`.  Returns the count.
 * Inlined, so each loop builds its tables in its own instruction set. */
static inline __attribute__((always_inline)) size_t
pass_tables(const uint8_t *table, const uint8_t *coefficients, size_t rows,
            size_t k, size_t r0, nibble_tables *tables, size_t *inputs)
{
    size_t count = 0;
    for (size_t j = 0; j < k; j++) {
        int any = 0;
        for (size_t b = 0; b < GF_BLOCK_ROWS; b++)
            any |= r0 + b < rows && coefficients[(r0 + b) * k + j];
        if (!any)
            continue;
        for (size_t b = 0; b < GF_BLOCK_ROWS; b++) {
            uint8_t c = r0 + b < rows ? coefficients[(r0 + b) * k + j] : 0;
            /* c*(h << 4) = (c*0x10)*h: both halves are row prefixes. */
            const uint8_t *row = table + 256 * (size_t)c;
            memcpy(tables[count][b][0], row, 16);
            memcpy(tables[count][b][1], table + 256 * (size_t)row[0x10], 16);
        }
        inputs[count++] = j;
    }
    return count;
}

/* The row-blocked loop, built once per instruction set: V is the vector
 * type, W its width in bytes, TABLE loads a 16-byte nibble table into every
 * 128-bit lane, and the rest are that set's intrinsics.  It defines `body`,
 * the columns it covers; the caller finishes the rest with the scalar loop. */
#define GF_BLOCKED_LOOP(V, W, SET1, ZERO, LOADU, STOREU, TABLE, AND, SRLI,     \
                        SHUFFLE, XOR)                                          \
    nibble_tables tables[GF_MAX_K];                                            \
    size_t inputs[GF_MAX_K];                                                   \
    const V nibble = SET1(0x0F);                                               \
    const size_t body = length - length % W;                                   \
    for (size_t r0 = 0; r0 < rows; r0 += GF_BLOCK_ROWS) {                      \
        size_t count =                                                         \
            pass_tables(table, coefficients, rows, k, r0, tables, inputs);     \
        size_t block_rows = rows - r0;                                         \
        for (size_t i = 0; i < body; i += W) {                                 \
            V acc[GF_BLOCK_ROWS] = {ZERO(), ZERO(), ZERO(), ZERO()};           \
            for (size_t t = 0; t < count; t++) {                               \
                V x = LOADU((const V *)(shards + inputs[t] * length + i));     \
                V low = AND(x, nibble);                                        \
                V high = AND(SRLI(x, 4), nibble);                              \
                GF_ROW(0, TABLE, SHUFFLE, XOR);                                \
                GF_ROW(1, TABLE, SHUFFLE, XOR);                                \
                GF_ROW(2, TABLE, SHUFFLE, XOR);                                \
                GF_ROW(3, TABLE, SHUFFLE, XOR);                                \
            }                                                                  \
            V *dst = (V *)(out + r0 * length + i);                             \
            STOREU(dst, acc[0]);                                               \
            if (block_rows > 1)                                                \
                STOREU((V *)((uint8_t *)dst + length), acc[1]);                \
            if (block_rows > 2)                                                \
                STOREU((V *)((uint8_t *)dst + 2 * length), acc[2]);            \
            if (block_rows > 3)                                                \
                STOREU((V *)((uint8_t *)dst + 3 * length), acc[3]);            \
        }                                                                      \
    }

/* acc[b] ^= c*x for row b of the pass and its t-th input. */
#define GF_ROW(b, TABLE, SHUFFLE, XOR)                                         \
    acc[b] = XOR(acc[b], XOR(SHUFFLE(TABLE(tables[t][b][0]), low),             \
                             SHUFFLE(TABLE(tables[t][b][1]), high)))

#define GF_TABLE_128(p) _mm_loadu_si128((const __m128i *)(p))
#define GF_TABLE_256(p) _mm256_broadcastsi128_si256(GF_TABLE_128(p))

__attribute__((target("ssse3")))
static void matmul_ssse3(const uint8_t *table, const uint8_t *coefficients,
                         size_t rows, size_t k, const uint8_t *shards,
                         size_t length, uint8_t *out)
{
    GF_BLOCKED_LOOP(__m128i, 16, _mm_set1_epi8, _mm_setzero_si128,
                    _mm_loadu_si128, _mm_storeu_si128, GF_TABLE_128,
                    _mm_and_si128, _mm_srli_epi64, _mm_shuffle_epi8,
                    _mm_xor_si128)
    matmul_scalar(table, coefficients, rows, k, shards, body, length, out);
}

__attribute__((target("avx2")))
static void matmul_avx2(const uint8_t *table, const uint8_t *coefficients,
                        size_t rows, size_t k, const uint8_t *shards,
                        size_t length, uint8_t *out)
{
    GF_BLOCKED_LOOP(__m256i, 32, _mm256_set1_epi8, _mm256_setzero_si256,
                    _mm256_loadu_si256, _mm256_storeu_si256, GF_TABLE_256,
                    _mm256_and_si256, _mm256_srli_epi64, _mm256_shuffle_epi8,
                    _mm256_xor_si256)
    /* Clean upper halves, or the SSE code that runs next (the scalar tail,
     * then the caller's) pays for the dirty state. */
    _mm256_zeroupper();
    matmul_scalar(table, coefficients, rows, k, shards, body, length, out);
}
#endif

/* The best loop gf_matmul may run on this CPU: GF_AVX2, GF_SSSE3 or
 * GF_SCALAR. */
int gf_kernel_isa(void)
{
#ifdef GF_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return GF_AVX2;
    if (__builtin_cpu_supports("ssse3"))
        return GF_SSSE3;
#endif
    return GF_SCALAR;
}

/* `isa` is at most gf_kernel_isa().  A wider product than any GF(256) code
 * needs (k > GF_MAX_K) takes the scalar loop. */
void gf_matmul(int isa, const uint8_t *table, const uint8_t *coefficients,
               size_t rows, size_t k, const uint8_t *shards, size_t length,
               uint8_t *out)
{
#ifdef GF_X86
    if (k > GF_MAX_K)
        isa = GF_SCALAR;
    if (isa == GF_AVX2) {
        matmul_avx2(table, coefficients, rows, k, shards, length, out);
        return;
    }
    if (isa == GF_SSSE3) {
        matmul_ssse3(table, coefficients, rows, k, shards, length, out);
        return;
    }
#endif
    (void)isa;
    matmul_scalar(table, coefficients, rows, k, shards, 0, length, out);
}
