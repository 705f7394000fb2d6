/* GF(2^8) matrix times shard stack: the row loop behind gf256.gf_matmul.
 *
 * out[r] ^= coefficients[r][j] * shards[j] for every r < rows, j < k, over
 * GF(256) with the 0x11D polynomial.  `table` is gf256._MUL_TABLE (256 x 256,
 * row c is the map x -> c*x); `out` arrives zeroed.  Every array is
 * C-contiguous uint8; the Python side checks shapes before calling.
 *
 * On x86 CPUs with SSSE3 the multiply runs sixteen bytes at a time by the
 * split-nibble method: c*x = c*(x & 0x0F) ^ c*(x & 0xF0), and each half is one
 * _mm_shuffle_epi8 lookup in a 16-entry table.  The tail, and every other CPU,
 * takes the scalar table loop.  No -march flag is needed: only the SSSE3
 * function is compiled for SSSE3, and it is called only when the CPU has it.
 */
#include <stddef.h>
#include <stdint.h>

#if defined(__x86_64__) || defined(__i386__)
#define GF_X86 1
#include <tmmintrin.h>
#endif

typedef void (*mul_add_fn)(uint8_t *, const uint8_t *, size_t, const uint8_t *);

static void mul_add_scalar(uint8_t *out, const uint8_t *in, size_t length,
                           const uint8_t *row)
{
    for (size_t i = 0; i < length; i++)
        out[i] ^= row[in[i]];
}

#ifdef GF_X86
__attribute__((target("ssse3")))
static void mul_add_ssse3(uint8_t *out, const uint8_t *in, size_t length,
                          const uint8_t *row)
{
    uint8_t low[16], high[16];
    for (int i = 0; i < 16; i++) {
        low[i] = row[i];
        high[i] = row[i << 4];
    }
    const __m128i low_table = _mm_loadu_si128((const __m128i *)low);
    const __m128i high_table = _mm_loadu_si128((const __m128i *)high);
    const __m128i nibble = _mm_set1_epi8(0x0F);
    size_t i = 0;
    for (; i + 16 <= length; i += 16) {
        __m128i x = _mm_loadu_si128((const __m128i *)(in + i));
        __m128i product = _mm_xor_si128(
            _mm_shuffle_epi8(low_table, _mm_and_si128(x, nibble)),
            _mm_shuffle_epi8(high_table,
                             _mm_and_si128(_mm_srli_epi64(x, 4), nibble)));
        __m128i acc = _mm_loadu_si128((const __m128i *)(out + i));
        _mm_storeu_si128((__m128i *)(out + i), _mm_xor_si128(acc, product));
    }
    mul_add_scalar(out + i, in + i, length - i, row);
}
#endif

/* 1 when gf_matmul takes the SSSE3 path on this CPU, 0 for the scalar loop. */
int gf_kernel_ssse3(void)
{
#ifdef GF_X86
    __builtin_cpu_init();
    return __builtin_cpu_supports("ssse3") ? 1 : 0;
#else
    return 0;
#endif
}

void gf_matmul(const uint8_t *table, const uint8_t *coefficients, size_t rows,
               size_t k, const uint8_t *shards, size_t length, uint8_t *out)
{
    mul_add_fn mul_add = mul_add_scalar;
#ifdef GF_X86
    if (gf_kernel_ssse3())
        mul_add = mul_add_ssse3;
#endif
    for (size_t r = 0; r < rows; r++) {
        for (size_t j = 0; j < k; j++) {
            uint8_t c = coefficients[r * k + j];
            if (c)
                mul_add(out + r * length, shards + j * length, length,
                        table + 256 * (size_t)c);
        }
    }
}
