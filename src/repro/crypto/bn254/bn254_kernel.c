/* BN254 field tower and the inner loops behind repro.crypto.bn254.
 *
 * Fp is four 64-bit limbs in Montgomery form (R = 2^256).  Fp2, Fp6 and Fp12
 * sit on the tower fields.py uses:
 *     Fp2 = Fp[u]/(u^2 + 1),  Fp6 = Fp2[v]/(v^3 - xi),  Fp12 = Fp6[w]/(w^2 - v)
 * with xi = 9 + u.  An Fp12 is laid out as the twelve Fp coefficients of
 * Fp12._flat12 (c0 then c1; each Fp6 as c0.c0, c0.c1, c1.c0, ..., c2.c1).
 *
 * Each entry point runs a whole inner loop, so one ctypes call replaces
 * thousands of Python big-int operations.  At the boundary a field element is
 * a 32-byte little-endian integer: a canonical residue in [0, p), except in
 * the buffers documented as "Montgomery" (prepared Miller lines, the GT comb
 * and the G1 fixed-base windows, which Python holds as opaque bytes).  Every
 * loop runs the formulas of its pure-Python reference in the same order, and
 * mod-p arithmetic is exact, so outputs equal the reference bit for bit,
 * Jacobian triples included.
 *
 * Reentrant: there is no mutable static state.  Scratch lives on the stack or
 * comes from malloc, and the constants Python derives (Frobenius
 * coefficients, the GLV beta) arrive as arguments.  Entry points returning
 * int give 0 on success and -1 when an inversion meets zero, malloc fails or
 * the GT codec refuses an input.
 *
 * The last section is byte work, not field work: SHA-256, HMAC-SHA256 and
 * the challenge expansion of crypto/prf.py built on them.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

/* -O2 leaves four-limb loops rolled; unrolled, the limbs stay in registers. */
#if defined(__GNUC__) && !defined(__clang__)
#define UNROLL4 _Pragma("GCC unroll 4")
#else
#define UNROLL4
#endif

typedef struct { uint64_t l[4]; } fp;
typedef struct { fp c0, c1; } fp2;
typedef struct { fp2 c0, c1, c2; } fp6;
typedef struct { fp6 c0, c1; } fp12;
typedef struct { fp x, y, z; } g1;  /* Jacobian; z == 0 is the identity */

#define FP_BYTES 32
#define FP12_BYTES (12 * FP_BYTES)

static const fp P = {{0x3c208c16d87cfd47ULL, 0x97816a916871ca8dULL,
                      0xb85045b68181585dULL, 0x30644e72e131a029ULL}};
/* -p^-1 mod 2^64 */
static const uint64_t P_INV = 0x87d20782e4866389ULL;
/* R^2 mod p: into Montgomery form with one multiplication. */
static const fp R2 = {{0xf32cfc5b538afa89ULL, 0xb5e71911d44501fbULL,
                       0x47ab1eff0a417ff6ULL, 0x06d89f71cab8351fULL}};
/* R mod p: the Montgomery form of 1. */
static const fp ONE = {{0xd35d438dc58f0d9dULL, 0x0a78eb28f5c70b3dULL,
                        0x666ea36f7879462cULL, 0x0e0a77c19a07df2fULL}};
static const fp ZERO = {{0, 0, 0, 0}};
/* (p + 1)/4, (p - 3)/4 and (p - 1)/2: the square-root exponents of
 * fields.fp_sqrt and Fp2.sqrt (p = 3 mod 4). */
static const uint64_t P_PLUS_1_DIV_4[4] = {0x4f082305b61f3f52ULL, 0x65e05aa45a1c72a3ULL,
                                           0x6e14116da0605617ULL, 0x0c19139cb84c680aULL};
static const uint64_t P_MINUS_3_DIV_4[4] = {0x4f082305b61f3f51ULL, 0x65e05aa45a1c72a3ULL,
                                            0x6e14116da0605617ULL, 0x0c19139cb84c680aULL};
static const uint64_t P_MINUS_1_DIV_2[4] = {0x9e10460b6c3e7ea3ULL, 0xcbc0b548b438e546ULL,
                                            0xdc2822db40c0ac2eULL, 0x183227397098d014ULL};

/* ------------------------------------------------------------------ Fp -- */

static inline int fp_is_zero(const fp *a)
{
    return (a->l[0] | a->l[1] | a->l[2] | a->l[3]) == 0;
}

/* r = a mod p for a < 2p.  Branch-free: which way it goes is data, and a
 * mispredicted branch here costs more than the subtraction. */
static inline void fp_reduce(fp *r, const fp *a)
{
    uint64_t t[4], borrow = 0;
    UNROLL4
    for (int i = 0; i < 4; i++) {
        u128 d = (u128)a->l[i] - P.l[i] - borrow;
        t[i] = (uint64_t)d;
        borrow = (uint64_t)(d >> 127);
    }
    uint64_t keep = -borrow;  /* all ones when a < p */
    UNROLL4
    for (int i = 0; i < 4; i++)
        r->l[i] = (a->l[i] & keep) | (t[i] & ~keep);
}

static inline void fp_add(fp *r, const fp *a, const fp *b)
{
    fp s;
    uint64_t carry = 0;
    UNROLL4
    for (int i = 0; i < 4; i++) {
        u128 t = (u128)a->l[i] + b->l[i] + carry;
        s.l[i] = (uint64_t)t;
        carry = (uint64_t)(t >> 64);
    }
    fp_reduce(r, &s);  /* p < 2^254: the sum never carries out */
}

static inline void fp_sub(fp *r, const fp *a, const fp *b)
{
    uint64_t d[4], borrow = 0, carry = 0;
    UNROLL4
    for (int i = 0; i < 4; i++) {
        u128 t = (u128)a->l[i] - b->l[i] - borrow;
        d[i] = (uint64_t)t;
        borrow = (uint64_t)(t >> 127);
    }
    uint64_t wrap = -borrow;  /* add p back when a < b */
    UNROLL4
    for (int i = 0; i < 4; i++) {
        u128 t = (u128)d[i] + (P.l[i] & wrap) + carry;
        r->l[i] = (uint64_t)t;
        carry = (uint64_t)(t >> 64);
    }
}

static inline void fp_dbl(fp *r, const fp *a) { fp_add(r, a, a); }

static inline void fp_neg(fp *r, const fp *a)
{
    if (fp_is_zero(a))
        *r = ZERO;
    else
        fp_sub(r, &P, a);
}

/* Montgomery product a*b/R mod p (CIOS; p's top limb leaves the spare bit
 * that lets the loop drop the extra carry word). */
static inline void fp_mul(fp *r, const fp *a, const fp *b)
{
    uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    UNROLL4
    for (int i = 0; i < 4; i++) {
        uint64_t bi = b->l[i];
        u128 A = (u128)a->l[0] * bi + t0;
        uint64_t m = (uint64_t)A * P_INV;
        u128 C = (u128)m * P.l[0] + (uint64_t)A;
        A = (u128)a->l[1] * bi + t1 + (uint64_t)(A >> 64);
        C = (u128)m * P.l[1] + (uint64_t)A + (uint64_t)(C >> 64);
        t0 = (uint64_t)C;
        A = (u128)a->l[2] * bi + t2 + (uint64_t)(A >> 64);
        C = (u128)m * P.l[2] + (uint64_t)A + (uint64_t)(C >> 64);
        t1 = (uint64_t)C;
        A = (u128)a->l[3] * bi + t3 + (uint64_t)(A >> 64);
        C = (u128)m * P.l[3] + (uint64_t)A + (uint64_t)(C >> 64);
        t2 = (uint64_t)C;
        t3 = (uint64_t)(A >> 64) + (uint64_t)(C >> 64);
    }
    fp t = {{t0, t1, t2, t3}};
    fp_reduce(r, &t);
}

static inline void fp_sqr(fp *r, const fp *a) { fp_mul(r, a, a); }

static inline int fp_eq(const fp *a, const fp *b)
{
    return memcmp(a->l, b->l, sizeof a->l) == 0;
}

/* `width` bits of the 256-bit little-endian e from bit `pos` up. */
static inline unsigned window_at(const uint64_t e[4], size_t pos, unsigned width)
{
    size_t limb = pos / 64, shift = pos % 64;
    if (limb >= 4)
        return 0;
    uint64_t v = e[limb] >> shift;
    if (shift + width > 64 && limb + 1 < 4)
        v |= e[limb + 1] << (64 - shift);
    return (unsigned)(v & ((1u << width) - 1));
}

/* a^e for a 256-bit little-endian exponent over fixed 4-bit windows from the
 * top: a^1..a^15 on the stack, four squarings and at most one product per
 * window (~329 products for the square-root exponents). */
static void fp_pow(fp *r, const fp *a, const uint64_t e[4])
{
    fp table[15], acc = ONE;
    table[0] = *a;
    for (int k = 1; k < 15; k++)
        fp_mul(&table[k], &table[k - 1], a);
    int have = 0;
    for (int pos = 252; pos >= 0; pos -= 4) {
        if (have)
            for (int s = 0; s < 4; s++)
                fp_sqr(&acc, &acc);
        unsigned digit = window_at(e, (size_t)pos, 4);
        if (digit == 0)
            continue;
        if (have)
            fp_mul(&acc, &acc, &table[digit - 1]);
        else
            acc = table[digit - 1];
        have = 1;
    }
    *r = acc;
}

/* Plain four-limb helpers of fp_inv's Euclidean loop. */
static inline int limbs_are_one(const fp *a)
{
    return a->l[0] == 1 && (a->l[1] | a->l[2] | a->l[3]) == 0;
}

static inline int limbs_geq(const fp *a, const fp *b)
{
    for (int i = 3; i > 0; i--)
        if (a->l[i] != b->l[i])
            return a->l[i] > b->l[i];
    return a->l[0] >= b->l[0];
}

static inline void limbs_sub(fp *r, const fp *a, const fp *b)
{
    uint64_t borrow = 0;
    UNROLL4
    for (int i = 0; i < 4; i++) {
        u128 t = (u128)a->l[i] - b->l[i] - borrow;
        r->l[i] = (uint64_t)t;
        borrow = (uint64_t)(t >> 127);
    }
}

static inline void limbs_shr1(fp *a)
{
    a->l[0] = a->l[0] >> 1 | a->l[1] << 63;
    a->l[1] = a->l[1] >> 1 | a->l[2] << 63;
    a->l[2] = a->l[2] >> 1 | a->l[3] << 63;
    a->l[3] >>= 1;
}

/* x/2 mod p for x < p: an odd x takes p first (x + p < 2^255, no carry). */
static inline void half_mod_p(fp *x)
{
    if (x->l[0] & 1) {
        uint64_t carry = 0;
        UNROLL4
        for (int i = 0; i < 4; i++) {
            u128 t = (u128)x->l[i] + P.l[i] + carry;
            x->l[i] = (uint64_t)t;
            carry = (uint64_t)(t >> 64);
        }
    }
    limbs_shr1(x);
}

/* R^3 mod p: fp_mul by it takes a plain inverse (aR)^-1 to a^-1 R. */
static const fp R3 = {{0xb1cd6dafda1530dfULL, 0x62f210e6a7283db6ULL,
                       0xef7f0b0c0ada0afbULL, 0x20fd6e902d592544ULL}};

/* a^-1; zero maps to zero, as a^(p-2) does.  The binary extended Euclidean
 * algorithm on the limbs of aR keeps x1 aR = u and x2 aR = v mod p until u
 * or v is 1: shifts and subtractions in place of the ~380 multiplications
 * of a^(p-2), about 3x faster.  The inverse is unique, so the value is
 * a^(p-2)'s. */
static void fp_inv(fp *r, const fp *a)
{
    if (fp_is_zero(a)) {
        *r = ZERO;
        return;
    }
    fp u = *a, v = P, x1 = {{1, 0, 0, 0}}, x2 = ZERO;
    while (!limbs_are_one(&u) && !limbs_are_one(&v)) {
        while (!(u.l[0] & 1)) {
            limbs_shr1(&u);
            half_mod_p(&x1);
        }
        while (!(v.l[0] & 1)) {
            limbs_shr1(&v);
            half_mod_p(&x2);
        }
        if (limbs_geq(&u, &v)) {
            limbs_sub(&u, &u, &v);
            fp_sub(&x1, &x1, &x2);
        } else {
            limbs_sub(&v, &v, &u);
            fp_sub(&x2, &x2, &x1);
        }
    }
    fp_mul(r, limbs_are_one(&u) ? &x1 : &x2, &R3);
}

/* Boundary: canonical bytes <-> Montgomery limbs (little-endian host; the
 * Python probe refuses the kernel anywhere that does not hold). */
static inline void fp_load(fp *r, const uint8_t *src)
{
    fp t;
    memcpy(t.l, src, FP_BYTES);
    fp_mul(r, &t, &R2);
}

static inline void fp_store(uint8_t *dst, const fp *a)
{
    static const fp plain_one = {{1, 0, 0, 0}};
    fp t;
    fp_mul(&t, a, &plain_one);
    memcpy(dst, t.l, FP_BYTES);
}

static inline void fp_load_raw(fp *r, const uint8_t *src) { memcpy(r->l, src, FP_BYTES); }
static inline void fp_store_raw(uint8_t *dst, const fp *a) { memcpy(dst, a->l, FP_BYTES); }

/* ----------------------------------------------------------------- Fp2 -- */

static inline void fp2_add(fp2 *r, const fp2 *a, const fp2 *b)
{
    fp_add(&r->c0, &a->c0, &b->c0);
    fp_add(&r->c1, &a->c1, &b->c1);
}

static inline void fp2_sub(fp2 *r, const fp2 *a, const fp2 *b)
{
    fp_sub(&r->c0, &a->c0, &b->c0);
    fp_sub(&r->c1, &a->c1, &b->c1);
}

static inline void fp2_dbl(fp2 *r, const fp2 *a)
{
    fp_dbl(&r->c0, &a->c0);
    fp_dbl(&r->c1, &a->c1);
}

static inline void fp2_neg(fp2 *r, const fp2 *a)
{
    fp_neg(&r->c0, &a->c0);
    fp_neg(&r->c1, &a->c1);
}

/* Karatsuba, as fields._f2mul. */
static inline void fp2_mul(fp2 *r, const fp2 *a, const fp2 *b)
{
    fp t0, t1, s0, s1, m;
    fp_mul(&t0, &a->c0, &b->c0);
    fp_mul(&t1, &a->c1, &b->c1);
    fp_add(&s0, &a->c0, &a->c1);
    fp_add(&s1, &b->c0, &b->c1);
    fp_mul(&m, &s0, &s1);
    fp_sub(&r->c0, &t0, &t1);
    fp_sub(&m, &m, &t0);
    fp_sub(&r->c1, &m, &t1);
}

static inline void fp2_sqr(fp2 *r, const fp2 *a)
{
    fp s, d, m;
    fp_add(&s, &a->c0, &a->c1);
    fp_sub(&d, &a->c0, &a->c1);
    fp_mul(&m, &a->c0, &a->c1);
    fp_mul(&r->c0, &s, &d);
    fp_dbl(&r->c1, &m);
}

static inline void fp2_mul_fp(fp2 *r, const fp2 *a, const fp *k)
{
    fp_mul(&r->c0, &a->c0, k);
    fp_mul(&r->c1, &a->c1, k);
}

/* Multiply by xi = 9 + u: (9 a0 - a1) + (9 a1 + a0) u. */
static inline void fp2_mul_xi(fp2 *r, const fp2 *a)
{
    fp t0, t1;
    fp_dbl(&t0, &a->c0);
    fp_dbl(&t0, &t0);
    fp_dbl(&t0, &t0);
    fp_add(&t0, &t0, &a->c0);
    fp_dbl(&t1, &a->c1);
    fp_dbl(&t1, &t1);
    fp_dbl(&t1, &t1);
    fp_add(&t1, &t1, &a->c1);
    fp_sub(&t0, &t0, &a->c1);
    fp_add(&t1, &t1, &a->c0);
    r->c0 = t0;
    r->c1 = t1;
}

static int fp2_inv(fp2 *r, const fp2 *a)
{
    fp n0, n1, inv;
    fp_sqr(&n0, &a->c0);
    fp_sqr(&n1, &a->c1);
    fp_add(&n0, &n0, &n1);
    if (fp_is_zero(&n0))
        return -1;
    fp_inv(&inv, &n0);
    fp_mul(&r->c0, &a->c0, &inv);
    fp_mul(&n1, &a->c1, &inv);
    fp_neg(&r->c1, &n1);
    return 0;
}

static inline int fp2_eq(const fp2 *a, const fp2 *b)
{
    return fp_eq(&a->c0, &b->c0) && fp_eq(&a->c1, &b->c1);
}

/* a^e for a 256-bit little-endian exponent, as fp_pow. */
static void fp2_pow(fp2 *r, const fp2 *a, const uint64_t e[4])
{
    fp2 table[15], acc = {ONE, ZERO};
    table[0] = *a;
    for (int k = 1; k < 15; k++)
        fp2_mul(&table[k], &table[k - 1], a);
    int have = 0;
    for (int pos = 252; pos >= 0; pos -= 4) {
        if (have)
            for (int s = 0; s < 4; s++)
                fp2_sqr(&acc, &acc);
        unsigned digit = window_at(e, (size_t)pos, 4);
        if (digit == 0)
            continue;
        if (have)
            fp2_mul(&acc, &acc, &table[digit - 1]);
        else
            acc = table[digit - 1];
        have = 1;
    }
    *r = acc;
}

/* ----------------------------------------------------------------- Fp6 -- */

static inline void fp6_add(fp6 *r, const fp6 *a, const fp6 *b)
{
    fp2_add(&r->c0, &a->c0, &b->c0);
    fp2_add(&r->c1, &a->c1, &b->c1);
    fp2_add(&r->c2, &a->c2, &b->c2);
}

static inline void fp6_sub(fp6 *r, const fp6 *a, const fp6 *b)
{
    fp2_sub(&r->c0, &a->c0, &b->c0);
    fp2_sub(&r->c1, &a->c1, &b->c1);
    fp2_sub(&r->c2, &a->c2, &b->c2);
}

/* Karatsuba over Fp2, as fields._f6mul. */
static void fp6_mul(fp6 *r, const fp6 *a, const fp6 *b)
{
    fp2 t0, t1, t2, s, u, m, c0, c1, c2;
    fp2_mul(&t0, &a->c0, &b->c0);
    fp2_mul(&t1, &a->c1, &b->c1);
    fp2_mul(&t2, &a->c2, &b->c2);
    fp2_add(&s, &a->c1, &a->c2);
    fp2_add(&u, &b->c1, &b->c2);
    fp2_mul(&m, &s, &u);
    fp2_sub(&m, &m, &t1);
    fp2_sub(&m, &m, &t2);
    fp2_mul_xi(&m, &m);
    fp2_add(&c0, &m, &t0);
    fp2_add(&s, &a->c0, &a->c1);
    fp2_add(&u, &b->c0, &b->c1);
    fp2_mul(&m, &s, &u);
    fp2_sub(&m, &m, &t0);
    fp2_sub(&m, &m, &t1);
    fp2_mul_xi(&s, &t2);
    fp2_add(&c1, &m, &s);
    fp2_add(&s, &a->c0, &a->c2);
    fp2_add(&u, &b->c0, &b->c2);
    fp2_mul(&m, &s, &u);
    fp2_sub(&m, &m, &t0);
    fp2_sub(&m, &m, &t2);
    fp2_add(&c2, &m, &t1);
    r->c0 = c0;
    r->c1 = c1;
    r->c2 = c2;
}

/* Multiply by v: (c0, c1, c2) -> (xi c2, c0, c1). */
static inline void fp6_mul_v(fp6 *r, const fp6 *a)
{
    fp2 t;
    fp2_mul_xi(&t, &a->c2);
    r->c2 = a->c1;
    r->c1 = a->c0;
    r->c0 = t;
}

static int fp6_inv(fp6 *r, const fp6 *a)
{
    fp2 t0, t1, t2, m, d, inv;
    fp2_sqr(&t0, &a->c0);
    fp2_mul(&m, &a->c1, &a->c2);
    fp2_mul_xi(&m, &m);
    fp2_sub(&t0, &t0, &m);
    fp2_sqr(&t1, &a->c2);
    fp2_mul_xi(&t1, &t1);
    fp2_mul(&m, &a->c0, &a->c1);
    fp2_sub(&t1, &t1, &m);
    fp2_sqr(&t2, &a->c1);
    fp2_mul(&m, &a->c0, &a->c2);
    fp2_sub(&t2, &t2, &m);
    fp2_mul(&d, &a->c2, &t1);
    fp2_mul(&m, &a->c1, &t2);
    fp2_add(&d, &d, &m);
    fp2_mul_xi(&d, &d);
    fp2_mul(&m, &a->c0, &t0);
    fp2_add(&d, &d, &m);
    if (fp2_inv(&inv, &d))
        return -1;
    fp2_mul(&r->c0, &t0, &inv);
    fp2_mul(&r->c1, &t1, &inv);
    fp2_mul(&r->c2, &t2, &inv);
    return 0;
}

/* ---------------------------------------------------------------- Fp12 -- */

static void fp12_one(fp12 *r)
{
    memset(r, 0, sizeof *r);
    r->c0.c0.c0 = ONE;
}

/* Karatsuba over Fp6, as fields._f12mul. */
static void fp12_mul(fp12 *r, const fp12 *a, const fp12 *b)
{
    fp6 t0, t1, s, u, c1;
    fp6_mul(&t0, &a->c0, &b->c0);
    fp6_mul(&t1, &a->c1, &b->c1);
    fp6_add(&s, &a->c0, &a->c1);
    fp6_add(&u, &b->c0, &b->c1);
    fp6_mul(&c1, &s, &u);
    fp6_sub(&c1, &c1, &t0);
    fp6_sub(&c1, &c1, &t1);
    fp6_mul_v(&t1, &t1);
    fp6_add(&r->c0, &t0, &t1);
    r->c1 = c1;
}

static void fp12_sqr(fp12 *r, const fp12 *a)
{
    fp6 t, s, u;
    fp6_mul(&t, &a->c0, &a->c1);
    fp6_add(&s, &a->c0, &a->c1);
    fp6_mul_v(&u, &a->c1);
    fp6_add(&u, &a->c0, &u);
    fp6_mul(&s, &s, &u);
    fp6_sub(&s, &s, &t);
    fp6_mul_v(&u, &t);
    fp6_sub(&r->c0, &s, &u);
    fp6_add(&r->c1, &t, &t);
}

static void fp12_conj(fp12 *r, const fp12 *a)
{
    r->c0 = a->c0;
    fp2_neg(&r->c1.c0, &a->c1.c0);
    fp2_neg(&r->c1.c1, &a->c1.c1);
    fp2_neg(&r->c1.c2, &a->c1.c2);
}

static int fp12_inv(fp12 *r, const fp12 *a)
{
    fp6 t0, t1;
    fp6_mul(&t0, &a->c0, &a->c0);
    fp6_mul(&t1, &a->c1, &a->c1);
    fp6_mul_v(&t1, &t1);
    fp6_sub(&t0, &t0, &t1);
    if (fp6_inv(&t0, &t0))
        return -1;
    fp6_mul(&t1, &a->c1, &t0);
    fp6_mul(&r->c0, &a->c0, &t0);
    fp2_neg(&r->c1.c0, &t1.c0);
    fp2_neg(&r->c1.c1, &t1.c1);
    fp2_neg(&r->c1.c2, &t1.c2);
    return 0;
}

/* f^(p^k): the w^i coefficient (conjugated for odd k) times gamma[i]. */
static void fp12_frobenius(fp12 *r, const fp12 *a, const fp2 *gamma, int conjugate)
{
    fp12 t = *a;
    fp2 *g[6] = {&t.c0.c0, &t.c1.c0, &t.c0.c1, &t.c1.c1, &t.c0.c2, &t.c1.c2};
    for (int i = 0; i < 6; i++) {
        if (conjugate)
            fp_neg(&g[i]->c1, &g[i]->c1);
        fp2_mul(g[i], g[i], &gamma[i]);
    }
    *r = t;
}

/* (a + b y)^2 in Fp2[y]/(y^2 - xi) -> (r0, r1). */
static void fp4_sqr(fp2 *r0, fp2 *r1, const fp2 *a, const fp2 *b)
{
    fp2 a2, b2, s;
    fp2_sqr(&a2, a);
    fp2_sqr(&b2, b);
    fp2_add(&s, a, b);
    fp2_sqr(&s, &s);
    fp2_sub(&s, &s, &a2);
    fp2_sub(r1, &s, &b2);
    fp2_mul_xi(&b2, &b2);
    fp2_add(r0, &a2, &b2);
}

/* r = 3t - 2g, or 3t + 2g when plus is set. */
static inline void three_two(fp2 *r, const fp2 *t, const fp2 *g, int plus)
{
    fp2 s;
    if (plus)
        fp2_add(&s, t, g);
    else
        fp2_sub(&s, t, g);
    fp2_dbl(&s, &s);
    fp2_add(r, &s, t);
}

/* Granger-Scott squaring, as fields._f12sqr_cyclo. */
static void fp12_cyclo_sqr(fp12 *r, const fp12 *f)
{
    fp2 t00, t11, t01, t12, t02, t10;
    fp12 out;
    fp4_sqr(&t00, &t11, &f->c0.c0, &f->c1.c1);
    fp4_sqr(&t01, &t12, &f->c1.c0, &f->c0.c2);
    fp4_sqr(&t02, &t10, &f->c0.c1, &f->c1.c2);
    fp2_mul_xi(&t10, &t10);
    three_two(&out.c0.c0, &t00, &f->c0.c0, 0);
    three_two(&out.c0.c1, &t01, &f->c0.c1, 0);
    three_two(&out.c0.c2, &t02, &f->c0.c2, 0);
    three_two(&out.c1.c0, &t10, &f->c1.c0, 1);
    three_two(&out.c1.c1, &t11, &f->c1.c1, 1);
    three_two(&out.c1.c2, &t12, &f->c1.c2, 1);
    *r = out;
}

/* f * (a + b w + c w^3), as Fp12.mul_by_line. */
static void fp12_mul_by_line(fp12 *f, const fp *a, const fp2 *b, const fp2 *c)
{
    const fp2 *g0 = &f->c0.c0, *g2 = &f->c0.c1, *g4 = &f->c0.c2;
    const fp2 *g1 = &f->c1.c0, *g3 = &f->c1.c1, *g5 = &f->c1.c2;
    fp2 h[6], t, u;
    /* h0 = a g0 + xi (b g5 + c g3) */
    fp2_mul(&t, b, g5);
    fp2_mul(&u, c, g3);
    fp2_add(&t, &t, &u);
    fp2_mul_xi(&t, &t);
    fp2_mul_fp(&h[0], g0, a);
    fp2_add(&h[0], &h[0], &t);
    /* h1 = a g1 + b g0 + xi c g4 */
    fp2_mul(&t, b, g0);
    fp2_mul(&u, c, g4);
    fp2_mul_xi(&u, &u);
    fp2_mul_fp(&h[1], g1, a);
    fp2_add(&h[1], &h[1], &t);
    fp2_add(&h[1], &h[1], &u);
    /* h2 = a g2 + b g1 + xi c g5 */
    fp2_mul(&t, b, g1);
    fp2_mul(&u, c, g5);
    fp2_mul_xi(&u, &u);
    fp2_mul_fp(&h[2], g2, a);
    fp2_add(&h[2], &h[2], &t);
    fp2_add(&h[2], &h[2], &u);
    /* h3 = a g3 + b g2 + c g0 */
    fp2_mul(&t, b, g2);
    fp2_mul(&u, c, g0);
    fp2_mul_fp(&h[3], g3, a);
    fp2_add(&h[3], &h[3], &t);
    fp2_add(&h[3], &h[3], &u);
    /* h4 = a g4 + b g3 + c g1 */
    fp2_mul(&t, b, g3);
    fp2_mul(&u, c, g1);
    fp2_mul_fp(&h[4], g4, a);
    fp2_add(&h[4], &h[4], &t);
    fp2_add(&h[4], &h[4], &u);
    /* h5 = a g5 + b g4 + c g2 */
    fp2_mul(&t, b, g4);
    fp2_mul(&u, c, g2);
    fp2_mul_fp(&h[5], g5, a);
    fp2_add(&h[5], &h[5], &t);
    fp2_add(&h[5], &h[5], &u);
    f->c0.c0 = h[0];
    f->c0.c1 = h[2];
    f->c0.c2 = h[4];
    f->c1.c0 = h[1];
    f->c1.c1 = h[3];
    f->c1.c2 = h[5];
}

static void fp12_load(fp12 *r, const uint8_t *src)
{
    fp *limbs = (fp *)r;
    for (int i = 0; i < 12; i++)
        fp_load(&limbs[i], src + i * FP_BYTES);
}

static void fp12_store(uint8_t *dst, const fp12 *a)
{
    const fp *limbs = (const fp *)a;
    for (int i = 0; i < 12; i++)
        fp_store(dst + i * FP_BYTES, &limbs[i]);
}

/* ------------------------------------------------------------ boundary -- */

void bn_to_montgomery(const uint8_t *in, uint8_t *out, size_t count)
{
    for (size_t i = 0; i < count; i++) {
        fp t;
        fp_load(&t, in + i * FP_BYTES);
        fp_store_raw(out + i * FP_BYTES, &t);
    }
}

void bn_from_montgomery(const uint8_t *in, uint8_t *out, size_t count)
{
    for (size_t i = 0; i < count; i++) {
        fp t;
        fp_load_raw(&t, in + i * FP_BYTES);
        fp_store(out + i * FP_BYTES, &t);
    }
}

/* --------------------------------------------------------- square roots -- */

/* fields.fp_sqrt for a canonical a: a^((p+1)/4), or -1 when that candidate
 * does not square to a (a non-residue).  out: canonical. */
int bn_fp_sqrt(const uint8_t *in, uint8_t *out)
{
    fp a, root, check;
    fp_load(&a, in);
    fp_pow(&root, &a, P_PLUS_1_DIV_4);
    fp_sqr(&check, &root);
    if (!fp_eq(&check, &a))
        return -1;
    fp_store(out, &root);
    return 0;
}

/* Fp2.sqrt for canonical (c0, c1): the two-candidate algorithm with
 * a1 = a^((p-3)/4), or -1 for a non-residue.  Zero is its own root, as the
 * reference's early return gives. */
int bn_fp2_sqrt(const uint8_t *in, uint8_t *out)
{
    fp2 a, a1, alpha, x0, root, check;
    fp_load(&a.c0, in);
    fp_load(&a.c1, in + FP_BYTES);
    fp2_pow(&a1, &a, P_MINUS_3_DIV_4);
    fp2_sqr(&alpha, &a1);
    fp2_mul(&alpha, &alpha, &a);
    fp2_mul(&x0, &a1, &a);
    fp minus_one;
    fp_neg(&minus_one, &ONE);
    if (fp_eq(&alpha.c0, &minus_one) && fp_is_zero(&alpha.c1)) {
        fp_neg(&root.c0, &x0.c1);  /* u * x0 */
        root.c1 = x0.c0;
    } else {
        fp2 b;
        fp_add(&alpha.c0, &alpha.c0, &ONE);
        fp2_pow(&b, &alpha, P_MINUS_1_DIV_2);
        fp2_mul(&root, &b, &x0);
    }
    fp2_sqr(&check, &root);
    if (!fp2_eq(&check, &a))
        return -1;
    fp_store(out, &root.c0);
    fp_store(out + FP_BYTES, &root.c1);
    return 0;
}

/* -------------------------------------------------------------- pairing -- */

/* Shared-chain Miller loop over n prepared G2 arguments, as
 * pairing._miller_loop_ref.  points: n x (xP, yP).  lines: n x steps x
 * (slope, slope*xT - yT) Montgomery Fp2 pairs, steps = nbits + popcount + 2.
 * bits: the ate schedule below the top bit, high to low.  out: Fp12. */
int bn_miller_loop(const uint8_t *points, const uint8_t *lines, size_t n,
                   const uint8_t *bits, size_t nbits, uint8_t *out)
{
    size_t steps = nbits + 2;
    for (size_t i = 0; i < nbits; i++)
        steps += bits[i] ? 1 : 0;
    fp *neg_x = malloc(2 * (n ? n : 1) * sizeof(fp));
    if (neg_x == NULL)
        return -1;
    fp *y = neg_x + n;
    for (size_t j = 0; j < n; j++) {
        fp x;
        fp_load(&x, points + 2 * j * FP_BYTES);
        fp_neg(&neg_x[j], &x);
        fp_load(&y[j], points + (2 * j + 1) * FP_BYTES);
    }
    const size_t line_bytes = 4 * FP_BYTES;
    fp12 f;
    fp12_one(&f);
    size_t index = 0;
    /* nbits doubling steps (plus an addition step on a set bit), then the two
     * Frobenius correction steps. */
    for (size_t i = 0; i < nbits + 2; i++) {
        int adds = 1;
        if (i < nbits) {
            fp12_sqr(&f, &f);
            adds += bits[i] ? 1 : 0;
        }
        for (int k = 0; k < adds; k++, index++) {
            for (size_t j = 0; j < n; j++) {
                const uint8_t *line = lines + (j * steps + index) * line_bytes;
                fp2 slope, b, c;
                fp_load_raw(&slope.c0, line);
                fp_load_raw(&slope.c1, line + FP_BYTES);
                fp_load_raw(&c.c0, line + 2 * FP_BYTES);
                fp_load_raw(&c.c1, line + 3 * FP_BYTES);
                fp2_mul_fp(&b, &slope, &neg_x[j]);
                fp12_mul_by_line(&f, &y[j], &b, &c);
            }
        }
    }
    free(neg_x);
    fp12_store(out, &f);
    return 0;
}

/* Cyclotomic power by the BN parameter, as Fp12.pow_t. */
static void fp12_pow_t(fp12 *r, const fp12 *f, uint64_t t)
{
    fp12 result, base = *f;
    fp12_one(&result);
    while (t) {
        if (t & 1)
            fp12_mul(&result, &result, &base);
        fp12_cyclo_sqr(&base, &base);
        t >>= 1;
    }
    *r = result;
}

/* f^((p^12 - 1)/r), as pairing._final_exponentiation_ref.  frobenius: the
 * Montgomery gamma_1[0..5] then gamma_2[0..5] of fields.py.  -1 for f = 0. */
int bn_final_exponentiation(const uint8_t *in, const uint8_t *frobenius, uint64_t t,
                            uint8_t *out)
{
    fp2 gamma[12];
    for (int i = 0; i < 12; i++) {
        fp_load_raw(&gamma[i].c0, frobenius + 2 * i * FP_BYTES);
        fp_load_raw(&gamma[i].c1, frobenius + (2 * i + 1) * FP_BYTES);
    }
    const fp2 *g1 = gamma, *g2 = gamma + 6;
    fp12 f, inv, fp1, fp2_, fp3, fu, fu2, fu3, y0, y1, y2, y3, y4, y5, y6, t0, t1;
    fp12_load(&f, in);
    if (fp12_inv(&inv, &f))
        return -1;
    /* Easy part: f^((p^6 - 1)(p^2 + 1)). */
    fp12_conj(&t0, &f);
    fp12_mul(&f, &t0, &inv);
    fp12_frobenius(&t0, &f, g2, 0);
    fp12_mul(&f, &t0, &f);
    /* Hard part: the Devegili et al. chain. */
    fp12_frobenius(&fp1, &f, g1, 1);
    fp12_frobenius(&fp2_, &f, g2, 0);
    fp12_frobenius(&fp3, &fp2_, g1, 1);
    fp12_pow_t(&fu, &f, t);
    fp12_pow_t(&fu2, &fu, t);
    fp12_pow_t(&fu3, &fu2, t);
    fp12_mul(&y0, &fp1, &fp2_);
    fp12_mul(&y0, &y0, &fp3);
    fp12_conj(&y1, &f);
    fp12_frobenius(&y2, &fu2, g2, 0);
    fp12_frobenius(&y3, &fu, g1, 1);
    fp12_conj(&y3, &y3);
    fp12_frobenius(&y4, &fu2, g1, 1);
    fp12_mul(&y4, &fu, &y4);
    fp12_conj(&y4, &y4);
    fp12_conj(&y5, &fu2);
    fp12_frobenius(&y6, &fu3, g1, 1);
    fp12_mul(&y6, &fu3, &y6);
    fp12_conj(&y6, &y6);
    fp12_cyclo_sqr(&t0, &y6);
    fp12_mul(&t0, &t0, &y4);
    fp12_mul(&t0, &t0, &y5);
    fp12_mul(&t1, &y3, &y5);
    fp12_mul(&t1, &t1, &t0);
    fp12_mul(&t0, &t0, &y2);
    fp12_cyclo_sqr(&t1, &t1);
    fp12_mul(&t1, &t1, &t0);
    fp12_cyclo_sqr(&t1, &t1);
    fp12_mul(&t0, &t1, &y1);
    fp12_mul(&t1, &t1, &y0);
    fp12_cyclo_sqr(&t0, &t0);
    fp12_mul(&t0, &t0, &t1);
    fp12_store(out, &t0);
    return 0;
}

/* ------------------------------------------------------------------- GT -- */

/* prod_j bases[j]^e_j on one shared cyclotomic chain, as
 * gt._gt_multi_pow_ref.  digits: n rows of `top` width-4 NAF digits, low
 * digit first, zero-padded. */
int bn_gt_multi_pow(const uint8_t *bases, const int8_t *digits, size_t n, size_t top,
                    uint8_t *out)
{
    fp12 *rows = malloc(4 * (n ? n : 1) * sizeof(fp12));
    if (rows == NULL)
        return -1;
    for (size_t j = 0; j < n; j++) {
        fp12 squared;
        fp12_load(&rows[4 * j], bases + j * FP12_BYTES);
        fp12_cyclo_sqr(&squared, &rows[4 * j]);
        for (int k = 1; k < 4; k++)
            fp12_mul(&rows[4 * j + k], &rows[4 * j + k - 1], &squared);
    }
    fp12 result, entry;
    int have = 0;
    fp12_one(&result);
    for (size_t bit = top; bit-- > 0;) {
        if (have)
            fp12_cyclo_sqr(&result, &result);
        for (size_t j = 0; j < n; j++) {
            int d = digits[j * top + bit];
            if (d == 0)
                continue;
            if (d > 0)
                entry = rows[4 * j + (d - 1) / 2];
            else
                fp12_conj(&entry, &rows[4 * j + (-d - 1) / 2]);
            if (have)
                fp12_mul(&result, &result, &entry);
            else
                result = entry;
            have = 1;
        }
    }
    free(rows);
    fp12_store(out, &result);
    return 0;
}

/* Lim-Lee comb over a fixed base, as gt._gt_fixed_table_ref: `teeth` rows
 * of `columns` exponent bits, and 2^teeth - 1 Montgomery Fp12 entries, entry
 * u - 1 holding prod_{t in bits(u)} base^(2^(t * columns)).  The single-tooth
 * entries take (teeth - 1) * columns cyclotomic squarings, every other entry
 * one product. */
void bn_gt_fixed_table(const uint8_t *base, unsigned teeth, unsigned columns,
                       uint8_t *table)
{
    size_t size = ((size_t)1 << teeth) - 1;
    fp12 tooth, entry, low;
    fp12_load(&tooth, base);
    memcpy(table, &tooth, FP12_BYTES);
    for (unsigned t = 1; t < teeth; t++) {
        for (unsigned s = 0; s < columns; s++)
            fp12_cyclo_sqr(&tooth, &tooth);
        memcpy(table + (((size_t)1 << t) - 1) * FP12_BYTES, &tooth, FP12_BYTES);
    }
    size_t top = 2;
    for (size_t u = 3; u <= size; u++) {
        if ((u & (u - 1)) == 0) {
            top = u;
            continue;
        }
        memcpy(&low, table + (u - top - 1) * FP12_BYTES, FP12_BYTES);
        memcpy(&tooth, table + (top - 1) * FP12_BYTES, FP12_BYTES);
        fp12_mul(&entry, &low, &tooth);
        memcpy(table + (u - 1) * FP12_BYTES, &entry, FP12_BYTES);
    }
}

/* As gt._gt_fixed_pow_ref over a bn_gt_fixed_table table; e nonzero and below
 * 2^(teeth * columns).  Column c, high to low, reads bit t * columns + c of e
 * into bit t of the entry index: one cyclotomic squaring per column after the
 * first nonzero one, and at most one product. */
void bn_gt_fixed_pow(const uint8_t *table, unsigned teeth, unsigned columns,
                     const uint8_t *exponent, uint8_t *out)
{
    uint64_t e[4];
    memcpy(e, exponent, sizeof e);
    fp12 result, entry;
    int have = 0;
    fp12_one(&result);
    for (unsigned c = columns; c-- > 0;) {
        if (have)
            fp12_cyclo_sqr(&result, &result);
        unsigned u = 0;
        for (unsigned t = 0; t < teeth; t++)
            u |= window_at(e, (size_t)t * columns + c, 1) << t;
        if (u == 0)
            continue;
        memcpy(&entry, table + (size_t)(u - 1) * FP12_BYTES, FP12_BYTES);
        if (have)
            fp12_mul(&result, &result, &entry);
        else
            result = entry;
        have = 1;
    }
    fp12_store(out, &result);
}

/* ------------------------------------------------------------ GT codec -- */

/* The wire format of serialization.py: a coordinate is 32 big-endian
 * bytes.  fp_load_be refuses (-1) a value >= p, as _int_from_bytes does. */
static int fp_load_be(fp *r, const uint8_t *src)
{
    fp t;
    for (int i = 0; i < 4; i++) {
        uint64_t limb = 0;
        for (int b = 0; b < 8; b++)
            limb = limb << 8 | src[(3 - i) * 8 + b];
        t.l[i] = limb;
    }
    for (int i = 3; i >= 0; i--) {
        if (t.l[i] != P.l[i]) {
            if (t.l[i] > P.l[i])
                return -1;
            fp_mul(r, &t, &R2);
            return 0;
        }
    }
    return -1;  /* t == p */
}

static void fp_store_be(uint8_t *dst, const fp *a)
{
    uint8_t le[FP_BYTES];
    fp_store(le, a);
    for (int i = 0; i < FP_BYTES; i++)
        dst[i] = le[FP_BYTES - 1 - i];
}

static inline int fp6_is_zero(const fp6 *a)
{
    const fp *limbs = (const fp *)a;
    for (int i = 0; i < 6; i++)
        if (!fp_is_zero(&limbs[i]))
            return 0;
    return 1;
}

/* serialization._gt_to_bytes_ref: the torus image m = (1 + g0)/g1 of the
 * Fp12 g = g0 + g1 w (canonical, little-endian, as Fp12._flat12), written
 * as 192 wire bytes; the all-zero encoding for one.  -1 when g1 = 0 and
 * g != 1 (not compressible). */
int bn_gt_compress(const uint8_t *in, uint8_t *out)
{
    fp12 g, one;
    fp6 m, inv;
    fp12_load(&g, in);
    if (fp6_is_zero(&g.c1)) {
        fp12_one(&one);
        if (memcmp(&g, &one, sizeof g) != 0)
            return -1;
        memset(out, 0, 6 * FP_BYTES);
        return 0;
    }
    if (fp6_inv(&inv, &g.c1))
        return -1;
    m = g.c0;
    fp_add(&m.c0.c0, &m.c0.c0, &ONE);
    fp6_mul(&m, &m, &inv);
    const fp *limbs = (const fp *)&m;
    for (int i = 0; i < 6; i++)
        fp_store_be(out + i * FP_BYTES, &limbs[i]);
    return 0;
}

/* serialization._gt_from_bytes_ref on 192 wire bytes: all zero is one,
 * else g = (m^2 + v)/(m^2 - v) + 2m/(m^2 - v) w.  out: Fp12, canonical
 * little-endian.  -1 where the reference raises: a coordinate >= p, or
 * m^2 = v (degenerate). */
int bn_gt_decompress(const uint8_t *in, uint8_t *out)
{
    fp12 g;
    fp6 m, square, d, inv;
    int zero = 1;
    for (int i = 0; i < 6 * FP_BYTES; i++)
        zero &= in[i] == 0;
    if (zero) {
        fp12_one(&g);
        fp12_store(out, &g);
        return 0;
    }
    fp *limbs = (fp *)&m;
    for (int i = 0; i < 6; i++)
        if (fp_load_be(&limbs[i], in + i * FP_BYTES))
            return -1;
    fp6_mul(&square, &m, &m);
    d = square;
    fp_sub(&d.c1.c0, &d.c1.c0, &ONE);  /* v = (0, 1, 0) */
    if (fp6_inv(&inv, &d))  /* -1 exactly when d = 0 */
        return -1;
    fp_add(&square.c1.c0, &square.c1.c0, &ONE);
    fp6_mul(&g.c0, &square, &inv);
    fp6_add(&m, &m, &m);
    fp6_mul(&g.c1, &m, &inv);
    fp12_store(out, &g);
    return 0;
}

/* ----------------------------------------------------------------- wNAF -- */

/* Width-w wNAF (2 <= w <= 8) of a 256-bit little-endian scalar < 2^255, low
 * digit first: digits odd in (-2^(w-1), 2^(w-1)) or zero, as curve._wnaf.
 * Returns the digit count, at most 256. */
static size_t wnaf(int8_t *digits, const uint8_t *scalar, unsigned width)
{
    const uint64_t mask = ((uint64_t)1 << width) - 1;
    const int half = 1 << (width - 1);
    uint64_t e[4];
    memcpy(e, scalar, sizeof e);
    size_t n = 0;
    while (e[0] | e[1] | e[2] | e[3]) {
        int d = 0;
        if (e[0] & 1) {
            d = (int)(e[0] & mask);
            if (d >= half)
                d -= 2 * half;
            if (d > 0) {
                e[0] -= (uint64_t)d;  /* the low w bits are d */
            } else {
                e[0] += (uint64_t)-d;
                if (e[0] < (uint64_t)-d)  /* carried out of the limb */
                    for (int i = 1; i < 4 && ++e[i] == 0; i++)
                        ;
            }
        }
        digits[n++] = (int8_t)d;
        e[0] = (e[0] >> 1) | (e[1] << 63);
        e[1] = (e[1] >> 1) | (e[2] << 63);
        e[2] = (e[2] >> 1) | (e[3] << 63);
        e[3] >>= 1;
    }
    return n;
}

/* The recoder alone (tests compare it with curve._wnaf); digits: 256 bytes. */
size_t bn_wnaf(const uint8_t *scalar, unsigned width, int8_t *digits)
{
    return wnaf(digits, scalar, width);
}

/* ------------------------------------------------------------------- G1 -- */

/* dbl-2009-l, as curve._jac_double. */
static void g1_dbl(g1 *r, const g1 *p)
{
    fp a, b, c, d, e, t, x3, y3, z3;
    fp_sqr(&a, &p->x);
    fp_sqr(&b, &p->y);
    fp_sqr(&c, &b);
    fp_add(&t, &p->x, &b);
    fp_sqr(&t, &t);
    fp_sub(&t, &t, &a);
    fp_sub(&t, &t, &c);
    fp_dbl(&d, &t);
    fp_dbl(&e, &a);
    fp_add(&e, &e, &a);
    fp_sqr(&x3, &e);
    fp_dbl(&t, &d);
    fp_sub(&x3, &x3, &t);
    fp_sub(&t, &d, &x3);
    fp_mul(&y3, &e, &t);
    fp_dbl(&t, &c);
    fp_dbl(&t, &t);
    fp_dbl(&t, &t);
    fp_sub(&y3, &y3, &t);
    fp_mul(&z3, &p->y, &p->z);
    fp_dbl(&z3, &z3);
    r->x = x3;
    r->y = y3;
    r->z = z3;
}

/* The (0, 1, 0) the Python formulas return for P + (-P). */
static inline void g1_set_identity(g1 *r)
{
    r->x = ZERO;
    r->y = ONE;
    r->z = ZERO;
}

/* madd-2007-bl, as curve._jac_add_affine. */
static void g1_add_affine(g1 *r, const g1 *p, const fp *ax, const fp *ay)
{
    if (fp_is_zero(&p->z)) {
        r->x = *ax;
        r->y = *ay;
        r->z = ONE;
        return;
    }
    fp z1z1, u2, s2, h, rr, hh, i, j, v, t, x3, y3, z3;
    fp_sqr(&z1z1, &p->z);
    fp_mul(&u2, ax, &z1z1);
    fp_mul(&s2, ay, &p->z);
    fp_mul(&s2, &s2, &z1z1);
    fp_sub(&h, &u2, &p->x);
    fp_sub(&rr, &s2, &p->y);
    fp_dbl(&rr, &rr);
    if (fp_is_zero(&h)) {
        if (fp_is_zero(&rr))
            g1_dbl(r, p);
        else
            g1_set_identity(r);
        return;
    }
    fp_sqr(&hh, &h);
    fp_dbl(&i, &hh);
    fp_dbl(&i, &i);
    fp_mul(&j, &h, &i);
    fp_mul(&v, &p->x, &i);
    fp_sqr(&x3, &rr);
    fp_sub(&x3, &x3, &j);
    fp_dbl(&t, &v);
    fp_sub(&x3, &x3, &t);
    fp_sub(&t, &v, &x3);
    fp_mul(&y3, &rr, &t);
    fp_mul(&t, &p->y, &j);
    fp_dbl(&t, &t);
    fp_sub(&y3, &y3, &t);
    fp_add(&z3, &p->z, &h);
    fp_sqr(&z3, &z3);
    fp_sub(&z3, &z3, &z1z1);
    fp_sub(&z3, &z3, &hh);
    r->x = x3;
    r->y = y3;
    r->z = z3;
}

/* add-2007-bl, as curve._jac_add. */
static void g1_add(g1 *r, const g1 *p, const g1 *q)
{
    if (fp_is_zero(&p->z)) {
        *r = *q;
        return;
    }
    if (fp_is_zero(&q->z)) {
        *r = *p;
        return;
    }
    fp z1z1, z2z2, u1, u2, s1, s2, h, rr, i, j, v, t, x3, y3, z3;
    fp_sqr(&z1z1, &p->z);
    fp_sqr(&z2z2, &q->z);
    fp_mul(&u1, &p->x, &z2z2);
    fp_mul(&u2, &q->x, &z1z1);
    fp_mul(&s1, &p->y, &q->z);
    fp_mul(&s1, &s1, &z2z2);
    fp_mul(&s2, &q->y, &p->z);
    fp_mul(&s2, &s2, &z1z1);
    fp_sub(&h, &u2, &u1);
    fp_sub(&rr, &s2, &s1);
    fp_dbl(&rr, &rr);
    if (fp_is_zero(&h)) {
        if (fp_is_zero(&rr))
            g1_dbl(r, p);
        else
            g1_set_identity(r);
        return;
    }
    fp_sqr(&i, &h);
    fp_dbl(&i, &i);
    fp_dbl(&i, &i);
    fp_mul(&j, &h, &i);
    fp_mul(&v, &u1, &i);
    fp_sqr(&x3, &rr);
    fp_sub(&x3, &x3, &j);
    fp_dbl(&t, &v);
    fp_sub(&x3, &x3, &t);
    fp_sub(&t, &v, &x3);
    fp_mul(&y3, &rr, &t);
    fp_mul(&t, &s1, &j);
    fp_dbl(&t, &t);
    fp_sub(&y3, &y3, &t);
    fp_add(&z3, &p->z, &q->z);
    fp_sqr(&z3, &z3);
    fp_sub(&z3, &z3, &z1z1);
    fp_sub(&z3, &z3, &z2z2);
    fp_mul(&z3, &z3, &h);
    r->x = x3;
    r->y = y3;
    r->z = z3;
}

static void g1_load(g1 *r, const uint8_t *src)
{
    fp_load(&r->x, src);
    fp_load(&r->y, src + FP_BYTES);
    fp_load(&r->z, src + 2 * FP_BYTES);
}

static void g1_store(uint8_t *dst, const g1 *p)
{
    fp_store(dst, &p->x);
    fp_store(dst + FP_BYTES, &p->y);
    fp_store(dst + 2 * FP_BYTES, &p->z);
}

/* Affine (x, y) of n Jacobian points with one shared inversion, as
 * curve._to_affine_batch_raw; -1 when some z is zero. */
static int g1_batch_affine(fp *ax, fp *ay, const g1 *pts, size_t n)
{
    fp *prefix = malloc((n ? n : 1) * sizeof(fp));
    if (prefix == NULL)
        return -1;
    fp acc = ONE;
    for (size_t i = 0; i < n; i++) {
        prefix[i] = acc;
        fp_mul(&acc, &acc, &pts[i].z);
    }
    if (fp_is_zero(&acc)) {
        free(prefix);
        return -1;
    }
    fp_inv(&acc, &acc);
    for (size_t i = n; i-- > 0;) {
        fp zinv, zinv2;
        fp_mul(&zinv, &acc, &prefix[i]);
        fp_mul(&acc, &acc, &pts[i].z);
        fp_sqr(&zinv2, &zinv);
        fp_mul(&ax[i], &pts[i].x, &zinv2);
        fp_mul(&ay[i], &pts[i].y, &zinv2);
        fp_mul(&ay[i], &ay[i], &zinv);
    }
    free(prefix);
    return 0;
}

/* Odd multiples P, 3P, .., (2 size - 1)P of n Jacobian points (x, y, z), as
 * msm._wnaf_table_g1_ref, into Montgomery affine arrays of n * size. */
static int odd_multiples(const uint8_t *points, size_t n, size_t size, fp *ax, fp *ay)
{
    size_t total = n * size;
    g1 *jac = malloc((total ? total : 1) * sizeof(g1));
    if (jac == NULL)
        return -1;
    for (size_t j = 0; j < n; j++) {
        g1 *row = jac + j * size, step;
        g1_load(&row[0], points + 3 * j * FP_BYTES);
        g1_dbl(&step, &row[0]);
        for (size_t k = 1; k < size; k++)
            g1_add(&row[k], &row[k - 1], &step);
    }
    int rc = g1_batch_affine(ax, ay, jac, total);
    free(jac);
    return rc;
}

/* wNAF odd-multiple tables of n points; out: n x size Montgomery (x, y),
 * the form bn_g1_wnaf_msm reads cached tables in. */
int bn_g1_wnaf_tables(const uint8_t *points, size_t n, size_t size, uint8_t *out)
{
    size_t total = n * size;
    fp *ax = malloc(2 * (total ? total : 1) * sizeof(fp));
    if (ax == NULL)
        return -1;
    fp *ay = ax + total;
    int rc = odd_multiples(points, n, size, ax, ay);
    if (rc == 0) {
        for (size_t i = 0; i < total; i++) {
            fp_store_raw(out + 2 * i * FP_BYTES, &ax[i]);
            fp_store_raw(out + (2 * i + 1) * FP_BYTES, &ay[i]);
        }
    }
    free(ax);
    return rc;
}

/* The shared doubling / mixed-add chain of msm._msm_wnaf_g1_ref.
 *
 * Entry space: the tables of the nbuilt points (x, y, z) built here, size
 * entries each, then ncached Montgomery affine (x, y) entries the caller
 * cached (bn_g1_wnaf_tables output).  streams: nstreams x (first entry,
 * flags, width), where flag 1 reads the table through phi (x -> beta x) and
 * flag 2 negates the stream.  scalars: each stream's non-negative GLV half,
 * 32 bytes little-endian, recoded here to width-`width` wNAF.  beta:
 * Montgomery.  out: the Jacobian (x, y, z), z == 0 for the identity. */
int bn_g1_wnaf_msm(const uint8_t *points, size_t nbuilt, size_t size,
                   const uint8_t *cached, size_t ncached,
                   const int64_t *streams, const uint8_t *scalars, size_t nstreams,
                   const uint8_t *beta, uint8_t *out)
{
    size_t built = nbuilt * size, total = built + ncached;
    fp *xs = malloc(3 * (total ? total : 1) * sizeof(fp));
    size_t *counts = malloc((nstreams ? nstreams : 1) * (sizeof(size_t) + 256));
    if (xs == NULL || counts == NULL) {
        free(xs);
        free(counts);
        return -1;
    }
    int8_t *digits = (int8_t *)(counts + nstreams);
    fp *ys = xs + total, *phi_xs = ys + total;
    if (nbuilt && odd_multiples(points, nbuilt, size, xs, ys)) {
        free(xs);
        free(counts);
        return -1;
    }
    for (size_t i = 0; i < ncached; i++) {
        fp_load_raw(&xs[built + i], cached + 2 * i * FP_BYTES);
        fp_load_raw(&ys[built + i], cached + (2 * i + 1) * FP_BYTES);
    }
    fp b;
    fp_load_raw(&b, beta);
    for (size_t i = 0; i < total; i++)
        fp_mul(&phi_xs[i], &xs[i], &b);
    size_t top = 0;
    for (size_t s = 0; s < nstreams; s++) {
        counts[s] = wnaf(digits + 256 * s, scalars + s * FP_BYTES,
                         (unsigned)streams[3 * s + 2]);
        if (counts[s] > top)
            top = counts[s];
    }
    g1 acc;
    memset(&acc, 0, sizeof acc);
    for (size_t bit = top; bit-- > 0;) {
        if (!fp_is_zero(&acc.z))
            g1_dbl(&acc, &acc);
        for (size_t s = 0; s < nstreams; s++) {
            if (bit >= counts[s])
                continue;
            int d = digits[256 * s + bit];
            if (d == 0)
                continue;
            const int64_t *stream = streams + 3 * s;
            size_t index = (size_t)stream[0] + (size_t)((d > 0 ? d : -d) - 1) / 2;
            const fp *ax = (stream[1] & 1) ? &phi_xs[index] : &xs[index];
            fp ay = ys[index];
            if ((d < 0) != ((stream[1] & 2) != 0))
                fp_neg(&ay, &ay);
            g1_add_affine(&acc, &acc, ax, &ay);
        }
    }
    free(xs);
    free(counts);
    g1_store(out, &acc);
    return 0;
}

/* Fixed-base comb table, as msm._fixed_table_g1_ref: rows x (2^window - 1)
 * Montgomery affine (x, y) entries, row r holding d * 2^(r*window) * P. */
int bn_g1_fixed_table(const uint8_t *point, unsigned window, size_t rows, uint8_t *table)
{
    size_t size = ((size_t)1 << window) - 1, total = rows * size;
    g1 *jac = malloc((total ? total : 1) * sizeof(g1));
    fp *ax = malloc(2 * (total ? total : 1) * sizeof(fp));
    if (jac == NULL || ax == NULL) {
        free(jac);
        free(ax);
        return -1;
    }
    fp *ay = ax + total;
    g1 base, entry;
    g1_load(&base, point);
    for (size_t r = 0; r < rows; r++) {
        entry = base;
        jac[r * size] = entry;
        for (size_t k = 1; k < size; k++) {
            g1_add(&entry, &entry, &base);
            jac[r * size + k] = entry;
        }
        for (unsigned s = 0; s < window; s++)
            g1_dbl(&base, &base);
    }
    int rc = g1_batch_affine(ax, ay, jac, total);
    if (rc == 0) {
        for (size_t i = 0; i < total; i++) {
            fp_store_raw(table + 2 * i * FP_BYTES, &ax[i]);
            fp_store_raw(table + (2 * i + 1) * FP_BYTES, &ay[i]);
        }
    }
    free(jac);
    free(ax);
    return rc;
}

/* As msm._fixed_mul_g1_ref over a bn_g1_fixed_table table. */
void bn_g1_fixed_mul(const uint8_t *table, unsigned window, size_t rows,
                     const uint8_t *scalar, uint8_t *out)
{
    size_t size = ((size_t)1 << window) - 1;
    uint64_t e[4];
    memcpy(e, scalar, sizeof e);
    g1 acc;
    memset(&acc, 0, sizeof acc);
    for (size_t r = 0; r < rows; r++) {
        unsigned digit = window_at(e, r * window, window);
        if (digit == 0)
            continue;
        const uint8_t *entry = table + 2 * (r * size + digit - 1) * FP_BYTES;
        fp ax, ay;
        fp_load_raw(&ax, entry);
        fp_load_raw(&ay, entry + FP_BYTES);
        g1_add_affine(&acc, &acc, &ax, &ay);
    }
    g1_store(out, &acc);
}

/* ------------------------------------------------- generic scalar mul -- */

/* G1Point.infinity(): what curve.py's methods return for the identity. */
static inline void g1_set_infinity(g1 *r)
{
    r->x = ONE;
    r->y = ONE;
    r->z = ZERO;
}

/* As G1Point.double and __add__, which wrap curve._jac_double / _jac_add:
 * an identity operand passes through, and G1Point.infinity() replaces the
 * formulas' z == 0 results (a doubling at y == 0, P + (-P)). */
static void g1_point_dbl(g1 *r, const g1 *p)
{
    g1_dbl(r, p);
    if (fp_is_zero(&r->z))
        g1_set_infinity(r);
}

static void g1_point_add(g1 *r, const g1 *p, const g1 *q)
{
    int passthrough = fp_is_zero(&p->z) || fp_is_zero(&q->z);
    g1_add(r, p, q);
    if (!passthrough && fp_is_zero(&r->z))
        g1_set_infinity(r);
}

/* point * scalar as curve._wnaf_mul_ref, for a finite point and 0 < scalar
 * < r (256-bit little-endian): odd multiples P, 3P, 5P, 7P, then double
 * and add / subtract down the wNAF digits.  point, out: canonical (x, y, z). */
void bn_g1_mul(const uint8_t *point, const uint8_t *scalar, uint8_t *out)
{
    int8_t digits[256];
    size_t n = wnaf(digits, scalar, 4);
    g1 table[4], twice, acc, entry;
    g1_load(&table[0], point);
    g1_point_dbl(&twice, &table[0]);
    for (int k = 1; k < 4; k++)
        g1_point_add(&table[k], &table[k - 1], &twice);
    g1_set_infinity(&acc);
    for (size_t i = n; i-- > 0;) {
        g1_point_dbl(&acc, &acc);
        int d = digits[i];
        if (d == 0)
            continue;
        entry = table[(d > 0 ? d : -d) >> 1];
        if (d < 0 && !fp_is_zero(&entry.z))  /* G1Point.__neg__ */
            fp_neg(&entry.y, &entry.y);
        g1_point_add(&acc, &acc, &entry);
    }
    g1_store(out, &acc);
}

/* ------------------------------------------------------------------- G2 -- */

typedef struct { fp2 x, y, z; } g2;  /* Jacobian over the twist */

/* G2Point.infinity(): (1, 1, 0) in Fp2. */
static inline void g2_set_infinity(g2 *r)
{
    memset(r, 0, sizeof *r);
    r->x.c0 = ONE;
    r->y.c0 = ONE;
}

static inline int fp2_is_zero(const fp2 *a)
{
    return fp_is_zero(&a->c0) && fp_is_zero(&a->c1);
}

/* As curve.G2Point.double, infinity at y == 0 or z == 0 included. */
static void g2_dbl(g2 *r, const g2 *p)
{
    if (fp2_is_zero(&p->z) || fp2_is_zero(&p->y)) {
        g2_set_infinity(r);
        return;
    }
    fp2 a, b, c, d, e, t, x3, y3, z3;
    fp2_sqr(&a, &p->x);
    fp2_sqr(&b, &p->y);
    fp2_sqr(&c, &b);
    fp2_add(&t, &p->x, &b);
    fp2_sqr(&t, &t);
    fp2_sub(&t, &t, &a);
    fp2_sub(&t, &t, &c);
    fp2_dbl(&d, &t);
    fp2_dbl(&e, &a);
    fp2_add(&e, &e, &a);
    fp2_sqr(&x3, &e);
    fp2_dbl(&t, &d);
    fp2_sub(&x3, &x3, &t);
    fp2_sub(&t, &d, &x3);
    fp2_mul(&y3, &e, &t);
    fp2_dbl(&t, &c);
    fp2_dbl(&t, &t);
    fp2_dbl(&t, &t);
    fp2_sub(&y3, &y3, &t);
    fp2_mul(&z3, &p->y, &p->z);
    fp2_dbl(&z3, &z3);
    r->x = x3;
    r->y = y3;
    r->z = z3;
}

/* As curve.G2Point.__add__. */
static void g2_add(g2 *r, const g2 *p, const g2 *q)
{
    if (fp2_is_zero(&p->z)) {
        *r = *q;
        return;
    }
    if (fp2_is_zero(&q->z)) {
        *r = *p;
        return;
    }
    fp2 z1z1, z2z2, u1, u2, s1, s2, h, rr, i, j, v, t, x3, y3, z3;
    fp2_sqr(&z1z1, &p->z);
    fp2_sqr(&z2z2, &q->z);
    fp2_mul(&u1, &p->x, &z2z2);
    fp2_mul(&u2, &q->x, &z1z1);
    fp2_mul(&s1, &p->y, &q->z);
    fp2_mul(&s1, &s1, &z2z2);
    fp2_mul(&s2, &q->y, &p->z);
    fp2_mul(&s2, &s2, &z1z1);
    fp2_sub(&h, &u2, &u1);
    fp2_sub(&rr, &s2, &s1);
    fp2_dbl(&rr, &rr);
    if (fp2_is_zero(&h)) {
        if (fp2_is_zero(&rr))
            g2_dbl(r, p);
        else
            g2_set_infinity(r);
        return;
    }
    fp2_sqr(&i, &h);
    fp2_dbl(&i, &i);
    fp2_dbl(&i, &i);
    fp2_mul(&j, &h, &i);
    fp2_mul(&v, &u1, &i);
    fp2_sqr(&x3, &rr);
    fp2_sub(&x3, &x3, &j);
    fp2_dbl(&t, &v);
    fp2_sub(&x3, &x3, &t);
    fp2_sub(&t, &v, &x3);
    fp2_mul(&y3, &rr, &t);
    fp2_mul(&t, &s1, &j);
    fp2_dbl(&t, &t);
    fp2_sub(&y3, &y3, &t);
    fp2_add(&z3, &p->z, &q->z);
    fp2_sqr(&z3, &z3);
    fp2_sub(&z3, &z3, &z1z1);
    fp2_sub(&z3, &z3, &z2z2);
    fp2_mul(&z3, &z3, &h);
    r->x = x3;
    r->y = y3;
    r->z = z3;
}

/* point * scalar as curve._wnaf_mul_ref: the chain of bn_g1_mul over the
 * twist.  point, out: canonical (x.c0, x.c1, y.c0, y.c1, z.c0, z.c1). */
void bn_g2_mul(const uint8_t *point, const uint8_t *scalar, uint8_t *out)
{
    int8_t digits[256];
    size_t n = wnaf(digits, scalar, 4);
    g2 table[4], twice, acc, entry;
    fp *limbs = (fp *)&table[0];
    for (int i = 0; i < 6; i++)
        fp_load(&limbs[i], point + i * FP_BYTES);
    g2_dbl(&twice, &table[0]);
    for (int k = 1; k < 4; k++)
        g2_add(&table[k], &table[k - 1], &twice);
    g2_set_infinity(&acc);
    for (size_t i = n; i-- > 0;) {
        g2_dbl(&acc, &acc);
        int d = digits[i];
        if (d == 0)
            continue;
        entry = table[(d > 0 ? d : -d) >> 1];
        if (d < 0 && !fp2_is_zero(&entry.z))  /* G2Point.__neg__ */
            fp2_neg(&entry.y, &entry.y);
        g2_add(&acc, &acc, &entry);
    }
    limbs = (fp *)&acc;
    for (int i = 0; i < 6; i++)
        fp_store(out + i * FP_BYTES, &limbs[i]);
}

/* ------------------------------------------------------ G2 line prepare -- */

/* Montgomery's trick: v[i] <- 1 / v[i] for all i with one inversion;
 * -1 (v unchanged) when some v[i] is zero.  prefix: n scratch entries. */
static int fp2_batch_inv(fp2 *v, fp2 *prefix, size_t n)
{
    fp2 acc = {ONE, ZERO}, inv;
    for (size_t i = 0; i < n; i++) {
        prefix[i] = acc;
        fp2_mul(&acc, &acc, &v[i]);
    }
    if (fp2_inv(&acc, &acc))
        return -1;
    for (size_t i = n; i-- > 0;) {
        fp2_mul(&inv, &acc, &prefix[i]);
        fp2_mul(&acc, &acc, &v[i]);
        v[i] = inv;
    }
    return 0;
}

/* One line step at the Jacobian T = (X, Y, Z), whose affine slope is
 * num / den.  With x_T = X/Z^2, y_T = Y/Z^3 and E = den Z^3:
 *     slope = num Z^3 / E,   slope x_T - y_T = (num X Z - den Y) / E,
 * so the step keeps the two numerators and E for one shared inversion. */
static void line_step(fp2 *slope, fp2 *c, fp2 *e, const g2 *t, const fp2 *num,
                      const fp2 *den)
{
    fp2 z3, u;
    fp2_sqr(&z3, &t->z);
    fp2_mul(&z3, &z3, &t->z);
    fp2_mul(slope, num, &z3);
    fp2_mul(&u, num, &t->x);
    fp2_mul(&u, &u, &t->z);
    fp2_mul(c, den, &t->y);
    fp2_sub(c, &u, c);
    fp2_mul(e, den, &z3);
}

/* Tangent at T: slope 3 x^2 / 2 y = 3 X^2 / (2 Y Z); then T <- 2T. */
static void line_double(fp2 *slope, fp2 *c, fp2 *e, g2 *t)
{
    fp2 num, den;
    fp2_sqr(&num, &t->x);
    fp2_dbl(&den, &num);
    fp2_add(&num, &num, &den);
    fp2_mul(&den, &t->y, &t->z);
    fp2_dbl(&den, &den);
    line_step(slope, c, e, t, &num, &den);
    g2_dbl(t, t);
}

/* Chord through T and the affine q: slope (y_q - y) / (x_q - x) =
 * (y_q Z^3 - Y) / (Z (x_q Z^2 - X)); then T <- T + q. */
static void line_add(fp2 *slope, fp2 *c, fp2 *e, g2 *t, const g2 *q)
{
    fp2 z2, num, den;
    fp2_sqr(&z2, &t->z);
    fp2_mul(&den, &q->x, &z2);
    fp2_sub(&den, &den, &t->x);
    fp2_mul(&den, &den, &t->z);
    fp2_mul(&num, &z2, &t->z);
    fp2_mul(&num, &num, &q->y);
    fp2_sub(&num, &num, &t->y);
    line_step(slope, c, e, t, &num, &den);
    g2_add(t, t, q);
}

/* G2Prepared's lines, as pairing._prepare_ref, for the affine twist point
 * q = (x.c0, x.c1, y.c0, y.c1) canonical: a tangent step per bit of the
 * ate schedule (high to low, below the top bit) and a chord step through q
 * after each set bit, then the chords through pi(q) and -pi^2(q).
 * frobenius: the Montgomery gamma_1[0..5] then gamma_2[0..5] of fields.py.
 * lines: steps x (slope, slope x_T - y_T) Montgomery Fp2 pairs, the
 * bn_miller_loop layout.  T stays Jacobian and one batch inversion serves
 * every step, so the values are the reference's affine ones.  -1 when some
 * step divides by zero (so would the reference) or malloc fails. */
int bn_g2_prepare(const uint8_t *q, const uint8_t *bits, size_t nbits,
                  const uint8_t *frobenius, uint8_t *lines)
{
    size_t steps = nbits + 2;
    for (size_t i = 0; i < nbits; i++)
        steps += bits[i] ? 1 : 0;
    fp2 *slopes = malloc(4 * steps * sizeof(fp2));
    if (slopes == NULL)
        return -1;
    fp2 *cs = slopes + steps, *es = cs + steps, *scratch = es + steps;
    fp2 gamma[12];
    for (int i = 0; i < 12; i++) {
        fp_load_raw(&gamma[i].c0, frobenius + 2 * i * FP_BYTES);
        fp_load_raw(&gamma[i].c1, frobenius + (2 * i + 1) * FP_BYTES);
    }
    g2 base, t, q1, q2;
    fp *limbs = (fp *)&base;
    for (int i = 0; i < 4; i++)
        fp_load(&limbs[i], q + i * FP_BYTES);
    base.z.c0 = ONE;
    base.z.c1 = ZERO;
    t = base;
    size_t index = 0;
    for (size_t i = 0; i < nbits; i++) {
        line_double(&slopes[index], &cs[index], &es[index], &t);
        index++;
        if (bits[i]) {
            line_add(&slopes[index], &cs[index], &es[index], &t, &base);
            index++;
        }
    }
    /* pi(q) = (conj(x) gamma_1[2], conj(y) gamma_1[3]);
     * -pi^2(q) = (x gamma_2[2], -y gamma_2[3]). */
    q1 = base;
    fp_neg(&q1.x.c1, &q1.x.c1);
    fp_neg(&q1.y.c1, &q1.y.c1);
    fp2_mul(&q1.x, &q1.x, &gamma[2]);
    fp2_mul(&q1.y, &q1.y, &gamma[3]);
    q2 = base;
    fp2_mul(&q2.x, &q2.x, &gamma[8]);
    fp2_mul(&q2.y, &q2.y, &gamma[9]);
    fp2_neg(&q2.y, &q2.y);
    line_add(&slopes[index], &cs[index], &es[index], &t, &q1);
    index++;
    line_add(&slopes[index], &cs[index], &es[index], &t, &q2);
    if (fp2_batch_inv(es, scratch, steps)) {
        free(slopes);
        return -1;
    }
    for (size_t i = 0; i < steps; i++) {
        fp2 slope, c;
        fp2_mul(&slope, &slopes[i], &es[i]);
        fp2_mul(&c, &cs[i], &es[i]);
        uint8_t *line = lines + 4 * i * FP_BYTES;
        fp_store_raw(line, &slope.c0);
        fp_store_raw(line + FP_BYTES, &slope.c1);
        fp_store_raw(line + 2 * FP_BYTES, &c.c0);
        fp_store_raw(line + 3 * FP_BYTES, &c.c1);
    }
    free(slopes);
    return 0;
}

/* ------------------------------------------------------ SHA-256 and PRP -- */

/* FIPS 180-4 SHA-256 and RFC 2104 HMAC-SHA256 over it: the challenge
 * expansion of crypto/prf.py.  A key is hashed first when longer than one
 * block; its inner and outer pads are compressed once (the midstates), so
 * each message then costs only the blocks of its own tail. */

static const uint32_t SHA256_K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

static const uint32_t SHA256_IV[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

static inline uint32_t rotr(uint32_t x, unsigned n) { return x >> n | x << (32 - n); }

static void sha256_compress(uint32_t state[8], const uint8_t block[64])
{
    uint32_t w[64];
    for (int i = 0; i < 16; i++)
        w[i] = (uint32_t)block[4 * i] << 24 | (uint32_t)block[4 * i + 1] << 16 |
               (uint32_t)block[4 * i + 2] << 8 | block[4 * i + 3];
    for (int i = 16; i < 64; i++) {
        uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ w[i - 15] >> 3;
        uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ w[i - 2] >> 10;
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; i++) {
        uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + ((e & f) ^ (~e & g)) +
                      SHA256_K[i] + w[i];
        uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

/* The digest of a message whose first `done` bytes (whole blocks) `start`
 * has absorbed and whose rest is data[0..len). */
static void sha256_finish(const uint32_t start[8], uint64_t done, const uint8_t *data,
                          size_t len, uint8_t out[32])
{
    uint32_t state[8];
    uint8_t tail[128] = {0};
    memcpy(state, start, sizeof state);
    size_t whole = len - len % 64;
    for (size_t i = 0; i < whole; i += 64)
        sha256_compress(state, data + i);
    size_t rest = len - whole, blocks = rest < 56 ? 1 : 2;
    if (rest)
        memcpy(tail, data + whole, rest);
    tail[rest] = 0x80;
    uint64_t bits = (done + len) * 8;
    for (int i = 0; i < 8; i++)
        tail[64 * blocks - 1 - i] = (uint8_t)(bits >> (8 * i));
    for (size_t i = 0; i < blocks; i++)
        sha256_compress(state, tail + 64 * i);
    for (int i = 0; i < 8; i++) {
        out[4 * i] = (uint8_t)(state[i] >> 24);
        out[4 * i + 1] = (uint8_t)(state[i] >> 16);
        out[4 * i + 2] = (uint8_t)(state[i] >> 8);
        out[4 * i + 3] = (uint8_t)state[i];
    }
}

typedef struct { uint32_t inner[8], outer[8]; } hmac_key;

static void hmac_init(hmac_key *k, const uint8_t *key, size_t len)
{
    uint8_t pad[64] = {0}, block[64];
    if (len > 64)
        sha256_finish(SHA256_IV, 0, key, len, pad);
    else if (len)
        memcpy(pad, key, len);
    for (int i = 0; i < 64; i++)
        block[i] = pad[i] ^ 0x36;
    memcpy(k->inner, SHA256_IV, sizeof k->inner);
    sha256_compress(k->inner, block);
    for (int i = 0; i < 64; i++)
        block[i] = pad[i] ^ 0x5c;
    memcpy(k->outer, SHA256_IV, sizeof k->outer);
    sha256_compress(k->outer, block);
}

static void hmac(const hmac_key *k, const uint8_t *msg, size_t len, uint8_t out[32])
{
    uint8_t inner[32];
    sha256_finish(k->inner, 64, msg, len, inner);
    sha256_finish(k->outer, 64, inner, 32, out);
}

static inline void store_be64(uint8_t *dst, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        dst[i] = (uint8_t)(v >> (56 - 8 * i));
}

void bn_sha256(const uint8_t *data, size_t len, uint8_t *out)
{
    sha256_finish(SHA256_IV, 0, data, len, out);
}

void bn_hmac_sha256(const uint8_t *key, size_t keylen, const uint8_t *msg, size_t len,
                    uint8_t *out)
{
    hmac_key k;
    hmac_init(&k, key, keylen);
    hmac(&k, msg, len, out);
}

/* FeistelPrp.sample_indices(count) for count <= domain: out[i] is the image
 * of i under the 4-round Feistel network on 2 x half_bits bits (half_bits
 * <= 32), cycle-walked into [0, domain).  Round j maps (L, R) to
 * (R, L ^ F), F the first 8 digest bytes of HMAC(key, j || R as 8 bytes),
 * big-endian, masked to half_bits, as FeistelPrp._round. */
void bn_prp_sample(const uint8_t *key, size_t keylen, uint64_t domain, unsigned half_bits,
                   size_t count, uint64_t *out)
{
    hmac_key k;
    hmac_init(&k, key, keylen);
    uint64_t mask = ((uint64_t)1 << half_bits) - 1;
    for (size_t i = 0; i < count; i++) {
        uint64_t value = i;
        do {
            uint64_t left = value >> half_bits, right = value & mask;
            for (uint8_t round = 0; round < 4; round++) {
                uint8_t msg[9], digest[32];
                uint64_t f = 0;
                msg[0] = round;
                store_be64(msg + 1, right);
                hmac(&k, msg, sizeof msg, digest);
                for (int b = 0; b < 8; b++)
                    f = f << 8 | digest[b];
                f = left ^ (f & mask);
                left = right;
                right = f;
            }
            value = left << half_bits | right;
        } while (value >= domain);
        out[i] = value;
    }
}

/* Prf.scalar's wide digests for indices 0..count-1: 64 bytes each,
 * HMAC(key, i as 8 bytes || 0) || HMAC(key, i as 8 bytes || 1).  Python
 * reduces them mod r. */
void bn_prf_wide(const uint8_t *key, size_t keylen, size_t count, uint8_t *out)
{
    hmac_key k;
    hmac_init(&k, key, keylen);
    for (size_t i = 0; i < count; i++) {
        uint8_t msg[9];
        store_be64(msg, i);
        for (uint8_t half = 0; half < 2; half++) {
            msg[8] = half;
            hmac(&k, msg, sizeof msg, out + 64 * i + 32 * half);
        }
    }
}
