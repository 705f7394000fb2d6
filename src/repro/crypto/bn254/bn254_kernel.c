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
 * the buffers documented as "Montgomery" (prepared Miller lines and fixed-base
 * tables, which Python holds as opaque bytes).  Every loop runs the formulas
 * of its pure-Python reference in the same order, and mod-p arithmetic is
 * exact, so outputs equal the reference bit for bit, Jacobian triples
 * included.
 *
 * Reentrant: there is no mutable static state.  Scratch lives on the stack or
 * comes from malloc, and the constants Python derives (Frobenius
 * coefficients, the GLV beta) arrive as arguments.  Entry points returning
 * int give 0 on success and -1 when an inversion meets zero or malloc fails.
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
/* p - 2: the Fermat inversion exponent. */
static const uint64_t P_MINUS_2[4] = {0x3c208c16d87cfd45ULL, 0x97816a916871ca8dULL,
                                      0xb85045b68181585dULL, 0x30644e72e131a029ULL};

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

/* a^(p-2); zero maps to zero. */
static void fp_inv(fp *r, const fp *a)
{
    fp acc = ONE;
    for (int i = 3; i >= 0; i--) {
        for (int bit = 63; bit >= 0; bit--) {
            fp_sqr(&acc, &acc);
            if ((P_MINUS_2[i] >> bit) & 1)
                fp_mul(&acc, &acc, a);
        }
    }
    *r = acc;
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

/* base^e by cyclotomic square-and-multiply from the low bit, as
 * gt._gt_pow_ref; e is a nonzero 256-bit little-endian integer. */
void bn_gt_pow(const uint8_t *base, const uint8_t *exponent, uint8_t *out)
{
    uint64_t e[4];
    memcpy(e, exponent, sizeof e);
    int top = -1;
    for (int bit = 255; bit >= 0 && top < 0; bit--)
        if ((e[bit / 64] >> (bit % 64)) & 1)
            top = bit;
    fp12 power, result;
    int have = 0;
    fp12_load(&power, base);
    fp12_one(&result);
    for (int bit = 0; bit <= top; bit++) {
        if ((e[bit / 64] >> (bit % 64)) & 1) {
            if (have)
                fp12_mul(&result, &result, &power);
            else
                result = power;
            have = 1;
        }
        if (bit < top)
            fp12_cyclo_sqr(&power, &power);
    }
    fp12_store(out, &result);
}

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

/* Fixed-base window table, as gt._gt_fixed_table_ref: rows x (2^window - 1)
 * Montgomery Fp12 entries, row r holding base^(d * 2^(r*window)). */
void bn_gt_fixed_table(const uint8_t *base, unsigned window, size_t rows, uint8_t *table)
{
    size_t size = ((size_t)1 << window) - 1;
    fp12 row_base, entry;
    fp12_load(&row_base, base);
    for (size_t r = 0; r < rows; r++) {
        entry = row_base;
        memcpy(table + r * size * FP12_BYTES, &entry, FP12_BYTES);
        for (size_t k = 1; k < size; k++) {
            fp12_mul(&entry, &entry, &row_base);
            memcpy(table + (r * size + k) * FP12_BYTES, &entry, FP12_BYTES);
        }
        for (unsigned s = 0; s < window; s++)
            fp12_cyclo_sqr(&row_base, &row_base);
    }
}

/* As gt._gt_fixed_pow_ref over a bn_gt_fixed_table table; e nonzero. */
void bn_gt_fixed_pow(const uint8_t *table, unsigned window, size_t rows,
                     const uint8_t *exponent, uint8_t *out)
{
    size_t size = ((size_t)1 << window) - 1;
    uint64_t e[4];
    memcpy(e, exponent, sizeof e);
    fp12 result, entry;
    int have = 0;
    fp12_one(&result);
    for (size_t r = 0; r < rows; r++) {
        unsigned digit = window_at(e, r * window, window);
        if (digit == 0)
            continue;
        memcpy(&entry, table + (r * size + digit - 1) * FP12_BYTES, FP12_BYTES);
        if (have)
            fp12_mul(&result, &result, &entry);
        else
            result = entry;
        have = 1;
    }
    fp12_store(out, &result);
}

/* ------------------------------------------------------------------- G1 -- */

/* dbl-2009-l, as msm._jac_double. */
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

/* madd-2007-bl, as msm._jac_add_affine. */
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

/* add-2007-bl, as msm._jac_add. */
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
 * msm._to_affine_batch_raw; -1 when some z is zero. */
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

/* wNAF odd-multiple tables of n points; out: n x size canonical (x, y). */
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
            fp_store(out + 2 * i * FP_BYTES, &ax[i]);
            fp_store(out + (2 * i + 1) * FP_BYTES, &ay[i]);
        }
    }
    free(ax);
    return rc;
}

/* The shared doubling / mixed-add chain of msm._msm_wnaf_g1_ref.
 *
 * Entry space: the tables of the nbuilt points (x, y, z) built here, size
 * entries each, then ncached canonical affine (x, y) entries the caller
 * cached.  streams: nstreams x (first entry, flags, first digit, digit
 * count), where flag 1 reads the table through phi (x -> beta x) and flag 2
 * negates the stream.  digits: each stream's wNAF, low digit first.  beta:
 * Montgomery.  out: the Jacobian (x, y, z), z == 0 for the identity. */
int bn_g1_wnaf_msm(const uint8_t *points, size_t nbuilt, size_t size,
                   const uint8_t *cached, size_t ncached,
                   const int64_t *streams, size_t nstreams,
                   const int8_t *digits, const uint8_t *beta, uint8_t *out)
{
    size_t built = nbuilt * size, total = built + ncached;
    fp *xs = malloc(3 * (total ? total : 1) * sizeof(fp));
    if (xs == NULL)
        return -1;
    fp *ys = xs + total, *phi_xs = ys + total;
    if (nbuilt && odd_multiples(points, nbuilt, size, xs, ys)) {
        free(xs);
        return -1;
    }
    for (size_t i = 0; i < ncached; i++) {
        fp_load(&xs[built + i], cached + 2 * i * FP_BYTES);
        fp_load(&ys[built + i], cached + (2 * i + 1) * FP_BYTES);
    }
    fp b;
    fp_load_raw(&b, beta);
    for (size_t i = 0; i < total; i++)
        fp_mul(&phi_xs[i], &xs[i], &b);
    int64_t top = 0;
    for (size_t s = 0; s < nstreams; s++)
        if (streams[4 * s + 3] > top)
            top = streams[4 * s + 3];
    g1 acc;
    memset(&acc, 0, sizeof acc);
    for (int64_t bit = top - 1; bit >= 0; bit--) {
        if (!fp_is_zero(&acc.z))
            g1_dbl(&acc, &acc);
        for (size_t s = 0; s < nstreams; s++) {
            const int64_t *stream = streams + 4 * s;
            if (bit >= stream[3])
                continue;
            int d = digits[stream[2] + bit];
            if (d == 0)
                continue;
            size_t index = (size_t)stream[0] + (size_t)((d > 0 ? d : -d) - 1) / 2;
            const fp *ax = (stream[1] & 1) ? &phi_xs[index] : &xs[index];
            fp ay = ys[index];
            if ((d < 0) != ((stream[1] & 2) != 0))
                fp_neg(&ay, &ay);
            g1_add_affine(&acc, &acc, ax, &ay);
        }
    }
    free(xs);
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

/* Width-4 wNAF of a 256-bit little-endian scalar < 2^255, low digit first,
 * as curve._wnaf; returns the digit count (at most 256). */
static size_t wnaf4(int8_t *digits, const uint8_t *scalar)
{
    uint64_t e[4];
    memcpy(e, scalar, sizeof e);
    size_t n = 0;
    while (e[0] | e[1] | e[2] | e[3]) {
        int d = 0;
        if (e[0] & 1) {
            d = (int)(e[0] & 15);
            if (d >= 8)
                d -= 16;
            if (d > 0) {
                e[0] -= (uint64_t)d;  /* the low four bits are d */
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

/* G1Point.infinity(): what curve.py's methods return for the identity. */
static inline void g1_set_infinity(g1 *r)
{
    r->x = ONE;
    r->y = ONE;
    r->z = ZERO;
}

/* G1Point.double and __add__ run dbl-2009-l / add-2007-bl, pass an identity
 * operand through, and return G1Point.infinity() exactly where those
 * formulas give z == 0 (a doubling at y == 0, P + (-P)). */
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
    size_t n = wnaf4(digits, scalar);
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
    size_t n = wnaf4(digits, scalar);
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
