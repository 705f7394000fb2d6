"""Extension-field tower for BN254: Fp2, Fp6 and Fp12.

The tower is the one used by every production BN254 implementation
(Cloudflare bn256, go-ethereum, gnark, zkcrypto/bn)::

    Fp2  = Fp[u]  / (u^2 + 1)
    Fp6  = Fp2[v] / (v^3 - xi),  xi = 9 + u
    Fp12 = Fp6[w] / (w^2 - v)

Base-field (``Fp``) elements are plain Python ints reduced mod ``p`` — we keep
them unboxed for speed since the whole library is pure Python.  Extension
elements are small ``__slots__`` classes with operator overloading.

Frobenius coefficients are derived numerically at import time from ``xi``
rather than pasted in as magic constants, and are covered by tests comparing
``frobenius(f, k)`` against ``f ** (p**k)``.

The Fp6/Fp12 multiplication and squaring hot paths are *flattened*: they
compute over plain ints with delayed reduction (one ``% p`` per output
coefficient instead of one per intermediate) and construct no intermediate
Fp2/Fp6 objects.  Residues are canonical, so the flattened kernels return
exactly the same values as the schoolbook tower — the crypto differential
tests pin this down bit for bit.  The Fp12 product and the cyclotomic
square exist only in that flat form (:func:`_f12mul`,
:func:`_f12sqr_cyclo`); the :class:`Fp12` methods convert at the edges.

The square roots behind point decompression and hashing to G1,
:func:`fp_sqrt` and :meth:`Fp2.sqrt`, run in the native kernel
(:mod:`.kernel`) when it is in use; :func:`_fp_sqrt_ref` and
:meth:`Fp2._sqrt_ref` are their references and return the same root.
"""

from __future__ import annotations

from .constants import FIELD_MODULUS as P
from .constants import XI_C0, XI_C1
from .kernel import active

# --------------------------------------------------------------------------
# Flat kernels over (c0, c1) int pairs.
#
# Inputs are reduced (or near-reduced sums of reduced values); outputs are
# UNREDUCED ints the caller must take mod p.  Keeping everything in raw ints
# avoids the per-operation Fp2 allocations that dominate the tower's cost in
# pure Python.
# --------------------------------------------------------------------------


def _f2mul(a0, a1, b0, b1):
    """Karatsuba Fp2 product; unreduced output pair."""
    t0 = a0 * b0
    t1 = a1 * b1
    return t0 - t1, (a0 + a1) * (b0 + b1) - t0 - t1


def _f2sqr(a0, a1):
    """(a0 + a1 u)^2; unreduced output pair."""
    return (a0 + a1) * (a0 - a1), 2 * a0 * a1


def _f2xi(a0, a1):
    """Multiply by xi = 9 + u; unreduced output pair."""
    return XI_C0 * a0 - XI_C1 * a1, XI_C0 * a1 + XI_C1 * a0


def _f6mul(a, b):
    """Flat Fp6 product: a, b are 6-int tuples (c0.c0, c0.c1, c1.c0, c1.c1,
    c2.c0, c2.c1); returns an unreduced 6-int tuple."""
    a00, a01, a10, a11, a20, a21 = a
    b00, b01, b10, b11, b20, b21 = b
    t00, t01 = _f2mul(a00, a01, b00, b01)
    t10, t11 = _f2mul(a10, a11, b10, b11)
    t20, t21 = _f2mul(a20, a21, b20, b21)
    m0, m1 = _f2mul(a10 + a20, a11 + a21, b10 + b20, b11 + b21)
    x0, x1 = _f2xi(m0 - t10 - t20, m1 - t11 - t21)
    c00, c01 = x0 + t00, x1 + t01
    m0, m1 = _f2mul(a00 + a10, a01 + a11, b00 + b10, b01 + b11)
    x0, x1 = _f2xi(t20, t21)
    c10, c11 = m0 - t00 - t10 + x0, m1 - t01 - t11 + x1
    m0, m1 = _f2mul(a00 + a20, a01 + a21, b00 + b20, b01 + b21)
    c20, c21 = m0 - t00 - t20 + t10, m1 - t01 - t21 + t11
    return c00, c01, c10, c11, c20, c21


def _f6sqr(a):
    """Flat Fp6 squaring (same CH-SQR3 sequence as Fp6.square)."""
    a00, a01, a10, a11, a20, a21 = a
    s00, s01 = _f2sqr(a00, a01)
    ab0, ab1 = _f2mul(a00, a01, a10, a11)
    s10, s11 = 2 * ab0, 2 * ab1
    s20, s21 = _f2sqr(a00 - a10 + a20, a01 - a11 + a21)
    bc0, bc1 = _f2mul(a10, a11, a20, a21)
    s30, s31 = 2 * bc0, 2 * bc1
    s40, s41 = _f2sqr(a20, a21)
    x0, x1 = _f2xi(s30, s31)
    c00, c01 = s00 + x0, s01 + x1
    x0, x1 = _f2xi(s40, s41)
    c10, c11 = s10 + x0, s11 + x1
    c20, c21 = s10 + s20 + s30 - s00 - s40, s11 + s21 + s31 - s01 - s41
    return c00, c01, c10, c11, c20, c21


def _f6mulv(a):
    """Flat multiply-by-v: (c0, c1, c2) -> (xi*c2, c0, c1)."""
    a00, a01, a10, a11, a20, a21 = a
    x0, x1 = _f2xi(a20, a21)
    return x0, x1, a00, a01, a10, a11


def _f6add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _f6sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


# --------------------------------------------------------------------------
# Flat Fp12 kernels over 12-int tuples (c0 flat6 ++ c1 flat6).
#
# Unlike the 2/6 kernels these return REDUCED tuples, so outputs can feed
# straight back in.  They are the one Python copy of the Fp12 product and
# cyclotomic square: Fp12.__mul__, cyclotomic_square and pow_t wrap them,
# and the GT exponentiation chains (the fixed-base comb, shared multi-pow
# ladders) run entirely on them and only materialize an Fp12 object at
# the end.  The kernel's fp12_mul / fp12_cyclo_sqr mirror them.
# --------------------------------------------------------------------------


def _f12mul(a, b):
    """Flat Fp12 product: Karatsuba over Fp6, c0 = t0 + v t1 and
    c1 = (a0 + a1)(b0 + b1) - t0 - t1.

    Fully unpacked — no slicing or generator glue; this is the single
    hottest GT operation (fixed-base commitment windows, batch multi-pow).
    """
    a00, a01, a02, a03, a04, a05, a10, a11, a12, a13, a14, a15 = a
    b00, b01, b02, b03, b04, b05, b10, b11, b12, b13, b14, b15 = b
    t00, t01, t02, t03, t04, t05 = _f6mul(
        (a00, a01, a02, a03, a04, a05), (b00, b01, b02, b03, b04, b05)
    )
    t10, t11, t12, t13, t14, t15 = _f6mul(
        (a10, a11, a12, a13, a14, a15), (b10, b11, b12, b13, b14, b15)
    )
    m0, m1, m2, m3, m4, m5 = _f6mul(
        (a00 + a10, a01 + a11, a02 + a12, a03 + a13, a04 + a14, a05 + a15),
        (b00 + b10, b01 + b11, b02 + b12, b03 + b13, b04 + b14, b05 + b15),
    )
    x0, x1 = _f2xi(t14, t15)
    return (
        (t00 + x0) % P, (t01 + x1) % P,
        (t02 + t10) % P, (t03 + t11) % P,
        (t04 + t12) % P, (t05 + t13) % P,
        (m0 - t00 - t10) % P, (m1 - t01 - t11) % P,
        (m2 - t02 - t12) % P, (m3 - t03 - t13) % P,
        (m4 - t04 - t14) % P, (m5 - t05 - t15) % P,
    )


def _f12sqr_cyclo(f):
    """Flat Granger-Scott cyclotomic squaring (unitary elements only)."""
    g00, g01, g20, g21, g40, g41, g10, g11, g30, g31, g50, g51 = f
    a20, a21 = _f2sqr(g00, g01)
    b20, b21 = _f2sqr(g30, g31)
    x0, x1 = _f2xi(b20, b21)
    s0, s1 = _f2sqr(g00 + g30, g01 + g31)
    t000, t001 = a20 + x0, a21 + x1
    t110, t111 = s0 - a20 - b20, s1 - a21 - b21
    a20, a21 = _f2sqr(g10, g11)
    b20, b21 = _f2sqr(g40, g41)
    x0, x1 = _f2xi(b20, b21)
    s0, s1 = _f2sqr(g10 + g40, g11 + g41)
    t010, t011 = a20 + x0, a21 + x1
    t120, t121 = s0 - a20 - b20, s1 - a21 - b21
    a20, a21 = _f2sqr(g20, g21)
    b20, b21 = _f2sqr(g50, g51)
    x0, x1 = _f2xi(b20, b21)
    s0, s1 = _f2sqr(g20 + g50, g21 + g51)
    t020, t021 = a20 + x0, a21 + x1
    t100, t101 = _f2xi(s0 - a20 - b20, s1 - a21 - b21)
    return (
        (3 * t000 - 2 * g00) % P, (3 * t001 - 2 * g01) % P,
        (3 * t010 - 2 * g20) % P, (3 * t011 - 2 * g21) % P,
        (3 * t020 - 2 * g40) % P, (3 * t021 - 2 * g41) % P,
        (3 * t100 + 2 * g10) % P, (3 * t101 + 2 * g11) % P,
        (3 * t110 + 2 * g30) % P, (3 * t111 + 2 * g31) % P,
        (3 * t120 + 2 * g50) % P, (3 * t121 + 2 * g51) % P,
    )


def _f12conj(a):
    """Flat conjugation f -> f^(p^6) (= inverse for unitary elements)."""
    return a[:6] + tuple(-x % P for x in a[6:])

# --------------------------------------------------------------------------
# Fp helpers (plain ints)
# --------------------------------------------------------------------------


def fp_sqrt(a: int) -> int | None:
    """Square root in Fp (p = 3 mod 4), or None if ``a`` is a non-residue:
    the native kernel's when it is in use, else :func:`_fp_sqrt_ref`'s (the
    same root)."""
    kernel = active()
    if kernel is not None:
        return kernel.fp_sqrt(a % P)
    return _fp_sqrt_ref(a)


def _fp_sqrt_ref(a: int) -> int | None:
    a %= P
    if a == 0:
        return 0
    root = pow(a, (P + 1) // 4, P)
    if root * root % P != a:
        return None
    return root


# --------------------------------------------------------------------------
# Fp2
# --------------------------------------------------------------------------


class Fp2:
    """Element c0 + c1*u of Fp2 = Fp[u]/(u^2 + 1)."""

    __slots__ = ("c0", "c1")
    _immutable_value = True  # written by the constructor only

    def __init__(self, c0: int, c1: int = 0):
        self.c0 = c0 % P
        self.c1 = c1 % P

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Fp2":
        return Fp2(0, 0)

    @staticmethod
    def one() -> "Fp2":
        return Fp2(1, 0)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Fp2) and self.c0 == other.c0 and self.c1 == other.c1
        )

    def __hash__(self) -> int:
        return hash((self.c0, self.c1))

    def __repr__(self) -> str:
        return f"Fp2({self.c0}, {self.c1})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Fp2") -> "Fp2":
        return Fp2(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "Fp2") -> "Fp2":
        return Fp2(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self) -> "Fp2":
        return Fp2(-self.c0, -self.c1)

    def __mul__(self, other: "Fp2") -> "Fp2":
        a0, a1 = self.c0, self.c1
        b0, b1 = other.c0, other.c1
        t0 = a0 * b0
        t1 = a1 * b1
        t2 = (a0 + a1) * (b0 + b1)
        return Fp2(t0 - t1, t2 - t0 - t1)

    def square(self) -> "Fp2":
        a0, a1 = self.c0, self.c1
        # (a0 + a1 u)^2 = (a0+a1)(a0-a1) + 2 a0 a1 u
        return Fp2((a0 + a1) * (a0 - a1), 2 * a0 * a1)

    def mul_scalar(self, k: int) -> "Fp2":
        return Fp2(self.c0 * k, self.c1 * k)

    def double(self) -> "Fp2":
        return Fp2(2 * self.c0, 2 * self.c1)

    def conjugate(self) -> "Fp2":
        return Fp2(self.c0, -self.c1)

    def mul_by_xi(self) -> "Fp2":
        """Multiply by xi = 9 + u (the Fp6/Fp12 non-residue)."""
        a0, a1 = self.c0, self.c1
        return Fp2(XI_C0 * a0 - XI_C1 * a1, XI_C0 * a1 + XI_C1 * a0)

    def inverse(self) -> "Fp2":
        a0, a1 = self.c0, self.c1
        norm = (a0 * a0 + a1 * a1) % P
        if norm == 0:
            raise ZeroDivisionError("zero has no inverse in Fp2")
        inv = pow(norm, -1, P)
        return Fp2(a0 * inv, -a1 * inv)

    def __pow__(self, exponent: int) -> "Fp2":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Fp2.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base.square()
            exponent >>= 1
        return result

    def sqrt(self) -> "Fp2 | None":
        """Square root in Fp2 (p = 3 mod 4), or None for non-residues: the
        native kernel's when it is in use, else :meth:`_sqrt_ref`'s (the
        same root)."""
        kernel = active()
        if kernel is not None:
            root = kernel.fp2_sqrt(self.c0, self.c1)
            return None if root is None else Fp2(*root)
        return self._sqrt_ref()

    def _sqrt_ref(self) -> "Fp2 | None":
        """The standard two-candidate algorithm: with ``a1 = a^((p-3)/4)``,
        either ``a1 * a`` or ``u * a1 * a`` is a root whenever one exists.
        """
        if self.is_zero():
            return Fp2.zero()
        a1 = self ** ((P - 3) // 4)
        alpha = a1.square() * self
        x0 = a1 * self
        if alpha == Fp2(-1 % P, 0):
            candidate = Fp2(-x0.c1, x0.c0)  # u * x0
        else:
            b = (Fp2.one() + alpha) ** ((P - 1) // 2)
            candidate = b * x0
        if candidate.square() == self:
            return candidate
        return None

    def sign(self) -> int:
        """Deterministic sign bit for point compression.

        Lexicographic: compare (c1, c0) against the negation.
        """
        if self.c1 != 0:
            return 1 if self.c1 > P - self.c1 else 0
        return 1 if self.c0 > P - self.c0 else 0


XI = Fp2(XI_C0, XI_C1)


# --------------------------------------------------------------------------
# Fp6
# --------------------------------------------------------------------------


class Fp6:
    """Element c0 + c1*v + c2*v^2 of Fp6 = Fp2[v]/(v^3 - xi)."""

    __slots__ = ("c0", "c1", "c2")
    _immutable_value = True  # written by the constructor only

    def __init__(self, c0: Fp2, c1: Fp2, c2: Fp2):
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2

    @staticmethod
    def zero() -> "Fp6":
        return Fp6(Fp2.zero(), Fp2.zero(), Fp2.zero())

    @staticmethod
    def one() -> "Fp6":
        return Fp6(Fp2.one(), Fp2.zero(), Fp2.zero())

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero() and self.c2.is_zero()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Fp6)
            and self.c0 == other.c0
            and self.c1 == other.c1
            and self.c2 == other.c2
        )

    def __hash__(self) -> int:
        return hash((self.c0, self.c1, self.c2))

    def __repr__(self) -> str:
        return f"Fp6({self.c0!r}, {self.c1!r}, {self.c2!r})"

    def __add__(self, other: "Fp6") -> "Fp6":
        return Fp6(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "Fp6") -> "Fp6":
        return Fp6(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> "Fp6":
        return Fp6(-self.c0, -self.c1, -self.c2)

    def _flat6(self) -> tuple:
        c0, c1, c2 = self.c0, self.c1, self.c2
        return (c0.c0, c0.c1, c1.c0, c1.c1, c2.c0, c2.c1)

    @staticmethod
    def _from_flat6(flat) -> "Fp6":
        c00, c01, c10, c11, c20, c21 = flat
        return Fp6(Fp2(c00, c01), Fp2(c10, c11), Fp2(c20, c21))

    def __mul__(self, other: "Fp6") -> "Fp6":
        return Fp6._from_flat6(_f6mul(self._flat6(), other._flat6()))

    def square(self) -> "Fp6":
        return Fp6._from_flat6(_f6sqr(self._flat6()))

    def mul_by_v(self) -> "Fp6":
        """Multiply by v: (c0, c1, c2) -> (xi*c2, c0, c1)."""
        return Fp6(self.c2.mul_by_xi(), self.c0, self.c1)

    def inverse(self) -> "Fp6":
        a0, a1, a2 = self.c0, self.c1, self.c2
        t0 = a0.square() - (a1 * a2).mul_by_xi()
        t1 = a2.square().mul_by_xi() - a0 * a1
        t2 = a1.square() - a0 * a2
        denom = a0 * t0 + (a2 * t1 + a1 * t2).mul_by_xi()
        inv = denom.inverse()
        return Fp6(t0 * inv, t1 * inv, t2 * inv)


# --------------------------------------------------------------------------
# Fp12
# --------------------------------------------------------------------------


def _frobenius_coefficients() -> tuple[list[Fp2], list[Fp2], list[Fp2]]:
    """Derive gamma_k[i] = xi^(i*(p^k - 1)/6) for k = 1, 2, 3."""
    tables = []
    for k in (1, 2, 3):
        exponent = (P**k - 1) // 6
        base = XI**exponent
        table = [Fp2.one()]
        for _ in range(5):
            table.append(table[-1] * base)
        tables.append(table)
    return tables[0], tables[1], tables[2]


_FROB1, _FROB2, _FROB3 = _frobenius_coefficients()


class Fp12:
    """Element c0 + c1*w of Fp12 = Fp6[w]/(w^2 - v).

    Flattened, this is Fp2[w]/(w^6 - xi); the basis mapping used by the
    Frobenius endomorphism is::

        w^0, w^2, w^4  ->  c0.c0, c0.c1, c0.c2
        w^1, w^3, w^5  ->  c1.c0, c1.c1, c1.c2
    """

    __slots__ = ("c0", "c1")
    _immutable_value = True  # written by the constructor only

    def __init__(self, c0: Fp6, c1: Fp6):
        self.c0 = c0
        self.c1 = c1

    @staticmethod
    def zero() -> "Fp12":
        return Fp12(Fp6.zero(), Fp6.zero())

    @staticmethod
    def one() -> "Fp12":
        return Fp12(Fp6.one(), Fp6.zero())

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero()

    def is_one(self) -> bool:
        return self == Fp12.one()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Fp12) and self.c0 == other.c0 and self.c1 == other.c1

    def __hash__(self) -> int:
        return hash((self.c0, self.c1))

    def __repr__(self) -> str:
        return f"Fp12({self.c0!r}, {self.c1!r})"

    def __add__(self, other: "Fp12") -> "Fp12":
        return Fp12(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "Fp12") -> "Fp12":
        return Fp12(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self) -> "Fp12":
        return Fp12(-self.c0, -self.c1)

    def __mul__(self, other: "Fp12") -> "Fp12":
        return Fp12._from_flat12(_f12mul(self._flat12(), other._flat12()))

    def square(self) -> "Fp12":
        a0, a1 = self.c0._flat6(), self.c1._flat6()
        t = _f6mul(a0, a1)
        c0 = _f6sub(_f6sub(_f6mul(_f6add(a0, a1), _f6add(a0, _f6mulv(a1))), t), _f6mulv(t))
        c1 = _f6add(t, t)
        return Fp12(Fp6._from_flat6(c0), Fp6._from_flat6(c1))

    def conjugate(self) -> "Fp12":
        """f^(p^6): negates the odd-w part.  For unitary elements (the
        cyclotomic subgroup GT lives in) this equals the inverse."""
        return Fp12(self.c0, -self.c1)

    def _flat12(self) -> tuple:
        """Raw 12-int view (c0 flat6 ++ c1 flat6) for the flat GT kernels."""
        return self.c0._flat6() + self.c1._flat6()

    @staticmethod
    def _from_flat12(flat) -> "Fp12":
        return Fp12(Fp6._from_flat6(flat[:6]), Fp6._from_flat6(flat[6:]))

    def inverse(self) -> "Fp12":
        a0, a1 = self.c0, self.c1
        t = (a0.square() - a1.square().mul_by_v()).inverse()
        return Fp12(a0 * t, -(a1 * t))

    def __pow__(self, exponent: int) -> "Fp12":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Fp12.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base.square()
            exponent >>= 1
        return result

    # -- sparse multiplication for Miller-loop line evaluations ------------

    def mul_by_line(self, a: int, b: Fp2, c: Fp2) -> "Fp12":
        """Multiply by the sparse element ``a + b*w + c*w^3`` (a in Fp).

        Line functions evaluated at a G1 point have exactly this shape; the
        product is computed term by term over the flat ``w`` basis (with
        ``w^6 = xi``), touching only the three nonzero line coefficients.
        """
        s0, s1 = self.c0, self.c1
        g0, g2, g4 = s0.c0, s0.c1, s0.c2
        g1, g3, g5 = s1.c0, s1.c1, s1.c2
        g00, g01 = g0.c0, g0.c1
        g10, g11 = g1.c0, g1.c1
        g20, g21 = g2.c0, g2.c1
        g30, g31 = g3.c0, g3.c1
        g40, g41 = g4.c0, g4.c1
        g50, g51 = g5.c0, g5.c1
        b0, b1 = b.c0, b.c1
        c0, c1 = c.c0, c.c1
        t0, t1 = _f2mul(b0, b1, g50, g51)
        u0, u1 = _f2mul(c0, c1, g30, g31)
        x0, x1 = _f2xi(t0 + u0, t1 + u1)
        h00, h01 = a * g00 + x0, a * g01 + x1
        t0, t1 = _f2mul(b0, b1, g00, g01)
        u0, u1 = _f2xi(*_f2mul(c0, c1, g40, g41))
        h10, h11 = a * g10 + t0 + u0, a * g11 + t1 + u1
        t0, t1 = _f2mul(b0, b1, g10, g11)
        u0, u1 = _f2xi(*_f2mul(c0, c1, g50, g51))
        h20, h21 = a * g20 + t0 + u0, a * g21 + t1 + u1
        t0, t1 = _f2mul(b0, b1, g20, g21)
        u0, u1 = _f2mul(c0, c1, g00, g01)
        h30, h31 = a * g30 + t0 + u0, a * g31 + t1 + u1
        t0, t1 = _f2mul(b0, b1, g30, g31)
        u0, u1 = _f2mul(c0, c1, g10, g11)
        h40, h41 = a * g40 + t0 + u0, a * g41 + t1 + u1
        t0, t1 = _f2mul(b0, b1, g40, g41)
        u0, u1 = _f2mul(c0, c1, g20, g21)
        h50, h51 = a * g50 + t0 + u0, a * g51 + t1 + u1
        return Fp12(
            Fp6(Fp2(h00, h01), Fp2(h20, h21), Fp2(h40, h41)),
            Fp6(Fp2(h10, h11), Fp2(h30, h31), Fp2(h50, h51)),
        )

    # -- Frobenius ----------------------------------------------------------

    def _flat(self) -> list[Fp2]:
        return [
            self.c0.c0,
            self.c1.c0,
            self.c0.c1,
            self.c1.c1,
            self.c0.c2,
            self.c1.c2,
        ]

    @staticmethod
    def _from_flat(coeffs: list[Fp2]) -> "Fp12":
        return Fp12(
            Fp6(coeffs[0], coeffs[2], coeffs[4]),
            Fp6(coeffs[1], coeffs[3], coeffs[5]),
        )

    def frobenius(self, power: int = 1) -> "Fp12":
        """f^(p^power) for power in {1, 2, 3}."""
        flat = self._flat()
        if power == 1:
            coeffs = [flat[i].conjugate() * _FROB1[i] for i in range(6)]
        elif power == 2:
            coeffs = [flat[i] * _FROB2[i] for i in range(6)]
        elif power == 3:
            coeffs = [flat[i].conjugate() * _FROB3[i] for i in range(6)]
        else:
            raise ValueError("power must be 1, 2 or 3")
        return Fp12._from_flat(coeffs)

    def cyclotomic_square(self) -> "Fp12":
        """Granger-Scott squaring, valid in the cyclotomic subgroup.

        Roughly half the cost of a generic square; used by the final
        exponentiation and GT exponentiation hot paths.
        """
        return Fp12._from_flat12(_f12sqr_cyclo(self._flat12()))

    def pow_t(self, t: int) -> "Fp12":
        """Cyclotomic exponentiation by the (positive) BN parameter t.

        Only valid for unitary elements; used by the final exponentiation.
        """
        result = None
        base = self._flat12()
        while t:
            if t & 1:
                result = base if result is None else _f12mul(result, base)
            t >>= 1
            if t:
                base = _f12sqr_cyclo(base)
        return Fp12.one() if result is None else Fp12._from_flat12(result)
