"""G1 and G2 group arithmetic for BN254.

Points are held in Jacobian coordinates ``(X, Y, Z)`` representing the affine
point ``(X/Z^2, Y/Z^3)``; the point at infinity is ``Z == 0``.  Scalar
multiplication uses 4-bit wNAF.  ``G1Point`` keeps raw ints for speed,
``G2Point`` mirrors the same formulas over :class:`~repro.crypto.bn254.fields.Fp2`.

This module holds the one Python copy of the G1 group law (``_jac_double``,
``_jac_add``, ``_jac_add_affine``, ``_to_affine_batch_raw``, over raw int
triples) and of the wNAF recoder (``_wnaf``).  The ``G1Point`` methods,
the MSM and comb references of :mod:`.msm` and :func:`.gt.gt_multi_pow`
call them, and the native kernel (:mod:`.kernel`) runs the same formulas.
"""

from __future__ import annotations

from .constants import CURVE_ORDER, FIELD_MODULUS as P
from .constants import G1_GENERATOR, G2_GENERATOR_X, G2_GENERATOR_Y
from .fields import Fp2, XI
from .kernel import active


# -- the G1 group law over raw int triples ------------------------------------
#
# dbl-2009-l, add-2007-bl and madd-2007-bl on plain (x, y, z) ints, z == 0
# encoding infinity as (0, 1, 0): no allocation and no attribute lookups in
# the MSM and comb loops.  The G1Point methods wrap them, as the kernel's
# g1_point_dbl / g1_point_add wrap g1_dbl / g1_add.


def _jac_double(x1: int, y1: int, z1: int) -> tuple[int, int, int]:
    a = x1 * x1 % P
    b = y1 * y1 % P
    c = b * b % P
    d = 2 * ((x1 + b) * (x1 + b) - a - c) % P
    e = 3 * a
    x3 = (e * e - 2 * d) % P
    y3 = (e * (d - x3) - 8 * c) % P
    z3 = 2 * y1 * z1 % P
    return x3, y3, z3


def _jac_add_affine(
    x1: int, y1: int, z1: int, ax: int, ay: int
) -> tuple[int, int, int]:
    if z1 == 0:
        return ax, ay % P, 1
    z1z1 = z1 * z1 % P
    u2 = ax * z1z1 % P
    s2 = ay * z1 % P * z1z1 % P
    h = (u2 - x1) % P
    rr = 2 * (s2 - y1) % P
    if h == 0:
        if rr == 0:
            return _jac_double(x1, y1, z1)
        return 0, 1, 0
    hh = h * h % P
    i = 4 * hh
    j = h * i % P
    v = x1 * i % P
    x3 = (rr * rr - j - 2 * v) % P
    y3 = (rr * (v - x3) - 2 * y1 * j) % P
    z3 = ((z1 + h) * (z1 + h) - z1z1 - hh) % P
    return x3, y3, z3


def _jac_add(
    x1: int, y1: int, z1: int, x2: int, y2: int, z2: int
) -> tuple[int, int, int]:
    if z1 == 0:
        return x2, y2, z2
    if z2 == 0:
        return x1, y1, z1
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2 % P * z2z2 % P
    s2 = y2 * z1 % P * z1z1 % P
    h = (u2 - u1) % P
    rr = 2 * (s2 - s1) % P
    if h == 0:
        if rr == 0:
            return _jac_double(x1, y1, z1)
        return 0, 1, 0
    i = 4 * h * h % P
    j = h * i % P
    v = u1 * i % P
    x3 = (rr * rr - j - 2 * v) % P
    y3 = (rr * (v - x3) - 2 * s1 * j) % P
    z3 = ((z1 + z2) * (z1 + z2) - z1z1 - z2z2) % P * h % P
    return x3, y3, z3


def _to_affine_batch_raw(
    triples: list[tuple[int, int, int]]
) -> list[tuple[int, int]]:
    """Normalize raw Jacobian triples (z != 0) with one shared inversion
    (Montgomery's simultaneous-inversion trick)."""
    n = len(triples)
    prefix = [1] * (n + 1)
    for i, triple in enumerate(triples):
        prefix[i + 1] = prefix[i] * triple[2] % P
    acc = pow(prefix[n], -1, P)
    out: list[tuple[int, int]] = [None] * n  # type: ignore[list-item]
    for i in range(n - 1, -1, -1):
        x, y, z = triples[i]
        zinv = prefix[i] * acc % P
        acc = acc * z % P
        zinv2 = zinv * zinv % P
        out[i] = (x * zinv2 % P, y * zinv2 % P * zinv % P)
    return out


def _wnaf(scalar: int, width: int) -> list[int]:
    """Width-``w`` non-adjacent form of a non-negative scalar, low digit
    first; digits odd in (-2^(w-1), 2^(w-1)) or zero.

    Zero runs are skipped in one step (count trailing zeros, extend, shift)
    so the loop runs once per *nonzero* digit — ~bits/(w+1) iterations
    instead of bits.
    """
    digits: list[int] = []
    half = 1 << (width - 1)
    full = 1 << width
    while scalar:
        if not scalar & 1:
            shift = (scalar & -scalar).bit_length() - 1
            digits.extend([0] * shift)
            scalar >>= shift
        d = scalar & (full - 1)
        if d >= half:
            d -= full
        scalar -= d
        digits.append(d)
        scalar >>= 1
        # After a nonzero digit the next w-1 low bits are zero by
        # construction; emit them without re-testing.
        if scalar:
            digits.extend([0] * (width - 1))
            scalar >>= width - 1
    return digits


def _wnaf_mul_ref(point, scalar: int):
    """``point * scalar`` in either group for a finite point and
    0 < scalar < r: the odd multiples P, 3P, 5P, 7P (width-4 digits stop at
    +-7), then double and add / subtract down the wNAF digits, high to low."""
    table = [point]
    twice = point.double()
    for _ in range(3):
        table.append(table[-1] + twice)
    result = type(point).infinity()
    for digit in reversed(_wnaf(scalar, 4)):
        result = result.double()
        if digit > 0:
            result = result + table[digit >> 1]
        elif digit < 0:
            result = result - table[(-digit) >> 1]
    return result


class G1Point:
    """Point on E(Fp): y^2 = x^3 + 3 (prime order, cofactor 1)."""

    __slots__ = ("x", "y", "z", "_affine")
    #: Chain-state digests must ignore the memoized affine cache — whether
    #: it is populated depends on what code *touched* the point, not on
    #: which point it is.
    _canonical_state_slots = ("x", "y", "z")
    #: A value: its constructors write the coordinates, nothing rewrites
    #: them, so a log that holds the point once holds it for good.
    _immutable_value = True

    def __init__(self, x: int, y: int, z: int = 1):
        self.x = x % P
        self.y = y % P
        self.z = z % P
        self._affine = None

    @classmethod
    def _raw(cls, x: int, y: int, z: int) -> "G1Point":
        """Internal constructor for coordinates already reduced mod p."""
        point = object.__new__(cls)
        point.x = x
        point.y = y
        point.z = z
        point._affine = None
        return point

    # -- constructors ------------------------------------------------------

    @staticmethod
    def infinity() -> "G1Point":
        return G1Point(1, 1, 0)

    @staticmethod
    def generator() -> "G1Point":
        return G1Point(*G1_GENERATOR)

    # -- predicates --------------------------------------------------------

    def is_infinity(self) -> bool:
        return self.z == 0

    def is_on_curve(self) -> bool:
        if self.is_infinity():
            return True
        x, y = self.to_affine()
        return (y * y - (x * x * x + 3)) % P == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, G1Point):
            return NotImplemented
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        # Cross-multiplied Jacobian comparison.
        z1z1 = self.z * self.z % P
        z2z2 = other.z * other.z % P
        if (self.x * z2z2 - other.x * z1z1) % P != 0:
            return False
        return (self.y * z2z2 * other.z - other.y * z1z1 * self.z) % P == 0

    def __hash__(self) -> int:
        if self.is_infinity():
            return hash((0, 0, 0))
        return hash(self.to_affine())

    def __repr__(self) -> str:
        if self.is_infinity():
            return "G1Point(infinity)"
        x, y = self.to_affine()
        return f"G1Point({x}, {y})"

    # -- coordinate handling -------------------------------------------------

    def to_affine(self) -> tuple[int, int]:
        """Affine (x, y); the normalization is memoized, so repeated calls
        (and repeated hashing) pay the modular inversion exactly once."""
        affine = self._affine
        if affine is not None:
            return affine
        if self.z == 0:
            raise ValueError("the point at infinity has no affine coordinates")
        if self.z == 1:
            affine = (self.x, self.y)
        else:
            zinv = pow(self.z, -1, P)
            zinv2 = zinv * zinv % P
            affine = (self.x * zinv2 % P, self.y * zinv2 * zinv % P)
        self._affine = affine
        return affine

    @staticmethod
    def to_affine_batch(points: "list[G1Point]") -> list[tuple[int, int]]:
        """Normalize many points with one shared inversion (Montgomery's
        simultaneous-inversion trick) and memoize each result.

        Raises on the point at infinity, like :meth:`to_affine`.
        """
        pending = []
        for point in points:
            if point._affine is None:
                if point.z == 0:
                    raise ValueError(
                        "the point at infinity has no affine coordinates"
                    )
                if point.z == 1:
                    point._affine = (point.x, point.y)
                else:
                    pending.append(point)
        if pending:
            affine = _to_affine_batch_raw([(p.x, p.y, p.z) for p in pending])
            for point, pair in zip(pending, affine):
                point._affine = pair
        return [point._affine for point in points]

    # -- group law -----------------------------------------------------------

    # The raw formulas' z == 0 results (a doubling at y == 0, P + (-P)) are
    # returned as G1Point.infinity(), and an identity operand passes through.

    def double(self) -> "G1Point":
        x, y, z = _jac_double(self.x, self.y, self.z)
        return G1Point._raw(x, y, z) if z else G1Point.infinity()

    def __add__(self, other: "G1Point") -> "G1Point":
        if self.z == 0:
            return other
        if other.z == 0:
            return self
        x, y, z = _jac_add(self.x, self.y, self.z, other.x, other.y, other.z)
        return G1Point._raw(x, y, z) if z else G1Point.infinity()

    def add_affine(self, ax: int, ay: int) -> "G1Point":
        """Mixed addition with an affine point (z2 = 1): 7M + 4S."""
        x, y, z = _jac_add_affine(self.x, self.y, self.z, ax, ay)
        return G1Point._raw(x, y, z) if z else G1Point.infinity()

    def __neg__(self) -> "G1Point":
        if self.is_infinity():
            return self
        return G1Point(self.x, -self.y, self.z)

    def __sub__(self, other: "G1Point") -> "G1Point":
        return self + (-other)

    def __mul__(self, scalar: int) -> "G1Point":
        scalar %= CURVE_ORDER
        if scalar == 0 or self.is_infinity():
            return G1Point.infinity()
        kernel = active()
        if kernel is None:
            return _wnaf_mul_ref(self, scalar)
        return G1Point._raw(*kernel.g1_mul((self.x, self.y, self.z), scalar))

    __rmul__ = __mul__


# Twist coefficient b' = 3 / xi for E'(Fp2): y^2 = x^3 + b'.
TWIST_B = Fp2(3, 0) * XI.inverse()


class G2Point:
    """Point on the sextic twist E'(Fp2): y^2 = x^3 + 3/xi."""

    __slots__ = ("x", "y", "z", "_affine")
    #: Chain-state digests must ignore the memoized affine cache — whether
    #: it is populated depends on what code *touched* the point, not on
    #: which point it is.
    _canonical_state_slots = ("x", "y", "z")
    #: A value: its constructors write the coordinates, nothing rewrites
    #: them, so a log that holds the point once holds it for good.
    _immutable_value = True

    def __init__(self, x: Fp2, y: Fp2, z: Fp2 | None = None):
        self.x = x
        self.y = y
        self.z = z if z is not None else Fp2.one()
        self._affine = None

    @staticmethod
    def infinity() -> "G2Point":
        return G2Point(Fp2.one(), Fp2.one(), Fp2.zero())

    @staticmethod
    def generator() -> "G2Point":
        return G2Point(Fp2(*G2_GENERATOR_X), Fp2(*G2_GENERATOR_Y))

    def is_infinity(self) -> bool:
        return self.z.is_zero()

    def is_on_curve(self) -> bool:
        if self.is_infinity():
            return True
        x, y = self.to_affine()
        return y.square() == x.square() * x + TWIST_B

    def is_in_subgroup(self) -> bool:
        """Full (slow) subgroup membership check: r * Q == O.

        Uses an unreduced double-and-add because ``__mul__`` reduces scalars
        mod r (which would trivialise this check).
        """
        result = G2Point.infinity()
        base = self
        scalar = CURVE_ORDER
        while scalar:
            if scalar & 1:
                result = result + base
            base = base.double()
            scalar >>= 1
        return result.is_infinity()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, G2Point):
            return NotImplemented
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        z1z1 = self.z.square()
        z2z2 = other.z.square()
        if self.x * z2z2 != other.x * z1z1:
            return False
        return self.y * z2z2 * other.z == other.y * z1z1 * self.z

    def __hash__(self) -> int:
        if self.is_infinity():
            return hash((0, 0, 0, 0))
        x, y = self.to_affine()
        return hash((x.c0, x.c1, y.c0, y.c1))

    def __repr__(self) -> str:
        if self.is_infinity():
            return "G2Point(infinity)"
        x, y = self.to_affine()
        return f"G2Point({x!r}, {y!r})"

    def to_affine(self) -> tuple[Fp2, Fp2]:
        affine = self._affine
        if affine is not None:
            return affine
        if self.is_infinity():
            raise ValueError("the point at infinity has no affine coordinates")
        zinv = self.z.inverse()
        zinv2 = zinv.square()
        affine = (self.x * zinv2, self.y * zinv2 * zinv)
        self._affine = affine
        return affine

    @staticmethod
    def to_affine_batch(points: "list[G2Point]") -> list[tuple[Fp2, Fp2]]:
        """Batch normalization over Fp2 with one shared inversion."""
        pending = [
            point
            for point in points
            if point._affine is None and not point.is_infinity()
        ]
        for point in points:
            if point._affine is None and point.is_infinity():
                raise ValueError("the point at infinity has no affine coordinates")
        if pending:
            prefix = [Fp2.one()] * (len(pending) + 1)
            acc = Fp2.one()
            for index, point in enumerate(pending):
                prefix[index] = acc
                acc = acc * point.z
            acc_inv = acc.inverse()
            for index in range(len(pending) - 1, -1, -1):
                point = pending[index]
                zinv = acc_inv * prefix[index]
                acc_inv = acc_inv * point.z
                zinv2 = zinv.square()
                point._affine = (point.x * zinv2, point.y * zinv2 * zinv)
        return [point._affine for point in points]

    def double(self) -> "G2Point":
        if self.is_infinity() or self.y.is_zero():
            return G2Point.infinity()
        x, y, z = self.x, self.y, self.z
        a = x.square()
        b = y.square()
        c = b.square()
        d = ((x + b).square() - a - c).double()
        e = a.double() + a
        f = e.square()
        x3 = f - d.double()
        y3 = e * (d - x3) - c.double().double().double()
        z3 = (y * z).double()
        return G2Point(x3, y3, z3)

    def __add__(self, other: "G2Point") -> "G2Point":
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        z1z1 = self.z.square()
        z2z2 = other.z.square()
        u1 = self.x * z2z2
        u2 = other.x * z1z1
        s1 = self.y * other.z * z2z2
        s2 = other.y * self.z * z1z1
        h = u2 - u1
        rr = (s2 - s1).double()
        if h.is_zero():
            if rr.is_zero():
                return self.double()
            return G2Point.infinity()
        i = h.square().double().double()
        j = h * i
        v = u1 * i
        x3 = rr.square() - j - v.double()
        y3 = rr * (v - x3) - (s1 * j).double()
        z3 = ((self.z + other.z).square() - z1z1 - z2z2) * h
        return G2Point(x3, y3, z3)

    def add_affine(self, ax: Fp2, ay: Fp2) -> "G2Point":
        """Mixed addition with an affine twist point (z2 = 1)."""
        if self.is_infinity():
            return G2Point(ax, ay)
        z1 = self.z
        z1z1 = z1.square()
        u2 = ax * z1z1
        s2 = ay * z1 * z1z1
        h = u2 - self.x
        rr = (s2 - self.y).double()
        if h.is_zero():
            if rr.is_zero():
                return self.double()
            return G2Point.infinity()
        hh = h.square()
        i = hh.double().double()
        j = h * i
        v = self.x * i
        x3 = rr.square() - j - v.double()
        y3 = rr * (v - x3) - (self.y * j).double()
        z3 = (z1 + h).square() - z1z1 - hh
        return G2Point(x3, y3, z3)

    def __neg__(self) -> "G2Point":
        if self.is_infinity():
            return self
        return G2Point(self.x, -self.y, self.z)

    def __sub__(self, other: "G2Point") -> "G2Point":
        return self + (-other)

    def __mul__(self, scalar: int) -> "G2Point":
        scalar %= CURVE_ORDER
        if scalar == 0 or self.is_infinity():
            return G2Point.infinity()
        kernel = active()
        if kernel is None:
            return _wnaf_mul_ref(self, scalar)
        x, y, z = self.x, self.y, self.z
        x0, x1, y0, y1, z0, z1 = kernel.g2_mul(
            (x.c0, x.c1, y.c0, y.c1, z.c0, z.c1), scalar
        )
        return G2Point(Fp2(x0, x1), Fp2(y0, y1), Fp2(z0, z1))

    __rmul__ = __mul__
