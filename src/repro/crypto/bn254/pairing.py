"""Optimal-ate pairing on BN254 with a fast final exponentiation.

The Miller loop keeps the G2 point in affine twist coordinates (Fp2) and
evaluates line functions directly as sparse Fp12 elements, exploiting the
untwisting map ``psi(x, y) = (x*w^2, y*w^3)`` with ``w^6 = xi``:

    line through T1, T2 evaluated at P = (xP, yP) in G1:
        l(P) = yP  +  (-lambda * xP) * w  +  (lambda * x_T - y_T) * w^3

where ``lambda`` is the Fp2 slope on the twist.  The loop is split into a
P-independent *precompute* over the G2 argument (:class:`G2Prepared`
stores ``(lambda, lambda * x_T - y_T)`` per step — everything the chord
and tangent lines need except the G1 point) and a cheap evaluation pass.
Verifier G2 points are fixed per owner key, so preparing once and caching
(see ``precompute.PrecomputeCache.prepared_g2``) removes every Fp2
inversion from the warm verify path.

``miller_loop_product`` runs ONE shared squaring chain for all pairs:
``F <- F^2 * prod_i line_i`` step-for-step equals ``prod_i f_i`` because
mod-p arithmetic is exact and commutative — bit-identical to multiplying
individually evaluated loops, at one Fp12 squaring per bit instead of n.

The final exponentiation splits into the easy part ``(p^6-1)(p^2+1)`` and
the Devegili/Scott hard part ``(p^4-p^2+1)/r`` driven by three
exponentiations by the BN parameter ``t``.

Both loops, and the line preparation itself, run in the native kernel
(:mod:`.kernel`) when it is in use; ``_miller_loop_ref``,
``_final_exponentiation_ref`` and ``_prepare_ref`` are the pure-Python
references it is checked against and the fallback without it.  The
kernel prepares lines with one batch inversion for all ~88 steps where
the reference inverts once per step, and the values are the same.
"""

from __future__ import annotations

from ...obs.hotpath import profiled
from .constants import ATE_LOOP_COUNT, BN_T
from .curve import G1Point, G2Point
from .fields import Fp2, Fp12, _FROB1, _FROB2
from .kernel import Kernel, active, decode_montgomery

# Twist-coordinate Frobenius constants: psi(x, y) = (conj(x)*C_X, conj(y)*C_Y).
_ENDO_X = _FROB1[2]  # xi^((p-1)/3)
_ENDO_Y = _FROB1[3]  # xi^((p-1)/2)
_ENDO2_X = _FROB2[2]  # xi^((p^2-1)/3)
_ENDO2_Y = _FROB2[3]  # xi^((p^2-1)/2)

# Miller-loop bit schedule, most significant bit excluded, high to low.
_ATE_BITS = tuple(
    (ATE_LOOP_COUNT >> i) & 1 for i in range(ATE_LOOP_COUNT.bit_length() - 2, -1, -1)
)
_ATE_SCHEDULE = bytes(_ATE_BITS)


def _g2_frobenius(x: Fp2, y: Fp2) -> tuple[Fp2, Fp2]:
    return x.conjugate() * _ENDO_X, y.conjugate() * _ENDO_Y


def _g2_frobenius_squared(x: Fp2, y: Fp2) -> tuple[Fp2, Fp2]:
    return x * _ENDO2_X, y * _ENDO2_Y


def _coeff_double(t: tuple[Fp2, Fp2]) -> tuple[tuple[Fp2, Fp2], tuple[Fp2, Fp2]]:
    """Tangent step at T; returns (2T, P-independent line coeffs)."""
    x1, y1 = t
    slope = (x1.square().mul_scalar(3)) * (y1.double().inverse())
    x3 = slope.square() - x1.double()
    y3 = slope * (x1 - x3) - y1
    return (x3, y3), (slope, slope * x1 - y1)


def _coeff_add(
    t: tuple[Fp2, Fp2], q: tuple[Fp2, Fp2]
) -> tuple[tuple[Fp2, Fp2], tuple[Fp2, Fp2]]:
    """Chord step through T and Q; returns (T+Q, P-independent coeffs)."""
    x1, y1 = t
    x2, y2 = q
    slope = (y2 - y1) * ((x2 - x1).inverse())
    x3 = slope.square() - x1 - x2
    y3 = slope * (x1 - x3) - y1
    return (x3, y3), (slope, slope * x1 - y1)


def _prepare_ref(xq: Fp2, yq: Fp2) -> list[tuple[Fp2, Fp2]]:
    """The pure-Python lines of the affine twist point ``(xq, yq)``: one
    Fp2 inversion per tangent / chord step (``bn_g2_prepare`` computes the
    same values with one batch inversion)."""
    t = (xq, yq)
    coeffs = []
    for bit in _ATE_BITS:
        t, coeff = _coeff_double(t)
        coeffs.append(coeff)
        if bit:
            t, coeff = _coeff_add(t, (xq, yq))
            coeffs.append(coeff)
    # The two optimal-ate correction steps with Frobenius images of Q.
    q1 = _g2_frobenius(xq, yq)
    x2, y2 = _g2_frobenius_squared(xq, yq)
    t, coeff = _coeff_add(t, q1)
    coeffs.append(coeff)
    _, coeff = _coeff_add(t, (x2, -y2))
    coeffs.append(coeff)
    return coeffs


class G2Prepared:
    """P-independent Miller-loop line coefficients for a fixed G2 point.

    ``coeffs`` holds one ``(slope, slope * x_T - y_T)`` pair per tangent /
    chord step in traversal order (the schedule is identical for every Q,
    so a shared product loop can walk many prepared points in lockstep).
    Evaluating at ``P = (xP, yP)`` costs one scalar Fp2 mult per step —
    no Fp2 inversions, no twist arithmetic.

    Nothing is computed until a Miller loop asks, and each form is made
    once: the native loop reads ``_lines``, the kernel's Montgomery buffer
    from ``bn_g2_prepare``; the reference loop reads ``coeffs``, decoded
    from ``_lines`` in pure Python when the kernel made them, else computed
    by :func:`_prepare_ref`.  So a point prepared on one backend pairs on
    the other.
    """

    __slots__ = ("infinity", "_q", "_lines", "_coeffs")

    def __init__(self, q: G2Point):
        self.infinity = q.is_infinity()
        self._q = None if self.infinity else q.to_affine()
        self._lines: bytes | None = None
        self._coeffs: list[tuple[Fp2, Fp2]] | None = [] if self.infinity else None

    @property
    def coeffs(self) -> list[tuple[Fp2, Fp2]]:
        coeffs = self._coeffs
        if coeffs is None:
            lines = self._lines
            if lines is None:
                coeffs = _prepare_ref(*self._q)
            else:
                flat = decode_montgomery(lines)
                coeffs = [
                    (Fp2(flat[i], flat[i + 1]), Fp2(flat[i + 2], flat[i + 3]))
                    for i in range(0, len(flat), 4)
                ]
            self._coeffs = coeffs
        return coeffs

    def native_lines(self, kernel: Kernel) -> bytes:
        """The lines in the kernel's Montgomery form, made once."""
        lines = self._lines
        if lines is None:
            xq, yq = self._q
            lines = kernel.g2_prepare((xq.c0, xq.c1, yq.c0, yq.c1), _ATE_SCHEDULE)
            if lines is None:
                # A tangent at y = 0 or a chord at x_T = x_Q, exactly where
                # the reference's Fp2.inverse raises.
                raise ZeroDivisionError("zero has no inverse in Fp2")
            self._lines = lines
        return lines


def prepare_g2(q: G2Point | G2Prepared) -> G2Prepared:
    """Precompute (or pass through) Miller-loop lines for ``q``."""
    if isinstance(q, G2Prepared):
        return q
    return G2Prepared(q)


def miller_loop(p: G1Point, q: G2Point | G2Prepared) -> Fp12:
    """Miller loop f_{6t+2,Q}(P) * l_{T,Q1}(P) * l_{T+Q1,-Q2}(P)."""
    return miller_loop_product([(p, q)])


@profiled("bn254.final_exp")
def final_exponentiation(f: Fp12) -> Fp12:
    """f^((p^12 - 1) / r) via the standard BN decomposition."""
    kernel = active()
    if kernel is not None:
        flat = kernel.final_exponentiation(f._flat12())
        if flat is not None:
            return Fp12._from_flat12(flat)
    # Also the kernel's answer for f = 0: the reference raises.
    return _final_exponentiation_ref(f)


def _final_exponentiation_ref(f: Fp12) -> Fp12:
    # Easy part: f^((p^6 - 1)(p^2 + 1)).
    f = f.conjugate() * f.inverse()
    f = f.frobenius(2) * f
    # Hard part: f^((p^4 - p^2 + 1)/r), Devegili et al. addition chain.
    fp = f.frobenius(1)
    fp2 = f.frobenius(2)
    fp3 = fp2.frobenius(1)
    fu = f.pow_t(BN_T)
    fu2 = fu.pow_t(BN_T)
    fu3 = fu2.pow_t(BN_T)
    y0 = fp * fp2 * fp3
    y1 = f.conjugate()
    y2 = fu2.frobenius(2)
    y3 = fu.frobenius(1).conjugate()
    y4 = (fu * fu2.frobenius(1)).conjugate()
    y5 = fu2.conjugate()
    y6 = (fu3 * fu3.frobenius(1)).conjugate()
    t0 = y6.cyclotomic_square() * y4 * y5
    t1 = y3 * y5 * t0
    t0 = t0 * y2
    t1 = t1.cyclotomic_square() * t0
    t1 = t1.cyclotomic_square()
    t0 = t1 * y1
    t1 = t1 * y0
    t0 = t0.cyclotomic_square()
    return t0 * t1


def pairing(p: G1Point, q: G2Point | G2Prepared) -> Fp12:
    """The optimal-ate pairing e(P, Q) into GT (unitary Fp12 subgroup)."""
    return final_exponentiation(miller_loop(p, q))


@profiled("bn254.miller_loop")
def miller_loop_product(pairs: list[tuple[G1Point, G2Point | G2Prepared]]) -> Fp12:
    """Product of Miller loops (no final exponentiation).

    All pairs share ONE squaring chain: each step squares the accumulator
    once and multiplies in every pair's line, which is bit-identical to
    multiplying individually evaluated loops (exact mod-p arithmetic) at a
    fraction of the Fp12 squarings.  Accepts :class:`G2Prepared` entries to
    skip the per-call line precompute.
    """
    live: list[tuple[int, int, G2Prepared]] = []
    for p, q in pairs:
        prepared = prepare_g2(q)
        if prepared.infinity or p.is_infinity():
            continue
        xp, yp = p.to_affine()
        live.append((xp, yp, prepared))
    if not live:
        return Fp12.one()
    kernel = active()
    if kernel is not None:
        return Fp12._from_flat12(_miller_loop_native(kernel, live))
    return _miller_loop_ref(live)


def _miller_loop_native(kernel: Kernel, live: list[tuple[int, int, G2Prepared]]) -> tuple:
    return kernel.miller_loop(
        [v for xp, yp, _ in live for v in (xp, yp)],
        b"".join(prepared.native_lines(kernel) for _, _, prepared in live),
        _ATE_SCHEDULE,
    )


def _miller_loop_ref(live: list[tuple[int, int, G2Prepared]]) -> Fp12:
    """The pure-Python shared chain over ``(xP, yP, prepared)`` entries."""
    f = Fp12.one()
    index = 0
    for bit in _ATE_BITS:
        f = f.square()
        for xp, yp, prepared in live:
            slope, c = prepared.coeffs[index]
            f = f.mul_by_line(yp, slope.mul_scalar(-xp), c)
        index += 1
        if bit:
            for xp, yp, prepared in live:
                slope, c = prepared.coeffs[index]
                f = f.mul_by_line(yp, slope.mul_scalar(-xp), c)
            index += 1
    for offset in (index, index + 1):
        for xp, yp, prepared in live:
            slope, c = prepared.coeffs[offset]
            f = f.mul_by_line(yp, slope.mul_scalar(-xp), c)
    return f


def pairing_product(pairs: list[tuple[G1Point, G2Point | G2Prepared]]) -> Fp12:
    """prod_i e(P_i, Q_i) computed with a single final exponentiation.

    This is the multi-pairing trick that keeps the on-chain verifier's four
    pairing evaluations affordable (one hard exponentiation instead of four).
    """
    return final_exponentiation(miller_loop_product(pairs))


def pairing_check(pairs: list[tuple[G1Point, G2Point | G2Prepared]]) -> bool:
    """True iff prod_i e(P_i, Q_i) == 1 (the EVM precompile semantics)."""
    return pairing_product(pairs).is_one()
