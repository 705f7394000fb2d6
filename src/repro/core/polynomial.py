"""Polynomial arithmetic over the scalar field Zr.

Everything the protocol does with data is polynomial algebra (paper
Definitions 1 and 3):

* a chunk is the coefficient vector of ``M_i(x)``,
* the aggregated response is ``P_k(x) = sum_i c_i M_i(x)``,
* the KZG witness needs the quotient ``Q_k(x) = (P_k(x) - P_k(r))/(x - r)``,
* the Section V-C adversary reconstructs ``P_k`` by Lagrange interpolation.

Polynomials are dense coefficient lists, lowest degree first.
"""

from __future__ import annotations

from typing import Sequence

from ..crypto.bn254.constants import CURVE_ORDER as R
from ..crypto.field import batch_inverse


def evaluate(coefficients: Sequence[int], point: int) -> int:
    """Horner evaluation: O(n) multiplications."""
    accumulator = 0
    for coefficient in reversed(coefficients):
        accumulator = (accumulator * point + coefficient) % R
    return accumulator


def evaluate_naive(coefficients: Sequence[int], point: int) -> int:
    """Textbook evaluation with a fresh ``pow`` per term: O(n^2) mults.

    Kept deliberately: the Fig. 7 preprocessing sweep uses this mode to
    reproduce the paper's U-shaped cost curve, which is consistent with an
    O(s^2)-per-chunk coefficient transformation in the original prototype
    (see EXPERIMENTS.md).
    """
    return sum(
        coefficient * pow(point, exponent, R)
        for exponent, coefficient in enumerate(coefficients)
    ) % R


def add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    length = max(len(a), len(b))
    out = [0] * length
    for index, value in enumerate(a):
        out[index] = value % R
    for index, value in enumerate(b):
        out[index] = (out[index] + value) % R
    return out


def scalar_mul(coefficients: Sequence[int], scalar: int) -> list[int]:
    scalar %= R
    return [c * scalar % R for c in coefficients]


def linear_combination(
    polynomials: Sequence[Sequence[int]], scalars: Sequence[int]
) -> list[int]:
    """sum_i scalars[i] * polynomials[i] — the aggregation that builds P_k."""
    if len(polynomials) != len(scalars):
        raise ValueError("polynomials and scalars must have the same length")
    if not polynomials:
        return [0]
    length = max(len(p) for p in polynomials)
    out = [0] * length
    for polynomial, scalar in zip(polynomials, scalars):
        scalar %= R
        for index, coefficient in enumerate(polynomial):
            out[index] = (out[index] + coefficient * scalar) % R
    return out


def quotient_by_linear(coefficients: Sequence[int], root: int) -> list[int]:
    """Synthetic division: (P(x) - P(root)) / (x - root).

    Returns the quotient coefficients (degree deg(P) - 1).  This is the
    "finite field polynomial quotient algorithm" of paper Section V-D used
    to build the KZG witness without knowing alpha.
    """
    if not coefficients:
        return []
    quotient = [0] * (len(coefficients) - 1)
    carry = 0
    for index in range(len(coefficients) - 1, 0, -1):
        carry = (carry * root + coefficients[index]) % R
        quotient[index - 1] = carry
    return quotient


def mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Schoolbook product (the library's polynomials stay small)."""
    if not a or not b:
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % R
    return out


def lagrange_interpolate(points: Sequence[tuple[int, int]]) -> list[int]:
    """Unique degree < n polynomial through n points (x_i distinct).

    This is the adversary's tool in the Section V-C on-chain privacy attack:
    after observing ``s`` (challenge, response) pairs that reuse the same
    challenged set, the attacker interpolates ``P_k`` and reads off the
    linear combinations of the raw data blocks.
    """
    xs = [x % R for x, _ in points]
    ys = [y % R for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x values")
    result = [0] * len(points)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        # numerator(x) = prod_{j != i} (x - x_j)
        numerator = [1]
        denominator = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            numerator = mul(numerator, [(-xj) % R, 1])
            denominator = denominator * (xi - xj) % R
        scale = yi * pow(denominator, -1, R) % R
        for index, coefficient in enumerate(numerator):
            result[index] = (result[index] + coefficient * scale) % R
    return result


def interpolate_sequential(values: Sequence[int]) -> list[int]:
    """Coefficients of the polynomial with P(i) = values[i], i = 0..n-1.

    This is the "polynomial coefficient transformation of data blocks" the
    paper counts into preprocessing (Section VII-C): when chunks are stored
    in *evaluation form* (so any s surviving blocks reconstruct the chunk),
    the owner must interpolate each chunk to coefficient form before
    committing to it.  Deliberately O(s^2) per chunk — the cost that, traded
    against the O(1/s) per-chunk EC work, produces Fig. 7's U-shaped curve.
    """
    n = len(values)
    if n == 0:
        return []
    if n == 1:
        return [values[0] % R]
    # full(x) = prod_j (x - j); numerator_i = full / (x - i).
    full = [1]
    for j in range(n):
        full = mul(full, [(-j) % R, 1])
    # Factorial-based denominators: prod_{j != i}(i - j) = i! (n-1-i)! (-1)^(n-1-i).
    factorial = [1] * n
    for i in range(1, n):
        factorial[i] = factorial[i - 1] * i % R
    result = [0] * n
    for i, y in enumerate(values):
        if y % R == 0:
            continue
        numerator = quotient_by_linear(full, i)
        denominator = factorial[i] * factorial[n - 1 - i] % R
        if (n - 1 - i) % 2:
            denominator = (-denominator) % R
        scale = y * pow(denominator, -1, R) % R
        for index, coefficient in enumerate(numerator):
            result[index] = (result[index] + coefficient * scale) % R
    return result


def solve_linear_system(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> list[int]:
    """Gaussian elimination over Zr for square systems.

    Used by the privacy attack to separate individual blocks out of ``u``
    recovered linear combinations (paper Section V-C).  Raises ValueError
    on singular systems.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system must be square with matching rhs")
    a = [[value % R for value in row] for row in matrix]
    b = [value % R for value in rhs]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("singular system: challenge matrix not invertible")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        b[col], b[pivot_row] = b[pivot_row], b[col]
        inv = pow(a[col][col], -1, R)
        a[col] = [value * inv % R for value in a[col]]
        b[col] = b[col] * inv % R
        for row in range(n):
            if row != col and a[row][col]:
                factor = a[row][col]
                a[row] = [
                    (a[row][idx] - factor * a[col][idx]) % R for idx in range(n)
                ]
                b[row] = (b[row] - factor * b[col]) % R
    return b


# ---------------------------------------------------------------------------
# Number-theoretic transform (used by the Groth16 QAP construction)
# ---------------------------------------------------------------------------

#: r - 1 = 2^28 * odd, so Zr supports radix-2 NTTs up to size 2^28.
TWO_ADICITY = 28
_ODD_PART = (R - 1) >> TWO_ADICITY


def _find_two_adic_root() -> int:
    """A primitive 2^28-th root of unity, derived at import time.

    ``g^odd_part`` has exact order 2^28 iff ``g`` is a quadratic non-residue
    (then ``(g^odd)^(2^27) = g^((r-1)/2) = -1 != 1``), so scanning small
    candidates for non-residuosity suffices — no factorisation of r-1
    needed.
    """
    candidate = 2
    while pow(candidate, (R - 1) // 2, R) == 1:
        candidate += 1
    return pow(candidate, _ODD_PART, R)


ROOT_OF_UNITY_2_28 = _find_two_adic_root()


def root_of_unity(order: int) -> int:
    """Primitive ``order``-th root of unity (order must be a power of two)."""
    if order & (order - 1):
        raise ValueError("order must be a power of two")
    log = order.bit_length() - 1
    if log > TWO_ADICITY:
        raise ValueError(f"no 2^{log} roots of unity in Zr (max 2^28)")
    omega = ROOT_OF_UNITY_2_28
    for _ in range(TWO_ADICITY - log):
        omega = omega * omega % R
    return omega


def ntt(values: Sequence[int], invert: bool = False) -> list[int]:
    """In-place iterative radix-2 NTT; length must be a power of two."""
    n = len(values)
    if n & (n - 1):
        raise ValueError("NTT length must be a power of two")
    data = [v % R for v in values]
    # Bit-reversal permutation.
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            data[i], data[j] = data[j], data[i]
    length = 2
    while length <= n:
        omega = root_of_unity(length)
        if invert:
            omega = pow(omega, -1, R)
        for start in range(0, n, length):
            w = 1
            for offset in range(length // 2):
                even = data[start + offset]
                odd = data[start + offset + length // 2] * w % R
                data[start + offset] = (even + odd) % R
                data[start + offset + length // 2] = (even - odd) % R
                w = w * omega % R
        length <<= 1
    if invert:
        n_inv = pow(n, -1, R)
        data = [v * n_inv % R for v in data]
    return data


def interpolate_on_domain(evaluations: Sequence[int]) -> list[int]:
    """Coefficients of the polynomial with given values on the 2^k domain."""
    return ntt(evaluations, invert=True)


def evaluate_on_domain(coefficients: Sequence[int], size: int) -> list[int]:
    """Evaluate on the size-``size`` root-of-unity domain (zero-padded)."""
    padded = list(coefficients) + [0] * (size - len(coefficients))
    return ntt(padded)
