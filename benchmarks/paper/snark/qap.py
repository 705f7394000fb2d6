"""R1CS -> Quadratic Arithmetic Program over a power-of-two NTT domain.

Each variable j induces three polynomials A_j, B_j, C_j with
``A_j(omega^i) = coeff of w_j in constraint i's A row`` (etc.).  The witness
satisfies the R1CS iff ``A(X)*B(X) - C(X)`` is divisible by the vanishing
polynomial ``Z(X) = X^n - 1`` — the prover's job is to exhibit the quotient
``H(X)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.bn254.constants import CURVE_ORDER as R
from repro.core.polynomial import evaluate, interpolate_on_domain, ntt

from .r1cs import ConstraintSystem


def _next_power_of_two(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class Qap:
    """Variable polynomials in coefficient form plus the domain size."""

    domain_size: int
    num_public: int
    a_polys: tuple[tuple[int, ...], ...]
    b_polys: tuple[tuple[int, ...], ...]
    c_polys: tuple[tuple[int, ...], ...]

    @property
    def num_variables(self) -> int:
        return len(self.a_polys)

    def evaluate_at(self, tau: int) -> tuple[list[int], list[int], list[int]]:
        """A_j(tau), B_j(tau), C_j(tau) for all j (trusted-setup helper)."""
        return (
            [evaluate(p, tau) for p in self.a_polys],
            [evaluate(p, tau) for p in self.b_polys],
            [evaluate(p, tau) for p in self.c_polys],
        )

    def vanishing_at(self, tau: int) -> int:
        return (pow(tau, self.domain_size, R) - 1) % R


def r1cs_to_qap(cs: ConstraintSystem) -> Qap:
    """Interpolate the per-variable row polynomials over the NTT domain."""
    n = _next_power_of_two(max(1, cs.num_constraints))
    num_vars = cs.num_variables
    a_evals = [[0] * n for _ in range(num_vars)]
    b_evals = [[0] * n for _ in range(num_vars)]
    c_evals = [[0] * n for _ in range(num_vars)]
    for row, constraint in enumerate(cs.constraints):
        for index, coeff in constraint.a.terms.items():
            a_evals[index][row] = coeff
        for index, coeff in constraint.b.terms.items():
            b_evals[index][row] = coeff
        for index, coeff in constraint.c.terms.items():
            c_evals[index][row] = coeff
    return Qap(
        domain_size=n,
        num_public=cs.num_public,
        a_polys=tuple(tuple(interpolate_on_domain(e)) for e in a_evals),
        b_polys=tuple(tuple(interpolate_on_domain(e)) for e in b_evals),
        c_polys=tuple(tuple(interpolate_on_domain(e)) for e in c_evals),
    )


def compute_h_coefficients(qap: Qap, witness: list[int]) -> list[int]:
    """Quotient H(X) = (A(X)B(X) - C(X)) / (X^n - 1) for a valid witness.

    Raises ValueError when the witness does not satisfy the QAP (division
    leaves a remainder) — this is what stops a cheating prover before any
    group operation happens.
    """
    n = qap.domain_size

    def combine(polys: tuple[tuple[int, ...], ...]) -> list[int]:
        out = [0] * n
        for w, poly in zip(witness, polys):
            if w == 0:
                continue
            for index, coeff in enumerate(poly):
                out[index] = (out[index] + w * coeff) % R
        return out

    a = combine(qap.a_polys)
    b = combine(qap.b_polys)
    c = combine(qap.c_polys)
    # Multiply A*B on a double-size domain, subtract C.
    size = 2 * n
    a_vals = ntt(a + [0] * (size - n))
    b_vals = ntt(b + [0] * (size - n))
    product = ntt([x * y % R for x, y in zip(a_vals, b_vals)], invert=True)
    for index, coeff in enumerate(c):
        product[index] = (product[index] - coeff) % R
    # Divide by X^n - 1 from the top coefficient down.
    quotient = [0] * (size - n)
    remainder = list(product)
    for index in range(size - 1, n - 1, -1):
        coeff = remainder[index]
        if coeff == 0:
            continue
        quotient[index - n] = coeff
        remainder[index] = 0
        remainder[index - n] = (remainder[index - n] + coeff) % R
    if any(remainder):
        raise ValueError("witness does not satisfy the QAP (non-zero remainder)")
    # H has degree <= n-2 for a valid witness; drop trailing zeros so the
    # prover's MSM aligns with the n-1 published h-terms.
    while quotient and quotient[-1] == 0:
        quotient.pop()
    return quotient
