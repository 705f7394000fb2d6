"""MiMC gadgets: the in-circuit version of :mod:`mimc`.

Each of the 91 rounds computes ``t = x + k + c_i`` (free: linear) and
``t^7`` (4 multiplication constraints: t2, t4, t6, t7), so one permutation
costs 364 constraints and one 2-to-1 hash costs 364 + 2 linear checks —
versus ~27,000 for a SHA-256 compression, the factor the strawman benchmark
quantifies.

The gadget mirrors the native implementation exactly; a test asserts the
circuit output equals :func:`mimc.mimc_hash2` on random inputs.
"""

from __future__ import annotations

from mimc import EXPONENT, ROUND_CONSTANTS
from ..r1cs import ConstraintSystem, LinearCombination

assert EXPONENT == 7, "gadget is specialised to the x^7 round function"

#: Multiplication constraints per MiMC permutation (4 per round).
CONSTRAINTS_PER_PERMUTATION = 4 * len(ROUND_CONSTANTS)


def mimc_permutation_gadget(
    cs: ConstraintSystem, x: LinearCombination, key: LinearCombination
) -> LinearCombination:
    """Constrain and compute MiMC-n/n: 91 rounds of (x + k + c)^7, + k."""
    state = x
    for constant in ROUND_CONSTANTS:
        t = state + key + LinearCombination.constant(constant)
        t2 = LinearCombination.variable(cs.mul(t, t))
        t4 = LinearCombination.variable(cs.mul(t2, t2))
        t6 = LinearCombination.variable(cs.mul(t4, t2))
        t7 = LinearCombination.variable(cs.mul(t6, t))
        state = t7
    return state + key


def mimc_hash2_gadget(
    cs: ConstraintSystem, left: LinearCombination, right: LinearCombination
) -> LinearCombination:
    """Miyaguchi-Preneel compression: E_right(left) + left + right."""
    permuted = mimc_permutation_gadget(cs, left, right)
    return permuted + left + right
