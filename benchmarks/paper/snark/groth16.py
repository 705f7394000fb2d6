"""Groth16 zk-SNARK (setup / prove / verify) over BN254.

This is the proving system behind the paper's strawman (their prototype used
Rust Bellman; Table II).  The implementation follows the original paper
[Groth16] directly:

* **Setup** samples toxic waste ``(tau, alpha, beta, gamma, delta)`` and
  emits the proving key (size linear in the circuit) and verification key
  (size linear in the public inputs) — the "Param. size" column of Table II.
* **Prove** costs a handful of MSMs over the proving key plus one NTT-based
  quotient computation — the 30 s / ~300 MB row of Table II.
* **Verify** is three pairings and one small MSM, independent of the
  circuit — which is why the SNARK *verification* column of Table II is
  already cheap; the strawman loses on everything else.

The proof is (A in G1, B in G2, C in G1): 128 bytes compressed, 256 bytes
uncompressed (the paper reports 384 bytes for Bellman's encoding including
the public-input block; our Table II bench prints all three accountings).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.crypto.bn254 import (
    CURVE_ORDER,
    G1Point,
    G2Point,
    g1_to_bytes,
    g2_to_bytes,
    multi_scalar_mul,
    pairing,
    pairing_check,
)
from repro.crypto.bn254.fields import Fp12
from repro.crypto.field import random_scalar

from .qap import Qap, compute_h_coefficients, r1cs_to_qap
from .r1cs import ConstraintSystem

R = CURVE_ORDER


@dataclass(frozen=True)
class ProvingKey:
    alpha_g1: G1Point
    beta_g1: G1Point
    beta_g2: G2Point
    delta_g1: G1Point
    delta_g2: G2Point
    tau_powers_g1: tuple[G1Point, ...]          # g1^(tau^i), i < n
    tau_powers_g2: tuple[G2Point, ...]          # g2^(tau^i), i < n
    private_terms_g1: tuple[G1Point, ...]       # (beta*A_j + alpha*B_j + C_j)/delta
    h_terms_g1: tuple[G1Point, ...]             # tau^i * Z(tau)/delta, i < n-1

    def byte_size(self) -> int:
        g1_count = (
            3
            + len(self.tau_powers_g1)
            + len(self.private_terms_g1)
            + len(self.h_terms_g1)
        )
        g2_count = 2 + len(self.tau_powers_g2)
        return g1_count * 32 + g2_count * 64


@dataclass(frozen=True)
class VerifyingKey:
    alpha_g1: G1Point
    beta_g2: G2Point
    gamma_g2: G2Point
    delta_g2: G2Point
    ic: tuple[G1Point, ...]  # (beta*A_j + alpha*B_j + C_j)/gamma for public j

    def byte_size(self) -> int:
        return (1 + len(self.ic)) * 32 + 3 * 64


@dataclass(frozen=True)
class Proof:
    a: G1Point
    b: G2Point
    c: G1Point

    def to_bytes(self) -> bytes:
        return g1_to_bytes(self.a) + g2_to_bytes(self.b) + g1_to_bytes(self.c)

    def byte_size(self) -> int:
        return 128


@dataclass
class SetupResult:
    proving_key: ProvingKey
    verifying_key: VerifyingKey
    qap: Qap
    setup_seconds: float


def setup(cs: ConstraintSystem, rng=None) -> SetupResult:
    """Trusted setup: derive the CRS for this circuit (paper: 260 s, 150 MB).

    The toxic waste is sampled, used, and dropped on the floor — the classic
    strawman deployment pain the paper's main protocol avoids entirely.
    """
    start = time.perf_counter()
    qap = r1cs_to_qap(cs)
    tau = random_scalar(rng)
    alpha = random_scalar(rng)
    beta = random_scalar(rng)
    gamma = random_scalar(rng)
    delta = random_scalar(rng)
    gamma_inv = pow(gamma, -1, R)
    delta_inv = pow(delta, -1, R)

    g1 = G1Point.generator()
    g2 = G2Point.generator()
    a_at, b_at, c_at = qap.evaluate_at(tau)
    n = qap.domain_size

    tau_powers = [pow(tau, i, R) for i in range(n)]
    tau_powers_g1 = tuple(g1 * t for t in tau_powers)
    tau_powers_g2 = tuple(g2 * t for t in tau_powers)

    def combined(j: int) -> int:
        return (beta * a_at[j] + alpha * b_at[j] + c_at[j]) % R

    ic = tuple(g1 * (combined(j) * gamma_inv % R) for j in range(qap.num_public))
    private_terms = tuple(
        g1 * (combined(j) * delta_inv % R)
        for j in range(qap.num_public, qap.num_variables)
    )
    z_tau = qap.vanishing_at(tau)
    h_terms = tuple(
        g1 * (tau_powers[i] * z_tau % R * delta_inv % R) for i in range(n - 1)
    )

    proving_key = ProvingKey(
        alpha_g1=g1 * alpha,
        beta_g1=g1 * beta,
        beta_g2=g2 * beta,
        delta_g1=g1 * delta,
        delta_g2=g2 * delta,
        tau_powers_g1=tau_powers_g1,
        tau_powers_g2=tau_powers_g2,
        private_terms_g1=private_terms,
        h_terms_g1=h_terms,
    )
    verifying_key = VerifyingKey(
        alpha_g1=g1 * alpha,
        beta_g2=g2 * beta,
        gamma_g2=g2 * gamma,
        delta_g2=g2 * delta,
        ic=ic,
    )
    return SetupResult(
        proving_key=proving_key,
        verifying_key=verifying_key,
        qap=qap,
        setup_seconds=time.perf_counter() - start,
    )


def prove(
    proving_key: ProvingKey,
    qap: Qap,
    witness: list[int],
    rng=None,
) -> Proof:
    """Generate a zero-knowledge proof for the given satisfying witness."""
    if len(witness) != qap.num_variables:
        raise ValueError("witness length mismatch")
    h_coeffs = compute_h_coefficients(qap, witness)

    def combined_coefficients(polys) -> tuple[list[int], list[int]]:
        """Dense coefficients of sum_j w_j * poly_j, as (indices, values)."""
        acc: dict[int, int] = {}
        for w, poly in zip(witness, polys):
            if w == 0:
                continue
            for index, coeff in enumerate(poly):
                if coeff:
                    acc[index] = (acc.get(index, 0) + w * coeff) % R
        indices = sorted(acc)
        return indices, [acc[i] for i in indices]

    r_blind = random_scalar(rng)
    s_blind = random_scalar(rng)

    a_idx, a_vals = combined_coefficients(qap.a_polys)
    b_idx, b_vals = combined_coefficients(qap.b_polys)
    a_eval = multi_scalar_mul(
        [proving_key.tau_powers_g1[i] for i in a_idx],
        a_vals,
        identity=G1Point.infinity(),
    )
    b_eval_g2 = multi_scalar_mul(
        [proving_key.tau_powers_g2[i] for i in b_idx],
        b_vals,
        identity=G2Point.infinity(),
    )
    b_eval_g1 = multi_scalar_mul(
        [proving_key.tau_powers_g1[i] for i in b_idx],
        b_vals,
        identity=G1Point.infinity(),
    )

    a_point = proving_key.alpha_g1 + a_eval + proving_key.delta_g1 * r_blind
    b_point_g2 = proving_key.beta_g2 + b_eval_g2 + proving_key.delta_g2 * s_blind
    b_point_g1 = proving_key.beta_g1 + b_eval_g1 + proving_key.delta_g1 * s_blind

    private_witness = witness[qap.num_public :]
    c_point = multi_scalar_mul(
        list(proving_key.private_terms_g1),
        private_witness,
        identity=G1Point.infinity(),
    )
    if h_coeffs:
        c_point = c_point + multi_scalar_mul(
            list(proving_key.h_terms_g1[: len(h_coeffs)]), h_coeffs
        )
    c_point = (
        c_point
        + a_point * s_blind
        + b_point_g1 * r_blind
        - proving_key.delta_g1 * (r_blind * s_blind % R)
    )
    return Proof(a=a_point, b=b_point_g2, c=c_point)


def verify(
    verifying_key: VerifyingKey, public_values: list[int], proof: Proof
) -> bool:
    """e(A, B) == e(alpha, beta) * e(IC(pub), gamma) * e(C, delta)."""
    if len(public_values) != len(verifying_key.ic):
        raise ValueError(
            f"expected {len(verifying_key.ic)} public values, got {len(public_values)}"
        )
    ic_point = multi_scalar_mul(list(verifying_key.ic), public_values)
    return pairing_check(
        [
            (-proof.a, proof.b),
            (verifying_key.alpha_g1, verifying_key.beta_g2),
            (ic_point, verifying_key.gamma_g2),
            (proof.c, verifying_key.delta_g2),
        ]
    )
