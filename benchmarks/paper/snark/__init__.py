"""Groth16 zk-SNARK toolchain and the paper's strawman auditing protocol.

* :mod:`snark.r1cs` — constraint-system builder,
* :mod:`snark.qap` — R1CS-to-QAP reduction over an NTT domain,
* :mod:`snark.groth16` — trusted setup / prover / verifier,
* :mod:`snark.circuits` — MiMC and Merkle-membership gadgets,
* :mod:`snark.strawman` — the Section IV baseline end to end.
"""

from .groth16 import Proof, ProvingKey, SetupResult, VerifyingKey, prove, setup, verify
from .qap import Qap, compute_h_coefficients, r1cs_to_qap
from .r1cs import Constraint, ConstraintSystem, LinearCombination
from .strawman import StrawmanOwner, StrawmanProver, StrawmanSetup, StrawmanVerifier

__all__ = [
    "Constraint",
    "ConstraintSystem",
    "LinearCombination",
    "Proof",
    "ProvingKey",
    "Qap",
    "SetupResult",
    "StrawmanOwner",
    "StrawmanProver",
    "StrawmanSetup",
    "StrawmanVerifier",
    "VerifyingKey",
    "compute_h_coefficients",
    "prove",
    "r1cs_to_qap",
    "setup",
    "verify",
]
