"""Rank-1 constraint systems: the circuit language under the strawman SNARK.

A constraint is ``<A, w> * <B, w> = <C, w>`` over the witness vector
``w = (1, public..., private...)``.  :class:`ConstraintSystem` is the
builder used by the gadgets in :mod:`snark.circuits`; it doubles as a
witness calculator (each helper both adds constraints and computes the new
variable's value when inputs are assigned).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.bn254.constants import CURVE_ORDER as R


class LinearCombination:
    """Sparse linear combination of witness variables: sum coeff_i * w_i."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {k: v % R for k, v in (terms or {}).items() if v % R}

    @staticmethod
    def variable(index: int, coeff: int = 1) -> "LinearCombination":
        return LinearCombination({index: coeff})

    @staticmethod
    def constant(value: int) -> "LinearCombination":
        return LinearCombination({0: value})

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        merged = dict(self.terms)
        for index, coeff in other.terms.items():
            merged[index] = (merged.get(index, 0) + coeff) % R
        return LinearCombination(merged)

    def __sub__(self, other: "LinearCombination") -> "LinearCombination":
        return self + other.scale(R - 1)

    def scale(self, scalar: int) -> "LinearCombination":
        scalar %= R
        return LinearCombination(
            {index: coeff * scalar % R for index, coeff in self.terms.items()}
        )

    def evaluate(self, witness: list[int]) -> int:
        return sum(
            coeff * witness[index] for index, coeff in self.terms.items()
        ) % R

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"LC({self.terms})"


@dataclass(frozen=True)
class Constraint:
    a: LinearCombination
    b: LinearCombination
    c: LinearCombination


@dataclass
class ConstraintSystem:
    """Builder + witness calculator for R1CS circuits.

    Variable 0 is the constant ONE.  Public variables are allocated before
    any private variable (Groth16 requires the split to be a prefix).
    """

    constraints: list[Constraint] = field(default_factory=list)
    witness: list[int] = field(default_factory=lambda: [1])
    num_public: int = 1  # includes the constant ONE
    _sealed_public: bool = field(default=False, repr=False)

    ONE = 0

    # -- allocation ---------------------------------------------------------

    def public_input(self, value: int) -> int:
        if self._sealed_public:
            raise ValueError("public inputs must be allocated before privates")
        self.witness.append(value % R)
        index = len(self.witness) - 1
        self.num_public += 1
        return index

    def private_input(self, value: int) -> int:
        self._sealed_public = True
        self.witness.append(value % R)
        return len(self.witness) - 1

    @property
    def num_variables(self) -> int:
        return len(self.witness)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def lc(self, index: int, coeff: int = 1) -> LinearCombination:
        return LinearCombination.variable(index, coeff)

    def value(self, index: int) -> int:
        return self.witness[index]

    # -- constraint helpers --------------------------------------------------

    def enforce(
        self, a: LinearCombination, b: LinearCombination, c: LinearCombination
    ) -> None:
        self.constraints.append(Constraint(a, b, c))

    def enforce_equal(self, a: LinearCombination, b: LinearCombination) -> None:
        """a == b  encoded as  (a - b) * 1 = 0."""
        self.enforce(a - b, LinearCombination.constant(1), LinearCombination())

    def mul(self, a: LinearCombination, b: LinearCombination) -> int:
        """Allocate product variable z with constraint a * b = z."""
        product = a.evaluate(self.witness) * b.evaluate(self.witness) % R
        index = self.private_input(product)
        self.enforce(a, b, LinearCombination.variable(index))
        return index

    def enforce_boolean(self, index: int) -> None:
        """x * (x - 1) = 0."""
        x = LinearCombination.variable(index)
        self.enforce(x, x - LinearCombination.constant(1), LinearCombination())

    def select(
        self, bit: int, if_one: LinearCombination, if_zero: LinearCombination
    ) -> LinearCombination:
        """Mux: returns if_zero + bit * (if_one - if_zero) (1 constraint)."""
        difference = if_one - if_zero
        product = self.mul(LinearCombination.variable(bit), difference)
        return if_zero + LinearCombination.variable(product)

    # -- satisfaction ---------------------------------------------------------

    def is_satisfied(self, witness: list[int] | None = None) -> bool:
        w = self.witness if witness is None else witness
        return all(
            constraint.a.evaluate(w) * constraint.b.evaluate(w) % R
            == constraint.c.evaluate(w)
            for constraint in self.constraints
        )

    def first_unsatisfied(self, witness: list[int] | None = None) -> int | None:
        w = self.witness if witness is None else witness
        for index, constraint in enumerate(self.constraints):
            if (
                constraint.a.evaluate(w) * constraint.b.evaluate(w) % R
                != constraint.c.evaluate(w)
            ):
                return index
        return None

    def public_values(self) -> list[int]:
        """The statement: [1, public inputs...]."""
        return self.witness[: self.num_public]
