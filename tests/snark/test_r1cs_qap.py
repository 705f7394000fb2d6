"""Constraint-system builder and the R1CS -> QAP reduction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bn254.constants import CURVE_ORDER as R
from snark.qap import compute_h_coefficients, r1cs_to_qap
from snark.r1cs import ConstraintSystem, LinearCombination

values = st.integers(min_value=0, max_value=R - 1)


class TestLinearCombination:
    @settings(max_examples=20, deadline=None)
    @given(values, values, values)
    def test_evaluate(self, a, b, c):
        witness = [1, a, b]
        lc = (
            LinearCombination.variable(1, 2)
            + LinearCombination.variable(2, 3)
            + LinearCombination.constant(c)
        )
        assert lc.evaluate(witness) == (2 * a + 3 * b + c) % R

    def test_zero_terms_dropped(self):
        lc = LinearCombination({1: R, 2: 5})
        assert 1 not in lc.terms

    def test_sub_and_scale(self):
        lc = LinearCombination.variable(1) - LinearCombination.variable(1)
        assert lc.is_zero()
        assert LinearCombination.variable(1, 2).scale(3).terms == {1: 6}


class TestConstraintSystem:
    def test_mul_gate(self):
        cs = ConstraintSystem()
        x = cs.private_input(6)
        y = cs.private_input(7)
        z = cs.mul(cs.lc(x), cs.lc(y))
        assert cs.value(z) == 42
        assert cs.is_satisfied()

    def test_unsatisfied_detected(self):
        cs = ConstraintSystem()
        x = cs.private_input(2)
        cs.enforce(cs.lc(x), cs.lc(x), cs.lc(x))  # claims x*x = x, x=2
        assert not cs.is_satisfied()
        assert cs.first_unsatisfied() == 0

    def test_boolean_constraint(self):
        cs = ConstraintSystem()
        b = cs.private_input(1)
        cs.enforce_boolean(b)
        assert cs.is_satisfied()
        cs2 = ConstraintSystem()
        b2 = cs2.private_input(2)
        cs2.enforce_boolean(b2)
        assert not cs2.is_satisfied()

    def test_select_mux(self):
        for bit, expected in ((0, 30), (1, 20)):
            cs = ConstraintSystem()
            b = cs.private_input(bit)
            a = cs.private_input(20)
            c = cs.private_input(30)
            out = cs.select(b, cs.lc(a), cs.lc(c))
            assert out.evaluate(cs.witness) == expected
            assert cs.is_satisfied()

    def test_public_before_private_enforced(self):
        cs = ConstraintSystem()
        cs.private_input(1)
        with pytest.raises(ValueError):
            cs.public_input(2)

    def test_enforce_equal(self):
        cs = ConstraintSystem()
        a = cs.private_input(9)
        cs.enforce_equal(cs.lc(a), LinearCombination.constant(9))
        assert cs.is_satisfied()

    def test_public_values(self):
        cs = ConstraintSystem()
        p = cs.public_input(5)
        cs.private_input(6)
        assert cs.public_values() == [1, 5]


class TestQap:
    def _simple_cs(self, x=3, y=4):
        cs = ConstraintSystem()
        out = cs.public_input(x * y % R)
        a = cs.private_input(x)
        b = cs.private_input(y)
        cs.enforce(cs.lc(a), cs.lc(b), cs.lc(out))
        return cs

    def test_domain_is_power_of_two(self):
        qap = r1cs_to_qap(self._simple_cs())
        assert qap.domain_size & (qap.domain_size - 1) == 0

    def test_h_exists_for_valid_witness(self):
        cs = self._simple_cs()
        qap = r1cs_to_qap(cs)
        h = compute_h_coefficients(qap, cs.witness)
        assert len(h) <= qap.domain_size - 1

    def test_h_rejects_invalid_witness(self):
        cs = self._simple_cs()
        qap = r1cs_to_qap(cs)
        bad = list(cs.witness)
        bad[-1] = (bad[-1] + 1) % R
        with pytest.raises(ValueError):
            compute_h_coefficients(qap, bad)

    def test_divisibility_identity(self):
        """A(x)B(x) - C(x) == H(x) * Z(x) at a random point."""
        from repro.core.polynomial import evaluate

        cs = self._simple_cs(x=11, y=13)
        qap = r1cs_to_qap(cs)
        h = compute_h_coefficients(qap, cs.witness)
        tau = 987654321987654321
        a_val = sum(
            w * evaluate(p, tau) for w, p in zip(cs.witness, qap.a_polys)
        ) % R
        b_val = sum(
            w * evaluate(p, tau) for w, p in zip(cs.witness, qap.b_polys)
        ) % R
        c_val = sum(
            w * evaluate(p, tau) for w, p in zip(cs.witness, qap.c_polys)
        ) % R
        z_val = qap.vanishing_at(tau)
        h_val = evaluate(h, tau)
        assert (a_val * b_val - c_val) % R == h_val * z_val % R
