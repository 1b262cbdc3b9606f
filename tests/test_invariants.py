import numpy as np
import pytest

from pptatlas import invariants as inv
from pptatlas import qstate as qs
from pptatlas.errors import InvariantMismatch

from conftest import random_separable, random_unit, random_unit_determinant


def eigen_oracle_i2(mat):
    """Independent evaluation: (1/8) sum_ij l_i l_j |eta_i^T E eta_j|^2."""
    e = qs.invariant_tensor_E()
    w, v = np.linalg.eigh(mat)
    total = 0.0
    for i in range(8):
        for j in range(8):
            total += w[i] * w[j] * abs(v[:, i] @ e @ v[:, j]) ** 2
    return total / 8.0


class TestQuadraticInvariant:
    def test_maximally_mixed(self):
        assert abs(inv.quadratic_invariant(np.eye(8) / 8) - 1 / 64) < 1e-15

    def test_two_forms_agree(self, rng):
        for _ in range(10):
            trace_form, contraction_form = inv.quadratic_invariant_forms(
                qs.random_ppt_state(rng))
            assert abs(trace_form - contraction_form) < 1e-12

    def test_eigendecomposition_oracle(self, rng):
        for _ in range(5):
            state = qs.random_ppt_state(rng)
            value = inv.quadratic_invariant(state)
            assert value >= -1e-12
            assert abs(value - eigen_oracle_i2(state.mat)) < 1e-12

    def test_nonnegative_on_psd(self, rng):
        for _ in range(20):
            assert inv.quadratic_invariant(qs.random_density(rng)) >= -1e-12

    def test_forms_of_different_matrices_mismatch(self, rng):
        """The trace form reads the matrix and the contraction form its Pauli
        tensor; given the tensor of another matrix they disagree."""
        mat = qs.random_ppt_state(rng).mat
        other = qs.pauli_decompose(qs.random_ppt_state(rng))
        assert abs(inv._checked_quadratic(mat, qs.pauli_decompose(mat))
                   - inv.quadratic_invariant(mat)) == 0.0
        with pytest.raises(InvariantMismatch, match="trace form"):
            inv._checked_quadratic(mat, other)

    def test_pure_state_identity(self, rng):
        """Tr(rho^T E rho E) = -|psi^T E psi|^2 for pure states."""
        e = qs.invariant_tensor_E()
        for _ in range(5):
            psi = random_unit(rng, 8)
            mat = qs.projector(psi).mat
            lhs = np.trace(mat.T @ e @ mat @ e).real
            assert abs(lhs + abs(psi @ e @ psi) ** 2) < 1e-12


class TestQuarticInvariants:
    def test_maximally_mixed(self):
        quartics = inv.quartic_invariants(np.eye(8) / 8)
        assert all(abs(q - (1 / 64) ** 2) < 1e-16 for q in quartics)

    def test_invariant_under_partial_transposes(self, rng):
        for _ in range(5):
            state = qs.random_ppt_state(rng)
            base = np.array(inv.quartic_invariants(state))
            for k in (1, 2, 3):
                other = np.array(inv.quartic_invariants(qs.partial_transpose(state, k)))
                rel = np.abs(other - base) / np.maximum(np.abs(base), 1e-300)
                assert rel.max() < 1e-9

    def test_invariant_under_product_transforms(self, rng):
        state = qs.random_ppt_state(rng)
        base = np.array(inv.quartic_invariants(state))
        for _ in range(10):
            transformed = qs.product_transform(
                state, *(random_unit_determinant(rng) for _ in range(3)))
            other = np.array(inv.quartic_invariants(transformed))
            rel = np.abs(other - base) / np.maximum(np.abs(base), 1e-300)
            assert rel.max() < 1e-8


class TestAllInvariantsTogether:
    def test_full_transpose_invariance(self, rng):
        state = qs.random_ppt_state(rng)
        base = np.array([inv.quadratic_invariant(state), *inv.quartic_invariants(state)])
        transposed = qs.HermitianOperator(state.mat.T)
        other = np.array([
            inv.quadratic_invariant(transposed),
            *inv.quartic_invariants(transposed),
        ])
        rel = np.abs(other - base) / np.maximum(np.abs(base), 1e-300)
        assert rel.max() < 1e-9


class TestFingerprint:
    def test_scaling_invariance(self, rng):
        state = qs.random_ppt_state(rng)
        fp1 = inv.fingerprint(state)
        fp7 = inv.fingerprint(qs.HermitianOperator(7.0 * state.mat))
        diff = np.abs(np.array(fp1.normalized_quartics) - np.array(fp7.normalized_quartics))
        scale = max(np.abs(fp1.normalized_quartics))
        assert diff.max() < 1e-10 * max(scale, 1.0)
        assert inv.fingerprints_close(fp1, fp7)

    def test_transform_gauge_match(self, rng):
        """Two representatives of the same class carry matching fingerprints."""
        state = qs.random_ppt_state(rng)
        other = qs.product_transform(
            state, *(random_unit_determinant(rng) for _ in range(3)))
        assert inv.fingerprints_close(inv.fingerprint(state), inv.fingerprint(other),
                                      rtol=1e-7)

    def test_degenerate_flag_for_vanishing_i2(self):
        from pptatlas.rank4 import construct_type2

        state, _ = construct_type2(0.7 + 0.3j)
        fp = inv.fingerprint(state)
        assert fp.degenerate
        assert fp.i2 < 1e-12

    def test_pauli_tensor_decomposed_once(self, rng, monkeypatch):
        calls = []
        real = inv.pauli_decompose

        def counting(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(inv, "pauli_decompose", counting)
        inv.fingerprint(qs.random_ppt_state(rng))
        assert len(calls) == 1

    def test_one_rule_for_vanishing_i2(self):
        """fingerprint.degenerate and classify_type's type II read the same
        threshold i2_zero_tol * trace^2."""
        from pptatlas.config import Tolerances
        from pptatlas.rank4 import classify_type, construct_type1

        state, _ = construct_type1(np.random.default_rng(5))
        i2 = inv.fingerprint(state).i2
        above = Tolerances(i2_zero_tol=1.01 * i2)
        below = Tolerances(i2_zero_tol=0.99 * i2)
        assert inv.i2_vanishes(i2, 1.0, above) and not inv.i2_vanishes(i2, 1.0, below)
        assert inv.fingerprint(state, above).degenerate
        assert classify_type(state, above) == "II"
        assert not inv.fingerprint(state, below).degenerate
        assert classify_type(state, below) == "I"

    def test_type_separation_by_orders_of_magnitude(self, rng):
        from pptatlas.rank4 import construct_type1, construct_type2

        type1, _ = construct_type1(rng)
        type2, _ = construct_type2(0.7 + 0.3j)
        i2_one = inv.fingerprint(type1).i2
        i2_two = abs(inv.fingerprint(type2).i2)
        assert i2_one / max(i2_two, 1e-300) > 1e10

    def test_separable_states_have_fingerprints(self, rng):
        fp = inv.fingerprint(random_separable(rng, 4))
        assert fp.i2 >= -1e-12
        assert not fp.degenerate
