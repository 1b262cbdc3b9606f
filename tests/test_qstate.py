import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pptatlas import extremal as ex
from pptatlas import qstate as qs
from pptatlas.errors import DegenerateDraw, NotAState, SingularFactor

from conftest import (
    ZeroRng,
    ghz_vector,
    ppt_states,
    random_hermitian,
    random_product_vector,
    random_unit,
    random_unit_determinant,
    reference_partial_transpose,
    unitaries,
    w_vector,
)


def block_label(mat, block_row, block_col):
    return int(mat[2 * block_row, 2 * block_col].real)


def labeled_block_matrix():
    """8x8 matrix whose 2x2 blocks carry distinct labels 1..16."""
    mat = np.zeros((8, 8), dtype=complex)
    for br in range(4):
        for bc in range(4):
            label = 4 * br + bc + 1
            mat[2 * br:2 * br + 2, 2 * bc:2 * bc + 2] = label * np.arange(1, 5).reshape(2, 2)
    return mat


class TestPartialTranspose:
    def test_block_action_t1(self):
        """T1 moves the 4x4 submatrices: C,D,G,H swap with I,J,M,N."""
        mat = labeled_block_matrix()
        got = [[block_label(qs.ptranspose_mat(mat, 1), r, c) for c in range(4)] for r in range(4)]
        assert got == [[1, 2, 9, 10], [5, 6, 13, 14], [3, 4, 11, 12], [7, 8, 15, 16]]

    def test_block_action_t2(self):
        mat = labeled_block_matrix()
        got = [[block_label(qs.ptranspose_mat(mat, 2), r, c) for c in range(4)] for r in range(4)]
        assert got == [[1, 5, 3, 7], [2, 6, 4, 8], [9, 13, 11, 15], [10, 14, 12, 16]]

    def test_block_action_t3_transposes_blocks(self):
        mat = labeled_block_matrix()
        pt = qs.ptranspose_mat(mat, 3)
        for r in range(4):
            for c in range(4):
                assert np.array_equal(pt[2 * r:2 * r + 2, 2 * c:2 * c + 2],
                                      mat[2 * r:2 * r + 2, 2 * c:2 * c + 2].T)

    def test_matches_reference_implementation(self, rng):
        for _ in range(10):
            mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            for k in (1, 2, 3):
                assert np.array_equal(qs.ptranspose_mat(mat, k),
                                      reference_partial_transpose(mat, k))

    def test_stack_transposes_each_member(self, rng):
        stack = rng.standard_normal((2, 3, 8, 8)) + 1j * rng.standard_normal((2, 3, 8, 8))
        for k in range(4):
            out = qs.ptranspose_mat(stack, k)
            assert out.shape == stack.shape
            for a in range(2):
                for b in range(3):
                    ref = stack[a, b] if k == 0 else reference_partial_transpose(stack[a, b], k)
                    assert out[a, b].tobytes() == ref.tobytes()

    def test_transpose_spectra_matches_reference(self, rng):
        """The stacked spectra agree with eigvalsh of the reference transposes
        and are bit-equal to eigvalsh called on each transpose separately."""
        for _ in range(10):
            for mat in (qs.random_density(rng).mat, random_hermitian(rng).mat):
                spectra = qs.transpose_spectra(mat)
                assert spectra.shape == (4, 8)
                for k in range(4):
                    ref = mat if k == 0 else reference_partial_transpose(mat, k)
                    assert np.abs(spectra[k] - np.linalg.eigvalsh(ref)).max() < 1e-12
                    assert np.array_equal(spectra[k],
                                          np.linalg.eigvalsh(qs.ptranspose_mat(mat, k)))

    @settings(max_examples=100, deadline=None, database=None)
    @given(arrays(np.float64, (2, 8, 8), elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_involution_and_reference_for_drawn_matrices(self, parts):
        """For any finite complex 8x8 matrix, each partial transpose is an
        involution and bit-equals the index-bookkeeping reference."""
        mat = np.empty((8, 8), dtype=complex)
        mat.real, mat.imag = parts
        for k in (1, 2, 3):
            pt = qs.ptranspose_mat(mat, k)
            assert pt.tobytes() == reference_partial_transpose(mat, k).tobytes()
            assert qs.ptranspose_mat(pt, k).tobytes() == mat.tobytes()

    def test_diagonal_fixed(self, rng):
        diag = np.diag(rng.standard_normal(8))
        for k in (1, 2, 3):
            assert np.array_equal(qs.ptranspose_mat(diag, k), diag)

    def test_involution_exact(self, rng):
        mat = random_hermitian(rng).mat
        for k in (1, 2, 3):
            assert np.array_equal(qs.ptranspose_mat(qs.ptranspose_mat(mat, k), k), mat)

    def test_pairwise_commute(self, rng):
        mat = random_hermitian(rng).mat
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert np.array_equal(
                    qs.ptranspose_mat(qs.ptranspose_mat(mat, i), j),
                    qs.ptranspose_mat(qs.ptranspose_mat(mat, j), i),
                )

    def test_t1_t2_t3_is_full_transpose(self, rng):
        mat = random_hermitian(rng).mat
        full = qs.ptranspose_mat(qs.ptranspose_mat(qs.ptranspose_mat(mat, 1), 2), 3)
        assert np.array_equal(full, mat.T)

    def test_transpose_preserves_spectrum(self, rng):
        mat = random_hermitian(rng).mat
        assert np.allclose(np.linalg.eigvalsh(mat), np.linalg.eigvalsh(mat.T), atol=1e-12)

    def test_ghz_t1_minimum_eigenvalue(self):
        rho = qs.projector(ghz_vector())
        evs = np.linalg.eigvalsh(qs.ptranspose_mat(rho.mat, 1))
        assert abs(evs.min() - (-0.5)) < 1e-12

    def test_hermiticity_preserved(self, rng):
        rho = random_hermitian(rng)
        for k in (1, 2, 3):
            pt = qs.partial_transpose(rho, k).mat
            assert np.abs(pt - pt.conj().T).max() == 0.0


class TestSplitProduct:
    def test_component_layout(self):
        y = np.array([2.0, 3.0])
        v = np.array([5.0, 7.0, 11.0, 13.0])
        expected = np.array([10, 14, 15, 21, 22, 26, 33, 39.0])
        assert np.array_equal(qs.split_product(y, v), expected)

    def test_basis_vector(self):
        out = qs.split_product(np.array([1.0, 0.0]), np.array([1.0, 0, 0, 0]))
        assert np.array_equal(out, np.eye(8)[0])

    def test_agrees_with_plain_kronecker(self, rng):
        for _ in range(100):
            x, y, z = (random_unit(rng, 2) for _ in range(3))
            direct = qs.kron3(x, y, z)
            split = qs.split_product(y, np.kron(x, z))
            assert np.abs(direct - split).max() < 1e-14


class TestInvariantTensor:
    def test_corner_entries(self):
        e = qs.invariant_tensor_E()
        assert e[0, 7] == 1.0 and e[7, 0] == -1.0

    def test_square_is_minus_identity(self):
        e = qs.invariant_tensor_E()
        assert np.array_equal(e @ e, -np.eye(8))

    def test_antisymmetric(self):
        e = qs.invariant_tensor_E()
        assert np.array_equal(e.T, -e)

    def test_invariant_under_unit_determinant_products(self, rng):
        e = qs.invariant_tensor_E()
        for _ in range(20):
            big = qs.kron3(*(random_unit_determinant(rng) for _ in range(3)))
            assert np.abs(big @ e @ big.T - e).max() < 1e-10


class TestPauliExpansion:
    def test_identity_coefficients(self):
        t = qs.pauli_decompose(np.eye(8) / 8)
        assert abs(t[0, 0, 0] - 0.125) < 1e-15
        assert np.abs(t).sum() - 0.125 < 1e-15

    def test_single_pauli_string(self):
        mat = qs.kron3(qs.PAULI[3], qs.PAULI[0], qs.PAULI[0])
        t = qs.pauli_decompose(mat)
        assert abs(t[3, 0, 0] - 1.0) < 1e-15
        assert abs(np.abs(t).sum() - 1.0) < 1e-15

    def test_round_trip(self, rng):
        for _ in range(10):
            rho = random_hermitian(rng)
            coeffs = qs.pauli_decompose(rho)
            back = sum(coeffs[a, b, c] * qs.kron3(qs.PAULI[a], qs.PAULI[b], qs.PAULI[c])
                       for a in range(4) for b in range(4) for c in range(4))
            assert np.abs(back - rho.mat).max() < 1e-12

    def test_coefficients_real(self, rng):
        t = qs.pauli_decompose(random_hermitian(rng))
        assert t.shape == (4, 4, 4) and t.dtype.kind == "f"
        assert not t.flags.writeable


class TestPptProfile:
    def test_pure_product_profile(self):
        rho = qs.projector(np.eye(8)[0])
        profile = qs.ppt_profile(rho)
        assert profile.ranks == (1, 1, 1, 1)
        assert profile.is_ppt

    def test_ghz_not_ppt(self):
        profile = qs.ppt_profile(qs.projector(ghz_vector()))
        assert not profile.is_ppt
        assert profile.min_eigenvalues[1] < -0.1

    def test_w_not_ppt(self):
        assert not qs.ppt_profile(qs.projector(w_vector())).is_ppt

    def test_maximally_mixed(self):
        profile = qs.ppt_profile(np.eye(8) / 8)
        assert profile.ranks == (8, 8, 8, 8)
        assert profile.is_ppt
        assert profile.square_sum == 256
        assert not ex.rank_square_bound(profile.ranks).admissible

    def test_sorted_key(self, rng):
        profile = qs.ppt_profile(np.eye(8) / 8)
        assert profile.key == "8888"
        assert profile.sorted_ranks == (8, 8, 8, 8)

    def test_matches_per_transpose_loop(self, rng):
        """Ranks, margins and minima equal a loop over the reference transposes
        of a low-rank state, whose cut discards eigenvalues."""
        psi = sum(qs.projector(random_product_vector(rng)).mat for _ in range(3))
        for mat in (psi / np.trace(psi).real, qs.random_density(rng).mat):
            profile = qs.ppt_profile(mat)
            for k in range(4):
                pt = mat if k == 0 else reference_partial_transpose(mat, k)
                evs = np.linalg.eigvalsh(pt)
                kept = np.abs(evs) > profile.tolerance * np.abs(evs).max()
                dropped = np.abs(evs)[~kept]
                assert profile.ranks[k] == np.count_nonzero(kept)
                assert profile.margins[k] == (dropped.max() if dropped.size else 0.0)
                assert profile.min_eigenvalues[k] == evs.min()

    def test_rejects_non_state(self, rng):
        with pytest.raises(NotAState):
            qs.ppt_profile(qs.projector(ghz_vector()).mat - 0.3 * np.eye(8))


class TestProfileUnderLocalUnitaries:
    @settings(max_examples=60, deadline=None, database=None)
    @given(ppt_states(), unitaries(), unitaries(), unitaries())
    def test_ranks_and_sign_are_invariant(self, state, u1, u2, u3):
        """U1 x U2 x U3 maps each partial transpose to a unitary conjugate of
        itself (with U_k replaced by its conjugate in the transposed slot), so
        no rank and no PPT sign changes."""
        before = qs.ppt_profile(state)
        after = qs.ppt_profile(qs.product_transform(state, u1, u2, u3))
        assert after.ranks == before.ranks
        assert after.is_ppt and before.is_ppt


class TestProductTransform:
    def test_identity_factors(self, rng):
        rho = qs.random_density(rng)
        eye = np.eye(2)
        out = qs.product_transform(rho, eye, eye, eye)
        assert np.abs(out.mat - rho.mat).max() < 1e-15

    def test_pure_product_stays_pure_product(self, rng):
        rho = qs.projector(np.eye(8)[0])
        factors = [random_unit_determinant(rng) for _ in range(3)]
        out = qs.product_transform(rho, *factors)
        assert qs.ppt_profile(out).ranks == (1, 1, 1, 1)

    def test_unitary_keeps_kernel_product_orthogonality(self, rng):
        # unitary factors map orthogonal product vectors to orthogonal ones
        from scipy.stats import unitary_group

        vecs = [random_product_vector(rng) for _ in range(2)]
        factors = [unitary_group.rvs(2, random_state=7) for _ in range(3)]
        big = qs.kron3(*factors)
        a, b = big @ vecs[0], big @ vecs[1]
        assert abs(np.vdot(a, b) - np.vdot(vecs[0], vecs[1])) < 1e-12

    def test_singular_factor_rejected(self, rng):
        rho = qs.random_density(rng)
        with pytest.raises(SingularFactor):
            qs.product_transform(rho, np.zeros((2, 2)), np.eye(2), np.eye(2))


class TestHermitianBases:
    def test_full_dimension(self):
        assert qs.hermitian_basis().shape == (64, 8, 8)

    def test_orthonormal(self):
        basis = qs.hermitian_basis()
        gram = np.einsum("kab,lba->kl", basis, basis).real
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-14

    def test_coordinate_round_trip(self, rng):
        mat = random_hermitian(rng).mat
        coords = qs.mat_to_coords(mat)
        back = np.einsum("k,kab->ab", coords, qs.hermitian_basis())
        assert np.abs(back - mat).max() < 1e-13


_finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _hermitian_matrices(draw):
    parts = draw(st.lists(_finite, min_size=128, max_size=128))
    raw = np.array(parts[:64]).reshape(8, 8) + 1j * np.array(parts[64:]).reshape(8, 8)
    return raw + raw.conj().T


def _einsum_coords(mat):
    """Tr(B_k M) summed over every entry of every basis element."""
    return np.einsum("kab,ba->k", qs.hermitian_basis(), mat).real


class TestHermitianCoords:
    @settings(max_examples=60, deadline=None, database=None)
    @given(_hermitian_matrices())
    def test_gather_equals_einsum_reference(self, mat):
        expected = _einsum_coords(mat)
        assert np.abs(qs.mat_to_coords(mat) - expected).max() <= 1e-13 * (
            1.0 + np.abs(expected).max())

    @settings(max_examples=60, deadline=None, database=None)
    @given(_hermitian_matrices())
    def test_norm_is_frobenius(self, mat):
        norm = np.linalg.norm(mat)
        assert abs(np.linalg.norm(qs.mat_to_coords(mat)) - norm) <= 1e-13 * (1.0 + norm)

    def test_stack_reads_each_member(self, rng):
        mats = rng.standard_normal((2, 3, 8, 8)) + 1j * rng.standard_normal((2, 3, 8, 8))
        mats = mats + np.swapaxes(mats.conj(), -1, -2)
        coords = qs.mat_to_coords(mats)
        assert coords.shape == (2, 3, 64)
        assert np.abs(coords[1, 2] - _einsum_coords(mats[1, 2])).max() < 1e-13


class TestHermitianOperator:
    def test_symmetrizes_on_construction(self, rng):
        raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        op = qs.HermitianOperator(raw)
        assert np.abs(op.mat - op.mat.conj().T).max() == 0.0

    def test_immutable(self, rng):
        op = random_hermitian(rng)
        with pytest.raises((AttributeError, ValueError)):
            op.mat = np.eye(8)
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

    def test_normalized(self, rng):
        state = qs.random_density(rng)
        assert abs(qs.HermitianOperator(3.7 * state.mat).normalized().trace() - 1.0) < 1e-14


class TestProductVectors:
    def test_factor_product_vector(self, rng):
        triple = qs.factor_product_vector(random_product_vector(rng))
        assert triple is not None
        assert triple.product_residual() < 1e-10

    def test_non_product_returns_none(self):
        assert qs.factor_product_vector(ghz_vector()) is None

    def test_random_ppt_state_is_ppt(self, rng):
        for _ in range(5):
            state = qs.random_ppt_state(rng)
            profile = qs.ppt_profile(state)
            assert profile.is_ppt
            assert abs(state.trace() - 1.0) < 1e-12


def _bisection_ppt_state(rng):
    """random_ppt_state with the mixing weight found by 60 bisection steps,
    as it was computed before the closed form; the reference."""
    sigma = qs.random_density(rng).mat
    eye = np.eye(8) / 8
    if qs.transpose_spectra(sigma).min() >= 0.0:
        w_max = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if qs.transpose_spectra((1 - mid) * eye + mid * sigma).min() >= 0.0:
                lo = mid
            else:
                hi = mid
        w_max = lo
    w = 0.95 * w_max
    return (1 - w) * eye + w * sigma


class TestRandomPptState:
    def test_matches_bisection(self):
        for seed in range(60):
            state = qs.random_ppt_state(np.random.default_rng(seed))
            reference = _bisection_ppt_state(np.random.default_rng(seed))
            assert np.abs(state.mat - reference).max() < 1e-13

    def test_max_weight_reaches_the_boundary(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            sigma = qs.random_density(rng).mat
            w = qs.max_ppt_weight(sigma)
            assert 0.0 < w < 1.0
            mixture = (1 - w) * np.eye(8) / 8 + w * sigma
            assert abs(qs.transpose_spectra(mixture).min()) < 1e-14

    def test_ppt_input_has_weight_one(self):
        assert qs.max_ppt_weight(np.eye(8) / 8) == 1.0


class TestBoundedDraws:
    def test_unit_determinant_raises_on_degenerate_generator(self):
        with pytest.raises(DegenerateDraw):
            random_unit_determinant(ZeroRng())
