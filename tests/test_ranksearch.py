import numpy as np
import pytest

from pptatlas import qstate as qs
from pptatlas import ranksearch as rs

from conftest import block_jacobian_diagonal, lowest_eigenvalue_gap


class TestProblemSetup:
    def test_equation_count_formula(self):
        assert rs.RankTargetProblem((8, 8, 8, 8)).n_equations == 0
        assert rs.RankTargetProblem((4, 4, 4, 4)).n_equations == 16
        assert rs.RankTargetProblem((5, 5, 5, 5)).n_equations == 12

    def test_residual_length(self, rng):
        problem = rs.RankTargetProblem((6, 6, 6, 7))
        x = rs._random_start(rng)
        assert rs.eigen_residual(problem, x).size == problem.n_equations

    def test_empty_residual_for_full_ranks(self, rng):
        problem = rs.RankTargetProblem((8, 8, 8, 8))
        assert rs.eigen_residual(problem, rs._random_start(rng)).size == 0

    def test_known_state_has_tiny_residual(self):
        from pptatlas.rank4 import construct_type2

        state, _ = construct_type2(0.7 + 0.3j)
        problem = rs.RankTargetProblem((4, 4, 4, 4))
        x = qs.mat_to_coords(state.mat)
        assert np.linalg.norm(rs.eigen_residual(problem, x)) < 1e-8

    def test_invalid_targets(self):
        with pytest.raises(ValueError):
            rs.RankTargetProblem((4, 4, 4))
        with pytest.raises(ValueError):
            rs.RankTargetProblem((0, 4, 4, 4))


class TestJacobian:
    """The diagonal rows of the block-residual Jacobian that refine_block
    uses are the eigenvalue derivatives of eigen_residual."""

    def test_matches_central_finite_differences(self, rng):
        problem = rs.RankTargetProblem((6, 6, 6, 6))
        x = rs._random_start(rng)
        assert lowest_eigenvalue_gap(problem, x) >= 1e-6
        jac = block_jacobian_diagonal(problem, x)
        step = 1e-6
        for j in range(0, rs.N_PARAMETERS, 7):
            shift = np.zeros(rs.N_PARAMETERS)
            shift[j] = step
            fd = (rs.eigen_residual(problem, x + shift)
                  - rs.eigen_residual(problem, x - shift)) / (2 * step)
            assert np.abs(jac[:, j] - fd).max() < 1e-4

    def test_diagonal_case_exact(self):
        """For a diagonal matrix with distinct eigenvalues the derivative along
        a diagonal basis element is exactly the matching indicator, and along
        an off-diagonal one it is zero."""
        problem = rs.RankTargetProblem((6, 6, 6, 6))
        x = qs.mat_to_coords(np.diag([8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 1.0, 2.0]))
        jac = block_jacobian_diagonal(problem, x)
        mu = rs.eigen_residual(problem, x)
        assert np.allclose(sorted(mu[:2]), [1.0, 2.0])
        # rows select exactly the eigenvalue's coordinate
        assert np.allclose(np.abs(jac).sum(axis=1), 1.0, atol=1e-10)


def _loop_block_residual_jacobian(problem, x):
    """Reference for the block residual and Jacobian: each block's entries
    and their derivatives listed by a loop, (k, k), then sqrt2 Re and sqrt2
    Im of (k, l) for l > k."""
    basis = qs.hermitian_basis()
    mat = rs.rho_mat(x)
    res, rows = [], []
    sq2 = np.sqrt(2.0)
    for i, m in enumerate(problem.targets):
        z = 8 - m
        if z == 0:
            continue
        pt = qs.ptranspose_mat(mat, i)
        v0 = np.linalg.eigh(pt)[1][:, :z]
        block = v0.conj().T @ pt @ v0
        dblock = np.einsum("ak,jab,bl->jkl", v0.conj(), qs.ptranspose_mat(basis, i), v0)
        for k in range(z):
            res.append(block[k, k].real)
            rows.append(dblock[:, k, k].real)
            for l in range(k + 1, z):
                res += [sq2 * block[k, l].real, sq2 * block[k, l].imag]
                rows += [sq2 * dblock[:, k, l].real, sq2 * dblock[:, k, l].imag]
    return np.array(res).reshape(-1), np.array(rows).reshape(-1, 64)


class TestBlockGather:
    @pytest.mark.parametrize("targets", [(5, 5, 5, 5), (4, 6, 7, 8), (1, 2, 3, 8),
                                         (8, 8, 8, 8)])
    def test_bit_equal_to_the_loop_reference(self, rng, targets):
        problem = rs.RankTargetProblem(targets)
        for _ in range(3):
            x = rng.standard_normal(64)
            res, jac = rs._block_residual_jacobian(problem, x)
            ref_res, ref_jac = _loop_block_residual_jacobian(problem, x)
            assert res.tobytes() == ref_res.tobytes()
            assert jac.shape == ref_jac.shape and jac.tobytes() == ref_jac.tobytes()


class TestSolvers:
    @pytest.mark.parametrize("targets", [(5, 5, 5, 5), (6, 6, 6, 6), (7, 7, 7, 7),
                                         (4, 4, 4, 4), (8, 8, 8, 8)])
    def test_block_solver_finds_targets(self, targets):
        problem = rs.RankTargetProblem(targets)
        result = rs.solve_targets(problem, np.random.default_rng(17), restarts=25,
                                  require_exact=True)
        assert result.success
        assert result.profile.ranks == targets
        assert result.profile.is_ppt

    @pytest.mark.parametrize("targets", [(5, 5, 6, 8), (5, 5, 8, 8), (5, 8, 8, 8)])
    def test_absent_combinations_fail(self, targets):
        problem = rs.RankTargetProblem(targets)
        result = rs.solve_targets(problem, np.random.default_rng(17), restarts=12,
                                  require_exact=True)
        assert not result.success

    def test_indefinite_restart_does_not_abort(self):
        """m0 = 8 leaves rho's own spectrum free, so a restart can converge to
        an indefinite rho; that restart fails and the search moves on."""
        problem = rs.RankTargetProblem((8, 5, 5, 5))
        result = rs.solve_targets(problem, np.random.default_rng(0), restarts=10,
                                  require_exact=True)
        if result.success:
            assert result.profile.is_ppt
            assert all(r <= t for r, t in zip(result.profile.ranks, problem.targets))
        else:
            assert result.attempts == 10

    def test_dominated_profile_allowed_without_exact(self):
        problem = rs.RankTargetProblem((5, 5, 5, 5))
        result = rs.solve_targets(problem, np.random.default_rng(5), restarts=25)
        assert result.success
        assert all(r <= t for r, t in zip(result.profile.ranks, problem.targets))

