import numpy as np
import pytest

from pptatlas import qstate as qs
from pptatlas import ranksearch as rs
from pptatlas.errors import BudgetExhausted

from conftest import ZeroRng


class TestProblemSetup:
    def test_equation_count_formula(self):
        assert rs.RankTargetProblem((8, 8, 8, 8)).n_equations == 0
        assert rs.RankTargetProblem((4, 4, 4, 4)).n_equations == 16
        assert rs.RankTargetProblem((5, 5, 5, 5)).n_equations == 12

    def test_residual_length(self, rng):
        problem = rs.RankTargetProblem((6, 6, 6, 7))
        x = rs._random_start(problem, rng)
        assert rs.eigen_residual(problem, x).size == problem.n_equations

    def test_empty_residual_for_full_ranks(self, rng):
        problem = rs.RankTargetProblem((8, 8, 8, 8))
        assert rs.eigen_residual(problem, rs._random_start(problem, rng)).size == 0

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
    def test_matches_central_finite_differences(self, rng):
        problem = rs.RankTargetProblem((6, 6, 6, 6))
        x = rs._random_start(problem, rng)
        result = rs.jacobian(problem, x)
        assert not result.degenerate
        step = 1e-6
        for j in range(0, problem.n_parameters, 7):
            shift = np.zeros(problem.n_parameters)
            shift[j] = step
            fd = (rs.eigen_residual(problem, x + shift)
                  - rs.eigen_residual(problem, x - shift)) / (2 * step)
            assert np.abs(result.matrix[:, j] - fd).max() < 1e-4

    def test_diagonal_case_exact(self):
        """For a diagonal matrix with distinct eigenvalues the derivative along
        a diagonal basis element is exactly the matching indicator."""
        basis = np.zeros((8, 8, 8), dtype=complex)
        for k in range(8):
            basis[k, k, k] = 1.0
        problem = rs.RankTargetProblem((6, 6, 6, 6), basis=basis)
        x = np.array([8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 1.0, 2.0])
        result = rs.jacobian(problem, x)
        mu = rs.eigen_residual(problem, x)
        assert np.allclose(sorted(mu[:2]), [1.0, 2.0])
        # rows select exactly the eigenvalue's coordinate
        assert np.allclose(np.abs(result.matrix).sum(axis=1), 1.0, atol=1e-10)

    def test_degenerate_pair_flagged(self):
        basis = np.zeros((8, 8, 8), dtype=complex)
        for k in range(8):
            basis[k, k, k] = 1.0
        problem = rs.RankTargetProblem((6, 6, 6, 6), basis=basis)
        x = np.array([8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 1.0, 1.0 + 1e-8])
        assert rs.jacobian(problem, x).degenerate


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

    def test_minimize_sq_finds_easy_target(self, rng):
        problem = rs.RankTargetProblem((7, 7, 7, 7))
        result = rs.minimize_sq(problem, rng, budget=100_000)
        assert result.success
        assert result.profile.ranks == (7, 7, 7, 7)
        assert result.objective < 1e-18

    def test_minimize_sq_budget_exhausted(self, rng):
        problem = rs.RankTargetProblem((5, 5, 6, 8))
        with pytest.raises(BudgetExhausted):
            rs.minimize_sq(problem, rng, budget=3_000)

    def test_minimize_sq_counts_underflowing_trials(self, monkeypatch):
        """Every trial from a zero start is the zero matrix, whose norm
        underflows; the trials still use up the budget."""
        problem = rs.RankTargetProblem((7, 7, 7, 7))
        monkeypatch.setattr(rs, "_random_start",
                            lambda problem, rng: np.zeros(problem.n_parameters))
        with pytest.raises(BudgetExhausted):
            rs.minimize_sq(problem, ZeroRng(), budget=50)

    def test_dominated_profile_allowed_without_exact(self):
        problem = rs.RankTargetProblem((5, 5, 5, 5))
        result = rs.solve_targets(problem, np.random.default_rng(5), restarts=25)
        assert result.success
        assert all(r <= t for r, t in zip(result.profile.ranks, problem.targets))


class TestSymmetrySubspaces:
    def test_symmetric_subspace_outputs_fully_symmetric(self):
        problem = rs.symmetric_subspace_problem((5, 5, 5, 5))
        result = rs.solve_targets(problem, np.random.default_rng(2), restarts=25)
        assert result.success
        mat = result.state.mat
        for k in (1, 2, 3):
            assert np.abs(qs.ptranspose_mat(mat, k) - mat).max() < 1e-12

    def test_two_transpose_subspace_automatically_ppt(self):
        """States with rho = rho^T1 = rho^T2 have rho^T3 = rho^T, which shares
        the spectrum, so any positive member of the subspace is PPT."""
        problem = rs.symmetric_subspace_problem((6, 6, 6, 6), transpositions=(1, 2))
        result = rs.solve_targets(problem, np.random.default_rng(3), restarts=25)
        assert result.success
        mat = result.state.mat
        assert np.abs(qs.ptranspose_mat(mat, 1) - mat).max() < 1e-12
        assert np.abs(qs.ptranspose_mat(mat, 2) - mat).max() < 1e-12
        t3 = qs.ptranspose_mat(mat, 3)
        assert np.abs(t3 - mat.T).max() < 1e-12
        assert np.allclose(np.linalg.eigvalsh(t3), np.linalg.eigvalsh(mat), atol=1e-12)
