import numpy as np
import pytest
import scipy.linalg

from pptatlas import prodvec as pv
from pptatlas import qstate as qs
from pptatlas.errors import (DegenerateAngles, DegeneratePencil, DegenerateQuadruple,
                             NotOrthonormal)

from conftest import random_product_vector, random_unit, random_unit_determinant


def same_ray(a, b, tol=1e-8):
    return 1.0 - abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)) < tol


def _generic_basis(rng):
    return pv.SubspaceBasis.from_columns(np.column_stack([random_unit(rng, 8) for _ in range(4)]))


class TestPencilExtraction:
    def test_product_span_recovered_in_every_bipartition(self, rng):
        products = [random_product_vector(rng) for _ in range(4)]
        basis = pv.SubspaceBasis.from_columns(np.column_stack(products))
        for bipartition in pv.BIPARTITIONS:
            found = pv.product_vectors_in_subspace(basis, bipartition)
            assert found.vectors.shape == (8, 4)
            for vec in found.vectors.T:
                assert any(same_ray(vec, p) for p in products)

    def test_generic_subspace_four_per_bipartition(self, rng):
        basis = _generic_basis(rng)
        collected = {}
        for bipartition in pv.BIPARTITIONS:
            found = pv.product_vectors_in_subspace(basis, bipartition)
            assert found.vectors.shape == (8, 4)
            assert found.factors.shape == (2, 4)
            assert found.eigenvalues.shape == (4,)
            collected[bipartition] = found.vectors
        # twelve vectors in total and no shared ray across bipartitions
        for a in collected["1|23"].T:
            for b in collected["2|13"].T:
                assert not same_ray(a, b)

    def test_generic_subspace_has_no_full_product(self, rng):
        assert pv.full_product_vectors_in_subspace(_generic_basis(rng)) == []

    def test_one_full_product_is_found(self, rng):
        """A subspace spanned by one product vector and three random vectors
        holds that product's ray and no other full product vector."""
        product = random_product_vector(rng)
        basis = pv.SubspaceBasis.from_columns(
            np.column_stack([product] + [random_unit(rng, 8) for _ in range(3)]))
        found = pv.full_product_vectors_in_subspace(basis)
        assert len(found) == 1
        assert found[0].shape == (8,)
        assert abs(np.linalg.norm(found[0]) - 1.0) < 1e-12
        assert same_ray(found[0], product)

    def test_pencil_eigenvalue_is_factor_ratio(self, rng):
        found = pv.product_vectors_in_subspace(_generic_basis(rng), "1|23")
        for mu, x in zip(found.eigenvalues, found.factors.T):
            assert abs(mu - x[0] / x[1]) < 1e-8 * max(1.0, abs(mu))

    def test_columns_are_split_products_of_their_factors(self, rng):
        """Each column is a unit vector in the subspace and equals its factor
        column in the bipartition's slot times the cofactor <x| v / |x|^2."""
        basis = _generic_basis(rng)
        proj = basis.psi @ basis.psi.conj().T
        for slot, bipartition in enumerate(pv.BIPARTITIONS):
            found = pv.product_vectors_in_subspace(basis, bipartition)
            for vec, x in zip(found.vectors.T, found.factors.T):
                assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
                assert np.linalg.norm(proj @ vec - vec) < 1e-9
                cofactor = np.tensordot(x.conj(), vec.reshape(2, 2, 2), axes=(0, slot))
                cofactor /= np.vdot(x, x).real
                rebuilt = np.moveaxis(np.multiply.outer(x, cofactor), 0, slot).ravel()
                assert np.linalg.norm(rebuilt - vec) < 1e-9

    def test_continuum_of_shared_factor_raises(self):
        """|0> (x) C^4 holds |0> (x) psi for every psi: for 1|23 the pencil has
        one eigenvalue four times, and the four vectors it gives share their
        qubit-1 factor, so no four of them are the subspace's. For 2|13 and
        3|12 the pencil is singular and no vector factors."""
        basis = pv.SubspaceBasis(np.eye(8, 4, dtype=complex))
        with pytest.raises(DegeneratePencil, match=r"vectors 1 and 2 of bipartition 1\|23 "
                                                   r"share their factor1 \(overlap gap"):
            pv.product_vectors_in_subspace(basis, "1|23")
        for bipartition in ("2|13", "3|12"):
            with pytest.raises(DegeneratePencil, match=r"only 0 product vectors found for "
                                                       rf"bipartition {bipartition[0]}\|"):
                pv.product_vectors_in_subspace(basis, bipartition)
        # |0>|0>|0> and every other |0> (x) product lie in it
        with pytest.raises(DegeneratePencil):
            pv.full_product_vectors_in_subspace(basis)

    def test_ordering_deterministic(self, rng):
        basis = _generic_basis(rng)
        first = pv.product_vectors_in_subspace(basis, "1|23")
        second = pv.product_vectors_in_subspace(basis, "1|23")
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


def _assert_matches_qz(a_mat, b_mat, w, vr):
    """Eigenvalues w and eigenvectors vr of the pencil a v = mu b v agree with
    scipy's QZ: each finite QZ eigenvalue to 1e-10 relative, each infinite
    one as infinite or beyond 1e12, and each eigenvector on the same ray."""
    w_qz, vr_qz = scipy.linalg.eig(a_mat, b_mat)
    for mu, v in zip(w_qz, vr_qz.T):
        k = int(np.argmax(np.abs(vr.conj().T @ v) / np.linalg.norm(vr, axis=0)))
        assert same_ray(vr[:, k], v, tol=1e-10)
        if np.isfinite(mu) and abs(mu) < 1e12:
            assert abs(w[k] - mu) < 1e-10 * max(1.0, abs(mu))
        else:
            assert not np.isfinite(w[k]) or abs(w[k]) > 1e12


def _with_vanishing_lower_half(rng):
    """Orthonormal 8x4 frame whose first column is a product vector |0> x v:
    its lower half, the b block of the 1|23 pencil, is zero."""
    cols = [qs.kron3(np.array([1.0, 0.0]), random_unit(rng, 2), random_unit(rng, 2))]
    cols += [random_unit(rng, 8) for _ in range(3)]
    psi, _ = np.linalg.qr(np.column_stack(cols))
    assert not psi[4:, 0].any()
    return psi


class TestPencilSolver:
    """The one pencil solver against scipy's QZ (scipy.linalg.eig(a, b))."""

    def test_random_pencils_match_qz(self, rng):
        a_mat = rng.standard_normal((30, 4, 4)) + 1j * rng.standard_normal((30, 4, 4))
        b_mat = rng.standard_normal((30, 4, 4)) + 1j * rng.standard_normal((30, 4, 4))
        w, vr = pv._pencil_eigs(a_mat, b_mat)
        for i in range(30):
            _assert_matches_qz(a_mat[i], b_mat[i], w[i], vr[i])

    @pytest.mark.parametrize("rotate", [False, True])
    def test_infinite_eigenvalue_sorts_last(self, rng, rotate):
        """A product vector with vanishing lower half makes b singular and
        mu infinite: exactly, or to rounding once the frame is rotated."""
        psi = _with_vanishing_lower_half(rng)
        product = psi[:, 0].copy()
        if rotate:
            psi = psi @ np.linalg.qr(rng.standard_normal((4, 4))
                                     + 1j * rng.standard_normal((4, 4)))[0]
        found = pv.product_vectors_in_subspace(pv.SubspaceBasis(psi), "1|23")
        assert found.vectors.shape == (8, 4)
        assert same_ray(found.vectors[:, -1], product)
        mu = found.eigenvalues[-1]
        assert not np.isfinite(mu) or abs(mu) > 1e12
        keys = [pv._mu_sort_key(mu) for mu in found.eigenvalues]
        assert keys == sorted(keys)
        top, bottom = pv._ROW_SPLITS["1|23"]
        vr = np.linalg.lstsq(psi, found.vectors, rcond=None)[0]
        _assert_matches_qz(psi[top], psi[bottom], found.eigenvalues, vr)

    def test_singular_member_of_a_stack(self, rng):
        """One singular member makes the stacked solve raise: the others keep
        the bits of their own solve, and the singular one matches QZ."""
        top, bottom = pv._ROW_SPLITS["1|23"]
        frames = [np.linalg.qr(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))[0],
                  _with_vanishing_lower_half(rng),
                  np.linalg.qr(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))[0]]
        a_mat = np.stack([f[top] for f in frames])
        b_mat = np.stack([f[bottom] for f in frames])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(b_mat, a_mat)
        w, vr = pv._pencil_eigs(a_mat, b_mat)
        for i in (0, 2):
            w_alone, vr_alone = np.linalg.eig(np.linalg.solve(b_mat[i], a_mat[i]))
            assert np.array_equal(w[i], w_alone) and np.array_equal(vr[i], vr_alone)
        for i in range(3):
            _assert_matches_qz(a_mat[i], b_mat[i], w[i], vr[i])
        assert np.sum(~np.isfinite(w[1]) | (np.abs(w[1]) > 1e12)) == 1


class TestStandardForm:
    def test_self_consistency_on_standard_input(self):
        t0 = 0.3 + 0.7j
        x = np.array([[1, 0, 1, t0], [0, 1, -1, 1]], dtype=complex)
        sf = pv.standard_form_quadruple(x)
        assert abs(sf.t - t0) < 1e-12

    def test_transform_maps_to_standard_columns(self, rng):
        x = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        sf = pv.standard_form_quadruple(x)
        cols = sf.transform @ (x / np.linalg.norm(x, axis=0))
        std = sf.standard_columns
        for i in range(4):
            assert same_ray(cols[:, i], std[:, i], tol=1e-9)

    def test_two_parameter_computations_agree(self, rng):
        for _ in range(10):
            x = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            sf = pv.standard_form_quadruple(x)
            assert abs(sf.t - pv.cross_ratio_parameter(x)) < 1e-9 * max(1.0, abs(sf.t))

    def test_cross_ratio_invariance(self, rng):
        x = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        t = pv.cross_ratio_parameter(x)
        v = random_unit_determinant(rng)
        scales = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(pv.cross_ratio_parameter((v @ x) * scales) - t) < 1e-9 * max(1, abs(t))

    def test_alternative_parameters(self):
        t = 0.4 - 1.1j
        t_prime, t_second = pv.alternative_parameters(t)
        assert t_prime == -1 - t
        assert abs(t_second - (-1 - 1 / t)) < 1e-15

    def test_degenerate_quadruple_rejected(self):
        x = np.array([[1, 2, 1, 0], [1, 2, -1, 1]], dtype=complex)
        with pytest.raises(DegenerateQuadruple):
            pv.standard_form_quadruple(x)

    def test_orthogonal_form_for_positive_t(self):
        x = np.array([[1, 0, 1, 2.5], [0, 1, -1, 1]], dtype=complex)
        sf = pv.standard_form_quadruple(x)
        w, _ = pv.orthogonal_form(sf)
        assert abs(w[:, 0] @ w[:, 1]) < 1e-12
        assert abs(w[:, 2] @ w[:, 3]) < 1e-12
        assert np.abs(w.imag).max() == 0.0

    def test_orthogonalizable_pairing_by_sign(self):
        assert pv.orthogonalizable_pairing(2.5 + 0j)[0] == "(12)(34)"
        assert pv.orthogonalizable_pairing(-3.0 + 0j)[0] == "(13)(24)"
        assert pv.orthogonalizable_pairing(-0.4 + 0j)[0] == "(14)(23)"
        assert pv.orthogonalizable_pairing(0.5 + 0.5j) is None


class TestUpb:
    def test_orthonormal_for_any_angles(self, rng):
        for _ in range(5):
            angles = rng.uniform(0.2, 1.3, size=3)
            vecs = pv.upb_standard(*angles)
            assert vecs.shape == (8, 4)
            assert np.abs(vecs.conj().T @ vecs - np.eye(4)).max() < 1e-12

    def test_slot_orthogonality_pattern(self):
        """Each pair is orthogonal in exactly one slot: (1,2),(3,4) in the
        first, (1,3),(2,4) in the second, (1,4),(2,3) in the third."""
        upb = pv.upb_standard(np.pi / 4, np.pi / 5, np.pi / 3)
        factors = [qs.factor_product_vector(vec) for vec in upb.T]
        expected = {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}
        for (i, j), slot in expected.items():
            for s, (fa, fb) in enumerate(zip(factors[i], factors[j]), start=1):
                inner = abs(np.vdot(fa, fb))
                if s == slot:
                    assert inner < 1e-12
                else:
                    assert inner > 1e-3

    def test_degenerate_angles_rejected(self):
        with pytest.raises(DegenerateAngles):
            pv.upb_standard(0.0, np.pi / 4, np.pi / 4)

    def test_state_spectrum(self):
        state = pv.upb_state(pv.upb_standard(np.pi / 4, np.pi / 4, np.pi / 4))
        evs = np.linalg.eigvalsh(state.mat)
        assert np.abs(evs[:4]).max() < 1e-12
        assert np.abs(evs[4:] - 0.25).max() < 1e-12
        assert abs(state.trace() - 1.0) < 1e-14

    def test_partial_transposes_are_projectors(self):
        state = pv.upb_state(pv.upb_standard(0.7, 0.9, 1.1))
        for k in (1, 2, 3):
            pt = 4.0 * qs.ptranspose_mat(state.mat, k)
            assert np.abs(pt @ pt - pt).max() < 1e-12

    def test_kernel_recovers_upb_vectors(self):
        upb = pv.upb_standard(np.pi / 4, np.pi / 5, np.pi / 3)
        state = pv.upb_state(upb)
        kernel = pv.SubspaceBasis.kernel_of(state)
        for bipartition in pv.BIPARTITIONS:
            found = pv.product_vectors_in_subspace(kernel, bipartition)
            for vec in found.vectors.T:
                assert any(same_ray(vec, u) for u in upb.T)

    def test_range_contains_no_product_vector(self):
        state = pv.upb_state(pv.upb_standard(np.pi / 4, np.pi / 5, np.pi / 3))
        assert pv.full_product_vectors_in_subspace(pv.SubspaceBasis.range_of(state)) == []

    def test_rejects_non_orthonormal_input(self, rng):
        vectors = np.column_stack([random_product_vector(rng) for _ in range(4)])
        with pytest.raises(NotOrthonormal, match="not orthonormal"):
            pv.upb_state(vectors)
        with pytest.raises(NotOrthonormal, match=r"8x4 matrix, got shape \(8, 3\)"):
            pv.upb_state(pv.upb_standard(0.7, 0.9, 1.1)[:, :3])

    def test_unitary_transform_keeps_kernel_products_orthogonal(self):
        """Conjugating by a unitary product keeps the kernel spanned by
        orthogonal product vectors; nonunitary products break orthogonality."""
        from scipy.stats import unitary_group

        state = pv.upb_state(pv.upb_standard(0.7, 0.9, 1.1))
        factors = [unitary_group.rvs(2, random_state=40 + k) for k in range(3)]
        moved = qs.product_transform(state, *factors)
        kernel = pv.SubspaceBasis.kernel_of(moved)
        vecs = pv.product_vectors_in_subspace(kernel, "1|23").vectors
        assert np.abs(vecs.conj().T @ vecs - np.eye(4)).max() < 1e-8
        assert len(pv.full_product_vectors_in_subspace(kernel)) == 4
