import numpy as np
import pytest
import scipy.linalg

from pptatlas import prodvec as pv
from pptatlas import qstate as qs
from pptatlas.errors import (DegenerateAngles, DegeneratePencil, DegenerateQuadruple,
                             NotOrthonormal)

from conftest import random_product_vector, random_unit


def same_ray(a, b, tol=1e-8):
    return 1.0 - abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)) < tol


class TestPencilExtraction:
    def test_product_span_recovered_in_every_bipartition(self, rng):
        products = [random_product_vector(rng) for _ in range(4)]
        basis = pv.SubspaceBasis.from_columns(np.column_stack(products))
        for bipartition in pv.BIPARTITIONS:
            found = pv.product_vectors_in_subspace(basis, bipartition)
            assert len(found) == 4
            for triple in found:
                assert any(same_ray(triple.full, p) for p in products)

    def test_generic_subspace_four_per_bipartition(self, rng):
        basis = pv.SubspaceBasis.from_columns(
            np.column_stack([random_unit(rng, 8) for _ in range(4)]))
        collected = {}
        for bipartition in pv.BIPARTITIONS:
            found = pv.product_vectors_in_subspace(basis, bipartition)
            assert len(found) == 4
            for triple in found:
                # in-subspace residual
                proj = basis.projector()
                assert np.linalg.norm(proj @ triple.full - triple.full) < 1e-9
            collected[bipartition] = found
        # twelve vectors in total and no shared ray across bipartitions
        for a in collected["1|23"]:
            for b in collected["2|13"]:
                assert not same_ray(a.full, b.full)

    def test_generic_subspace_has_no_full_product(self, rng):
        basis = pv.SubspaceBasis.from_columns(
            np.column_stack([random_unit(rng, 8) for _ in range(4)]))
        assert pv.full_product_vectors_in_subspace(basis) == []

    def test_pencil_eigenvalue_is_factor_ratio(self, rng):
        basis = pv.SubspaceBasis.from_columns(
            np.column_stack([random_unit(rng, 8) for _ in range(4)]))
        for triple in pv.product_vectors_in_subspace(basis, "1|23"):
            mu = triple.pencil_eigenvalue
            x = triple.factor1
            assert abs(mu - x[0] / x[1]) < 1e-8 * max(1.0, abs(mu))

    def test_cofactor_reconstructs_vector(self, rng):
        basis = pv.SubspaceBasis.from_columns(
            np.column_stack([random_unit(rng, 8) for _ in range(4)]))
        for triple in pv.product_vectors_in_subspace(basis, "2|13"):
            rebuilt = qs.split_product(triple.factor2, triple.cofactor)
            assert np.linalg.norm(rebuilt - triple.full) < 1e-9

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
        basis = pv.SubspaceBasis.from_columns(
            np.column_stack([random_unit(rng, 8) for _ in range(4)]))
        first = pv.product_vectors_in_subspace(basis, "1|23")
        second = pv.product_vectors_in_subspace(basis, "1|23")
        for a, b in zip(first, second):
            assert np.array_equal(a.full, b.full)


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
        assert len(found) == 4
        assert same_ray(found[-1].full, product)
        mu = found[-1].pencil_eigenvalue
        assert not np.isfinite(mu) or abs(mu) > 1e12
        assert [pv._mu_sort_key(t) for t in found] == sorted(pv._mu_sort_key(t) for t in found)
        top, bottom = pv._ROW_SPLITS["1|23"]
        w = np.array([t.pencil_eigenvalue for t in found])
        vr = np.linalg.lstsq(psi, np.column_stack([t.full for t in found]), rcond=None)[0]
        _assert_matches_qz(psi[top], psi[bottom], w, vr)

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
        v = qs.random_unit_determinant(rng)
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
            upb = pv.upb_standard(*angles)
            vecs = np.column_stack([u.full for u in upb])
            assert np.abs(vecs.conj().T @ vecs - np.eye(4)).max() < 1e-12

    def test_slot_orthogonality_pattern(self):
        """Each pair is orthogonal in exactly one slot: (1,2),(3,4) in the
        first, (1,3),(2,4) in the second, (1,4),(2,3) in the third."""
        upb = pv.upb_standard(np.pi / 4, np.pi / 5, np.pi / 3)
        expected = {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}
        for (i, j), slot in expected.items():
            for s, (fa, fb) in enumerate(
                    [(upb[i].factor1, upb[j].factor1),
                     (upb[i].factor2, upb[j].factor2),
                     (upb[i].factor3, upb[j].factor3)], start=1):
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
            assert len(found) == 4
            for triple in found:
                assert any(same_ray(triple.full, u.full) for u in upb)

    def test_range_contains_no_product_vector(self):
        state = pv.upb_state(pv.upb_standard(np.pi / 4, np.pi / 5, np.pi / 3))
        assert pv.full_product_vectors_in_subspace(pv.SubspaceBasis.range_of(state)) == []

    def test_rejects_non_orthonormal_input(self, rng):
        vectors = [qs.product_vector(random_unit(rng, 2), random_unit(rng, 2),
                                     random_unit(rng, 2)) for _ in range(4)]
        with pytest.raises(NotOrthonormal):
            pv.upb_state(vectors)

    def test_unitary_transform_keeps_kernel_products_orthogonal(self):
        """Conjugating by a unitary product keeps the kernel spanned by
        orthogonal product vectors; nonunitary products break orthogonality."""
        from scipy.stats import unitary_group

        state = pv.upb_state(pv.upb_standard(0.7, 0.9, 1.1))
        factors = [unitary_group.rvs(2, random_state=40 + k) for k in range(3)]
        moved = qs.product_transform(state, *factors)
        kernel = pv.SubspaceBasis.kernel_of(moved)
        found = pv.product_vectors_in_subspace(kernel, "1|23")
        vecs = np.column_stack([tr.full for tr in found])
        assert np.abs(vecs.conj().T @ vecs - np.eye(4)).max() < 1e-8
        for tr in found:
            assert tr.factor2 is not None and tr.factor3 is not None
