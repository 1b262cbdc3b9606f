"""Each independent check accepts a known-good input and rejects a known-wrong one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from pptatlas import invariants, rank4  # noqa: E402
from workloads import random_product_mixture  # noqa: E402

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KETP = np.array([1.0, 1.0]) / np.sqrt(2.0)


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def projector(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def ghz_vector():
    v = np.zeros(8)
    v[0] = v[7] = 1.0
    return v / np.sqrt(2.0)


def product_mixture(k, seed=0):
    return random_product_mixture(np.random.default_rng(seed), k)


@pytest.fixture(scope="module")
def type2():
    state, _ = rank4.construct_type2(0.6 + 0.8j)
    return state.mat


@pytest.fixture(scope="module")
def type1():
    state, _ = rank4.construct_type1(np.random.default_rng(3))
    return state.mat


@pytest.fixture(scope="module")
def type1_triple(type1):
    # the type II standard form has equal weights in all three bipartitions,
    # the type I draw does not
    return rank4.biseparable_triple(type1, rng=np.random.default_rng(0))


def loop_partial_transpose(mat, subsystem):
    out = np.empty_like(mat)
    k = subsystem - 1
    for r in range(8):
        for c in range(8):
            row = [(r >> 2) & 1, (r >> 1) & 1, r & 1]
            col = [(c >> 2) & 1, (c >> 1) & 1, c & 1]
            row[k], col[k] = col[k], row[k]
            out[4 * row[0] + 2 * row[1] + row[2], 4 * col[0] + 2 * col[1] + col[2]] = mat[r, c]
    return out


def test_partial_transpose_is_the_index_swap():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for k in (1, 2, 3):
        assert np.array_equal(checks.partial_transpose(g, k), loop_partial_transpose(g, k))
        assert np.array_equal(checks.partial_transpose(checks.partial_transpose(g, k), k), g)


def test_ppt_rejects_ghz_projector():
    checks.check_ppt(checks.profile(np.eye(8) / 8))
    with pytest.raises(CheckFailed, match="not PPT"):
        checks.check_ppt(checks.profile(projector(ghz_vector())))


def test_unit_trace_rejects_unnormalized_state():
    checks.check_unit_trace_hermitian(np.eye(8) / 8)
    with pytest.raises(CheckFailed):
        checks.check_unit_trace_hermitian(np.eye(8) / 4)


def test_rank_check_rejects_state_pushed_off_its_profile(type2):
    mat = type2
    checks.check_profile(checks.profile(mat), (4, 4, 4, 4))
    pushed = (1 - 1e-6) * mat + 1e-6 * np.eye(8) / 8
    with pytest.raises(CheckFailed, match="not the requested"):
        checks.check_profile(checks.profile(pushed), (4, 4, 4, 4))


def test_rank_check_rejects_an_unclear_cut():
    # diagonal states equal all their partial transposes
    clear = np.diag([0.4, 0.3, 0.2, 0.099, 1e-3, 0.0, 0.0, 0.0])
    checks.check_profile(checks.profile(clear), (5, 5, 5, 5))
    # the fifth eigenvalue is kept and the sixth dropped, but only 40x apart
    blurred = np.diag([0.4, 0.3, 0.2, 0.1, 4e-8, 1e-9, 0.0, 0.0])
    with pytest.raises(CheckFailed, match="not clear"):
        checks.check_profile(checks.profile(blurred), (5, 5, 5, 5))


def test_face_dimension_of_product_mixtures():
    for k in (2, 3, 4):
        dim, gap = checks.face_dimension(product_mixture(k, seed=k))
        assert dim == k - 1 and gap > checks.FACE_GAP


def test_extremal_rejects_two_product_mixture(type1, type2):
    checks.check_extremal(projector(kron3(KET0, KETP, KET1)))
    checks.check_extremal(type1)
    checks.check_extremal(type2)
    with pytest.raises(CheckFailed, match="face dimension 1"):
        checks.check_extremal(product_mixture(2))


def test_product_vector_check_follows_the_bipartition():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    one_bell = np.kron(KET0, bell)  # qubit 1 splits off, qubits 2 and 3 are entangled
    checks.check_product_vector(one_bell, "1|23")
    for bipartition in ("2|13", "3|12"):
        with pytest.raises(CheckFailed, match="not a product"):
            checks.check_product_vector(one_bell, bipartition)
    for bipartition in checks.BIPARTITION_QUBIT:
        checks.check_product_vector(kron3(KETP, KET1, KET0), bipartition)
        with pytest.raises(CheckFailed):
            checks.check_product_vector(ghz_vector(), bipartition)


def test_pure_product_state_check():
    checks.check_pure_product_state(projector(kron3(KETP, KET1, KET0)))
    with pytest.raises(CheckFailed, match="not a pure state"):
        checks.check_pure_product_state(product_mixture(2))
    with pytest.raises(CheckFailed, match="not a product"):
        checks.check_pure_product_state(projector(ghz_vector()))


def test_decomposition_rejects_weights_of_another_bipartition(type1, type1_triple):
    mat, t = type1, type1_triple
    for vectors, weights, bipartition in ((t.e, t.weights_e, "1|23"), (t.f, t.weights_f, "2|13"),
                                          (t.g, t.weights_g, "3|12")):
        checks.check_decomposition(vectors, weights, mat, bipartition)
    with pytest.raises(CheckFailed, match="rebuild"):
        checks.check_decomposition(t.e, t.weights_f, mat, "1|23")


def test_rebuild_rejects_a_negative_weight(type1, type1_triple):
    mat, t = type1, type1_triple
    with pytest.raises(CheckFailed, match="positive"):
        checks.check_decomposition(t.e, -t.weights_e, mat, "1|23")


def test_quadratic_invariant_matches_the_pauli_contraction(type1):
    _, contraction = invariants.quadratic_invariant_forms(type1)
    assert abs(checks.quadratic_invariant(type1) - contraction) < 1e-12


def test_type_label_follows_the_invariant(type1, type2):
    checks.check_type_label(type1, "I")
    checks.check_type_label(type2, "II")
    with pytest.raises(CheckFailed):
        checks.check_type_label(type1, "II")
    with pytest.raises(CheckFailed):
        checks.check_type_label(type2, "I")


def test_roundtrip_check_rejects_a_changed_record(type2):
    from pptatlas import cli, qstate
    from workloads import _check_roundtrip

    record = cli.annotate_state(qstate.HermitianOperator(type2), {})
    text = record.to_json()
    _check_roundtrip(record, text, cli.StateRecord.from_json(text))
    back = cli.StateRecord.from_json(text)
    back.matrix[0, 0] += 1e-15
    with pytest.raises(CheckFailed, match="bit-exact"):
        _check_roundtrip(record, text, back)
