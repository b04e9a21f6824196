import re

import numpy as np
import pytest

from su3kit import algebra, group, states, verify
from su3kit.measure import sample_haar

SQ3 = np.sqrt(3.0)


def test_base_state_exact_values():
    st = states.base_state()
    np.testing.assert_array_equal(st.rho, np.diag([0.0, 0.0, 1.0]))
    expected_n = np.zeros(8)
    expected_n[7] = -1.0
    np.testing.assert_array_equal(st.n, expected_n)
    np.testing.assert_allclose(algebra.star(st.n, st.n), st.n, atol=1e-15)


def test_project_identity_gives_base_state():
    st = states.project(np.eye(3, dtype=complex))
    np.testing.assert_allclose(st.rho, states.base_state().rho, atol=0)
    np.testing.assert_allclose(st.n, states.base_state().n, atol=0)


def test_stabilizer_block_leaves_base_state_fixed():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = np.zeros(8)
        p[4:8] = rng.uniform(0, [np.pi, np.pi / 2, 2 * np.pi, SQ3 * np.pi])
        st = states.project(group.compose(p))
        np.testing.assert_allclose(st.rho, states.base_state().rho, atol=1e-15)


def test_projection_constraints_on_random_elements():
    assert verify.pure_state_residual(group.compose_batch(sample_haar(1, 500))) <= 1e-11


def test_project_of_a_stack_equals_per_matrix_calls():
    mats = group.compose_batch(sample_haar(2, 200))
    stacked = states.project(mats)
    assert stacked.rho.shape == (200, 3, 3) and stacked.n.shape == (200, 8)
    residuals = stacked.constraint_residuals()
    for k, g in enumerate(mats):
        single = states.project(g)
        np.testing.assert_array_equal(stacked.rho[k], single.rho)
        np.testing.assert_array_equal(stacked.n[k], single.n)
        for key, value in single.constraint_residuals().items():
            assert isinstance(value, float)
            assert residuals[key].shape == (200,)
            assert abs(residuals[key][k] - value) <= 1e-15


@pytest.mark.parametrize("shape", [(2, 2), (3,), (), (4, 3, 2), (3, 3, 1)])
def test_project_refuses_what_is_not_a_stack_of_3x3_matrices(shape):
    with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}"):
        states.project(np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_project_rejects_non_finite_matrices(bad):
    g = group.compose(np.full(8, 0.3))
    g[1, 0] = bad
    with pytest.raises(ValueError, match="^matrix is not finite"):
        states.project(g)
    mats = group.compose_batch(sample_haar(3, 6))
    mats[4, 0, 1] = bad
    mats[5] = np.nan
    with pytest.raises(ValueError, match="matrix at row 4 is not finite"):
        states.project(mats)


def test_rho_spectrum_is_projector_spectrum():
    for p in sample_haar(2, 50):
        st = states.project(group.compose(p))
        evals = np.sort(np.linalg.eigvalsh(st.rho))
        np.testing.assert_allclose(evals, [0.0, 0.0, 1.0], atol=1e-10)
        assert evals.min() >= -1e-10


def test_coherence_vector_equals_minus_adjoint_row8():
    for p in sample_haar(3, 100):
        g = group.compose(p)
        st = states.project(g)
        np.testing.assert_allclose(st.n, -group.adjoint(g)[7], atol=1e-12)


def test_coset_fibration_depends_only_on_first_four_angles():
    pts = sample_haar(5, 200)
    moved = pts.copy()
    moved[:, 4:8] = np.random.default_rng(4).uniform(
        0, [np.pi, np.pi / 2, 2 * np.pi, SQ3 * np.pi], (200, 4))
    assert verify.stabilizer_residual(pts, moved) <= 1e-12


def test_psi_of_zero_angles_and_magnitudes():
    np.testing.assert_array_equal(states.psi_of(np.zeros(8)), [0, 0, 1])
    for p in sample_haar(6, 50):
        psi = states.psi_of(p)
        beta, theta, phi = p[1], p[3], p[7]
        assert abs(abs(psi[0]) - np.cos(beta) * np.sin(theta)) <= 1e-13
        assert abs(abs(psi[1]) - np.sin(beta) * np.sin(theta)) <= 1e-13
        assert abs(abs(psi[2]) - np.cos(theta)) <= 1e-13
        if np.cos(theta) > 1e-6:
            want = (-2 * phi / SQ3) % (2 * np.pi)
            got = np.angle(psi[2]) % (2 * np.pi)
            assert min(abs(got - want), 2 * np.pi - abs(got - want)) <= 1e-12


def test_psi_reproduces_projector_and_coherence_vector():
    for p in sample_haar(7, 100):
        psi = states.psi_of(p)
        st = states.project(group.compose(p))
        np.testing.assert_allclose(np.outer(psi, psi.conj()), st.rho, atol=1e-12)
        n_from_psi = (SQ3 / 2) * np.einsum('a,kab,b->k', psi.conj(),
                                           algebra.LAMBDA, psi).real
        np.testing.assert_allclose(n_from_psi, st.n, atol=1e-12)


def test_constraint_residuals_reports_all_keys():
    keys = set(states.base_state().constraint_residuals())
    assert keys == {"hermiticity", "trace", "idempotency", "unit_norm",
                    "star_identity", "reconstruction"}
