import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su3kit import algebra, group, phase, states, verify
from su3kit.measure import sample_haar

from oracles import edge_points, matrix_products

SQ3 = np.sqrt(3.0)
EPS = sys.float_info.epsilon


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


def test_psi_of_is_the_third_column_of_compose_bit_for_bit():
    pts = edge_points(43)
    batch = group.compose_batch(pts)
    for p, d in zip(pts, batch):
        psi = states.psi_of(p)
        assert psi.shape == (3,) and psi.dtype == complex
        assert psi.tobytes() == d[:, 2].tobytes() == group.compose(p)[:, 2].tobytes()


def test_project_of_a_stack_with_two_leading_axes_equals_one_matrix_calls():
    rng = np.random.default_rng(44)
    mats = np.concatenate([group.compose_batch(edge_points(44)[:395]),
                           rng.uniform(-1e150, 1e150, (5, 3, 3, 2)) @ [1, 1j] / 2])
    mats = mats.reshape(20, 20, 3, 3)
    stacked = states.project(mats)
    assert stacked.rho.shape == (20, 20, 3, 3) and stacked.n.shape == (20, 20, 8)
    for k in np.ndindex(20, 20):
        single = states.project(mats[k])
        assert single.rho.tobytes() == stacked.rho[k].tobytes(), k
        assert single.n.tobytes() == stacked.n[k].tobytes(), k
    # matrices whose last axis is not contiguous read the same
    strided = states.project(np.asfortranarray(mats))
    assert strided.rho.tobytes() == stacked.rho.tobytes()
    assert strided.n.tobytes() == stacked.n.tobytes()
    assert states.project(np.asfortranarray(mats[3, 4])).n.tobytes() == stacked.n[3, 4].tobytes()
    for shape in ((0, 3, 3), (2, 0, 3, 3)):
        empty = states.project(np.zeros(shape))
        assert empty.rho.shape == shape and empty.n.shape == shape[:-2] + (8,)


# real and imaginary parts up to 1e150 / sqrt 2: moduli within project's 1e150
PARTS = st.floats(-7.07e149, 7.07e149)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(PARTS, min_size=6, max_size=6))
@example([1e150, 0.0, -1e150, 0.0, 0.0, 1e150])     # the largest sums, ~4e300
@example([1e150, 0.0, 1e150, 0.0, 0.0, -1e150])
@example([5e-324, -5e-324, 1e-300, 0.0, -0.0, 1.0])
def test_state_entries_match_the_outer_product_and_the_gell_mann_expansion(parts):
    psi = np.array(parts).view(complex)
    g = np.zeros((3, 3), dtype=complex)
    g[:, 2] = psi
    got = states.project(g)
    scale = float(np.abs(psi).max()) ** 2
    assert np.isfinite(got.rho).all() and np.isfinite(got.n).all()
    # Hermitian exactly, with a real diagonal
    assert np.array_equal(got.rho, got.rho.conj().T)
    assert not got.rho.diagonal().imag.any()
    tol = 4 * EPS * scale + 1e-320
    assert np.abs(got.rho - np.outer(psi, psi.conj())).max() <= tol
    n = (SQ3 / 2) * np.einsum('a,kab,b->k', psi.conj(), algebra.LAMBDA, psi).real
    assert np.abs(got.n - n).max() <= 2 * SQ3 * tol
    stacked = states.project(np.stack([g, g]))
    assert stacked.rho[1].tobytes() == got.rho.tobytes()
    assert stacked.n[1].tobytes() == got.n.tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=8))
def test_coherence_vector_is_minus_the_adjoint_row8_at_any_chart_point(angles):
    g = group.compose(angles)
    assert np.abs(states.project(g).n + group.adjoint(g)[7]).max() <= 1e-14
    assert np.abs(states.project(g).rho - np.outer(states.psi_of(angles),
                                                   states.psi_of(angles).conj())).max() <= 1e-15


def test_state_kernels_make_no_matrix_products_and_no_einsum(monkeypatch):
    mats = group.compose_batch(edge_points(45)[::20])
    expected = [states.project(mats[0]), states.project(mats)]

    def forbidden(*args, **kwargs):
        raise AssertionError("project must not call this")

    monkeypatch.setattr(np, "einsum", forbidden)
    monkeypatch.setattr(np, "matmul", forbidden)
    for got, want in zip([states.project(mats[0]), states.project(mats)], expected):
        assert got.rho.tobytes() == want.rho.tobytes() and got.n.tobytes() == want.n.tobytes()
    # the @ operator reaches the matmul ufunc without the module attribute
    for fn in (states.project, states._state_entries, states.psi_of, phase.phase_pancharatnam,
               phase._psi, group._evaluate, group._fill, group._psi_entries, group._psi_args):
        assert not matrix_products(fn), fn
