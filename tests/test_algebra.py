import numpy as np
import pytest

from su3kit import algebra

SQ3 = np.sqrt(3.0)


def e(k):
    """Unit coefficient vector along lambda_k (k is 1-based)."""
    return np.eye(8)[k - 1]


def test_basis_is_hermitian_traceless_and_normalized():
    for k in range(8):
        lam = algebra.LAMBDA[k]
        assert np.abs(lam - lam.conj().T).max() == 0
        assert abs(np.trace(lam)) < 1e-15
    gram = np.einsum('iab,jba->ij', algebra.LAMBDA, algebra.LAMBDA)
    np.testing.assert_allclose(gram, 2 * np.eye(3 * 3 - 1), atol=1e-15)


def test_basis_entries_match_standard_convention():
    assert algebra.LAMBDA[0][0, 1] == 1
    assert algebra.LAMBDA[1][0, 1] == -1j
    assert algebra.LAMBDA[2][0, 0] == 1 and algebra.LAMBDA[2][1, 1] == -1
    assert algebra.LAMBDA[4][0, 2] == -1j and algebra.LAMBDA[4][2, 0] == 1j
    np.testing.assert_allclose(np.diag(algebra.LAMBDA[7]),
                               np.array([1, 1, -2]) / SQ3, atol=1e-16)


def test_commutator_table_residuals():
    assert algebra.commutator_tensor_check().max() <= 1e-14


def test_anticommutator_table_residuals():
    assert algebra.anticommutator_tensor_check().max() <= 1e-14


def test_structure_constant_values():
    c = algebra.C_TENSOR
    # [l1, l2] = 2i l3
    assert c[2, 0, 1] == pytest.approx(2.0, abs=1e-15, rel=0)
    # diagonal generators commute
    assert np.abs(c[:, 2, 7]).max() == 0
    # [l4, l5] = i(l3 + sqrt(3) l8)
    assert c[2, 3, 4] == pytest.approx(1.0, abs=1e-15, rel=0)
    assert c[7, 3, 4] == pytest.approx(SQ3, abs=1e-14, rel=0)
    assert c[7, 5, 6] == pytest.approx(SQ3, abs=1e-14, rel=0)
    # the seven unit entries, e.g. C_147, C_246
    assert c[6, 0, 3] == pytest.approx(1.0, abs=1e-15, rel=0)
    assert c[5, 1, 3] == pytest.approx(1.0, abs=1e-15, rel=0)


def test_d_tensor_values():
    d = algebra.D_TENSOR
    assert d[7, 7, 7] == pytest.approx(-1 / SQ3, abs=1e-15, rel=0)
    for k in (0, 1, 2):
        assert d[k, k, 7] == pytest.approx(1 / SQ3, abs=1e-15, rel=0)
    for k in (3, 4, 5, 6):
        assert d[k, k, 7] == pytest.approx(-1 / (2 * SQ3), abs=1e-15, rel=0)
    assert d[0, 3, 5] == pytest.approx(0.5, abs=1e-15, rel=0)       # d_146
    assert d[1, 3, 6] == pytest.approx(-0.5, abs=1e-15, rel=0)      # d_247


def test_tensor_symmetries_all_index_triples():
    c, d = algebra.C_TENSOR, algebra.D_TENSOR
    assert np.array_equal(c, -np.einsum('kji->kij', c))
    assert np.abs(c + np.einsum('ikj->kij', c)).max() <= 1e-15
    assert np.abs(c - np.einsum('ijk->kij', c)).max() <= 1e-15
    assert np.array_equal(d, np.einsum('jik->ijk', d))
    assert np.abs(d - np.einsum('ikj->ijk', d)).max() <= 1e-15
    assert np.abs(d - np.einsum('kji->ijk', d)).max() <= 1e-15


def test_star_unit_vector_examples():
    e8 = e(8)
    np.testing.assert_allclose(algebra.star(-e8, -e8), -e8, atol=1e-15)
    np.testing.assert_allclose(algebra.star(np.zeros(8), e8), np.zeros(8), atol=0)
    e3 = e(3)
    np.testing.assert_allclose(algebra.star(e3, e3), e8, atol=1e-15)


def test_star_symmetry_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a, b = rng.standard_normal((2, 8))
        np.testing.assert_allclose(algebra.star(a, b), algebra.star(b, a), atol=1e-13)


def test_star_and_expand_hermitian_of_stacks_equal_per_item_calls():
    rng = np.random.default_rng(43)
    a, b = rng.standard_normal((2, 50, 8))
    stacked = algebra.star(a, b)
    assert stacked.shape == (50, 8)
    for x, y, z in zip(a, b, stacked):
        np.testing.assert_array_equal(z, algebra.star(x, y))
    mats = np.einsum('nk,kab->nab', a, algebra.LAMBDA).reshape(5, 10, 3, 3)
    coeffs = algebra.expand_hermitian(mats)
    assert coeffs.shape == (5, 10, 8)
    for m, c in zip(mats.reshape(50, 3, 3), coeffs.reshape(50, 8)):
        np.testing.assert_array_equal(c, algebra.expand_hermitian(m))
    np.testing.assert_allclose(coeffs.reshape(50, 8), a, atol=1e-15)
    with pytest.raises(ValueError, match="8-component"):
        algebra.star(np.zeros((3, 7)), np.zeros((3, 7)))


def test_expand_basis_elements():
    re, im = algebra.expand(algebra.LAMBDA[4])
    np.testing.assert_allclose(re, e(5), atol=1e-15)
    np.testing.assert_allclose(im, 0, atol=1e-15)

    re, im = algebra.expand(1j * algebra.LAMBDA[2])
    np.testing.assert_allclose(re, 0, atol=1e-15)
    np.testing.assert_allclose(im, e(3), atol=1e-15)

    re, im = algebra.expand(algebra.LAMBDA[0] + 2 * algebra.LAMBDA[7])
    np.testing.assert_allclose(re, [1, 0, 0, 0, 0, 0, 0, 2], atol=1e-15)
    np.testing.assert_allclose(im, 0, atol=1e-15)


def test_expand_rejects_nonzero_trace():
    with pytest.raises(ValueError, match="not traceless"):
        algebra.expand(np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
def test_expand_rejects_non_finite_matrices(bad):
    m = algebra.LAMBDA[0].copy()
    m[0, 1] = bad                       # off the diagonal, so the trace stays 0
    for x in (np.full((3, 3), bad), m):
        with pytest.raises(ValueError, match="not finite"):
            algebra.expand(x)


def test_expand_inverts_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(100):
        coeff = rng.standard_normal(8)
        m = algebra.from_coefficients(coeff)
        re, im = algebra.expand(m)
        assert np.abs(re - coeff).max() <= 1e-13
        assert np.abs(im).max() <= 1e-13
    # complex coefficients round-trip too
    re0, im0 = rng.standard_normal((2, 8))
    re, im = algebra.expand(algebra.from_coefficients(re0, im0))
    np.testing.assert_allclose(re, re0, atol=1e-13)
    np.testing.assert_allclose(im, im0, atol=1e-13)
