import numpy as np
import pytest

from su3kit import algebra, cartan, group, verify
from su3kit.measure import sample_haar

from oracles import central_difference

SQ3 = np.sqrt(3.0)


def e(k):
    return np.eye(8)[k - 1]


def test_left_coeffs_alpha_column_is_lambda3():
    for p in sample_haar(5, 10):
        np.testing.assert_allclose(cartan.left_coeffs(p)[:, 0], e(3), atol=1e-15)


def test_left_coeffs_gamma_column_closed_form():
    # gamma column is (-cos2a sin2b, sin2a sin2b, cos2b) in the first three
    # slots.  The widely quoted form of this row differs twice: a + sign on
    # the first entry and sin(beta) instead of sin(2 beta) in the second;
    # the appendix-style field tables side with the exact construction.
    for p in sample_haar(6, 10):
        alpha, beta = p[0], p[1]
        col = cartan.left_coeffs(p)[:, 2]
        expected = np.zeros(8)
        expected[0] = -np.cos(2 * alpha) * np.sin(2 * beta)
        expected[1] = np.sin(2 * alpha) * np.sin(2 * beta)
        expected[2] = np.cos(2 * beta)
        np.testing.assert_allclose(col, expected, atol=1e-14)
        variant = expected.copy()
        variant[0] = np.cos(2 * alpha) * np.sin(2 * beta)
        variant[1] = np.sin(2 * alpha) * np.sin(beta)
        assert np.abs(col - variant).max() > 1e-3


def test_right_coeffs_c_and_phi_columns():
    for p in sample_haar(7, 10):
        c = cartan.right_coeffs(p)
        np.testing.assert_allclose(c[:, 6], e(3), atol=1e-15)
        np.testing.assert_allclose(c[:, 7], e(8), atol=1e-15)


@pytest.mark.parametrize("coeff_fn, side", [(cartan.left_coeffs, "left"),
                                            (cartan.right_coeffs, "right")])
def test_coeffs_match_finite_differences_of_compose(coeff_fn, side):
    rng = np.random.default_rng(8)
    worst = 0.0
    for p in sample_haar(9, 5):
        mat = coeff_fn(p)
        d0 = group.compose(p)
        for j in range(8):
            dd = central_difference(group.compose, p, j)
            sandwich = dd @ d0.conj().T if side == "left" else d0.conj().T @ dd
            expected = 1j * algebra.from_coefficients(mat[:, j])
            worst = max(worst, np.abs(sandwich - expected).max())
    assert worst <= 1e-8


def test_left_fields_lambda3_lambda8_rows():
    for p in sample_haar(10, 10):
        a = cartan.left_fields(p)
        np.testing.assert_allclose(a[2], e(1), atol=1e-12)       # Lambda_3 = i d/d alpha
        row8 = SQ3 * e(3) - SQ3 * e(5) + e(8)
        np.testing.assert_allclose(a[7], row8, atol=1e-12)


def test_right_fields_lambda3_lambda8_rows():
    for p in sample_haar(11, 10):
        a = cartan.right_fields(p)
        np.testing.assert_allclose(a[2], e(7), atol=1e-12)       # i d/dc
        np.testing.assert_allclose(a[7], e(8), atol=1e-12)       # i d/dphi


def test_left_defining_relation_by_finite_differences():
    worst = 0.0
    for p in sample_haar(12, 25):
        a = cartan.left_fields(p)
        d0 = group.compose(p)
        dmat = np.array([central_difference(group.compose, p, j) for j in range(8)])
        for i in range(8):
            lhs = 1j * np.einsum('j,jab->ab', a[i], dmat)
            worst = max(worst, np.abs(lhs + algebra.LAMBDA[i] @ d0).max())
    assert worst <= 1e-7


def test_right_defining_relation_by_finite_differences():
    worst = 0.0
    for p in sample_haar(13, 25):
        a = cartan.right_fields(p)
        d0 = group.compose(p)
        dmat = np.array([central_difference(group.compose, p, j) for j in range(8)])
        for i in range(8):
            lhs = 1j * np.einsum('j,jab->ab', a[i], dmat)
            worst = max(worst, np.abs(lhs + d0 @ algebra.LAMBDA[i]).max())
    assert worst <= 1e-7


def test_right_fields_are_adjoint_times_left_fields():
    assert verify.defining_relations(sample_haar(14, 100))[2] <= 1e-10


def test_commutator_closure_left_right_mixed():
    assert max(verify.closure(sample_haar(15, 5))) <= 1e-5


def test_duality_pairing_identity():
    assert verify.duality(sample_haar(16, 100)) <= 1e-12


def test_form_rows_entry_values():
    for p in sample_haar(17, 10):
        b = cartan.left_forms(p)
        # omega^3 contains the term -i d alpha with coefficient exactly 1
        assert b[2, 0] == pytest.approx(1.0, abs=1e-15, rel=0)
        beta, theta = p[1], p[3]
        c = cartan.right_forms(p)
        row8 = np.zeros(8)
        row8[0] = -(SQ3 / 2) * np.cos(2 * beta) * np.sin(theta) ** 2
        row8[2] = -(SQ3 / 2) * np.sin(theta) ** 2
        row8[7] = 1.0
        np.testing.assert_allclose(c[7], row8, atol=1e-13)


def test_fields_and_forms_reject_degenerate_strata():
    with pytest.raises(cartan.DegenerateChartError, match="sin\\(2 beta\\)"):
        cartan.left_fields([0.1, 0.0, 0.3, 0.7, 0.2, 0.4, 0.5, 0.6])
    with pytest.raises(cartan.DegenerateChartError, match="theta"):
        cartan.left_forms([0.1, 0.4, 0.3, 0.0, 0.2, 0.4, 0.5, 0.6])
    with pytest.raises(cartan.DegenerateChartError, match="sin\\(2 b\\)"):
        cartan.right_fields([0.1, 0.4, 0.3, 0.7, 0.2, np.pi / 2, 0.5, 0.6])


def test_haar_density_spot_values():
    p = np.zeros(8)
    p[[1, 3, 5]] = np.pi / 4
    assert cartan.haar_density(p) == pytest.approx(0.5, abs=1e-13, rel=0)
    p[3] = 0.0
    assert cartan.haar_density(p) == pytest.approx(0.0, abs=1e-15)


def test_haar_density_independent_of_torus_angles():
    rng = np.random.default_rng(30)
    beta, b, theta = 0.52, 0.83, 0.61
    values = []
    for _ in range(100):
        p = rng.uniform(0, np.pi, 8)
        p[1], p[5], p[3] = beta, b, theta
        values.append(cartan.haar_density(p))
    values = np.array(values)
    assert np.ptp(values) / values.mean() <= 1e-10


def test_density_det_ratio_constant_and_left_right_equal():
    pts = sample_haar(18, 1000)
    spread, worst_lr = verify.density_residuals(pts)
    assert spread <= 1e-9 and worst_lr <= 1e-11
    ratios = np.abs(np.linalg.det(cartan.left_coeffs(pts))) / cartan.haar_density_closed(pts)
    assert abs(ratios.mean() - cartan.DENSITY_DET_RATIO) <= 1e-11


def near_strata_points(seed, n_per_case):
    """Haar points with beta, b or theta moved to 1e-3 .. 1e-12 from 0 or pi/2."""
    rng = np.random.default_rng(seed)
    pts = []
    for j in (1, 3, 5):
        for end in (0.0, np.pi / 2):
            p = sample_haar(int(rng.integers(2 ** 62)), n_per_case)
            dist = 10.0 ** rng.uniform(-12, -3, n_per_case)
            p[:, j] = dist if end == 0.0 else end - dist
            pts.append(p)
    return np.concatenate(pts)


def same_bits(a, b) -> bool:
    """Equal shape and equal bytes: unlike ==, tells -0.0 from +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_frame_matches_individual_constructors():
    # every call runs the stacked kernel but the one-point left_coeffs, the
    # factor-by-factor reference; c = adjoint(D) b ties the right side to it
    for p in np.concatenate([sample_haar(19, 2000), near_strata_points(36, 40)]):
        fr = cartan.frame(p)
        b = cartan.left_coeffs(p)
        assert same_bits(fr.b_left, b), p
        assert np.abs(fr.b_right - group.adjoint(group.compose(p)) @ b).max() <= 1e-14, p
        assert same_bits(fr.a_left, cartan.left_fields(p)), p
        assert same_bits(fr.a_right, cartan.right_fields(p)), p
        assert cartan.haar_density(p) == abs(np.linalg.det(b)) / cartan.DENSITY_DET_RATIO, p


@pytest.mark.parametrize("fn, calls", [(cartan.frame, 0), (cartan.haar_density, 0),
                                       (cartan.right_coeffs, 0), (cartan.left_fields, 0),
                                       (cartan.right_fields, 0), (cartan.left_forms, 0),
                                       (cartan.right_forms, 0), (cartan.left_coeffs, 8)],
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_only_the_one_point_left_coeffs_builds_factors_one_by_one(monkeypatch, fn, calls):
    # bench/tests counts the reference loop's eight exp_generator calls too
    original, made = group.exp_generator, []

    def counted(k, t):
        made.append(k)
        return original(k, t)

    for module in (group, cartan):
        monkeypatch.setattr(module, "exp_generator", counted)
    fn(sample_haar(41, 1)[0])
    assert len(made) == calls


@pytest.mark.parametrize("fn", [cartan.left_coeffs, cartan.right_coeffs,
                                cartan.left_fields, cartan.right_fields,
                                cartan.left_forms, cartan.right_forms])
def test_batch_equals_per_point(fn):
    pts = np.concatenate([sample_haar(31, 200),
                          np.random.default_rng(32).uniform(0.1, 1.4, (50, 8))])
    batch = fn(pts)
    assert batch.shape == (len(pts), 8, 8)
    for p, m in zip(pts, batch):
        assert np.abs(m - fn(p)).max() <= 1e-15


def test_frame_and_closed_density_batches_equal_per_point():
    # one block; test_blocked_batch_equals_rows_one_at_a_time covers several
    pts = sample_haar(33, 40)
    fr = cartan.frame(pts)
    for k, p in enumerate(pts):
        one = cartan.frame(p)
        for name in ("b_left", "a_left", "b_right", "a_right"):
            assert same_bits(getattr(fr, name)[k], getattr(one, name)), (name, k)
    closed = cartan.haar_density_closed(pts)
    assert closed.shape == (40,)
    np.testing.assert_allclose(closed, [cartan.haar_density_closed(p) for p in pts],
                               rtol=1e-15, atol=0)


def test_batch_with_one_row_on_a_stratum_raises():
    pts = sample_haar(34, 6)
    pts[4, 5] = np.pi / 2          # sin(2 b) = 0 on row 4 only
    for fn in (cartan.left_fields, cartan.right_fields, cartan.left_forms,
               cartan.right_forms, cartan.frame):
        with pytest.raises(cartan.DegenerateChartError, match="row 4.*sin\\(2 b\\)"):
            fn(pts)
    cartan.left_coeffs(pts)        # the coefficients themselves stay defined


def test_blocked_batch_equals_rows_one_at_a_time():
    # more rows than two blocks of the stacked kernel, so a short last block
    pts = np.concatenate([sample_haar(37, 2 * cartan._BLOCK - 57), near_strata_points(38, 10)])
    assert len(pts) == 2 * cartan._BLOCK + 3
    fr = cartan.frame(pts)
    density = cartan.haar_density(pts)
    b, c = cartan.left_coeffs(pts), cartan.right_coeffs(pts)
    for k, p in enumerate(pts):
        one = cartan.frame(p)
        for name in ("b_left", "a_left", "b_right", "a_right"):
            assert same_bits(getattr(fr, name)[k], getattr(one, name)), (name, k)
        assert same_bits(b[k], cartan.left_coeffs(p)), k
        assert same_bits(c[k], cartan.right_coeffs(p)), k
        assert same_bits(density[k], cartan.haar_density(p)), k


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_rejected(bad):
    p = sample_haar(39, 1)[0]
    p[5] = bad
    for fn in (cartan.frame, cartan.haar_density, cartan.haar_density_closed,
               cartan.left_coeffs, cartan.right_coeffs, cartan.left_fields):
        with pytest.raises(ValueError, match="finite"):
            fn(p)
    pts = sample_haar(40, 6)
    pts[4, 2] = bad
    for fn in (cartan.frame, cartan.haar_density, cartan.left_coeffs, cartan.right_forms):
        with pytest.raises(ValueError, match="finite: row 4 "):
            fn(pts)
