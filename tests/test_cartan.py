import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3kit import algebra, cartan, group, verify
from su3kit.measure import sample_haar

from oracles import central_difference, chain_coeffs, chart_entry_fns, matrix_products

SQ3 = np.sqrt(3.0)


def e(k):
    return np.eye(8)[k - 1]


def test_left_coeffs_alpha_column_is_lambda3():
    np.testing.assert_allclose(cartan.left_coeffs(sample_haar(5, 10))[:, :, 0],
                               np.broadcast_to(e(3), (10, 8)), atol=1e-15)


def test_left_coeffs_gamma_column_closed_form():
    # gamma column is (-cos2a sin2b, sin2a sin2b, cos2b) in the first three
    # slots.  The widely quoted form of this row differs twice: a + sign on
    # the first entry and sin(beta) instead of sin(2 beta) in the second;
    # the appendix-style field tables side with the exact construction.
    pts = sample_haar(6, 10)
    alpha, beta = pts[:, 0], pts[:, 1]
    col = cartan.left_coeffs(pts)[:, :, 2]
    expected = np.zeros((10, 8))
    expected[:, 0] = -np.cos(2 * alpha) * np.sin(2 * beta)
    expected[:, 1] = np.sin(2 * alpha) * np.sin(2 * beta)
    expected[:, 2] = np.cos(2 * beta)
    np.testing.assert_allclose(col, expected, atol=1e-14)
    variant = expected.copy()
    variant[:, 0] = np.cos(2 * alpha) * np.sin(2 * beta)
    variant[:, 1] = np.sin(2 * alpha) * np.sin(beta)
    assert (np.abs(col - variant).max(axis=1) > 1e-3).all()


def test_right_coeffs_c_and_phi_columns():
    # with the b and a columns: (-sin2c, cos2c, 0) and (cos2c sin2b, sin2c sin2b, cos2b)
    pts = sample_haar(7, 10)
    b, c = pts[:, 5], pts[:, 6]
    coeffs = cartan.right_coeffs(pts)
    np.testing.assert_allclose(coeffs[:, :, 6], np.broadcast_to(e(3), (10, 8)), atol=1e-15)
    np.testing.assert_allclose(coeffs[:, :, 7], np.broadcast_to(e(8), (10, 8)), atol=1e-15)
    expected = np.zeros((10, 8, 2))
    expected[:, :3, 0] = np.stack([np.cos(2 * c) * np.sin(2 * b), np.sin(2 * c) * np.sin(2 * b),
                                   np.cos(2 * b)], axis=1)
    expected[:, :2, 1] = np.stack([-np.sin(2 * c), np.cos(2 * c)], axis=1)
    np.testing.assert_allclose(coeffs[:, :, 4:6], expected, atol=1e-14)


def test_kernel_equals_the_factor_chain():
    # measured up to 6.7e-16 over these points, so 1e-15 leaves a margin of 1.5
    rng = np.random.default_rng(42)
    pts = np.concatenate([sample_haar(42, 300), rng.uniform(-10, 10, (300, 8)),
                          rng.uniform(-1e3, 1e3, (300, 8)), near_strata_points(43, 20)])
    coeffs = cartan._coeff_stacks(pts)
    for k, p in enumerate(pts):
        b, c = chain_coeffs(p)
        assert np.abs(coeffs[0, k] - b).max() <= 1e-15, p
        assert np.abs(coeffs[1, k] - c).max() <= 1e-15, p


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
    # factor-by-factor reference: the kernel agrees with it up to 5.6e-16 over
    # these points (1e-15 leaves a margin of 1.8); c = adjoint(D) b ties the
    # right side to it.  haar_density is 2 |sin 2b| |det b~| (its docstring):
    # on the Haar points it agrees with |det b| / 0.5 to 1.2e-15 relative
    # (1e-14 leaves a margin of 8); near a stratum |det b| itself loses up to
    # eps / d, so there the closed form is the reference (1.3e-14 measured,
    # 5e-14 leaves a margin of 3.8)
    haar = sample_haar(19, 2000)
    for k, p in enumerate(np.concatenate([haar, near_strata_points(36, 40)])):
        fr = cartan.frame(p)
        b = cartan.left_coeffs(p)
        assert np.abs(fr.b_left - b).max() <= 1e-15, p
        assert np.abs(fr.b_right - group.adjoint(group.compose(p)) @ b).max() <= 1e-14, p
        assert same_bits(fr.a_left, cartan.left_fields(p)), p
        assert same_bits(fr.a_right, cartan.right_fields(p)), p
        density = cartan.haar_density(p)
        if k < len(haar):
            det = abs(np.linalg.det(fr.b_left)) / cartan.DENSITY_DET_RATIO
            assert abs(density - det) <= 1e-14 * density, p
        else:
            assert abs(density / cartan.haar_density_closed(p) - 1.0) <= 5e-14, p


def test_density_near_strata_matches_the_closed_form():
    # beta, theta and b at 1e-3 .. 1e-12 from 0 and pi/2: the reduced
    # determinant keeps the relative error at 1.5e-14 or below (largest at
    # theta -> 0; 2.0e-15 at b), where |det b| / 0.5 read up to 8.8e-6 at b
    # on the same kind of points; 5e-14 leaves a margin of 3.3
    pts = near_strata_points(46, 500)
    err = np.abs(cartan.haar_density(pts) / cartan.haar_density_closed(pts) - 1.0)
    assert err.max() <= 5e-14, err.reshape(6, 500).max(axis=1)


def test_kernel_makes_no_matrix_products_and_no_lapack_calls(monkeypatch):
    pts = np.concatenate([sample_haar(47, 40), near_strata_points(48, 2)])
    sides = (cartan.LEFT, cartan.RIGHT, cartan.BOTH, cartan._REDUCED)
    # 1 and 8 rows go one at a time on Python floats, 52 on columns
    expected = [cartan._coeff_stacks(pts[:n], s) for n in (1, 8, 52) for s in sides]

    def forbidden(*args, **kwargs):
        raise AssertionError("the kernel must not call this")

    class NoLinalg:
        def __getattr__(self, name):
            raise AssertionError(f"the kernel must not call np.linalg.{name}")

    monkeypatch.setattr(np, "matmul", forbidden)
    monkeypatch.setattr(np, "einsum", forbidden)
    monkeypatch.setattr(np, "linalg", NoLinalg())
    got = [cartan._coeff_stacks(pts[:n], s) for n in (1, 8, 52) for s in sides]
    assert all(same_bits(g, e) for g, e in zip(got, expected))
    # the @ operator reaches the matmul ufunc without the module attribute
    for fn in (cartan._coeff_stacks, cartan._coeff_entries, cartan._images, cartan._double,
               group._su2_entries, group._chart_trig, group._chart_args, group._cos_sin):
        assert not matrix_products(fn), fn


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
    # batches of fewer than _COLUMNS_FROM rows go one at a time on Python
    # floats, larger ones on columns; more rows than two blocks leave a short
    # last block
    every = np.concatenate([sample_haar(37, 2 * cartan._BLOCK - 57), near_strata_points(38, 10)])
    assert len(every) == 2 * cartan._BLOCK + 3
    for n in (1, 8, 32, len(every)):
        pts = every[-n:]
        fr = cartan.frame(pts)
        density = cartan.haar_density(pts)
        b, c = cartan.left_coeffs(pts), cartan.right_coeffs(pts)
        for k, p in enumerate(pts):
            one = cartan.frame(p)
            for name in ("b_left", "a_left", "b_right", "a_right"):
                assert same_bits(getattr(fr, name)[k], getattr(one, name)), (name, n, k)
            assert same_bits(b[k], cartan.left_forms(p)), (n, k)
            assert same_bits(c[k], cartan.right_coeffs(p)), (n, k)
            assert same_bits(density[k], cartan.haar_density(p)), (n, k)


@st.composite
def kernel_points(draw):
    """A Haar point with some coordinates replaced: by values up to +-1e3, by
    -0.0 on a torus angle, or on beta, theta and b by 1e-3 .. 1e-12 from 0
    or pi/2, never on a stratum."""
    p = sample_haar(draw(st.integers(0, 2 ** 32 - 1)), 1)[0]
    off_strata = st.floats(-1e3, 1e3).filter(lambda x: abs(math.sin(2 * x)) > 1e-9)
    for j in range(8):
        kind = draw(st.sampled_from(("haar", "wide", "zero or near")))
        if kind == "wide":
            p[j] = draw(off_strata if j in (1, 3, 5) else st.floats(-1e3, 1e3))
        elif kind == "zero or near" and j not in (1, 3, 5):
            p[j] = -0.0
        elif kind == "zero or near":
            dist = 10.0 ** -draw(st.floats(3, 12))
            p[j] = draw(st.sampled_from((dist, np.pi / 2 - dist)))
    return p


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(kernel_points(), min_size=1, max_size=20))
def test_one_point_bits_equal_batch_rows_and_the_factor_chain(points):
    # up to 20 rows: on Python floats below _COLUMNS_FROM rows, on columns above
    pts = np.array(points)
    fr, b, c = cartan.frame(pts), cartan.left_coeffs(pts), cartan.right_coeffs(pts)
    for k, p in enumerate(pts):
        one = cartan.frame(p)
        for name in ("b_left", "a_left", "b_right", "a_right"):
            assert same_bits(getattr(fr, name)[k], getattr(one, name)), (name, p)
        assert same_bits(c[k], cartan.right_coeffs(p)), p
        assert same_bits(b[k], one.b_left), p
        chain_b, chain_c = chain_coeffs(p)
        assert np.abs(cartan.left_coeffs(p) - chain_b).max() <= 1e-15, p
        assert np.abs(one.b_left - chain_b).max() <= 1e-15, p
        assert np.abs(c[k] - chain_c).max() <= 1e-15, p


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_rejected(bad):
    p = sample_haar(39, 1)[0]
    p[5] = bad
    for fn in chart_entry_fns(("cartan",), "one"):
        with pytest.raises(ValueError, match="finite"):
            fn(p)
    pts = sample_haar(40, 6)
    pts[4, 2] = bad
    for fn in chart_entry_fns(("cartan",), "batch"):
        with pytest.raises(ValueError, match="finite: row 4 "):
            fn(pts)
