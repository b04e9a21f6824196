import warnings
from dataclasses import astuple

import numpy as np
import pytest

from su3kit import algebra, cartan, group, phase, states
from su3kit.group import EulerAngles, compose, decompose, exp_generator

from oracles import chart_entry_fns, edge_points, expm_taylor, matrix_products

SQ3 = np.sqrt(3.0)


def haar_angles(rng, n):
    from su3kit.measure import sample_haar
    return sample_haar(int(rng.integers(2 ** 62)), n)


def test_exp_generator_diagonal_closed_forms():
    t = 0.7321
    np.testing.assert_allclose(exp_generator(3, t),
                               np.diag([np.exp(1j * t), np.exp(-1j * t), 1.0]), atol=1e-16)
    np.testing.assert_allclose(
        exp_generator(8, t),
        np.diag([np.exp(1j * t / SQ3), np.exp(1j * t / SQ3), np.exp(-2j * t / SQ3)]),
        atol=1e-16)


def test_exp_generator_rotation_blocks_against_series_oracle():
    for k in (2, 5):
        for t in (0.3, 1.2, -0.8):
            oracle = expm_taylor(1j * t * algebra.LAMBDA[k - 1])
            np.testing.assert_allclose(exp_generator(k, t), oracle, atol=1e-13)
    # component pattern of the k=5 planar rotation
    u = exp_generator(5, 0.9)
    assert u[0, 0] == pytest.approx(np.cos(0.9))
    assert u[0, 2] == pytest.approx(np.sin(0.9))
    assert u[2, 0] == pytest.approx(-np.sin(0.9))
    assert u[1, 1] == 1.0


def test_exp_generator_generic_indices_against_series_oracle():
    for k in range(1, 9):
        for t in (0.4, 2.1):
            oracle = expm_taylor(1j * t * algebra.LAMBDA[k - 1])
            np.testing.assert_allclose(exp_generator(k, t), oracle, atol=1e-13)


def test_exp_generator_rejects_bad_index():
    with pytest.raises(ValueError):
        exp_generator(9, 0.1)


def test_compose_identity_and_theta_only():
    np.testing.assert_allclose(compose(np.zeros(8)), np.eye(3), atol=0)
    p = np.zeros(8)
    p[3] = np.pi / 2
    u = compose(p)
    np.testing.assert_allclose(u, expm_taylor(1j * (np.pi / 2) * algebra.LAMBDA[4]),
                               atol=1e-13)
    assert abs(u[0, 0]) < 1e-16  # cos(pi/2)


def test_compose_equals_left_to_right_product_of_factors():
    # compose sums in another order than the matrix chain: up to 4.6e-16
    # seen at these points, so 1e-15 leaves a margin of two
    rng = np.random.default_rng(35)
    pts = np.concatenate([haar_angles(rng, 300), rng.uniform(-10, 10, (300, 8))])
    for p in pts:
        d = exp_generator(group.FACTOR_GENERATORS[0], p[0])
        for k, t in zip(group.FACTOR_GENERATORS[1:], p[1:]):
            d = d @ exp_generator(k, t)
        np.testing.assert_allclose(compose(p), d, rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_compose_rejects_non_finite_angles(bad):
    # psi_of reads its point through compose
    p = np.full(8, 0.3)
    p[6] = bad
    for fn in chart_entry_fns(("group", "states"), "one"):
        for point in (p, EulerAngles(*p)):
            with pytest.raises(ValueError, match="finite"):
                fn(point)
    batch = np.full((5, 8), 0.3)
    batch[3, 6] = bad
    for fn in chart_entry_fns(("group", "states"), "batch"):
        with pytest.raises(ValueError, match="finite: row 3 is not"):
            fn(batch)


def test_compose_third_column_structure():
    rng = np.random.default_rng(1)
    for p in haar_angles(rng, 50):
        u = compose(p)
        beta, theta, phi = p[1], p[3], p[7]
        assert abs(abs(u[0, 2]) - np.cos(beta) * np.sin(theta)) < 1e-13
        assert abs(abs(u[1, 2]) - np.sin(beta) * np.sin(theta)) < 1e-13
        assert abs(abs(u[2, 2]) - np.cos(theta)) < 1e-13
        if np.cos(theta) > 1e-6:
            want = (-2 * phi / SQ3) % (2 * np.pi)
            got = np.angle(u[2, 2]) % (2 * np.pi)
            assert min(abs(got - want), 2 * np.pi - abs(got - want)) < 1e-12


def test_compose_preserves_group_invariants():
    rng = np.random.default_rng(2)
    worst_u = worst_d = 0.0
    for _ in range(1000):
        p = rng.standard_normal(8) * np.pi
        u = compose(p)
        worst_u = max(worst_u, group.unitarity_residual(u))
        worst_d = max(worst_d, group.det_residual(u))
    assert worst_u <= 1e-12
    assert worst_d <= 1e-12


def test_compose_batch_matches_scalar_compose():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((40, 8))
    batch = group.compose_batch(pts)
    for k in range(40):
        assert batch[k].tobytes() == compose(pts[k]).tobytes(), k


def test_compose_batch_matches_series_oracle_product():
    # independent of both chart kernels; the tolerance covers the oracle's
    # own rounding (up to 4.4e-15 seen at these angles)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((40, 8)) * np.pi
    batch = group.compose_batch(pts)
    for p, d in zip(pts, batch):
        oracle = np.eye(3, dtype=complex)
        for k, t in zip(group.FACTOR_GENERATORS, p):
            oracle = oracle @ expm_taylor(1j * t * algebra.LAMBDA[k - 1])
        np.testing.assert_allclose(d, oracle, atol=1e-14)


def _cis(t):
    """exp(i t) elementwise, built from cos(t) and sin(t)."""
    w = np.empty(np.shape(t), dtype=complex)
    w.real = np.cos(t)
    w.imag = np.sin(t)
    return w


def _mixed_type_compose_batch(p):
    """The chart product built factor by factor on complex columns: an l3
    or l8 factor scales them by phases, an l2 or l5 factor rotates two of
    them, with the rotations' cos and sin left as floats."""
    cols = np.zeros((3, 3, len(p)), dtype=complex)
    w = _cis(p[:, 0])
    cols[0, 0], cols[1, 1], cols[2, 2] = w, w.conj(), 1.0
    for k, t in zip(group.FACTOR_GENERATORS[1:], p[:, 1:].T):
        if k == 3:
            w = _cis(t)
            cols[0] *= w
            cols[1] *= w.conj()
        elif k == 8:
            cols[:2] *= _cis(t / SQ3)
            cols[2] *= _cis(-2 * t / SQ3)
        else:
            j = 1 if k == 2 else 2
            c, s = np.cos(t), np.sin(t)
            x = cols[0].copy()
            cols[0] = c * x - s * cols[j]
            cols[j] = s * x + c * cols[j]
    return cols.transpose(2, 1, 0).copy()


def chart_points(rng):
    """Haar points, points in [-10, 10) and [-1e3, 1e3), zeros, -0.0, and
    the 27 combinations of beta, b and theta at 0, pi/2 or interior."""
    strata = np.tile(haar_angles(rng, 1), (27, 1))
    for r, (beta, b, theta) in enumerate(np.ndindex(3, 3, 3)):    # 0, pi/2, interior
        for j, v in ((1, beta), (5, b), (3, theta)):
            if v < 2:
                strata[r, j] = v * np.pi / 2
    return np.concatenate([haar_angles(rng, 5000), rng.uniform(-10, 10, (5000, 8)),
                           rng.uniform(-1e3, 1e3, (500, 8)), np.zeros((1, 8)),
                           np.full((1, 8), -0.0), [[0.0, -0.0] * 4], strata])


def test_compose_batch_matches_the_mixed_type_kernel():
    # the two kernels sum in different orders: up to 5.2e-16 seen at these
    # points, so 1e-15 leaves a margin of about two
    pts = chart_points(np.random.default_rng(17))
    np.testing.assert_allclose(group.compose_batch(pts), _mixed_type_compose_batch(pts),
                               rtol=0, atol=1e-15)


def test_compose_and_compose_batch_give_the_same_bytes():
    pts = chart_points(np.random.default_rng(38))
    batch = group.compose_batch(pts)
    for k, p in enumerate(pts):
        single = compose(p)
        assert single.tobytes() == batch[k].tobytes(), k
        assert compose(EulerAngles.from_array(p)).tobytes() == single.tobytes(), k
    np.testing.assert_array_equal(compose(np.zeros(8)), np.eye(3))
    np.testing.assert_array_equal(batch[10500:10503], np.broadcast_to(np.eye(3), (3, 3, 3)))


def test_compose_builds_no_chart_factors_and_no_matrix_products(monkeypatch):
    pts = chart_points(np.random.default_rng(39))[::50]
    batch = group.compose_batch(pts)

    def forbidden(*args, **kwargs):
        raise AssertionError("compose must not call this")

    monkeypatch.setattr(np, "matmul", forbidden)
    assert group.compose_batch(pts).tobytes() == batch.tobytes()
    for p, d in zip(pts, batch):
        assert compose(p).tobytes() == d.tobytes()
    # the @ operator reaches the matmul ufunc without the module attribute
    for fn in (compose, group.compose_batch, group._chart_entries, group._chart_args,
               group._evaluate, group._fill, group._cos_sin, group._su2_entries,
               group._psi_args, group._psi_entries):
        assert not matrix_products(fn), fn


def test_psi_entries_are_the_third_column_on_floats_and_on_columns():
    # the chart product takes its third column from _psi_entries, whose five
    # arguments are four of the nine chart arguments and (-2 phi) / sqrt 3
    pts = np.concatenate([edge_points(41), chart_points(np.random.default_rng(42))[::7]])
    batch = group.compose_batch(pts)
    x = np.array(group._psi_args(*pts.T))
    entries = group._psi_entries(*np.cos(x), *np.sin(x))
    columns = np.array(entries[4:]).T.copy().view(complex)
    assert columns.tobytes() == np.ascontiguousarray(batch[:, :, 2]).tobytes()
    for p, d, column, *ab in zip(pts, batch, columns, *entries[:4]):
        cos, sin = group._cos_sin(group._psi_args(*p.tolist()))
        one = group._psi_entries(*cos, *sin)
        assert np.array(one[4:]).view(complex).tobytes() == column.tobytes() == d[:, 2].tobytes()
        assert one[:4] == tuple(ab) == group._su2_entries(cos[0], sin[0], cos[3], sin[3],
                                                          cos[1], sin[1])


def _coeff_calls(side):
    """_coeff_stacks of a batch, with the points along axis 0, and of one point."""
    return (lambda pts: (np.moveaxis(cartan._coeff_stacks(pts, side), -3, 0),),
            lambda p: (cartan._coeff_stacks(p, side),))


# each kernel of group._evaluate, and project's columns by group._fill: the
# batch call, then the one-point call that row k of each of its arrays equals
EVALUATED = {
    "chart": (lambda pts: (group.compose_batch(pts),), lambda p: (compose(p),)),
    "psi": (lambda pts: (group._evaluate(phase._psi, group._psi_args, pts, 6).view(complex),),
            lambda p: (states.psi_of(p),)),
    **{side: _coeff_calls(side)
       for side in (cartan.LEFT, cartan.RIGHT, cartan.BOTH, cartan._REDUCED)},
    "project": (lambda pts: astuple(states.project(group.compose_batch(pts))),
                lambda p: astuple(states.project(compose(p)))),
}


@pytest.mark.parametrize("n", [0, 1, group._COLUMNS_FROM - 1, group._COLUMNS_FROM,
                               2 * group._BLOCK + 3])
@pytest.mark.parametrize("kernel", EVALUATED)
def test_evaluator_rows_equal_one_point_calls_bit_for_bit(kernel, n):
    # fewer than _COLUMNS_FROM rows go on Python floats, more on columns;
    # 2 _BLOCK + 3 rows leave a short last block, on Python floats again; an
    # empty batch gives empty arrays
    pts = np.concatenate([edge_points(51)[::-1], haar_angles(np.random.default_rng(52), 3000)])[:n]
    batch, one = EVALUATED[kernel]
    rows = batch(pts)
    assert all(len(a) == n for a in rows)
    for k, p in enumerate(pts):
        for got, want in zip(rows, one(p)):
            assert got[k].shape == want.shape and got[k].tobytes() == want.tobytes(), (kernel, k)


def test_compose_batch_rejects_wrong_shape():
    for bad in (np.zeros(8), np.zeros((3, 7)), np.zeros((2, 8, 1))):
        with pytest.raises(ValueError, match="\\(n, 8\\)"):
            group.compose_batch(bad)
    assert group.compose_batch(np.zeros((0, 8))).shape == (0, 3, 3)


def test_euler_angles_container():
    ang = EulerAngles.from_array(np.arange(8.0))
    assert ang.eta == pytest.approx(7.0 / SQ3)
    np.testing.assert_allclose(ang.as_array(), np.arange(8.0))
    assert ang.as_dict()["theta"] == 3.0
    for bad in ([1.0, 2.0], ["0.1"] * 8, [np.nan] * 8):
        with pytest.raises(ValueError, match="chart angles"):
            EulerAngles.from_array(bad)
    # a tuple of eight floats, which numpy reads as a point, and a list of
    # them as a batch
    ang = EulerAngles(*np.linspace(0.1, 0.8, 8))
    assert ang == tuple(np.linspace(0.1, 0.8, 8).tolist())
    assert ang._replace(phi=0.0).phi == 0.0 and ang.phi == 0.8
    assert np.asarray(ang).tobytes() == ang.as_array().tobytes()
    pts = np.array([ang, ang._replace(beta=0.3)])
    assert pts.shape == (2, 8)
    assert group.compose_batch([ang, ang._replace(beta=0.3)]).tobytes() \
        == group.compose_batch(pts).tobytes()
    assert compose(ang).tobytes() == compose(pts[0]).tobytes()


def test_is_canonical_excludes_the_upper_ends_of_the_periodic_ranges():
    inside = EulerAngles(*(group.CANONICAL_HIGH / 2))
    assert inside.is_canonical()
    for name, high in zip(group.ANGLE_NAMES, group.CANONICAL_HIGH):
        closed = name in ("beta", "theta", "b")
        assert inside._replace(**{name: high}).is_canonical() == closed, name
        assert inside._replace(**{name: np.nextafter(high, 0)}).is_canonical(), name
        assert not inside._replace(**{name: -1e-300}).is_canonical(), name


@pytest.mark.parametrize("point", [
    [-1e-16, 0.3, 1.2, 0.5, 0.4, 0.6, 1.1, 0.9],      # alpha rounds to pi
    [0.1, 0.3, -1e-16, 0.5, 0.4, 0.6, 1.1, 0.9],      # gamma to 2 pi
    [0.1, 0.3, 1.2, 0.5, 0.4, 0.6, -1e-16, 0.9],      # c to 2 pi
    [0.1, 0.3, 1.2, 0.5, 0.4, 0.6, 1.1, -1e-17],      # phi to sqrt(3) pi
    [0.3, 0.2, 0.2, 0.5, 0.0, 0.0, -1e-16, 0.9],      # b = 0: c to 2 pi
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1e-16, 0.0],      # theta = 0 and b = 0: c to 2 pi
])
def test_decompose_never_returns_the_excluded_end_of_a_range(point):
    # x % p of a tiny negative x rounds to p itself; decompose folds it to 0,
    # on one matrix and on the columns of a stack
    u = compose(point)
    one, _ = decompose(u)
    stack, _ = decompose(np.stack([u, compose(np.full(8, 0.7)), u]))
    periodic = [0, 2, 4, 6, 7]                      # alpha, gamma, a, c, phi
    for angles in (one, *map(EulerAngles.from_array, stack[::2])):
        assert (np.array(angles)[periodic] < group.CANONICAL_HIGH[periodic]).all(), angles
        assert angles.is_canonical(), angles
        np.testing.assert_allclose(compose(angles), u, rtol=0, atol=1e-15)
    assert stack[0].tobytes() == np.array(one).tobytes() == stack[2].tobytes()


def test_decompose_identity_is_all_zero_with_stratum_flag():
    angles, flags = decompose(np.eye(3, dtype=complex))
    np.testing.assert_allclose(angles.as_array(), 0, atol=0)
    assert "theta=0" in flags


def test_decompose_diagonal_input_folds_into_c():
    u = np.diag([np.exp(1j * np.pi / 5), np.exp(-1j * np.pi / 5), 1.0])
    angles, flags = decompose(u)
    assert {"theta=0", "b=0"} <= set(flags)
    assert angles.beta == 0 and angles.theta == 0 and angles.b == 0
    assert angles.c == pytest.approx(np.pi / 5, abs=1e-15, rel=0)
    np.testing.assert_allclose(compose(angles), u, atol=1e-15)


def test_decompose_round_trip_on_haar_random_matrices():
    rng = np.random.default_rng(11)
    worst = 0.0
    for u in group.random_su3(1000, rng):
        angles, _ = decompose(u)
        assert angles.is_canonical()
        worst = max(worst, np.abs(compose(angles) - u).max())
    assert worst <= 1e-10


def test_decompose_inverts_compose_on_chart_samples():
    rng = np.random.default_rng(12)
    worst = 0.0
    for p in haar_angles(rng, 1000):
        angles, flags = decompose(compose(p))
        assert not flags
        worst = max(worst, np.abs(angles.as_array() - p).max())
    assert worst <= 1e-10


@pytest.mark.parametrize("builder, expected_flag", [
    (lambda: compose([0.4, np.pi / 2, 0.9, 0.6, 0, 0, 0, 0]), "beta=pi/2"),
    (lambda: compose([0.4, 0.0, 0.9, 0.6, 0.2, 0.3, 0.4, 0.5]), "beta=0"),
    (lambda: compose([0.4, 0.3, 0.9, np.pi / 2, 0.2, 0.3, 0.4, 0.5]), "theta=pi/2"),
    (lambda: compose([0.4, 0.3, 0.9, 0.6, 0.2, np.pi / 2, 0.4, 0.5]), "b=pi/2"),
    (lambda: compose([0.4, 0.3, 0.9, 0.6, 0.2, 0.0, 0.4, 0.5]), "b=0"),
])
def test_decompose_strata_flags_and_exact_round_trip(builder, expected_flag):
    u = builder()
    angles, flags = decompose(u)
    assert expected_flag in flags
    assert angles.is_canonical()
    np.testing.assert_allclose(compose(angles), u, atol=1e-12)


def test_decompose_round_trips_near_strata():
    # inputs a small distance from every degenerate stratum must still
    # reconstruct; at distances below the stratum tolerance the folding
    # convention may perturb the matrix by at most that tolerance
    rng = np.random.default_rng(31)
    worst = 0.0
    for idx in (1, 3, 5):
        for v in (0.0, np.pi / 2):
            for eps in (0.0, 1e-14, 1e-11, 1e-8, 1e-5):
                x = min(max(v + eps, 0.0), np.pi / 2)
                for _ in range(5):
                    p = rng.uniform(0.1, 1.2, 8)
                    p[idx] = x
                    u = compose(p)
                    angles, _ = decompose(u)
                    worst = max(worst, np.abs(compose(angles) - u).max())
    assert worst <= 1e-11


def test_decompose_flags_no_beta_stratum_near_theta_zero():
    # |u[0, 2]| and |u[1, 2]| are sin theta cos beta and sin theta sin beta,
    # so beta's strata are judged relative to sin theta: a small theta alone
    # flags none of them and snaps no beta (an absolute test flagged 8 of
    # these points at theta = 1e-11 and 87 at 3e-12, round trips 9.9e-13)
    pts = haar_angles(np.random.default_rng(0), 400)
    for theta in (1e-9, 1e-11, 3e-12):
        pts[:, 3] = theta
        mats = group.compose_batch(pts)
        angles, flags = decompose(mats)
        assert not any(flags)
        assert np.abs(group.compose_batch(angles) - mats).max() <= 1e-14
        for u, row in zip(mats, angles):
            single, single_flags = decompose(u)
            assert not single_flags and row.tobytes() == single.as_array().tobytes()


def test_decompose_stack_redoes_the_beta_strata_of_a_column_longer_than_one():
    # admitted at a loose tol, u[:, 2] may be longer than 1: |u[1, 2]| =
    # 1.0005e-12 is within 1e-12 sin theta = 1.001e-12, so the one-matrix
    # path flags beta=0, and the stack must redo that row too
    u = compose([0.4, 0.9995e-12, 0.9, np.pi / 2 - 1e-3, 0.2, 0.3, 0.4, 0.5]) * 1.001
    single, single_flags = decompose(u, tol=1e-2)
    rows, flags = decompose(u[None], tol=1e-2)
    assert single_flags == flags[0] == ["beta=0"]
    assert rows[0].tobytes() == single.as_array().tobytes()


def test_decompose_rejects_non_unitary_input():
    with pytest.raises(ValueError, match="not unitary"):
        decompose(np.eye(3) * 1.5)
    bad = np.diag([1.0, 1.0, np.exp(0.4j)])
    with pytest.raises(ValueError, match="determinant"):
        decompose(bad)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
def test_decompose_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol):
    # an infinite tol would admit diag(2, 1, 0.5) and answer it as the identity
    for u in (np.diag([2.0, 1.0, 0.5]), group.random_su3(3, np.random.default_rng(17))):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            decompose(u, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            group.assert_group_element(u, tol)


# period of each chart coordinate; None for beta, theta and b, which are not periodic
PERIODS = (np.pi, None, 2 * np.pi, None, np.pi, None, 2 * np.pi, SQ3 * np.pi)

STRATUM_POINTS = (
    [0.4, 0.3, 0.9, 0.0, 0.2, 0.3, 0.4, 0.5],        # theta=0
    [0.4, 0.3, 0.9, np.pi / 2, 0.2, 0.3, 0.4, 0.5],  # theta=pi/2
    [0.4, 0.0, 0.9, 0.6, 0.2, 0.3, 0.4, 0.5],        # beta=0
    [0.4, np.pi / 2, 0.9, 0.6, 0, 0, 0, 0],          # beta=pi/2, b=0
    [0.4, 0.3, 0.9, 0.6, 0.2, 0.0, 0.4, 0.5],        # b=0
    [0.4, 0.3, 0.9, 0.6, 0.2, np.pi / 2, 0.4, 0.5],  # b=pi/2
)


def test_decompose_stack_matches_per_matrix_calls():
    # off the strata the stack runs the one-matrix arithmetic on columns, and
    # a stratum row is redone one matrix at a time: the bytes are equal
    strata = np.concatenate([group.compose_batch(np.array(STRATUM_POINTS)), np.eye(3)[None]])
    haar = group.random_su3(200, np.random.default_rng(13))
    seen = set()
    for mats in (np.concatenate([haar, strata]), strata):
        angles, flags = decompose(mats)
        assert angles.shape == (len(mats), 8) and len(flags) == len(mats)
        assert np.abs(group.compose_batch(angles) - mats).max() <= 1e-14
        for u, row, row_flags in zip(mats, angles, flags):
            single, single_flags = decompose(u)
            assert row_flags == single_flags
            assert row.tobytes() == single.as_array().tobytes()
            seen.update(row_flags)
    assert all(decompose(strata)[1])
    assert seen == {"theta=0", "theta=pi/2", "beta=0", "beta=pi/2", "b=0", "b=pi/2"}


def test_one_matrix_decompose_matches_stack_near_strata():
    # 1e-3 ... 1e-14 from each of the six strata, on both sides of the
    # 1e-12 stratum tolerance
    rng = np.random.default_rng(16)
    pts = []
    for j in (1, 3, 5):
        for end in (0.0, np.pi / 2):
            for d in 10.0 ** -np.arange(3, 15):
                for _ in range(3):
                    p = rng.uniform(0.1, 1.4, 8)
                    p[j] = d if end == 0.0 else end - d
                    pts.append(p)
    mats = group.compose_batch(np.array(pts))
    angles, flags = decompose(mats)
    assert np.abs(group.compose_batch(angles) - mats).max() <= 1e-11
    seen = set()
    for u, row, row_flags in zip(mats, angles, flags):
        single, single_flags = decompose(u)
        assert single_flags == row_flags
        seen.update(row_flags)
        assert np.abs(compose(single) - u).max() <= 1e-11
        for x, y, period in zip(row, single.as_array(), PERIODS):
            gap = abs(x - y) if period is None else abs((x - y + period / 2) % period - period / 2)
            assert gap <= 1e-14
    assert seen == {"theta=0", "theta=pi/2", "beta=0", "beta=pi/2", "b=0", "b=pi/2"}


def near_strata_points():
    """The points of test_one_matrix_decompose_matches_stack_near_strata."""
    rng = np.random.default_rng(16)
    pts = []
    for j in (1, 3, 5):
        for end in (0.0, np.pi / 2):
            for d in 10.0 ** -np.arange(3, 15):
                for _ in range(3):
                    p = rng.uniform(0.1, 1.4, 8)
                    p[j] = d if end == 0.0 else end - d
                    pts.append(p)
    return np.array(pts)


def test_strip_left_gives_the_same_bits_on_floats_and_on_columns():
    # a last-bit difference between the one-matrix and stack paths can put
    # a on the other side of its 0 / pi boundary and move c by pi
    mats = np.concatenate([group.random_su3(300, np.random.default_rng(18)),
                           group.compose_batch(np.array(STRATUM_POINTS)), np.eye(3)[None],
                           group.compose_batch(near_strata_points())])
    angles, _ = decompose(mats)
    x = np.stack([angles[:, 0] + angles[:, 2], angles[:, 0] - angles[:, 2], angles[:, 1], angles[:, 3]])
    cos, sin = np.cos(x), np.sin(x)
    cols = mats.transpose(1, 2, 0)
    stacked = group._strip_left(cos, sin, cols.real, cols.imag)
    for m, u in enumerate(mats):
        single = group._strip_left(cos[:, m].tolist(), sin[:, m].tolist(),
                                   u.real.tolist(), u.imag.tolist())
        column = [[part[m] for part in entry] for entry in stacked]
        assert np.array(single).tobytes() == np.array(column).tobytes(), m
        assert decompose(u)[0].as_array().tobytes() == angles[m].tobytes(), m


def test_strip_left_entries_equal_the_chart_factor_product():
    mats = group.random_su3(50, np.random.default_rng(19))
    angles, _ = decompose(mats)
    for u, p in zip(mats, angles):
        alpha, beta, gamma, theta = p[:4]
        r = (exp_generator(5, -theta) @ (exp_generator(3, alpha) @ exp_generator(2, beta)
                                         @ exp_generator(3, gamma)).conj().T @ u)
        x = [alpha + gamma, alpha - gamma, beta, theta]
        single = group._strip_left(np.cos(x), np.sin(x), u.real, u.imag)
        got = [complex(*entry) for entry in single]
        assert np.abs(np.array(got) - r[[0, 0, 2], [0, 1, 2]]).max() <= 1e-15


def test_decompose_builds_no_chart_factors_and_no_matrix_products(monkeypatch):
    mats = np.concatenate([group.random_su3(20, np.random.default_rng(20)),
                           group.compose_batch(np.array(STRATUM_POINTS))])
    expected = [decompose(u) for u in mats]
    stacked = decompose(mats)

    def forbidden(*args, **kwargs):
        raise AssertionError("decompose must not call this")

    # no 3x3 product, conjugate transpose or LAPACK determinant
    monkeypatch.setattr(group, "_dagger", forbidden)
    monkeypatch.setattr(np, "matmul", forbidden)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    angles, flags = decompose(mats)
    assert angles.tobytes() == stacked[0].tobytes() and flags == stacked[1]
    for u, (single, single_flags) in zip(mats, expected):
        got, got_flags = decompose(u)
        assert got == single and got_flags == single_flags
    # the @ operator reaches the matmul ufunc without the module attribute
    for fn in (decompose, group._decompose_one, group._decompose_stack, group._left_pair,
               group._right_pair, group._strip_left, group._cos_sin):
        assert not matrix_products(fn), fn


def stacked_residuals(mats):
    """The residuals assert_group_element computes for a stack."""
    with np.errstate(invalid="ignore", over="ignore"):
        ru = np.abs(np.conj(mats).swapaxes(1, 2) @ mats - np.eye(3)).max(axis=(1, 2))
        rd = np.abs(np.linalg.det(mats) - 1.0)
    return ru, rd


def test_closed_form_residuals_agree_with_the_stacked_ones():
    haar = group.random_su3(1000, np.random.default_rng(26))
    ru, rd = stacked_residuals(haar)
    for u, su, sd in zip(haar, ru, rd):
        assert abs(group.unitarity_residual(u) - su) <= 1e-15
        assert abs(group.det_residual(u) - sd) <= 1e-15
    # the malformed matrices of the benchmark: Haar ones scaled by 1 + 1e-6 .. 1e-2
    scales = 1.0 + 10.0 ** np.random.default_rng(27).uniform(-6, -2, 200)
    mats = np.concatenate([haar[:200] * scales[:, None, None], haar[200:400]])
    ru, rd = stacked_residuals(mats)
    admitted = (ru <= 1e-8) & (rd <= 1e-8)
    assert not admitted[:200].any() and admitted[200:].all()
    for u, verdict in zip(mats, admitted):
        assert (group.unitarity_residual(u) <= 1e-8 and group.det_residual(u) <= 1e-8) == verdict


def test_stack_admission_agrees_with_the_stacked_products():
    # the one-matrix formulas on numpy columns, against the zgemm and LAPACK
    # residuals: up to 2.2e-16 and 4.6e-16 seen
    haar = group.random_su3(1000, np.random.default_rng(29))
    cols = haar.transpose(1, 2, 0)
    ru, rd = stacked_residuals(haar)
    assert np.abs(np.abs(np.stack(group._gram_minus_one(cols))).max(axis=0) - ru).max() <= 1e-15
    assert np.abs(np.abs(group._det_minus_one(cols)) - rd).max() <= 1e-15
    scales = 1.0 + 10.0 ** np.random.default_rng(30).uniform(-6, -2, 200)
    mats = np.concatenate([haar[:200] * scales[:, None, None], haar[200:400]])
    ru, rd = stacked_residuals(mats)
    for u, verdict in zip(mats, (ru <= 1e-8) & (rd <= 1e-8)):
        try:
            group.assert_group_element(u[None], 1e-8)
        except ValueError:
            assert not verdict
        else:
            assert verdict


@pytest.mark.parametrize("scale", [1e200, 1.5e308])
def test_overflowing_matrices_are_rejected_without_a_warning(scale):
    haar = group.random_su3(2, np.random.default_rng(28))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (scale * np.eye(3), scale * haar[0]):
            with pytest.raises(ValueError, match="not unitary"):
                decompose(u)
            with pytest.raises(ValueError, match="at row 1 is not unitary"):
                decompose(np.stack([haar[1], u]))
            ru, rd = stacked_residuals(u[None])
            # NaN where the stacked residual is NaN, whatever the order of the entries
            np.testing.assert_equal(group.unitarity_residual(u), ru[0])
            assert not group.det_residual(u) <= 1e-8
        # finite results whose modulus overflows: det = s^3 (-2 + 2j), and
        # (u^dag u)[0, 1] = s^2 (1 + 1j)
        s = 4.2e102
        assert group.det_residual(np.diag([s * (1 + 1j)] * 3)) == np.inf
        s = 1.3e154
        assert group.unitarity_residual([[s, s * (1 + 1j), 0], [0, 0, 0], [0, 0, 0]]) == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decompose_rejects_non_finite_matrices(bad):
    u = compose(np.full(8, 0.3))
    u[1, 2] = bad
    with pytest.raises(ValueError, match="not unitary"):
        decompose(u)
    with pytest.raises(ValueError, match="not unitary"):
        decompose(np.full((3, 3), np.nan))
    mats = group.random_su3(6, np.random.default_rng(14))
    mats[4, 0, 0] = bad
    mats[5] = np.nan
    with pytest.raises(ValueError, match="at row 4 is not unitary"):
        decompose(mats)


def test_decompose_stack_names_the_first_row_off_the_group():
    mats = group.random_su3(5, np.random.default_rng(15))
    mats[2] = np.diag([1.0, 1.0, np.exp(0.4j)])
    with pytest.raises(ValueError, match="determinant at row 2"):
        decompose(mats)
    with pytest.raises(ValueError, match="3x3 matrix or a .* got shape \\(2, 2\\)"):
        decompose(np.eye(2))
    with pytest.raises(ValueError, match="3x3 matrix or an \\(n, 3, 3\\) stack"):
        decompose(np.tile(np.eye(3), (2, 2, 1, 1)))


def test_adjoint_identity_and_lambda3_rotation():
    np.testing.assert_allclose(group.adjoint(np.eye(3)), np.eye(8), atol=1e-15)
    t = 0.37
    r = group.adjoint(exp_generator(3, t))
    # conjugation by exp(i l3 t) rotates the (1,2) algebra plane by 2t
    # (structure constant 2) and the (4,5) and (6,7) planes by -+t;
    # lambda_3 and lambda_8 themselves are fixed
    def rot(s):
        return np.array([[np.cos(s), -np.sin(s)], [np.sin(s), np.cos(s)]])

    expected = np.eye(8)
    expected[0:2, 0:2] = rot(2 * t)
    expected[3:5, 3:5] = rot(t)
    expected[5:7, 5:7] = rot(-t)
    np.testing.assert_allclose(r, expected, atol=1e-14)


def test_adjoint_is_special_orthogonal():
    rng = np.random.default_rng(21)
    for u in group.random_su3(100, rng):
        r = group.adjoint(u)
        assert np.abs(r @ r.T - np.eye(8)).max() <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-10


def test_adjoint_of_a_stack_equals_per_matrix_calls():
    mats = group.random_su3(100, np.random.default_rng(25))
    stacked = group.adjoint(mats)
    assert stacked.shape == (100, 8, 8)
    for u, r in zip(mats, stacked):
        np.testing.assert_array_equal(r, group.adjoint(u))


def test_adjoint_composition_law_is_order_reversing():
    # row convention R[i,j] = Tr(g l_i g+ l_j)/2 composes contravariantly
    rng = np.random.default_rng(22)
    mats = group.random_su3(200, rng)
    for g, h in zip(mats[:100], mats[100:]):
        rgh = group.adjoint(g @ h)
        assert np.abs(rgh - group.adjoint(h) @ group.adjoint(g)).max() <= 1e-11


def test_random_su3_satisfies_invariants():
    rng = np.random.default_rng(23)
    for u in group.random_su3(50, rng):
        assert group.unitarity_residual(u) <= 1e-13
        assert group.det_residual(u) <= 1e-13


def test_random_su3_matches_per_matrix_qr_on_same_draws():
    n = 200
    batch = group.random_su3(n, np.random.default_rng(24))
    rng = np.random.default_rng(24)
    z = (rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))) / np.sqrt(2)
    for zi, u in zip(z, batch):
        q, r = np.linalg.qr(zi)
        ph = np.diagonal(r)
        q = q * (ph / np.abs(ph)).conj()
        q = q * np.exp(-1j * np.angle(np.linalg.det(q)) / 3.0)
        assert np.abs(u - q).max() <= 1e-15
