import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3kit import phase, states, verify
from su3kit.group import ANGLE_NAMES, compose_batch
from su3kit.measure import sample_haar

from oracles import central_difference, chart_entry_fns, trapezoid

HALF_MAX = sys.float_info.max / 2

SQ3 = np.sqrt(3.0)


def gamma_circle(samples):
    w = np.zeros((2, 8))
    w[:, 3] = np.pi / 4
    w[1, 2] = 2 * np.pi
    return phase.LoopSpec(w, samples_per_segment=samples)


def smooth_random_loop(rng, samples=2000, k=5):
    w = rng.uniform(0.2, 1.3, size=(k + 1, 8))
    w[-1] = w[0]
    return phase.LoopSpec(w, samples_per_segment=samples)


def test_connection_sparsity_and_limits():
    for p in sample_haar(0, 20):
        cov = phase.connection(p)
        assert np.abs(cov[[1, 3, 4, 5, 6]]).max() == 0.0
        assert cov[7] == pytest.approx(-2 / SQ3)
    p = np.zeros(8)
    cov = phase.connection(p)          # theta = 0
    assert np.abs(cov[:7]).max() == 0.0
    p[3], p[1] = np.pi / 2, 0.0        # theta = pi/2, beta = 0
    cov = phase.connection(p)
    assert cov[0] == pytest.approx(1.0)
    assert cov[2] == pytest.approx(1.0)
    assert cov[7] == pytest.approx(-2 / SQ3)


def test_connection_matches_overlap_derivative():
    def arg_step(p, j, h=1e-6):
        pp, pm = p.copy(), p.copy()
        pp[j] += h
        pm[j] -= h
        psi0, psip, psim = (states.psi_of(q) for q in (p, pp, pm))
        return (-1j * (psi0.conj() @ (psip - psim)) / (2 * h)).real

    for p in sample_haar(1, 10):
        cov = phase.connection(p)
        fd = np.array([arg_step(p, j) for j in range(8)])
        assert np.abs(cov - fd).max() <= 1e-7


def test_curvature_components_and_antisymmetry():
    for p in sample_haar(2, 20):
        f = phase.curvature(p)
        np.testing.assert_array_equal(f, -f.T)
        nonzero = {(i, j) for i in range(8) for j in range(8) if f[i, j] != 0}
        assert nonzero <= {(3, 0), (0, 3), (1, 0), (0, 1), (3, 2), (2, 3)}
    f = phase.curvature([0, np.pi / 4, 0, np.pi / 4, 0, 0, 0, 0])
    assert f[3, 0] == pytest.approx(0.0, abs=1e-16)
    assert f[1, 0] == pytest.approx(-1.0)
    assert f[3, 2] == pytest.approx(1.0)
    # theta = 0 kills everything
    assert np.abs(phase.curvature(np.zeros(8))).max() == 0.0


def test_curvature_is_exterior_derivative_of_connection():
    def conn(p):
        return phase.connection(p)

    for p in sample_haar(3, 10):
        f = phase.curvature(p)
        for i in range(8):
            for j in range(8):
                d_ij = central_difference(conn, p, i)[j] - central_difference(conn, p, j)[i]
                assert abs(f[i, j] - d_ij) <= 1e-6


def test_curvature_is_closed_two_form():
    # dF = 0: cyclic sum of partial derivatives vanishes
    def curv(p):
        return phase.curvature(p)

    for p in sample_haar(4, 5):
        df = np.array([central_difference(curv, p, l) for l in range(8)])
        for l in range(8):
            for i in range(8):
                for j in range(8):
                    cyc = df[l][i, j] + df[i][j, l] + df[j][l, i]
                    assert abs(cyc) <= 1e-5


def test_loopspec_samples_per_segment_must_be_an_integer():
    for bad in (2.5, "7", True, np.float64(8.0), None):
        with pytest.raises(ValueError, match="samples_per_segment must be an integer"):
            phase.LoopSpec(np.zeros((2, 8)), samples_per_segment=bad)
    assert phase.LoopSpec(np.zeros((2, 8)), samples_per_segment=np.int64(8)).sample_points() \
        .shape == (9, 8)


@pytest.mark.parametrize("psi", [np.zeros((1, 3)), np.zeros((0, 3)), np.zeros(3)])
def test_overlap_chain_phase_needs_two_states(psi):
    with pytest.raises(ValueError, match="at least 2 states"):
        phase.overlap_chain_phase(psi)


def test_overlap_chain_phase_refuses_nan_states():
    with pytest.raises(ValueError, match="overlap"):
        phase.overlap_chain_phase(np.full((3, 3), np.nan))


def test_overlap_chain_phase_refuses_infinite_overlaps_and_non_numbers():
    with pytest.raises(ValueError, match="overlap of states 0 and 1 is not finite"):
        phase.overlap_chain_phase([[1e200, 0, 0]] * 2)
    for bad in ([["1", "0"]] * 2, [[None, 1.0]] * 2, [[1.0, 0.0], [1.0]]):
        with pytest.raises(ValueError, match="states must be numbers"):
            phase.overlap_chain_phase(bad)
    # an overlap of finite parts whose modulus overflows is answered, without a warning
    c = 1.2e154                         # the overlap is 1.44e308 (1 + i)
    assert phase.overlap_chain_phase([[c, 0], [c * (1 + 1j), 0]]) == pytest.approx(np.pi / 4)


def test_line_integral_refuses_waypoints_whose_sum_overflows():
    # two admitted waypoints at +-max/2 in beta, gamma and theta: the step
    # between them moves theta + beta by twice the largest float, and the
    # route refuses it without a warning
    w = np.zeros((4, 8))
    w[:, 3] = 0.4
    w[1, 1:4], w[2, 1:4] = HALF_MAX, -HALF_MAX
    loop = phase.LoopSpec(w, samples_per_segment=1)
    for include_dphi in (False, True):
        with pytest.raises(ValueError, match="line integral over these waypoints overflows"):
            phase.phase_connection(loop, include_dphi=include_dphi)


def test_loopspec_validation(monkeypatch):
    with pytest.raises(ValueError, match="at least 2 waypoints"):
        phase.LoopSpec(np.zeros((1, 8)))
    with pytest.raises(ValueError, match="samples_per_segment"):
        phase.LoopSpec(np.zeros((2, 8)), samples_per_segment=0)
    w = np.zeros((2, 8))
    w[1, 3] = 0.3   # genuinely open path
    with pytest.raises(ValueError, match="closed loop"):
        phase.LoopSpec(w)
    # a NaN closure residual fails too; no admitted waypoint composes to
    # NaN, so a stand-in compose does
    monkeypatch.setattr(phase, "compose", lambda p: np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="closed loop"):
        phase.LoopSpec(np.zeros((2, 8)))


@pytest.mark.parametrize("closes", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loopspec_rejects_non_finite_waypoints(bad, closes):
    # the bad row is named whether or not the endpoints close on the group
    w = np.zeros((3, 8))
    w[1, 2] = bad
    w[2, 3] = 0.0 if closes else 0.3
    for fn in chart_entry_fns(("phase",), "batch"):
        with pytest.raises(ValueError, match="finite: row 1 is not"):
            fn(w)
    for fn in chart_entry_fns(("phase",), "one"):
        with pytest.raises(ValueError, match="finite"):
            fn(w[1])


def test_loopspec_accepts_full_period_windings():
    loop = gamma_circle(samples=32)    # gamma runs 0 -> 2 pi
    assert loop.sample_points().shape == (33, 8)


def test_constant_loop_has_zero_phase():
    w = np.tile(np.array([0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]), (3, 1))
    loop = phase.LoopSpec(w, samples_per_segment=16)
    assert phase.phase_connection(loop) == 0.0
    assert phase.phase_pancharatnam(loop) == pytest.approx(0.0, abs=1e-15)


def test_gamma_circle_closed_form():
    conn, panch = verify.gamma_circle(10_000)
    assert conn <= 1e-14                # exact up to rounding
    assert panch <= 1e-4
    # verify samples the circle once for both routes, with the public calls' bits
    loop = gamma_circle(samples=10_000)
    assert (conn, panch) == (abs(phase.phase_connection(loop) - np.pi),
                             abs(phase.phase_pancharatnam(loop) - np.pi))


def test_include_dphi_changes_nothing_on_closed_loops():
    rng = np.random.default_rng(5)
    loop = smooth_random_loop(rng)
    base = phase.phase_connection(loop)
    with_term = phase.phase_connection(loop, include_dphi=True)
    assert with_term == pytest.approx(base, abs=1e-12, rel=0)


def test_connection_vs_pancharatnam_on_random_smooth_loops():
    rng = np.random.default_rng(6)
    for _ in range(20):
        loop = smooth_random_loop(rng)
        a = phase.phase_connection(loop)
        b = phase.phase_pancharatnam(loop)
        assert abs(a - b) <= 1e-4


def test_stokes_rectangle_agreement():
    base = np.array([0.3, 0.4, 0.0, 0.0, 0.5, 0.6, 0.7, 0.8])
    for bounds in [((0.0, np.pi / 4), (0.0, 2 * np.pi)),
                   ((0.2, 1.1), (0.3, 2.4)),
                   ((0.5, 0.9), (1.0, 1.7))]:
        assert verify.stokes_rectangle(base, bounds) <= 1e-14    # two exact integrals


def test_curvature_rectangle_closed_form():
    base = np.zeros(8)
    got = phase.phase_curvature(base, ("theta", "gamma"),
                                ((0.0, np.pi / 4), (0.0, 2 * np.pi)))
    assert got == pytest.approx(np.pi, abs=1e-15, rel=0)
    zero = phase.phase_curvature(base, ("theta", "gamma"), ((0.3, 0.3), (0.0, 2 * np.pi)))
    assert zero == 0.0


def test_curvature_rectangles_carrying_beta_closed_form():
    t0, t1, b0, b1, a0, a1 = 0.2, 1.1, 0.3, 0.9, 0.4, 2.0
    base = np.array([0.0, 0.5, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0])
    got = phase.phase_curvature(base, ("theta", "alpha"), ((t0, t1), (a0, a1)))
    want = (np.cos(2 * t0) - np.cos(2 * t1)) / 2 * np.cos(2 * base[1]) * (a1 - a0)
    assert got == pytest.approx(want, abs=1e-15, rel=0)
    got = phase.phase_curvature(base, ("beta", "alpha"), ((b0, b1), (a0, a1)))
    want = -np.sin(base[3]) ** 2 * (np.cos(2 * b0) - np.cos(2 * b1)) * (a1 - a0)
    assert got == pytest.approx(want, abs=1e-15, rel=0)


def richardson(integral, n):
    """integral(n), a trapezoid rule of n steps an axis, at n and 2n,
    extrapolated past its h^2 term: the integral to O(h^4)."""
    return (4 * integral(2 * n) - integral(n)) / 3


@pytest.mark.parametrize("axes", [("theta", "gamma"), ("theta", "alpha"), ("beta", "alpha"),
                                  ("gamma", "theta"), ("alpha", "beta"), ("beta", "theta")])
def test_curvature_equals_the_tensor_product_trapezoid(axes):
    # the reference is the oracle's trapezoid over both axes of the pointwise
    # two-form, at 32 and 64 steps an axis, extrapolated (its error is ~2e-9);
    # the exact integral is its limit.  (beta, theta) is a pair whose
    # component is zero.
    base = np.array([0.3, 0.4, 0.5, 0.7, 0.5, 0.6, 0.7, 0.8])
    bounds = ((0.2, 1.1), (0.3, 0.9))
    i, j = (ANGLE_NAMES.index(ax) for ax in axes)

    def two_form(x, y):
        p = base.copy()
        p[i], p[j] = x, y
        return phase.curvature(p)[i, j]

    (x0, x1), (y0, y1) = bounds
    want = richardson(lambda n: trapezoid(
        lambda x: trapezoid(lambda y: two_form(x, y), y0, y1, n), x0, x1, n), 32)
    got = phase.phase_curvature(base, axes, bounds)
    assert got == pytest.approx(want, abs=1e-8, rel=0)
    if axes == ("beta", "theta"):
        assert got == 0.0


@pytest.mark.parametrize("samples", [(0, 64), (64, 0), (-1, 1)])
def test_curvature_rejects_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        phase.phase_curvature(np.zeros(8), ("theta", "gamma"),
                              ((0.1, 0.7), (0.2, 1.4)), samples=samples)


@pytest.mark.parametrize("argument, value", [
    ("samples", (2.5, 4)),
    ("samples", (4, True)),
    ("axes", ("theta", "theta")),
    ("axes", (3, "theta")),
    ("axes", (3.7, "gamma")),
    ("axes", ("theta", True)),
    ("axes", ("theta", 8)),
    ("axes", ("theta", "psi")),
    ("bounds", ((0.1, np.nan), (0.2, 1.4))),
    ("bounds", ((0.1, 0.7), (-np.inf, 1.4))),
    ("bounds", None),
    ("bounds", ((0.1, 0.7),)),
    ("bounds", (("a", 0.7), (0.2, 1.4))),
    ("bounds", ((0.1 + 1j, 0.7), (0.2, 1.4))),
    ("bounds", ((-1e308, 1e308), (0.2, 1.4))),
    ("samples", 3),
    ("samples", (8, 8, 8)),
    ("bounds", ((-HALF_MAX, HALF_MAX), (-HALF_MAX, HALF_MAX))),     # the quadrature overflows
])
def test_curvature_refuses_bad_arguments(argument, value):
    args = {"base": np.zeros(8), "axes": ("theta", "gamma"),
            "bounds": ((0.1, 0.7), (0.2, 1.4)), "samples": (8, 8), argument: value}
    with pytest.raises(ValueError, match=argument):
        phase.phase_curvature(**args)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_curvature_keeps_peak_memory_low():
    # the integral is exact, so samples allocates nothing; an
    # (nx + 1)(ny + 1) x 8 grid of chart points would grow the peak by 67 MB
    code = """
import numpy as np
from su3kit import phase

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

base = np.array([0.3, 0.4, 0.0, 0.0, 0.5, 0.6, 0.7, 0.8])
phase.phase_curvature(base, ("theta", "gamma"), ((0.2, 1.0), (0.3, 2.1)), samples=(4, 4))
before = peak_kib()
phase.phase_curvature(base, ("theta", "gamma"), ((0.2, 1.0), (0.3, 2.1)), samples=(1024, 1024))
print(peak_kib() - before)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert int(out.stdout) < 16 * 1024


def test_phase_orientation_reversal():
    rng = np.random.default_rng(7)
    loop = smooth_random_loop(rng, samples=500)
    assert phase.phase_connection(loop.reversed()) == pytest.approx(
        -phase.phase_connection(loop), abs=1e-12, rel=0)
    assert phase.phase_pancharatnam(loop.reversed()) == pytest.approx(
        -phase.phase_pancharatnam(loop), abs=1e-12, rel=0)
    base = np.zeros(8)
    fwd = phase.phase_curvature(base, ("theta", "gamma"), ((0.1, 0.7), (0.2, 1.4)))
    rev = phase.phase_curvature(base, ("gamma", "theta"), ((0.2, 1.4), (0.1, 0.7)))
    assert rev == pytest.approx(-fwd, abs=1e-12, rel=0)


def test_pancharatnam_converges_at_second_order_to_the_exact_phase():
    # the overlap chain's error against the exact line integral falls by 4
    # each time the step halves, as phase_pancharatnam's docstring states
    rng = np.random.default_rng(8)
    w = rng.uniform(0.3, 1.2, size=(4, 8))
    w[-1] = w[0]
    exact = phase.phase_connection(phase.LoopSpec(w))
    errors = [phase.phase_pancharatnam(phase.LoopSpec(w, samples_per_segment=m)) - exact
              for m in (32, 64, 128, 256)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.8 <= coarse / fine <= 4.2


def line_trapezoid(waypoints, n):
    """The oracle's trapezoid of the pointwise connection, d phi included,
    along each straight segment, at n and 2n steps a segment, extrapolated."""
    total = 0.0
    for p, q in zip(waypoints[:-1], waypoints[1:]):
        step = q - p
        total += richardson(lambda m: trapezoid(
            lambda t: phase.connection(p + t * step) @ step, 0.0, 1.0, m), n)
    return total


def test_line_integral_equals_the_trapezoid_oracle():
    rng = np.random.default_rng(10)
    for _ in range(8):
        w = rng.uniform(-0.5, 2.0, size=(6, 8))
        w[-1] = w[0]
        loop = phase.LoopSpec(w)
        want = line_trapezoid(w, 64)
        assert phase.phase_connection(loop, include_dphi=True) == pytest.approx(
            want, abs=1e-8, rel=0)
        assert phase.phase_connection(loop) == pytest.approx(want, abs=1e-8, rel=0)


# loops of 3 to 7 waypoints, the last repeating the first
closed_waypoints = st.lists(st.lists(st.floats(-4.0, 4.0), min_size=8, max_size=8),
                            min_size=2, max_size=6).map(lambda rows: np.array(rows + rows[:1]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(closed_waypoints, st.integers(0, 5), st.floats(0.01, 0.99))
def test_splitting_a_segment_changes_the_line_integral_by_rounding(w, k, s):
    k %= len(w) - 1
    split = np.insert(w, k + 1, w[k] + s * (w[k + 1] - w[k]), axis=0)
    whole, parts = (phase.phase_connection(phase.LoopSpec(x)) for x in (w, split))
    assert abs(whole - parts) <= 1e-13


@settings(derandomize=True, max_examples=200, deadline=None)
@given(closed_waypoints)
def test_reversing_a_loop_negates_its_line_integral(w):
    loop = phase.LoopSpec(w)
    for include_dphi in (False, True):
        forward = phase.phase_connection(loop, include_dphi)
        assert abs(phase.phase_connection(loop.reversed(), include_dphi) + forward) <= 1e-13


def test_pancharatnam_gauge_robustness():
    loop = gamma_circle(samples=500)
    pts = loop.sample_points()
    psi = compose_batch(pts)[:, :, 2]
    base = phase.overlap_chain_phase(psi)
    # smooth single-valued gauge along the loop
    chi = 0.7 * np.sin(np.linspace(0, 2 * np.pi, len(psi))) + 0.2
    gauged = psi * np.exp(1j * chi)[:, None]
    assert phase.overlap_chain_phase(gauged) == pytest.approx(base, abs=1e-12, rel=0)


def test_pancharatnam_rejects_orthogonal_consecutive_states():
    w = np.zeros((3, 8))
    w[1, 3] = np.pi / 2      # state jumps from (0,0,1) to an orthogonal one
    w[2] = w[0]
    loop = phase.LoopSpec(w, samples_per_segment=1)
    with pytest.raises(ValueError, match="finer sampling|samples_per_segment"):
        phase.phase_pancharatnam(loop)
