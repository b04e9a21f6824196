"""Geometric phases of cyclically transported three-level pure states.

The connection one-form on the chart (the real covector -i psi^dag d psi of
the transported state) is

    A = sin^2(theta) cos(2 beta) d alpha + sin^2(theta) d gamma
        - (2/sqrt(3)) d phi,

its curvature two-form is

    F = dA = sin(2 theta) cos(2 beta) d theta ^ d alpha
           - 2 sin^2(theta) sin(2 beta) d beta ^ d alpha
           + sin(2 theta) d theta ^ d gamma,

and the geometric phase of a closed loop is the line integral of A with the
d phi term dropped (on a loop closed in the chart that term integrates to
zero anyway; pass ``include_dphi=True`` to keep it).  A gauge-independent
discrete oracle computes the same phase as the accumulated argument of the
overlap chain <psi_k | psi_k+1> around the loop, its states evaluated by
``group._evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SQRT3, _numbers
from .group import ANGLE_NAMES, _check_count, _evaluate, _points, _psi_args, _psi_entries, compose

# chart coordinate indices
_ALPHA, _BETA, _GAMMA, _THETA = 0, 1, 2, 3
_PHI = 7

_DPHI = -2.0 / SQRT3    # d phi coefficient of the connection

_MIN_OVERLAP = 1e-6     # smallest |<psi_k | psi_k+1>| an overlap chain may hold


@dataclass(frozen=True)
class LoopSpec:
    """Closed piecewise-linear path in the eight-angle chart: the group
    element returns to its start, so the endpoint angles coincide exactly or
    differ by full chart periods (e.g. gamma winding 0 -> 2 pi describes a
    closed, non-contractible circle).

    waypoints : (m, 8) array of finite angles, consecutive rows joined by
        straight segments.
    samples_per_segment : trapezoid subintervals per segment, an integer >= 1.
    """

    waypoints: np.ndarray
    samples_per_segment: int = 256

    def __post_init__(self):
        w = _points(self.waypoints)
        if w.ndim != 2 or len(w) < 2:
            raise ValueError("LoopSpec needs at least 2 waypoints of 8 angles")
        _check_count(self.samples_per_segment, "samples_per_segment")
        residual = np.abs(compose(w[0]) - compose(w[-1])).max()
        if not residual <= 1e-10:           # a NaN residual fails too
            raise ValueError(
                f"loop endpoints differ on the group (residual {residual:.2e}); "
                "a closed loop must return to its starting element")
        object.__setattr__(self, "waypoints", w)

    def sample_points(self) -> np.ndarray:
        """All sample points along the path, shape (n_segments * m + 1, 8)."""
        w, m = self.waypoints, self.samples_per_segment
        frac = (np.arange(1, m + 1) / m)[:, None]
        segments = w[:-1, None] + frac * (w[1:] - w[:-1])[:, None]
        return np.concatenate((w[:1], segments.reshape(-1, 8)))

    def reversed(self) -> "LoopSpec":
        return LoopSpec(self.waypoints[::-1].copy(), self.samples_per_segment)


def connection(angles) -> np.ndarray:
    """Connection covector at a point, over (d alpha, ..., d phi)."""
    return _connection(_points(angles, one=True)[None], include_dphi=True)[0]


def _connection(points: np.ndarray, include_dphi: bool) -> np.ndarray:
    """Connection covectors of an (n, 8) batch, one row per point."""
    s2 = np.sin(points[:, _THETA]) ** 2
    cov = np.zeros_like(points)
    cov[:, _ALPHA] = s2 * np.cos(2 * points[:, _BETA])
    cov[:, _GAMMA] = s2
    if include_dphi:
        cov[:, _PHI] = _DPHI
    return cov


def curvature(angles) -> np.ndarray:
    """Antisymmetric matrix F of two-form components, F[i, j] = F_(xi, xj)."""
    p = _points(angles, one=True)
    f = np.zeros((8, 8))
    for i, j in ((_THETA, _ALPHA), (_BETA, _ALPHA), (_THETA, _GAMMA)):
        f[i, j] = _curvature_component(p[_THETA], p[_BETA], i, j)
    return f - f.T


def phase_connection(loop: LoopSpec, include_dphi: bool = False) -> float:
    """Line integral of the connection around a closed loop (radians).

    Composite trapezoid on each straight segment; the d phi term is dropped
    unless ``include_dphi`` (it cancels exactly on chart-closed loops).
    Not reduced modulo 2 pi.  Waypoints so far apart that the sum overflows
    raise ValueError.
    """
    pts = loop.sample_points()
    cov = _connection(pts, include_dphi)
    # integrand at t_k is cov . dp/dt; dp is constant per sampling step
    steps = pts[1:] - pts[:-1]
    vals = 0.5 * np.einsum('mk,mk->m', cov[:-1] + cov[1:], steps)
    return _finite(vals.sum, "the line integral over these waypoints")


def phase_pancharatnam(loop: LoopSpec) -> float:
    """Discrete overlap-chain phase around the loop (radians).

    Accumulates ``arg <psi_k | psi_k+1>`` along the sampled chain, whose
    closure term is included because the chart-closed loop repeats its
    first state exactly.  Each psi is built alone, in closed form from
    (alpha, beta, gamma, theta, phi), not read off a chart product, and
    equals ``states.psi_of`` of its sample bit for bit.  The constant-d phi
    part of the connection telescopes to zero on a closed loop and is
    removed explicitly, so the value converges (second order in the step)
    to :func:`phase_connection`.  Multiplying the chain by any smooth
    single-valued phase leaves the result unchanged.
    """
    pts = loop.sample_points()
    total = overlap_chain_phase(_evaluate(_psi, _psi_args, pts, 6).view(complex))
    dphi_term = _DPHI * float((pts[1:, _PHI] - pts[:-1, _PHI]).sum())
    return total - dphi_term


def _psi(cos, sin):
    """The six reals of psi = D[:, 2] from the cosines and sines of ``group._psi_args``."""
    return _psi_entries(*cos, *sin)[4:]


def overlap_chain_phase(psi: np.ndarray) -> float:
    """Accumulated ``arg <psi_k | psi_k+1>`` along a chain of unit vectors.

    The chain is expected to close (last state equal to the first up to an
    overall phase); multiplying the chain by smooth single-valued phases
    leaves the result invariant.  Consecutive states must overlap by 1e-6.
    States that are not numbers (``algebra._numbers``), and an overlap that
    is NaN or infinite, raise ValueError.
    """
    psi = _numbers(psi, "states")
    if psi.ndim != 2 or len(psi) < 2:
        raise ValueError(f"need an (m, k) array of at least 2 states, got shape {psi.shape}")
    overlaps = np.einsum('mk,mk->m', psi[:-1].conj(), psi[1:])   # inf where it overflows
    bad = np.flatnonzero(~np.isfinite(overlaps))
    if bad.size:
        raise ValueError(f"overlap of states {bad[0]} and {bad[0] + 1} is not finite")
    with np.errstate(over="ignore"):        # a modulus of finite parts may overflow
        small = float(np.abs(overlaps).min())
    if not small >= _MIN_OVERLAP:
        raise ValueError(
            f"consecutive states nearly orthogonal (|overlap| = {small:.2e}); "
            "increase samples_per_segment")
    return float(np.angle(overlaps).sum())


def phase_curvature(base, axes: tuple, bounds: tuple,
                    samples: tuple = (1024, 1024)) -> float:
    """Surface integral of the curvature over a coordinate rectangle.

    Parameters
    ----------
    base : EulerAngles or 8 reals
        Values of the six coordinates held fixed.
    axes : (name_or_index, name_or_index)
        Two different chart coordinates (names or integers 0..7) spanning
        the rectangle, e.g. ``("theta", "gamma")``.  Orientation follows the
        axis order.
    bounds : ((x0, x1), (y0, y1))
        Finite rectangle bounds along the two axes.
    samples : (nx, ny)
        Tensor-product trapezoid resolution, integers >= 1.

    Matches :func:`phase_connection` of the boundary loop
    ``_rectangle_corners(base, axes, bounds)``.  The curvature depends on
    theta and beta alone, and each nonzero component on at most one of the
    two axes, so it is evaluated on that axis only: O(nx + ny) work.  Bounds
    so wide that the quadrature overflows raise ValueError.
    """
    i, j = (_axis_index(ax) for ax in axes)
    if i == j:
        raise ValueError(f"axes must be two different coordinates, got {axes!r}")
    try:
        (x0, x1), (y0, y1) = bounds
        nx, ny = samples
        _points((x0, x1, y0, y1) * 2, one=True)     # the bounds are chart angles too
    except (TypeError, ValueError):
        raise ValueError(f"bounds must be two pairs of chart angles, samples two counts: "
                         f"{bounds!r}, {samples!r}") from None
    for n in samples:
        _check_count(n, "samples entries")
    point = list(_points(base, one=True))
    xs, ys = np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1)
    point[i], point[j] = xs[:, None], ys[None, :]
    f = np.atleast_2d(_curvature_component(point[_THETA], point[_BETA], i, j))
    wx, wy = _trapezoid_weights(xs), _trapezoid_weights(ys)
    # an axis the component does not vary along contributes its summed weights
    if f.shape[0] == 1:
        wx = wx.sum(keepdims=True)
    if f.shape[1] == 1:
        wy = wy.sum(keepdims=True)
    return _finite(lambda: wx @ f @ wy, "the curvature integral over these bounds")


def _finite(compute, what: str) -> float:
    """compute() as a float; ValueError, and no warning, where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(compute())
    if not np.isfinite(value):
        raise ValueError(f"{what} overflows")
    return value


def _rectangle_corners(base, axes: tuple, bounds: tuple) -> np.ndarray:
    """Closed 5-corner boundary of the coordinate rectangle through base,
    counterclockwise in the (axes[0], axes[1]) plane."""
    i, j = (_axis_index(ax) for ax in axes)
    (x0, x1), (y0, y1) = bounds
    corners = np.tile(_points(base, one=True), (5, 1))
    corners[:, i] = (x0, x1, x1, x0, x0)
    corners[:, j] = (y0, y0, y1, y1, y0)
    return corners


def _axis_index(ax) -> int:
    if isinstance(ax, str) and ax in ANGLE_NAMES:
        return ANGLE_NAMES.index(ax)
    if isinstance(ax, (int, np.integer)) and not isinstance(ax, bool) and 0 <= ax < 8:
        return int(ax)
    raise ValueError(f"axes entries must be coordinate names or integers in 0..7, got {ax!r}")


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.empty_like(x)
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    return w


def _curvature_component(theta, beta, i: int, j: int):
    """F[i, j] at chart points with these theta and beta (broadcast together)."""
    if i < j:
        return -_curvature_component(theta, beta, j, i)
    if (i, j) == (_THETA, _ALPHA):
        return np.sin(2 * theta) * np.cos(2 * beta)
    if (i, j) == (_BETA, _ALPHA):
        return -2.0 * np.sin(theta) ** 2 * np.sin(2 * beta)
    if (i, j) == (_THETA, _GAMMA):
        return np.sin(2 * theta)
    return 0.0
