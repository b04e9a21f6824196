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
overlap chain <psi_k | psi_k+1> around the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SQRT3
from .group import ANGLE_NAMES, _angles_array, _check_finite, compose_batch

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
        w = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        if w.shape[0] < 2 or w.shape[1] != 8:
            raise ValueError("LoopSpec needs at least 2 waypoints of 8 angles")
        _check_finite(w)
        m = self.samples_per_segment
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise ValueError(f"samples_per_segment must be an integer, got {m!r}")
        if m < 1:
            raise ValueError("samples_per_segment must be >= 1")
        ends = compose_batch(w[[0, -1]])
        residual = np.abs(ends[0] - ends[1]).max()
        if residual > 1e-10:
            raise ValueError(
                f"loop endpoints differ on the group (residual {residual:.2e}); "
                "a closed loop must return to its starting element")
        object.__setattr__(self, "waypoints", w)

    def sample_points(self) -> np.ndarray:
        """All sample points along the path, shape (n_segments * m + 1, 8)."""
        pts = [self.waypoints[:1]]
        m = self.samples_per_segment
        frac = (np.arange(1, m + 1) / m)[:, None]
        for k in range(len(self.waypoints) - 1):
            seg = self.waypoints[k] + frac * (self.waypoints[k + 1] - self.waypoints[k])
            pts.append(seg)
        return np.vstack(pts)

    def reversed(self) -> "LoopSpec":
        return LoopSpec(self.waypoints[::-1].copy(), self.samples_per_segment)


def connection(angles) -> np.ndarray:
    """Connection covector at a point, over (d alpha, ..., d phi)."""
    return _connection(_angles_array(angles)[None], include_dphi=True)[0]


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
    p = _angles_array(angles)[None]
    f = np.zeros((8, 8))
    for i, j in ((_THETA, _ALPHA), (_BETA, _ALPHA), (_THETA, _GAMMA)):
        f[i, j] = _curvature_component(p, i, j)[0]
    return f - f.T


def phase_connection(loop: LoopSpec, include_dphi: bool = False) -> float:
    """Line integral of the connection around a closed loop (radians).

    Composite trapezoid on each straight segment; the d phi term is dropped
    unless ``include_dphi`` (it cancels exactly on chart-closed loops).
    Not reduced modulo 2 pi.
    """
    pts = loop.sample_points()
    cov = _connection(pts, include_dphi)
    # integrand at t_k is cov . dp/dt; dp is constant per sampling step
    steps = pts[1:] - pts[:-1]
    vals = 0.5 * np.einsum('mk,mk->m', cov[:-1] + cov[1:], steps)
    return float(vals.sum())


def phase_pancharatnam(loop: LoopSpec) -> float:
    """Discrete overlap-chain phase around the loop (radians).

    Accumulates ``arg <psi_k | psi_k+1>`` along the sampled chain, whose
    closure term is included because the chart-closed loop repeats its
    first state exactly.  The constant-d phi part of the connection
    telescopes to zero on a closed loop and is removed explicitly, so the
    value converges (second order in the step) to :func:`phase_connection`.
    Multiplying the chain by any smooth single-valued phase leaves the
    result unchanged.
    """
    pts = loop.sample_points()
    psi = compose_batch(pts)[:, :, 2]
    total = overlap_chain_phase(psi)
    dphi_term = _DPHI * float((pts[1:, _PHI] - pts[:-1, _PHI]).sum())
    return total - dphi_term


def overlap_chain_phase(psi: np.ndarray) -> float:
    """Accumulated ``arg <psi_k | psi_k+1>`` along a chain of unit vectors.

    The chain is expected to close (last state equal to the first up to an
    overall phase); multiplying the chain by smooth single-valued phases
    leaves the result invariant.  Consecutive states must overlap by 1e-6.
    """
    psi = np.asarray(psi, dtype=complex)
    overlaps = np.einsum('mk,mk->m', psi[:-1].conj(), psi[1:])
    small = float(np.abs(overlaps).min())
    if small < _MIN_OVERLAP:
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
        The two chart coordinates spanning the rectangle, e.g.
        ``("theta", "gamma")``.  Orientation follows the axis order.
    bounds : ((x0, x1), (y0, y1))
        Rectangle bounds along the two axes.
    samples : (nx, ny)
        Tensor-product trapezoid resolution.

    Matches :func:`phase_connection` of the rectangle's boundary loop,
    traversed counterclockwise in the (axes[0], axes[1]) plane.
    """
    i, j = (_axis_index(ax) for ax in axes)
    (x0, x1), (y0, y1) = bounds
    nx, ny = samples
    if min(nx, ny) < 1:
        raise ValueError("samples entries must be >= 1")
    base = _angles_array(base)
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    grid = np.tile(base, (xs.size * ys.size, 1))
    grid[:, i] = np.repeat(xs, ys.size)
    grid[:, j] = np.tile(ys, xs.size)
    f = _curvature_component(grid, i, j).reshape(xs.size, ys.size)
    wx = _trapezoid_weights(xs)
    wy = _trapezoid_weights(ys)
    return float(wx @ f @ wy)


def _axis_index(ax) -> int:
    if isinstance(ax, str):
        try:
            return ANGLE_NAMES.index(ax)
        except ValueError:
            raise ValueError(f"unknown chart coordinate {ax!r}") from None
    ax = int(ax)
    if not 0 <= ax < 8:
        raise ValueError("coordinate index out of range")
    return ax


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.empty_like(x)
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    return w


def _curvature_component(points: np.ndarray, i: int, j: int) -> np.ndarray:
    """F[i, j] at each point of an (n, 8) batch."""
    if i < j:
        return -_curvature_component(points, j, i)
    th, be = points[:, _THETA], points[:, _BETA]
    if (i, j) == (_THETA, _ALPHA):
        return np.sin(2 * th) * np.cos(2 * be)
    if (i, j) == (_BETA, _ALPHA):
        return -2.0 * np.sin(th) ** 2 * np.sin(2 * be)
    if (i, j) == (_THETA, _GAMMA):
        return np.sin(2 * th)
    return np.zeros(len(points))
