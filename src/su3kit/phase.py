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
zero anyway; pass ``include_dphi=True`` to keep it).  Both integrals are
exact, a few cosines a segment or rectangle.  A gauge-independent discrete
oracle computes the same phase, to second order in its step, as the
accumulated argument of the overlap chain <psi_k | psi_k+1> along the
sampled loop, its states evaluated by ``group._evaluate``.
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
    samples_per_segment : steps per segment of :func:`phase_pancharatnam`'s
        overlap chain, an integer >= 1.
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
    p = _points(angles, one=True)
    alpha, gamma = _mean_connection(p[_THETA], p[_BETA], 0.0, 0.0)
    return np.array([alpha, 0.0, gamma, 0.0, 0.0, 0.0, 0.0, _DPHI])


def _mean_connection(theta, beta, d_theta, d_beta):
    """(alpha, gamma) components of the connection averaged over a straight
    step with middle (theta, beta) that moves them by (d_theta, d_beta).
    sin^2 theta cos 2 beta = cos 2 beta / 2 - (cos(2 theta + 2 beta) +
    cos(2 theta - 2 beta)) / 4 and sin^2 theta = (1 - cos 2 theta) / 2, and a
    cosine c + k t over t in [-1/2, 1/2] averages cos(c) sinc(k / 2 pi); with
    cos 2 theta = 1 - 2 sin^2 theta the means keep sin^2 theta as sin(theta)
    squared, exact to a few ulp at a zero step however small theta is, and
    cos(2 theta +- 2 beta) splits into products, so no argument overflows."""
    s, s2t, c2b, s2b = np.sin(theta), np.sin(2 * theta), np.cos(2 * beta), np.sin(2 * beta)
    st, sb, sp, sm = np.sinc(
        np.array([d_theta, d_beta, d_theta + d_beta, d_theta - d_beta]) / np.pi)
    ss, mean = s * s, (sp + sm) / 2
    alpha = c2b * (sb - mean) / 2 + c2b * ss * mean + s2t * s2b * (sp - sm) / 4
    return alpha, (1 - st) / 2 + st * ss


def curvature(angles) -> np.ndarray:
    """Antisymmetric matrix F of two-form components, F[i, j] = F_(xi, xj)."""
    p = _points(angles, one=True)
    f = np.zeros((8, 8))
    for i, j in ((_THETA, _ALPHA), (_BETA, _ALPHA), (_THETA, _GAMMA)):
        f[i, j] = _curvature_component(p[_THETA], p[_BETA], i, j)
    return f - f.T


def phase_connection(loop: LoopSpec, include_dphi: bool = False) -> float:
    """Line integral of the connection around a closed loop (radians).

    Exact, whatever ``loop.samples_per_segment``: each segment adds its step
    dotted with the mean connection over it.  The d phi term is dropped
    unless ``include_dphi`` (it cancels exactly on chart-closed loops).  Not
    reduced modulo 2 pi.  Waypoints so far apart that a step's d theta +-
    d beta or the sum overflows raise ValueError.
    """
    w = loop.waypoints
    mid, step = ((w[:-1] + w[1:]) / 2).T, (w[1:] - w[:-1]).T
    with np.errstate(over="ignore", invalid="ignore"):      # refused by _finite, unwarned
        alpha, gamma = _mean_connection(mid[_THETA], mid[_BETA], step[_THETA], step[_BETA])
        dphi = _DPHI * step[_PHI] if include_dphi else 0.0
        total = (alpha * step[_ALPHA] + gamma * step[_GAMMA] + dphi).sum()
    return _finite(total, "the line integral over these waypoints")


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
        Integers >= 1, checked but no longer used.

    Matches :func:`phase_connection` of the boundary loop
    ``_rectangle_corners(base, axes, bounds)``.  Exact: each nonzero
    component is sin 2v, v theta or beta and an axis, times a factor constant
    on the rectangle, so the integral is the area times the component at the
    middle times sinc(dv / pi).  Bounds whose area overflows raise ValueError.
    """
    i, j = (_axis_index(ax) for ax in axes)
    if i == j:
        raise ValueError(f"axes must be two different coordinates, got {axes!r}")
    try:
        (x0, x1), (y0, y1) = bounds
        nx, ny = samples
        x0, x1, y0, y1 = _points((x0, x1, y0, y1) * 2, one=True)[:4]   # chart angles too
    except (TypeError, ValueError):
        raise ValueError(f"bounds must be two pairs of chart angles, samples two counts: "
                         f"{bounds!r}, {samples!r}") from None
    for n in samples:
        _check_count(n, "samples entries")
    point = list(_points(base, one=True))
    point[i], point[j] = (x0 + x1) / 2, (y0 + y1) / 2
    with np.errstate(over="ignore", invalid="ignore"):      # refused by _finite, unwarned
        value = (x1 - x0) * (y1 - y0) * _curvature_component(point[_THETA], point[_BETA], i, j)
        for k, d in ((i, x1 - x0), (j, y1 - y0)):
            if k in (_THETA, _BETA):
                value = value * np.sinc(d / np.pi)
    return _finite(value, "the curvature integral over these bounds")


def _finite(value, what: str) -> float:
    """value as a float, computed with overflow warnings off; ValueError
    where it is not finite."""
    if not np.isfinite(value):
        raise ValueError(f"{what} overflows")
    return float(value)


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
