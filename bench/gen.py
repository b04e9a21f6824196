"""Seeded input generators for the benchmark workloads.

Everything here depends on numpy alone, never on su3kit, so a change to the
library's own samplers (``sample_haar``, ``random_su3``) cannot change what
the benchmark feeds it.  The same seed gives identical inputs; each input
family draws from its own stream of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ANGLE_NAMES = ("alpha", "beta", "gamma", "theta", "a", "b", "c", "phi")
HALF_PI = np.pi / 2
PHI_PERIOD = np.sqrt(3.0) * np.pi
# canonical chart box, coordinates (alpha, beta, gamma, theta, a, b, c, phi)
BOX_HIGH = np.array([np.pi, HALF_PI, 2 * np.pi, HALF_PI,
                     np.pi, HALF_PI, 2 * np.pi, PHI_PERIOD])
# coordinates whose Haar-density factor vanishes at 0 and pi/2
STRATUM_COORDS = (1, 3, 5)          # beta, theta, b
INTERIOR_MARGIN = 0.05

N_POINTS = 1500
NEAR_SHARE = 0.05
MALFORMED_SHARE = 0.02

N_LOOPS = 24
LOOP_WAYPOINTS = 8
LOOP_SAMPLES = 10_000
N_RECTS = 24
RECT_SAMPLES = (2048, 64)
RECT_BOUNDARY_SAMPLES = 4096

_STREAMS = {"points": 1, "haar": 2, "loops": 3, "rects": 4}

INTERIOR, NEAR, MALFORMED = "interior", "near", "malformed"


def make_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent PCG64 stream per (seed, input family)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, _STREAMS[stream]])))


def chart_product(points: np.ndarray) -> np.ndarray:
    """Reference chart product D(p) for an (n, 8) array, shape (n, 3, 3).

    Written out from the chart's definition as the ordered product of the
    eight closed-form one-parameter factors; non-finite angles give
    non-finite matrices.
    """
    p = np.asarray(points, dtype=float)
    d = np.broadcast_to(np.eye(3, dtype=complex), (p.shape[0], 3, 3)).copy()
    with np.errstate(invalid="ignore"):
        for j, k in enumerate((3, 2, 3, 5, 3, 2, 3, 8)):
            t = p[:, j]
            f = np.zeros((p.shape[0], 3, 3), dtype=complex)
            if k == 3:
                f[:, 0, 0], f[:, 1, 1], f[:, 2, 2] = np.exp(1j * t), np.exp(-1j * t), 1.0
            elif k == 8:
                w = np.exp(1j * t / np.sqrt(3.0))
                f[:, 0, 0], f[:, 1, 1], f[:, 2, 2] = w, w, w.conj() ** 2
            else:
                lo, hi = (0, 1) if k == 2 else (0, 2)
                mid = 3 - lo - hi
                c, s = np.cos(t), np.sin(t)
                f[:, lo, lo], f[:, lo, hi], f[:, hi, lo], f[:, hi, hi] = c, s, -s, c
                f[:, mid, mid] = 1.0
            d = d @ f
    return d


def haar_density_closed(points: np.ndarray) -> np.ndarray:
    """sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta) per row."""
    p = np.asarray(points, dtype=float)
    return (np.sin(2 * p[:, 1]) * np.sin(2 * p[:, 5])
            * np.sin(2 * p[:, 3]) * np.sin(p[:, 3]) ** 2)


def haar_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-random SU(3) matrices: stacked QR of Ginibre matrices with the
    R-diagonal phase fix (Mezzadri 2007), then det scaled to 1."""
    z = (rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / 3.0)[:, None, None]


def interior_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points of the canonical box, INTERIOR_MARGIN away from every
    stratum of beta, theta and b."""
    low = np.zeros(8)
    high = BOX_HIGH.copy()
    for j in STRATUM_COORDS:
        low[j], high[j] = INTERIOR_MARGIN, HALF_PI - INTERIOR_MARGIN
    return low + rng.random((n, 8)) * (high - low)


@dataclass(frozen=True)
class PointInputs:
    """Inputs of one point_requests job, with their reference answers.

    ``points`` feed compose, frame and haar_density; ``matrices`` feed
    decompose; ``states`` (the reference chart product of each point) feed
    project.  ``kinds`` labels each row interior, near or malformed;
    ``stratum`` names the near coordinate and its distance to the stratum.
    """

    points: np.ndarray
    matrices: np.ndarray
    states: np.ndarray
    kinds: tuple
    stratum: tuple


def point_requests(seed: int, n: int = N_POINTS, near_share: float = NEAR_SHARE,
                   malformed_share: float = MALFORMED_SHARE) -> PointInputs:
    """Scalar-call inputs: interior points with independent Haar matrices, a
    near-stratum share at distance 1e-3 .. 1e-13 in beta, b or theta with
    ``u = D(p)``, and a malformed share with a non-finite angle and a
    non-finite or non-unitary matrix."""
    rng = make_rng(seed, "points")
    n_near = round(near_share * n)
    n_bad = round(malformed_share * n)
    kinds = np.array([NEAR] * n_near + [MALFORMED] * n_bad
                     + [INTERIOR] * (n - n_near - n_bad))
    rng.shuffle(kinds)
    points = interior_points(rng, n)
    matrices = haar_matrices(make_rng(seed, "haar"), n)
    stratum = [None] * n
    for i in np.flatnonzero(kinds == NEAR):
        j = STRATUM_COORDS[rng.integers(3)]
        dist = 10.0 ** rng.uniform(-13, -3)
        points[i, j] = dist if rng.random() < 0.5 else HALF_PI - dist
        stratum[i] = (j, dist)
    for i in np.flatnonzero(kinds == MALFORMED):
        points[i, rng.integers(8)] = rng.choice([np.nan, np.inf, -np.inf])
        if rng.random() < 0.5:
            matrices[i, rng.integers(3), rng.integers(3)] = rng.choice([np.nan, np.inf])
        else:
            matrices[i] *= 1.0 + 10.0 ** rng.uniform(-6, -2)
    states = chart_product(points)
    near = kinds == NEAR
    matrices[near] = states[near]
    return PointInputs(points=points, matrices=matrices, states=states,
                         kinds=tuple(kinds.tolist()), stratum=tuple(stratum))


def closed_loops(seed: int, n: int = N_LOOPS, m: int = LOOP_WAYPOINTS) -> np.ndarray:
    """n loops of m uniform box waypoints, each closed on the chart by
    repeating its first waypoint: shape (n, m + 1, 8)."""
    w = make_rng(seed, "loops").random((n, m, 8)) * BOX_HIGH
    return np.concatenate([w, w[:, :1]], axis=1)


@dataclass(frozen=True)
class Rectangle:
    """A (theta, gamma) coordinate rectangle at a fixed base point."""

    base: np.ndarray
    theta: tuple
    gamma: tuple

    def closed_form_phase(self) -> float:
        """(y1 - y0)(sin^2 x1 - sin^2 x0): the enclosed curvature flux."""
        (x0, x1), (y0, y1) = self.theta, self.gamma
        return (y1 - y0) * (np.sin(x1) ** 2 - np.sin(x0) ** 2)

    def boundary(self) -> np.ndarray:
        """Corner waypoints, counterclockwise in (theta, gamma), closed."""
        (x0, x1), (y0, y1) = self.theta, self.gamma
        corners = np.tile(self.base, (5, 1))
        corners[:, 3] = [x0, x1, x1, x0, x0]
        corners[:, 2] = [y0, y0, y1, y1, y0]
        return corners


def rectangles(seed: int, n: int = N_RECTS) -> list[Rectangle]:
    """n (theta, gamma) rectangles: theta from [0.05, 1.0] with width 0.1 ..
    0.5, gamma from [0, 2 pi) with width 0.2 .. 2, interior base points."""
    rng = make_rng(seed, "rects")
    out = []
    for base in interior_points(rng, n):
        x0 = rng.uniform(0.05, 1.0)
        y0 = rng.uniform(0.0, 2 * np.pi)
        out.append(Rectangle(base=base, theta=(x0, x0 + rng.uniform(0.1, 0.5)),
                             gamma=(y0, y0 + rng.uniform(0.2, 2.0))))
    return out
