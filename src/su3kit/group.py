"""SU(3) group elements in the eight-angle product-of-exponentials chart.

The chart is the ordered product

    D(alpha, beta, gamma, theta, a, b, c, phi) =
        exp(i l3 alpha) exp(i l2 beta) exp(i l3 gamma) exp(i l5 theta)
        exp(i l3 a)  exp(i l2 b)  exp(i l3 c)  exp(i l8 phi)

with ``l_k`` the Gell-Mann matrices.  Coordinates are always ordered
``(alpha, beta, gamma, theta, a, b, c, phi)``.

Canonical ranges (the fundamental domain used by :func:`decompose` and by
the Haar sampler)::

    alpha, a        in [0, pi)
    gamma, c        in [0, 2 pi)
    beta, b, theta  in [0, pi/2]
    phi             in [0, sqrt(3) pi)

With these ranges the chart covers SU(3) exactly once (up to the measure-zero
degenerate strata) and the push-forward of the product density
``sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta)`` is the normalized Haar
measure; this is verified by the orthogonality and translation-invariance
tests.  Note the doubled gamma and c ranges: the frequently quoted
``[0, pi)`` ranges for all four l3-angles leave the chart covering only a
quarter of the group and demonstrably break the orthogonality integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LAMBDA, SQRT3, expand_hermitian

ANGLE_NAMES = ("alpha", "beta", "gamma", "theta", "a", "b", "c", "phi")

# generator of each factor of the product, in coordinate order
FACTOR_GENERATORS = (3, 2, 3, 5, 3, 2, 3, 8)

PHI_PERIOD = SQRT3 * np.pi

# canonical upper bounds per coordinate (lower bounds are all 0)
CANONICAL_HIGH = np.array([np.pi, np.pi / 2, 2 * np.pi, np.pi / 2,
                           np.pi, np.pi / 2, 2 * np.pi, PHI_PERIOD])


@dataclass(frozen=True)
class EulerAngles:
    """Chart coordinates of an SU(3) element."""

    alpha: float
    beta: float
    gamma: float
    theta: float
    a: float
    b: float
    c: float
    phi: float

    @property
    def eta(self) -> float:
        """Rescaled eighth angle, eta = phi / sqrt(3)."""
        return self.phi / SQRT3

    @classmethod
    def from_array(cls, values) -> "EulerAngles":
        values = np.asarray(values, dtype=float)
        if values.shape != (8,):
            raise ValueError("EulerAngles.from_array expects 8 values")
        return cls(*values.tolist())

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.theta,
                         self.a, self.b, self.c, self.phi])

    def as_dict(self) -> dict:
        return dict(zip(ANGLE_NAMES, self.as_array().tolist()))

    def is_canonical(self, slack: float = 0.0) -> bool:
        v = self.as_array()
        return bool(np.all(v >= -slack) and np.all(v <= CANONICAL_HIGH + slack))


def _angles_array(angles) -> np.ndarray:
    if isinstance(angles, EulerAngles):
        return angles.as_array()
    arr = np.asarray(angles, dtype=float)
    if arr.shape != (8,):
        raise ValueError("expected an EulerAngles or 8 reals")
    return arr


def exp_generator(k: int, t: float) -> np.ndarray:
    """exp(i lambda_k t) in closed form.

    The four generators appearing in the chart (k = 2, 3, 5, 8) use explicit
    diagonal phases / planar rotation blocks; any other k goes through an
    eigendecomposition of the Hermitian generator.
    """
    c, s = np.cos(t), np.sin(t)
    if k == 3:
        return np.diag([np.exp(1j * t), np.exp(-1j * t), 1.0])
    if k == 8:
        w = np.exp(1j * t / SQRT3)
        return np.diag([w, w, np.exp(-2j * t / SQRT3)])
    if k == 2:
        return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    if k == 5:
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]], dtype=complex)
    if 1 <= k <= 8:
        evals, vecs = np.linalg.eigh(LAMBDA[k - 1])
        return (vecs * np.exp(1j * t * evals)) @ vecs.conj().T
    raise ValueError(f"generator index must be in 1..8, got {k}")


def compose(angles) -> np.ndarray:
    """Chart coordinates -> SU(3) matrix (the ordered 8-factor product)."""
    p = _angles_array(angles)
    d = exp_generator(FACTOR_GENERATORS[0], p[0])
    for g, t in zip(FACTOR_GENERATORS[1:], p[1:]):
        d = d @ exp_generator(g, t)
    return d


def _cis(t: np.ndarray) -> np.ndarray:
    """exp(i t) elementwise, equal bit for bit to the scalar np.exp(1j * t).

    The array form np.exp(1j * t / SQRT3) is not: it differs from the scalar
    one by up to an ulp, so every phase of a batch is built this way.
    """
    w = np.empty(np.shape(t), dtype=complex)
    w.real = np.cos(t)
    w.imag = np.sin(t)
    return w


def compose_batch(points: np.ndarray) -> np.ndarray:
    """Vectorized :func:`compose` for an (n, 8) array of chart points.

    Right-multiplying by a chart factor only touches columns: an l3 or l8
    factor scales them by phases, an l2 or l5 factor rotates two of them.
    The product is built factor by factor that way, with no 3x3 matmuls.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != 8:
        raise ValueError("compose_batch expects an (n, 8) array")
    cols = np.zeros((3, 3, len(p)), dtype=complex)     # cols[j, i, m] = D[m, i, j]
    w = _cis(p[:, 0])
    cols[0, 0], cols[1, 1], cols[2, 2] = w, w.conj(), 1.0
    for k, t in zip(FACTOR_GENERATORS[1:], p[:, 1:].T):
        if k == 3:
            w = _cis(t)
            cols[0] *= w
            cols[1] *= w.conj()
        elif k == 8:
            cols[:2] *= _cis(t / SQRT3)
            cols[2] *= _cis(-2 * t / SQRT3)
        else:
            j = 1 if k == 2 else 2
            c, s = np.cos(t), np.sin(t)
            x = cols[0].copy()
            cols[0] = c * x - s * cols[j]
            cols[j] = s * x + c * cols[j]
    return cols.transpose(2, 1, 0).copy()


def _factor_stack(k: int, t: np.ndarray) -> np.ndarray:
    """exp_generator(k, t_m) for each angle of a 1-D array t, as (n, 3, 3).

    The entries equal exp_generator's bit for bit, so a stacked product of
    these factors reproduces the per-point matrix products exactly.
    """
    out = np.zeros((len(t), 3, 3), dtype=complex)
    if k == 3:
        w = _cis(t)
        out[:, 0, 0], out[:, 1, 1], out[:, 2, 2] = w, w.conj(), 1.0
    elif k == 8:
        w = _cis(t / SQRT3)
        out[:, 0, 0], out[:, 1, 1], out[:, 2, 2] = w, w, _cis(-2 * t / SQRT3)
    elif k in (2, 5):
        j = 1 if k == 2 else 2
        c, s = np.cos(t), np.sin(t)
        out[:, 0, 0] = out[:, j, j] = c
        out[:, 0, j] = s
        out[:, j, 0] = -s
        out[:, 3 - j, 3 - j] = 1.0
    else:
        raise ValueError(f"generator {k} is not a chart factor")
    return out


def unitarity_residual(u: np.ndarray) -> float:
    u = np.asarray(u, dtype=complex)
    return float(np.abs(u.conj().T @ u - np.eye(3)).max())


def det_residual(u: np.ndarray) -> float:
    return float(abs(np.linalg.det(np.asarray(u, dtype=complex)) - 1.0))


def assert_group_element(u: np.ndarray, tol: float = 1e-12) -> None:
    """Raise ValueError naming the residual if u is not in SU(3) within tol."""
    ru = unitarity_residual(u)
    if ru > tol:
        raise ValueError(f"matrix is not unitary: residual {ru:.3e} exceeds {tol:.1e}")
    rd = det_residual(u)
    if rd > tol:
        raise ValueError(f"determinant differs from 1 by {rd:.3e} (tol {tol:.1e})")


def adjoint(g: np.ndarray) -> np.ndarray:
    """Adjoint-representation matrix R of a group element.

    ``R[i, j] = Tr(g l_i g^dag l_j) / 2`` so that ``g l_i g^dag = R[i, j] l_j``
    (row expansion).  R is real orthogonal with det +1, and the right
    invariant fields satisfy ``Lambda^r = R Lambda`` rowwise.  Under group
    multiplication this row convention composes in reverse order:
    ``adjoint(g @ h) = adjoint(h) @ adjoint(g)``.
    """
    g = np.asarray(g, dtype=complex)
    r = np.empty((8, 8))
    gd = g.conj().T
    for i in range(8):
        r[i] = expand_hermitian(g @ LAMBDA[i] @ gd)
    return r


def random_su3(n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random SU(3) matrices via QR of complex Ginibre matrices.

    One stacked QR; the R-diagonal phases are divided out of Q (Mezzadri,
    Notices AMS 54, 592, 2007) and the determinant is then scaled to 1.
    Independent of the Euler chart; used as an oracle for round-trip and
    measure tests.
    """
    z = (rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=1, axis2=2)
    q = q * (ph / np.abs(ph)).conj()[:, None, :]
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / 3.0)[:, None, None]


def _su2_angles(u: np.ndarray, stratum_tol: float):
    """Euler angles of a 2x2 SU(2) block: u = e(i s3 a) e(i s2 b) e(i s3 c).

    Returns (a, b, c, flags) with a in [0, pi), b in [0, pi/2], c in [0, 2 pi).
    At the b = 0 or b = pi/2 strata only one phase combination is defined;
    the convention folds it into c and zeroes a.
    """
    cb = abs(u[0, 0])
    sb = abs(u[0, 1])
    b = float(np.arctan2(sb, cb))
    if sb <= stratum_tol:
        return 0.0, 0.0, float(np.angle(u[0, 0]) % (2 * np.pi)), ["b=0"]
    if cb <= stratum_tol:
        return 0.0, np.pi / 2, float((-np.angle(u[0, 1])) % (2 * np.pi)), ["b=pi/2"]
    s2 = np.angle(u[0, 0])   # a + c
    d2 = np.angle(u[0, 1])   # a - c
    a = float(((s2 + d2) / 2.0) % np.pi)
    c = float((s2 - a) % (2 * np.pi))
    return a, b, c, []


def decompose(u: np.ndarray, tol: float = 1e-8,
              stratum_tol: float = 1e-12) -> tuple[EulerAngles, list[str]]:
    """Chart coordinates of an SU(3) matrix (inverse of :func:`compose`).

    The third column fixes theta, beta, phi and the first SU(2) block;
    stripping those factors leaves an embedded U(2) element whose SU(2)
    part yields (a, b, c).  All angles land in the canonical ranges.

    Parameters
    ----------
    u : (3, 3) array_like
        Matrix satisfying the SU(3) invariants within ``tol``.
    tol : float
        Admission tolerance for unitarity / determinant of the input.
    stratum_tol : float
        Magnitudes below this are treated as exact zeros; the affected
        angles are gauge on the corresponding degenerate stratum, get
        folded into their partners, and a flag is reported.

    Returns
    -------
    (angles, flags)
        ``angles`` reproduce u through :func:`compose` to near machine
        precision; ``flags`` lists the degenerate strata encountered
        (subset of ``theta=0, theta=pi/2, beta=0, beta=pi/2, b=0, b=pi/2``).
    """
    u = np.asarray(u, dtype=complex)
    assert_group_element(u, tol)
    flags: list[str] = []

    psi = u[:, 2]
    m1, m2, m3 = np.abs(psi)
    stheta = np.hypot(m1, m2)
    theta = float(np.arctan2(stheta, m3))

    if stheta <= stratum_tol:
        # theta = 0: the whole left SU(2) block is gauge; fold into (a, b, c)
        theta = 0.0
        alpha = beta = gamma = 0.0
        flags.append("theta=0")
    else:
        if m3 <= stratum_tol:
            # theta = pi/2: phi is unseen by the third column; the (a, phi)
            # gauge direction lets the residual block absorb it
            theta = np.pi / 2
            phi_pre = 0.0
            flags.append("theta=pi/2")
        else:
            phi_pre = (SQRT3 / 2.0) * ((-np.angle(psi[2])) % (2 * np.pi))
        shift = 2.0 * phi_pre / SQRT3
        beta = float(np.arctan2(m2, m1))
        if m2 <= stratum_tol:
            beta = 0.0
            alpha = 0.0
            gamma = float((np.angle(psi[0]) + shift) % (2 * np.pi))
            flags.append("beta=0")
        elif m1 <= stratum_tol:
            beta = np.pi / 2
            alpha = 0.0
            gamma = float((np.angle(-psi[1]) + shift) % (2 * np.pi))
            flags.append("beta=pi/2")
        else:
            s1 = np.angle(psi[0]) + shift            # alpha + gamma
            d1 = -(np.angle(-psi[1]) + shift)        # alpha - gamma
            alpha = float(((s1 + d1) / 2.0) % np.pi)
            gamma = float((s1 - alpha) % (2 * np.pi))

    left = (exp_generator(3, alpha) @ exp_generator(2, beta) @ exp_generator(3, gamma))
    residual = exp_generator(5, -theta) @ left.conj().T @ u
    phi = float((SQRT3 / 2.0) * ((-np.angle(residual[2, 2])) % (2 * np.pi)))
    block = residual[:2, :2] * np.exp(-1j * phi / SQRT3)
    a, b, c, block_flags = _su2_angles(block, stratum_tol)
    flags += block_flags

    angles = EulerAngles(alpha, beta, gamma, theta, a, b, c, phi)
    return angles, flags
