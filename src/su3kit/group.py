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

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .algebra import IDENTITY3, LAMBDA, SQRT3, expand_hermitian

ANGLE_NAMES = ("alpha", "beta", "gamma", "theta", "a", "b", "c", "phi")

# generator of each factor of the product, in coordinate order
FACTOR_GENERATORS = (3, 2, 3, 5, 3, 2, 3, 8)

PHI_PERIOD = SQRT3 * np.pi

# canonical upper bounds per coordinate (lower bounds are all 0)
CANONICAL_HIGH = np.array([np.pi, np.pi / 2, 2 * np.pi, np.pi / 2,
                           np.pi, np.pi / 2, 2 * np.pi, PHI_PERIOD])

# Python-float constants for the decompose arithmetic
_SQRT3 = float(SQRT3)
_TAU = 2 * math.pi
_STRATUM_TOL = 1e-12        # magnitudes at or below this are exact zeros


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

    def is_canonical(self) -> bool:
        v = self.as_array()
        return bool(np.all(v >= 0) and np.all(v <= CANONICAL_HIGH))


def _haar_density(beta, theta, b):
    """Chart density sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta), elementwise."""
    s = np.sin(theta)
    return np.sin(2 * beta) * np.sin(2 * b) * np.sin(2 * theta) * (s * s)


def _check_finite(p: np.ndarray) -> None:
    """Raise ValueError if a chart point, or any row of an (n, 8) batch of
    them, holds a NaN or an infinity; for a batch, name the first bad row."""
    if p.ndim == 1:
        if not np.isfinite(p).all():
            raise ValueError("chart angles must be finite")
        return
    rows = np.flatnonzero(~np.isfinite(p).all(axis=1))
    if rows.size:
        raise ValueError(f"chart angles must be finite: row {rows[0]} is not")


def _angles_array(angles) -> np.ndarray:
    if isinstance(angles, EulerAngles):
        arr = angles.as_array()
    else:
        arr = np.asarray(angles, dtype=float)
        if arr.shape != (8,):
            raise ValueError("expected an EulerAngles or 8 reals")
    _check_finite(arr)
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
    return reduce(np.matmul, _factors(_angles_array(angles)[None])[:, 0])


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
    _check_finite(p)
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
            # the cast a mixed float x complex product would make, done once
            c, s = np.cos(t).astype(complex), np.sin(t).astype(complex)
            x = cols[0].copy()
            cols[0] = c * x - s * cols[j]
            cols[j] = s * x + c * cols[j]
    return cols.transpose(2, 1, 0).copy()


# The eight chart factors with the entries that do not depend on the angle:
# the zeros, and the 1 on the diagonal of each l3, l2 and l5 factor.
_FACTOR_TEMPLATE = np.zeros((8, 1, 3, 3), dtype=complex)
_FACTOR_TEMPLATE[[0, 1, 2, 4, 5, 6], 0, 2, 2] = 1.0
_FACTOR_TEMPLATE[3, 0, 1, 1] = 1.0
# The nine trig arguments of a point are t[_ARG_COORDS] * _ARG_MUL / _ARG_DIV:
# the l3 angles, the two l8 angles t / sqrt(3) and (-2 t) / sqrt(3) (the
# association exp_generator uses), then the l2, l2 and l5 rotation angles.
_ARG_COORDS = np.array([0, 2, 4, 6, 7, 7, 1, 5, 3])
_ARG_MUL = np.array([1.0, 1, 1, 1, 1, -2, 1, 1, 1])[:, None]
_ARG_DIV = np.array([1.0, 1, 1, 1, SQRT3, SQRT3, 1, 1, 1])[:, None]


def _factor_entries():
    """(factor, row, float column) of each entry _factors fills, and the row
    of ``[cos; sin; -sin]`` of the nine arguments that holds its value.

    An entry (r, c) of a complex 3x3 matrix is the floats (r, 2c) and
    (r, 2c + 1) of its float view: real and imaginary part.
    """
    entries = []
    cos, sin, nsin = 0, 9, 18

    def put(f, r, c, re, im=None):
        entries.append((f, r, 2 * c, re))
        if im is not None:
            entries.append((f, r, 2 * c + 1, im))

    for k, f in enumerate((0, 2, 4, 6)):         # l3: diag(w, conj(w), 1)
        put(f, 0, 0, cos + k, sin + k)
        put(f, 1, 1, cos + k, nsin + k)
    for r, k in ((0, 4), (1, 4), (2, 5)):       # l8: diag(w, w, w')
        put(7, r, r, cos + k, sin + k)
    for k, (f, j) in enumerate(((1, 1), (5, 1), (3, 2)), start=6):
        put(f, 0, 0, cos + k)                   # l2 and l5: rotation in the (0, j) plane
        put(f, 0, j, sin + k)
        put(f, j, 0, nsin + k)
        put(f, j, j, cos + k)
    return np.array(entries).T


*_FACTOR_SLOTS, _FACTOR_VALUES = _factor_entries()


def _factors(p: np.ndarray) -> np.ndarray:
    """The eight chart factors of each row of an (n, 8) array, as (8, n, 3, 3).

    ``_factors(p)[j, m]`` equals ``exp_generator(FACTOR_GENERATORS[j], p[m, j])``
    bit for bit, so stacked products of these factors reproduce the
    per-point matrix products exactly.
    """
    x = np.asarray(p, dtype=float).T[_ARG_COORDS] * _ARG_MUL / _ARG_DIV
    n = x.shape[1]
    trig = np.empty((3, 9, n))                  # cos, sin and -sin of the arguments
    np.cos(x, out=trig[0])
    np.negative(np.sin(x, out=trig[1]), out=trig[2])
    out = _FACTOR_TEMPLATE.copy() if n == 1 else np.repeat(_FACTOR_TEMPLATE, n, axis=1)
    fac, row, col = _FACTOR_SLOTS
    out.view(float)[fac, :, row, col] = trig.reshape(27, n)[_FACTOR_VALUES]
    return out


# Rows per block of _factor_blocks.  It bounds the memory of the factor
# stacks and of the products made from them at any batch size: a block's
# factors take 0.15 MB, and the cartan kernel on both sides about 1.8 MB.
_BLOCK = 128


def _factor_blocks(p: np.ndarray):
    """(first row, chart factors) of each block of ``_BLOCK`` rows of an
    (n, 8) array, the factors as :func:`_factors` returns them."""
    for i in range(0, len(p), _BLOCK):
        yield i, _factors(p[i:i + _BLOCK])


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def unitarity_residual(u: np.ndarray) -> float:
    """Largest entry of |u^dag u - 1|; NaN if u is not finite."""
    u = np.asarray(u, dtype=complex)
    if np.count_nonzero(np.isfinite(u)) < u.size:    # an inf would warn in the product
        return math.nan
    return float(np.abs(u.conj().T @ u - IDENTITY3).max())


def det_residual(u: np.ndarray) -> float:
    return float(abs(np.linalg.det(np.asarray(u, dtype=complex)) - 1.0))


def assert_group_element(u: np.ndarray, tol: float = 1e-12) -> None:
    """Raise ValueError naming the residual if u is not in SU(3) within tol.

    An (n, 3, 3) stack is checked matrix by matrix, and the message names
    the first bad row.  A NaN residual fails, as does any other that is not
    within tol.
    """
    u = np.asarray(u, dtype=complex)
    where = ""
    if u.ndim == 3:
        with np.errstate(invalid="ignore"):     # non-finite rows are reported below
            ru = np.abs(_dagger(u) @ u - IDENTITY3).max(axis=(1, 2))
            rd = np.abs(np.linalg.det(u) - 1.0)
        bad = np.flatnonzero(~((ru <= tol) & (rd <= tol)))
        if bad.size == 0:
            return
        ru, rd, where = ru[bad[0]], rd[bad[0]], f" at row {bad[0]}"
    else:
        ru = unitarity_residual(u)
    if not ru <= tol:
        raise ValueError(f"matrix{where} is not unitary: residual {ru:.3e} exceeds {tol:.1e}")
    if u.ndim == 2:
        rd = det_residual(u)
    if not rd <= tol:
        raise ValueError(f"determinant{where} differs from 1 by {rd:.3e} (tol {tol:.1e})")


def adjoint(g: np.ndarray) -> np.ndarray:
    """Adjoint-representation matrix R of a group element.

    ``R[i, j] = Tr(g l_i g^dag l_j) / 2`` so that ``g l_i g^dag = R[i, j] l_j``
    (row expansion).  R is real orthogonal with det +1, and the right
    invariant fields satisfy ``Lambda^r = R Lambda`` rowwise.  Under group
    multiplication this row convention composes in reverse order:
    ``adjoint(g @ h) = adjoint(h) @ adjoint(g)``.

    A (..., 3, 3) stack of elements gives the (..., 8, 8) stack of their R.
    """
    g = np.asarray(g, dtype=complex)[..., None, :, :]
    return expand_hermitian(g @ LAMBDA @ _dagger(g))


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


def _su2_angles(row: np.ndarray):
    """Euler angles of a 2x2 SU(2) block: u = e(i s3 a) e(i s2 b) e(i s3 c).

    ``row`` is the block's first row, which fixes all three.  Returns
    (a, b, c, flags) with a in [0, pi), b in [0, pi/2], c in [0, 2 pi).
    At the b = 0 or b = pi/2 strata only one phase combination is defined;
    the convention folds it into c and zeroes a.
    """
    z0, z1 = row.tolist()
    cb, sb = abs(z0), abs(z1)
    b, s2, d2 = np.arctan2([sb, z0.imag, z1.imag], [cb, z0.real, z1.real]).tolist()
    if sb <= _STRATUM_TOL:
        return 0.0, 0.0, s2 % _TAU, ["b=0"]
    if cb <= _STRATUM_TOL:
        return 0.0, math.pi / 2, (-d2) % _TAU, ["b=pi/2"]
    a = ((s2 + d2) / 2.0) % math.pi        # s2 = a + c, d2 = a - c
    c = (s2 - a) % _TAU
    return a, b, c, []


def decompose(u: np.ndarray, tol: float = 1e-8):
    """Chart coordinates of an SU(3) matrix (inverse of :func:`compose`).

    The third column fixes theta, beta, phi and the first SU(2) block;
    stripping those factors leaves an embedded U(2) element whose SU(2)
    part yields (a, b, c).  All angles land in the canonical ranges.

    Parameters
    ----------
    u : (3, 3) array_like, or an (n, 3, 3) stack
        Matrix satisfying the SU(3) invariants within ``tol``.
    tol : float
        Admission tolerance for unitarity / determinant of the input.

    Magnitudes at or below 1e-12 are treated as exact zeros; the affected
    angles are gauge on the corresponding degenerate stratum, get folded
    into their partners, and a flag is reported.

    Returns
    -------
    (angles, flags)
        ``angles`` reproduce u through :func:`compose` to near machine
        precision; ``flags`` lists the degenerate strata encountered
        (subset of ``theta=0, theta=pi/2, beta=0, beta=pi/2, b=0, b=pi/2``).
        For an (n, 3, 3) stack, ``angles`` is an (n, 8) array with columns
        in ``ANGLE_NAMES`` order and ``flags`` a list of n such lists.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (3, 3):
        raise ValueError("decompose expects a 3x3 matrix or an (n, 3, 3) stack")
    assert_group_element(u, tol)
    if u.ndim == 3:
        return _decompose_stack(u)
    # Python floats from here on, but the moduli of psi and every arctan2
    # stay numpy ufuncs (np.angle is arctan2(imag, real)): abs(), math.atan2
    # and cmath.phase differ from them in the last bit.
    flags: list[str] = []
    m1, m2, m3 = np.abs(u[:, 2]).tolist()
    psi = u[:, 2].tolist()
    stheta = abs(complex(m1, m2))           # libm hypot, as np.hypot
    theta, beta, arg0, arg1, arg2 = np.arctan2(
        [stheta, m2, psi[0].imag, -psi[1].imag, psi[2].imag],
        [m3, m1, psi[0].real, -psi[1].real, psi[2].real]).tolist()   # arg1 = arg(-psi[1])

    if stheta <= _STRATUM_TOL:
        # theta = 0: the whole left SU(2) block is gauge; fold into (a, b, c)
        theta = 0.0
        alpha = beta = gamma = 0.0
        flags.append("theta=0")
    else:
        if m3 <= _STRATUM_TOL:
            # theta = pi/2: phi is unseen by the third column; the (a, phi)
            # gauge direction lets the residual block absorb it
            theta = math.pi / 2
            phi_pre = 0.0
            flags.append("theta=pi/2")
        else:
            phi_pre = (_SQRT3 / 2.0) * ((-arg2) % _TAU)
        shift = 2.0 * phi_pre / _SQRT3
        if m2 <= _STRATUM_TOL:
            beta = 0.0
            alpha = 0.0
            gamma = (arg0 + shift) % _TAU
            flags.append("beta=0")
        elif m1 <= _STRATUM_TOL:
            beta = math.pi / 2
            alpha = 0.0
            gamma = (arg1 + shift) % _TAU
            flags.append("beta=pi/2")
        else:
            s1 = arg0 + shift                   # alpha + gamma
            d1 = -(arg1 + shift)                # alpha - gamma
            alpha = ((s1 + d1) / 2.0) % math.pi
            gamma = (s1 - alpha) % _TAU

    f = _factors(np.array([[alpha, beta, gamma, -theta, 0.0, 0.0, 0.0, 0.0]]))[:, 0]
    residual = f[3] @ _dagger(f[0] @ f[1] @ f[2]) @ u
    r22 = residual[2, 2]
    phi = (_SQRT3 / 2.0) * ((-float(np.arctan2(r22.imag, r22.real))) % _TAU)
    x = -phi / _SQRT3                       # exp(i x) equals np.exp(-1j * phi / SQRT3)
    a, b, c, block_flags = _su2_angles(residual[0, :2] * complex(math.cos(x), math.sin(x)))
    flags += block_flags

    angles = EulerAngles(alpha, beta, gamma, theta, a, b, c, phi)
    return angles, flags


def _decompose_stack(u: np.ndarray):
    """:func:`decompose` of an (n, 3, 3) stack of admitted matrices.

    The per-matrix arithmetic on whole columns: each stratum branch of the
    one-matrix code is a row mask, and the stripping products are stacked
    products of chart factors.
    """
    tau = 2 * np.pi
    psi = u[:, :, 2]
    m1, m2, m3 = np.abs(psi).T
    stheta = np.hypot(m1, m2)
    theta0 = stheta <= _STRATUM_TOL
    theta_half = ~theta0 & (m3 <= _STRATUM_TOL)
    beta0 = ~theta0 & (m2 <= _STRATUM_TOL)
    beta_half = ~theta0 & ~beta0 & (m1 <= _STRATUM_TOL)
    generic = ~(theta0 | beta0 | beta_half)

    theta = np.select([theta0, theta_half], [0.0, np.pi / 2], np.arctan2(stheta, m3))
    phi_pre = np.where(theta0 | theta_half, 0.0,
                       (SQRT3 / 2.0) * ((-np.angle(psi[:, 2])) % tau))
    shift = 2.0 * phi_pre / SQRT3
    s1 = np.angle(psi[:, 0]) + shift                # alpha + gamma
    d1 = np.angle(-psi[:, 1]) + shift               # gamma - alpha
    alpha = np.where(generic, ((s1 - d1) / 2.0) % np.pi, 0.0)
    gamma = np.select([generic, beta0, beta_half], [(s1 - alpha) % tau, s1 % tau, d1 % tau], 0.0)
    beta = np.select([theta0 | beta0, beta_half], [0.0, np.pi / 2], np.arctan2(m2, m1))

    zero = np.zeros_like(theta)
    residual = np.empty_like(u)
    for i, f in _factor_blocks(np.stack([alpha, beta, gamma, -theta, zero, zero, zero, zero], axis=1)):
        rows = slice(i, i + _BLOCK)
        residual[rows] = f[3] @ _dagger(f[0] @ f[1] @ f[2]) @ u[rows]
    phi = (SQRT3 / 2.0) * ((-np.angle(residual[:, 2, 2])) % tau)
    block = residual[:, :2, :2] * _cis(-phi / SQRT3)[:, None, None]

    cb = np.abs(block[:, 0, 0])
    sb = np.abs(block[:, 0, 1])
    b0 = sb <= _STRATUM_TOL
    b_half = ~b0 & (cb <= _STRATUM_TOL)
    s2 = np.angle(block[:, 0, 0])                   # a + c
    d2 = np.angle(block[:, 0, 1])                   # a - c
    a = np.where(b0 | b_half, 0.0, ((s2 + d2) / 2.0) % np.pi)
    c = np.select([b0, b_half], [s2 % tau, (-d2) % tau], (s2 - a) % tau)
    b = np.select([b0, b_half], [0.0, np.pi / 2], np.arctan2(sb, cb))

    flags: list[list[str]] = [[] for _ in range(len(u))]
    for name, rows in (("theta=0", theta0), ("theta=pi/2", theta_half), ("beta=0", beta0),
                       ("beta=pi/2", beta_half), ("b=0", b0), ("b=pi/2", b_half)):
        for i in np.flatnonzero(rows):
            flags[i].append(name)
    return np.stack([alpha, beta, gamma, theta, a, b, c, phi], axis=1), flags
