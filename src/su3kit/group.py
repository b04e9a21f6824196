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

Each chart formula (trig arguments, SU(2) block, chart product and its
third column psi, and the stripping and two angle stages of ``decompose``)
is written once, in real products and sums in a fixed order, and runs on
Python floats for one point or matrix and on numpy columns for a batch
(of chart points, by ``_evaluate``), with the same bits.  A complex product
would not: numpy's fuses a multiply and an add where CPython's does not.
``decompose``'s stratum conventions live in its one-matrix path.

Every function of the package that takes chart points reads them with
``_points``, which refuses complex, non-numeric, mis-shaped and non-finite
angles, and magnitudes above half the largest float: -2 phi in the chart
product and 2 beta, 2 theta and 2 b in the densities must not overflow.
Every function that takes matrices reads them with ``algebra._matrices``,
which refuses other shapes, ragged input and values that are not numbers;
each then judges NaN and infinite entries as it documents.
"""

from __future__ import annotations

import cmath
import math
import numbers
from typing import NamedTuple

import numpy as np

from .algebra import LAMBDA, SQRT3, _hermitian_coeffs, _matrices

ANGLE_NAMES = ("alpha", "beta", "gamma", "theta", "a", "b", "c", "phi")

# generator of each factor of the product, in coordinate order
FACTOR_GENERATORS = (3, 2, 3, 5, 3, 2, 3, 8)

PHI_PERIOD = SQRT3 * np.pi

# canonical upper bounds per coordinate (lower bounds are all 0), excluded where _HALF_OPEN
CANONICAL_HIGH = np.array([np.pi, np.pi / 2, 2 * np.pi, np.pi / 2,
                           np.pi, np.pi / 2, 2 * np.pi, PHI_PERIOD])
_HALF_OPEN = np.array([True, False, True, False, True, False, True, True])

# Python-float constants for the decompose arithmetic
_SQRT3 = float(SQRT3)
_TAU = 2 * math.pi
_STRATUM_TOL = 1e-12        # magnitudes at or below this are exact zeros

_ANGLE_MAX = np.finfo(float).max / 2
_TOO_LARGE = f"chart angles must be at most {_ANGLE_MAX:.6g} in magnitude"


class EulerAngles(NamedTuple):
    """Chart coordinates of an SU(3) element, a tuple of eight floats."""

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
        return cls(*_points(values, one=True).tolist())

    def as_array(self) -> np.ndarray:
        return np.array(self)

    def as_dict(self) -> dict:
        return dict(zip(ANGLE_NAMES, self.as_array().tolist()))

    def is_canonical(self) -> bool:
        v = self.as_array()
        return bool(np.all(v >= 0) and np.all(np.where(_HALF_OPEN, v < CANONICAL_HIGH,
                                                        v <= CANONICAL_HIGH)))


def _haar_density(beta, theta, b):
    """Chart density sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta), elementwise."""
    s = np.sin(theta)
    return np.sin(2 * beta) * np.sin(2 * b) * np.sin(2 * theta) * (s * s)


def _check_count(n, name: str, least: int = 1) -> None:
    """Raise ValueError unless n is an integer >= least (a bool is not one)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"need {name} >= {least}")


def _check_seed(seed) -> None:
    """Raise ValueError unless seed is an integer (not a bool) in [0, 2**128):
    a seed keys a Philox stream, whose key is a 128-bit unsigned integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")


def _points(angles, one: bool = False) -> np.ndarray:
    """Chart angles as floats, (8,) for one point or (n, 8) for a batch (not
    if ``one``): the only parser of chart points.  Any other shape, values
    that are not real numbers, and a NaN, an infinity or a magnitude above
    ``_ANGLE_MAX`` raise ValueError, naming the first bad row of a batch."""
    try:
        p = np.asarray(angles)
    except (TypeError, ValueError) as exc:          # e.g. a ragged sequence
        raise ValueError(f"chart angles must be an array of reals: {exc}") from None
    if p.shape != (8,) and (one or p.ndim != 2 or p.shape[1] != 8):
        want = "8 reals" if one else "8 reals or an (n, 8) array of them"
        raise ValueError(f"expected chart angles as {want}, got shape {p.shape}")
    if p.dtype.char != "d":
        kind = p.dtype.kind
        if kind not in "biufO" or kind == "O" and not all(isinstance(x, numbers.Real) for x in p.flat):
            raise ValueError(f"chart angles must be real numbers, not of dtype {p.dtype}")
        try:
            with np.errstate(over="raise"):     # a long double beyond a float's range
                p = p.astype(float)
        except (OverflowError, FloatingPointError):     # or an int
            raise ValueError(_TOO_LARGE) from None
    # a norm within bounds clears one point cheaply; a NaN or an infinity fails it
    if p.ndim == 2 or not math.hypot(*p.tolist()) <= _ANGLE_MAX:
        rows = p.reshape(-1, 8)
        bad = np.flatnonzero(~(np.abs(rows) <= _ANGLE_MAX).all(axis=1))
        if bad.size:
            where = f": row {bad[0]} is not" if p.ndim == 2 else ""
            finite = np.isfinite(rows[bad[0]]).all()
            raise ValueError((_TOO_LARGE if finite else "chart angles must be finite") + where)
    return p


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


def _chart_args(alpha, beta, gamma, theta, a, b, c, phi):
    """The nine trig arguments of a point, as floats or columns: the l3 angles,
    the l8 angles phi / sqrt 3 and (-2 phi) / sqrt 3 (as exp_generator
    associates them), then the l2, l2 and l5 rotation angles."""
    return alpha, gamma, a, c, phi / _SQRT3, -2 * phi / _SQRT3, beta, b, theta


def _cos_sin(values):
    """Cosines and sines of (lists of) Python floats as two such lists, by numpy's
    ufuncs: the bits of the column path, which math.cos and math.sin may miss."""
    x = np.array(values)
    return np.cos(x).tolist(), np.sin(x).tolist()


# Rows per block of _evaluate: it bounds a kernel's temporaries at any batch size.
_BLOCK = 2048
# Fewer rows go one by one on Python floats: ~19 us a row of b and c, ~220 us for 12 on columns.
_COLUMNS_FROM = 12


def _evaluate(kernel, args, points: np.ndarray, width: int) -> np.ndarray:
    """(n, width) floats, row k ``kernel(cos, sin)`` of the cosines and sines of
    ``args(*points[k])`` for (n, 8) chart points: ``_BLOCK`` rows at a time, one
    by one on Python floats below ``_COLUMNS_FROM`` rows, else on columns (same bits)."""
    out = np.empty((len(points), width))
    for i in range(0, len(points), _BLOCK):
        rows, block = points[i:i + _BLOCK], out[i:i + _BLOCK]
        if len(rows) < _COLUMNS_FROM:
            block[...] = [kernel(*_cos_sin(args(*row))) for row in rows.tolist()]
        else:
            x = np.array(args(*rows.T))
            _fill(block, kernel(np.cos(x), np.sin(x)))
    return out


def _fill(out: np.ndarray, entries) -> None:
    """Write entry j, a column or a constant, into column j of out."""
    for column, value in zip(out.T, entries):
        column[...] = value


def _su2_entries(cx, sx, cy, sy, cz, sz):
    """Re A, Im A, Re B, Im B of exp(i l3 x) exp(i l2 y) exp(i l3 z) = [[A, B], [-B*, A*]]."""
    p, q, r, t = cx * cz, sx * sz, sx * cz, cx * sz
    return cy * (p - q), cy * (r + t), sy * (p + q), sy * (r - t)


def _psi_args(alpha, beta, gamma, theta, a, b, c, phi):
    """The five trig arguments of psi = D[:, 2], as floats or columns: alpha,
    gamma, (-2 phi) / sqrt 3, beta and theta, as :func:`_chart_args` gives them."""
    x = _chart_args(alpha, beta, gamma, theta, a, b, c, phi)
    return x[0], x[1], x[5], x[6], x[8]


def _psi_entries(cal, cga, cv, cbe, cth, sal, sga, sv, sbe, sth):
    """The :func:`_su2_entries` block (Re A, Im A, Re B, Im B), then
    psi = D[:, 2] = e^(-2i phi / sqrt 3) (sin(theta) A, -sin(theta) B*, cos(theta))
    as the six reals of its float view, one flat tuple.

    The arguments are the cosines, then the sines, of the five
    :func:`_psi_args`; Python floats give one point and columns a batch,
    with the bits of :func:`_chart_entries`, whose third column this is.
    (Flat arguments and result: packing them costs one-point ``compose``
    ~0.5 us in a sequence of calls.)
    """
    ar, ai, br, bi = _su2_entries(cal, sal, cbe, sbe, cga, sga)
    n0r, n0i, n1r, n1i = sth * ar, sth * ai, -sth * br, sth * bi
    return (ar, ai, br, bi, n0r * cv - n0i * sv, n0r * sv + n0i * cv,
            n1r * cv - n1i * sv, n1r * sv + n1i * cv, cth * cv, cth * sv)


def _chart_entries(cos, sin):
    """The chart product D as the 18 reals of its float view, row by row.

    ``cos`` and ``sin`` hold those of the nine :func:`_chart_args`; Python
    floats give one matrix and columns a batch.  The factors left of
    exp(i l5 theta) are the :func:`_su2_entries` block [[A, B], [-B*, A*]],
    A = cos(beta) e^(i (alpha + gamma)), B = sin(beta) e^(i (alpha - gamma));
    those right of it [[E, G], [-H, F]] with E, F = cos(b) e^(+-i (a + c)) w
    and G, H = sin(b) e^(+-i (a - c)) w, w = e^(i phi / sqrt 3), and
    e^(-2i phi / sqrt 3).  The third column is :func:`_psi_entries`.
    """
    cal, cga, ca, cc, cw, cv, cbe, cb, cth = cos
    sal, sga, sa, sc, sw, sv, sbe, sb, sth = sin
    ar, ai, br, bi, p0r, p0i, p1r, p1i, p2r, p2i = _psi_entries(
        cal, cga, cv, cbe, cth, sal, sga, sv, sbe, sth)
    x, y, z, t = ca * cc, sa * sc, sa * cc, ca * sc
    pr, pi, qr, qi = x - y, z + t, x + y, z - t             # e^(i (a + c)), e^(i (a - c))
    wr, wi = cb * cw, cb * sw
    x, y, z, t = pr * wr, pi * wi, pr * wi, pi * wr
    er, ei, fr, fi = x - y, z + t, x + y, z - t
    wr, wi = sb * cw, sb * sw
    x, y, z, t = qr * wr, qi * wi, qr * wi, qi * wr
    gr, gi, hr, hi = x - y, z + t, x + y, z - t
    # exp(i l5 theta) mixes the columns: rows (cos(theta) A, B, sin(theta) A),
    # (-cos(theta) B*, A*, -sin(theta) B*) and (-sin(theta), 0, cos(theta))
    nst = -sth
    m0r, m0i, m1r, m1i = cth * ar, cth * ai, -cth * br, cth * bi
    return ((m0r * er - m0i * ei) - (br * hr - bi * hi), (m0r * ei + m0i * er) - (br * hi + bi * hr),
            (m0r * gr - m0i * gi) + (br * fr - bi * fi), (m0r * gi + m0i * gr) + (br * fi + bi * fr),
            p0r, p0i,
            (m1r * er - m1i * ei) - (ar * hr + ai * hi), (m1r * ei + m1i * er) - (ar * hi - ai * hr),
            (m1r * gr - m1i * gi) + (ar * fr + ai * fi), (m1r * gi + m1i * gr) + (ar * fi - ai * fr),
            p1r, p1i,
            nst * er, nst * ei, nst * gr, nst * gi, p2r, p2i)


def compose(angles) -> np.ndarray:
    """Chart coordinates -> SU(3) matrix (the ordered 8-factor product), in
    closed form (:func:`_chart_entries` on Python floats)."""
    cos, sin = _cos_sin(_chart_args(*_points(angles, one=True).tolist()))
    return np.array(_chart_entries(cos, sin)).view(complex).reshape(3, 3)


def compose_batch(points: np.ndarray) -> np.ndarray:
    """Vectorized :func:`compose` for an (n, 8) array of chart points, by
    :func:`_evaluate`: row k equals ``compose(points[k])`` bit for bit."""
    p = _points(points)
    if p.ndim != 2:
        raise ValueError("compose_batch expects an (n, 8) array")
    return _evaluate(_chart_entries, _chart_args, p, 18).view(complex).reshape(-1, 3, 3)


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _cabs(z: complex) -> float:
    """abs(z), or inf where the modulus of a finite z overflows (abs raises)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _gram_minus_one(rows):
    """The six entries of u^dag u - 1 on and above its diagonal, u given by
    its rows of Python complex numbers or of numpy complex columns."""
    (a, b, c), (d, e, f), (g, h, k) = rows
    a_, d_, g_ = a.conjugate(), d.conjugate(), g.conjugate()
    b_, e_, h_ = b.conjugate(), e.conjugate(), h.conjugate()
    return (a_ * a + d_ * d + g_ * g - 1.0, b_ * b + e_ * e + h_ * h - 1.0,
            c.conjugate() * c + f.conjugate() * f + k.conjugate() * k - 1.0,
            a_ * b + d_ * e + g_ * h, a_ * c + d_ * f + g_ * k, b_ * c + e_ * f + h_ * k)


def _det_minus_one(rows):
    """det u - 1 by cofactors of the first row, u given as in :func:`_gram_minus_one`."""
    (a, b, c), (d, e, f), (g, h, k) = rows
    return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g) - 1.0


def unitarity_residual(u: np.ndarray) -> float:
    """Largest entry of |u^dag u - 1| of a 3x3 matrix; NaN if u is not finite.

    Python complex arithmetic on the six entries of the Hermitian u^dag u
    on and above its diagonal; an entry that overflows makes the residual
    inf or NaN, never a warning.
    """
    return _unitarity(_matrices(u, one=True).tolist())


def _unitarity(rows) -> float:
    """:func:`unitarity_residual` of a matrix given as rows of Python complex numbers."""
    if not all(map(cmath.isfinite, rows[0] + rows[1] + rows[2])):
        return math.nan
    res = list(map(_cabs, _gram_minus_one(rows)))
    return math.nan if any(map(math.isnan, res)) else max(res)   # max() may drop a NaN


def det_residual(u: np.ndarray) -> float:
    """|det u - 1| of a 3x3 matrix, the determinant by cofactors of its first row."""
    return _cabs(_det_minus_one(_matrices(u, one=True).tolist()))


def assert_group_element(u: np.ndarray, tol: float = 1e-12) -> None:
    """Raise ValueError naming the residual if u is not in SU(3) within tol.

    An (n, 3, 3) stack is checked matrix by matrix, with the one-matrix
    formulas on numpy columns, and the message names the first bad row.  A
    NaN residual fails, as does any other that is not within tol.  A tol
    that is not finite and >= 0 raises ValueError.
    """
    _check_element(_matrices(u), tol)


def _check_element(u: np.ndarray, tol: float) -> None:
    """:func:`assert_group_element` of a (..., 3, 3) complex array."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if u.ndim > 3:
        raise ValueError(f"expected a 3x3 matrix or an (n, 3, 3) stack, got shape {u.shape}")
    where = ""
    if u.ndim == 3:
        cols = u.transpose(1, 2, 0)         # cols[i][k] is u[:, i, k]
        # non-finite or overflowing rows are reported below
        with np.errstate(invalid="ignore", over="ignore"):
            ru = np.abs(np.stack(_gram_minus_one(cols))).max(axis=0)
            rd = np.abs(_det_minus_one(cols))
        bad = np.flatnonzero(~((ru <= tol) & (rd <= tol)))
        if bad.size == 0:
            return
        ru, rd, where = ru[bad[0]], rd[bad[0]], f" at row {bad[0]}"
    else:
        rows = u.tolist()
        ru, rd = _unitarity(rows), _cabs(_det_minus_one(rows))
    if not ru <= tol:
        raise ValueError(f"matrix{where} is not unitary: residual {ru:.3e} exceeds {tol:.1e}")
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
    Anything else, and a matrix with an entry that is not finite or exceeds
    1e150 in modulus, raise ValueError (see :func:`_check_bounded`).
    """
    g = _matrices(g)
    _check_bounded(g)
    g = g[..., None, :, :]
    return _hermitian_coeffs(g @ LAMBDA @ _dagger(g))


_ENTRY_MAX = 1e150      # products of two entries, and sums of a few dozen, stay finite


def _check_bounded(g: np.ndarray) -> None:
    """Raise ValueError unless every entry of a (..., 3, 3) complex array is
    finite and at most ``_ENTRY_MAX`` in modulus, naming the first bad matrix
    of a stack: the products in :func:`adjoint` and ``states.project`` then
    neither overflow nor warn."""
    if g.ndim == 2:     # one matrix: a Python sum of its 9 moduli is quicker; NaN fails it
        try:
            if sum(map(abs, g.ravel().tolist())) <= _ENTRY_MAX:
                return
        except OverflowError:               # abs(z) overflows: z is refused below
            pass
    mag = np.abs(g)                         # inf, not a warning, where it overflows
    if mag.max(initial=0.0) <= _ENTRY_MAX:
        return
    bad = tuple(np.argwhere(~(mag <= _ENTRY_MAX).all(axis=(-2, -1)))[0])
    where = f" at row {', '.join(map(str, bad))}" if bad else ""
    if np.isfinite(g[bad]).all():
        raise ValueError(f"matrix{where} has an entry above {_ENTRY_MAX:.0e} in modulus")
    raise ValueError(f"matrix{where} is not finite")


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


def _strip_left(cos, sin, re, im):
    """Entries [0, 0], [0, 1] and [2, 2] of exp(-i l5 theta) V u, with V the
    inverse of exp(i l3 alpha) exp(i l2 beta) exp(i l3 gamma), each as a
    (real, imaginary) pair.

    ``cos`` and ``sin`` hold the cosines and sines of (alpha + gamma,
    alpha - gamma, beta, theta), and ``re[i][k]``, ``im[i][k]`` the parts of
    u[i, k], as Python floats for one matrix or columns for a stack.
    """
    cs, cd, cb, ct = cos
    ss, sd, sb, st = sin
    vr, vi = cb * cs, cb * ss               # V[0, 0] = cos(beta) e^(-i (alpha + gamma))
    wr, wi = sb * cd, sb * sd               # V[0, 1] = -sin(beta) e^(i (alpha - gamma))
    r0, r1, r2 = re
    i0, i1, i2 = im

    def t(k):                               # V[0, 0] u[0, k] + V[0, 1] u[1, k]
        return ((vr * r0[k] + vi * i0[k]) - (wr * r1[k] - wi * i1[k]),
                (vr * i0[k] - vi * r0[k]) - (wr * i1[k] + wi * r1[k]))

    (t0r, t0i), (t1r, t1i), (t2r, t2i) = t(0), t(1), t(2)
    return ((ct * t0r - st * r2[0], ct * t0i - st * i2[0]),
            (ct * t1r - st * r2[1], ct * t1i - st * i2[1]),
            (st * t2r + ct * r2[2], st * t2i + ct * i2[2]))


def decompose(u: np.ndarray, tol: float = 1e-8):
    """Chart coordinates of an SU(3) matrix (inverse of :func:`compose`).

    The third column fixes theta, beta, phi and the first SU(2) block;
    stripping those factors leaves an embedded U(2) element whose SU(2)
    part yields (a, b, c).  The stripping reads three entries, in closed
    form (:func:`_strip_left`), with no chart factors or matrix products.
    All angles land in the canonical ranges.  A stack decomposes its stratum
    rows one at a time, so each row equals the one-matrix result bit for bit.

    Parameters
    ----------
    u : (3, 3) array_like, or an (n, 3, 3) stack
        Matrix satisfying the SU(3) invariants within ``tol``.
    tol : float
        Admission tolerance for unitarity / determinant of the input;
        finite and >= 0.

    Sines and cosines of theta, beta and b at or below 1e-12 are treated as
    exact zeros (beta's as |u[1, 2]| and |u[0, 2]| over sin theta, so a small
    theta flags no beta stratum); the affected angles are gauge on the
    stratum, get folded into their partners, and a flag is reported.

    Returns
    -------
    (angles, flags)
        ``angles`` reproduce u through :func:`compose` to near machine
        precision; ``flags`` lists the degenerate strata encountered
        (subset of ``theta=0, theta=pi/2, beta=0, beta=pi/2, b=0, b=pi/2``).
        For an (n, 3, 3) stack, ``angles`` is an (n, 8) array with columns
        in ``ANGLE_NAMES`` order and ``flags`` a list of n such lists.
    """
    u = _matrices(u)
    _check_element(u, tol)
    if u.ndim == 3:
        return _decompose_stack(u)
    angles, flags = _decompose_one(u)
    return EulerAngles(*angles), flags


def _mod(x, p):
    """x mod p in [0, p), on floats or columns: x % p rounds a tiny negative x to
    p itself, which the second % takes to 0; it returns any r < p unchanged."""
    return x % p % p


def _left_pair(arg0, arg1, arg2):
    """alpha + gamma, alpha - gamma, alpha and gamma off the strata, as floats or
    columns, from arg psi_0, arg(-psi_1) and arg psi_2 of psi = u[:, 2]."""
    phi_pre = (_SQRT3 / 2.0) * _mod(-arg2, _TAU)     # phi as psi_2 sees it
    shift = 2.0 * phi_pre / _SQRT3
    s1 = arg0 + shift
    d1 = -(arg1 + shift)
    alpha = _mod((s1 + d1) / 2.0, math.pi)
    return s1, d1, alpha, _mod(s1 - alpha, _TAU)


def _right_pair(arg22, s2, d2):
    """phi, a + c, a - c, a and c off the strata, as floats or columns, from
    the phases of the :func:`_strip_left` entries [2, 2], [0, 0] and [0, 1]."""
    phi = (_SQRT3 / 2.0) * _mod(-arg22, _TAU)
    # the l8 factor adds phi / sqrt(3) to the phases of the first row
    s2 = s2 - phi / _SQRT3
    d2 = d2 - phi / _SQRT3
    a = _mod((s2 + d2) / 2.0, math.pi)
    return phi, s2, d2, a, _mod(s2 - a, _TAU)


def _decompose_one(u: np.ndarray):
    """The eight angles, as a list of Python floats, and the stratum flags of
    one admitted matrix.  The only copy of the stratum conventions."""
    # Python floats, but numpy's ufuncs for the moduli of psi and every
    # arctan2, as on columns: abs(), math.atan2 and cmath.phase may differ.
    flags: list[str] = []
    re, im = u.real.tolist(), u.imag.tolist()
    m1, m2, m3 = np.abs(u[:, 2]).tolist()
    stheta = abs(complex(m1, m2))           # libm hypot, as np.hypot
    theta, beta, arg0, arg1, arg2 = np.arctan2(
        [stheta, m2, im[0][2], -im[1][2], im[2][2]],
        [m3, m1, re[0][2], -re[1][2], re[2][2]]).tolist()   # arg1 = arg(-u[1, 2])

    if stheta <= _STRATUM_TOL:
        # theta = 0: the whole left SU(2) block is gauge; fold into (a, b, c)
        theta = alpha = beta = gamma = 0.0
        flags.append("theta=0")
    else:
        if m3 <= _STRATUM_TOL:
            # theta = pi/2: phi is unseen by the third column; the (a, phi)
            # gauge direction lets the residual block absorb it (arg2 = 0
            # sets phi_pre = 0)
            theta, arg2 = math.pi / 2, 0.0
            flags.append("theta=pi/2")
        s1, d1, alpha, gamma = _left_pair(arg0, arg1, arg2)
        if m2 <= _STRATUM_TOL * stheta:         # sin beta <= tol, m2 = sin theta sin beta
            beta, alpha, gamma = 0.0, 0.0, _mod(s1, _TAU)
            flags.append("beta=0")
        elif m1 <= _STRATUM_TOL * stheta:
            beta, alpha, gamma = math.pi / 2, 0.0, _mod(-d1, _TAU)
            flags.append("beta=pi/2")

    cos, sin = _cos_sin([alpha + gamma, alpha - gamma, beta, theta])
    (x0, y0), (x1, y1), (x2, y2) = _strip_left(cos, sin, re, im)
    cb, sb = abs(complex(x0, y0)), abs(complex(x1, y1))     # libm hypot, as np.hypot
    arg22, b, s2, d2 = np.arctan2([y2, sb, y0, y1], [x2, cb, x0, x1]).tolist()
    phi, s2, d2, a, c = _right_pair(arg22, s2, d2)
    if sb <= _STRATUM_TOL:
        # b = 0 or pi/2: only one phase combination is defined; the
        # convention folds it into c and zeroes a
        a, b, c = 0.0, 0.0, _mod(s2, _TAU)
        flags.append("b=0")
    elif cb <= _STRATUM_TOL:
        a, b, c = 0.0, math.pi / 2, _mod(-d2, _TAU)
        flags.append("b=pi/2")
    return [alpha, beta, gamma, theta, a, b, c, phi], flags


def _decompose_stack(u: np.ndarray):
    """:func:`decompose` of an (n, 3, 3) stack of admitted matrices: the stages
    of :func:`_decompose_one` on columns, with its bits.  A row with a modulus
    of psi or a stripped modulus at or below the stratum tolerance, scaled by
    a sin theta above 1, is redone by :func:`_decompose_one`; others have no flags."""
    psi = u[:, :, 2]
    m1, m2, m3 = mod = np.abs(psi).T
    stheta = np.hypot(m1, m2)
    theta, beta, arg0, arg1, arg2 = np.arctan2(
        [stheta, m2, psi[:, 0].imag, -psi[:, 1].imag, psi[:, 2].imag],
        [m3, m1, psi[:, 0].real, -psi[:, 1].real, psi[:, 2].real])
    _, _, alpha, gamma = _left_pair(arg0, arg1, arg2)
    x = np.stack([alpha + gamma, alpha - gamma, beta, theta])
    cols = u.transpose(1, 2, 0)                     # cols[i][k] is u[:, i, k]
    (x0, y0), (x1, y1), (x2, y2) = _strip_left(np.cos(x), np.sin(x), cols.real, cols.imag)
    cb, sb = np.hypot(x0, y0), np.hypot(x1, y1)
    arg22, b, s2, d2 = np.arctan2([y2, sb, y0, y1], [x2, cb, x0, x1])
    phi, _, _, a, c = _right_pair(arg22, s2, d2)
    angles = np.stack([alpha, beta, gamma, theta, a, b, c, phi], axis=1)
    flags: list[list[str]] = [[] for _ in range(len(u))]
    near = ((mod.min(axis=0) <= _STRATUM_TOL * np.maximum(stheta, 1.0))
            | (np.minimum(cb, sb) <= _STRATUM_TOL))
    for i in np.flatnonzero(near):
        angles[i], flags[i] = _decompose_one(u[i])
    return angles, flags
