"""Maurer-Cartan data in the eight-angle chart.

For each coordinate x_j the derivative of the chart product D is an exactly
computable conjugated-generator sandwich,

    dD/dx_j = P_j (i l_{g_j}) P_j^dag D,          P_j = product of the
                                                  factors left of factor j,

so the coefficient matrix b of ``dD/dx_j = i b[k, j] l_k D`` follows from
trace projection with no series expansion and no finite differences.  The
right-handed analog uses suffix products:  ``D^dag dD/dx_j = i c[k, j] l_k``.

Everything else is linear algebra on b and c:

* left invariant vector fields   ``Lambda_i = i A[i, j] d_j``  with
  ``A = (b^T)^{-1}``, satisfying ``Lambda_i D = -l_i D``;
* right fields from c the same way, satisfying ``Lambda^r_i D = -D l_i``;
* invariant one-forms ``omega^l = -i b[l, k] dx^k`` (dual to the fields);
* the Haar density from |det b|.

Every public function here reads its points with ``group._points``, so an
(n, 8) batch gives the stack of the per-point results.  All but
``haar_density_closed`` and the one-point ``left_coeffs`` run one stacked
kernel (``_coeff_stacks``), one point being a batch of one row; the fields,
forms and frames reach it through ``_coeffs``, which first refuses points
where b is singular, and take A = (b^T)^-1 in ``_fields`` alone.  It follows
the nesting D = U(alpha, beta, gamma) exp(i l5 theta) V(a, b, c)
exp(i l8 phi) of two SU(2) blocks (the generalized Euler angles of Tilma &
Sudarshan, J. Phys. A 35, 10467 (2002)).  With Q = U exp(i l5 theta) and
Q' = exp(i l5 theta) V exp(i l8 phi), b's theta and phi columns are Ad(Q) l5
and Ad(Q) l8, its a, b, c columns Ad(Q) of V's own columns, its alpha, beta,
gamma columns U's own; c mirrors it with Ad(Q'^dag).  Each Ad column is a
closed form in U's entries A = cos(beta) e^(i (alpha + gamma)) and
B = sin(beta) e^(i (alpha - gamma)) and in theta (``_images``); the right
side reads it at (-c, -b, -a) and -theta, its doublet rows turned by
exp(i sqrt(3) phi).  A point thus takes the nine cosines and sines of
``group._chart_args`` and a few hundred real products and sums
(``_coeff_entries``, A and B by ``compose``'s ``group._su2_entries``), on
Python floats row by row for one point and small blocks, on numpy columns
otherwise, with the same bits: no chart product, sandwich or projection.
The one-point ``left_coeffs`` keeps the factor-by-factor loop as the
reference, whose eight ``exp_generator`` calls the benchmark's tracer test
counts; the kernel agrees with it to a few units in the last place.
``closed_form_comparison`` evaluates each table on its whole batch against
one ``frame`` call.  It and ``matches_documented_catalogue`` import
``closed_forms`` only when called.

Rows of every 8x8 matrix here are algebra indices (1..8), columns are chart
coordinates in the order (alpha, beta, gamma, theta, a, b, c, phi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LAMBDA, expand_hermitian
from .group import (_SQRT3, ANGLE_NAMES, FACTOR_GENERATORS, _chart_args, _chart_trig, _cos_sin,
                    _check_seed, _haar_density, _points, _su2_entries, exp_generator)

# |det(left_coeffs)| equals this constant times
# sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta) at every chart point.
DENSITY_DET_RATIO = 0.5


class DegenerateChartError(ValueError):
    """Raised when fields/forms are requested on a degenerate stratum."""


# what the kernel computes: b alone, c alone, both, or b with its c column
# made (c - cos 2b a) / sin 2b
LEFT, RIGHT, BOTH, _REDUCED = "left", "right", "both", "reduced"

# Rows per block of _coeff_stacks.  It bounds the kernel's transient memory
# at any batch size: about 0.8 MB a block on both sides.
_BLOCK = 256

# Fewer rows than this go one at a time on Python floats (the same bits): the
# columns' fixed ~180 us (~90 us on one side) beats ~15 us (~7.5 us) a row from 12.
_COLUMNS_FROM = 12


def _images(ar, ai, br, bi, ct, st, d):
    """Ad(X) of l1 and l2 (rows l1..l7), l3 (rows l1..l8) and l5 (rows
    l4..l7), Ad(U) l3 (rows l1..l3) and sin^2 theta, for X = U exp(i l5 theta):
    U = [[A, B], [-B*, A*]], A = ar + i ai, B = br + i bi, ``ct``, ``st`` the
    cosine and sine of theta.  The doublet rows l4..l7 read (A, B, A, B) from
    the eight reals ``d``; the right side turns the pairs there by e^(-+i psi).
    """
    aa, ii, bb, jj = ar * ar, ai * ai, br * br, bi * bi
    p, q, u, v = aa - ii, bb - jj, 2 * (ar * ai), 2 * (br * bi)
    x, y, z, w = ar * br, ai * bi, ar * bi, ai * br
    # Ad(U) of l1, l2, l3: rows Re(A^2 - B^2), -Im(A^2 - B^2), 2 Re(A* B);
    # Im(A^2 + B^2), Re(A^2 + B^2), -2 Im(A* B); -2 Re(AB), 2 Im(AB), |A|^2 - |B|^2
    r1 = (p - q, v - u, 2 * (x + y))
    r2 = (u + v, p + q, 2 * (w - z))
    r3 = (2 * (y - x), 2 * (z + w), (aa + ii) - (bb + jj))
    a1r, a1i, b1r, b1i, a2r, a2i, b2r, b2i = d
    ns, ss, k = -st, st * st, st * ct
    nk, h = -k, 1.0 - 0.5 * ss
    g1 = (ct * r1[0], ct * r1[1], ct * r1[2], ns * b1r, st * b1i, ns * a2r, ns * a2i)
    g2 = (ct * r2[0], ct * r2[1], ct * r2[2], st * b1i, st * b1r, ns * a2i, st * a2r)
    g3 = (h * r3[0], h * r3[1], h * r3[2], nk * a1r, k * a1i, k * b2r, k * b2i, -0.5 * _SQRT3 * ss)
    g5 = (a1i, a1r, b2i, -b2r)
    return g1, g2, g3, g5, r3, ss


def _double(c, s):
    """(sin 2x, cos 2x) from cos x and sin x."""
    return 2 * (s * c), c * c - s * s


def _coeff_entries(cos, sin, sides, zero, one) -> list:
    """The 64 entries of b, c or both in turn, column by column, from the
    cosines and sines of :func:`group._chart_args` as Python floats (one point)
    or (m,) columns, with the same bits: real products and sums only.  ``zero``
    and ``one`` are the constant entries, as floats or columns."""
    cal, cga, ca, cc, cw, cv, cbe, cb, cth = cos
    sal, sga, sa, sc, sw, sv, sbe, sb, sth = sin
    s2be, c2be = _double(cbe, sbe)
    s2b, c2b = _double(cb, sb)
    z3 = (zero, zero, zero)
    out = []
    if sides != RIGHT:
        s2al, c2al = _double(cal, sal)
        s2a, c2a = _double(ca, sa)
        ab = _su2_entries(cal, sal, cbe, sbe, cga, sga)
        g1, g2, g3, g5, r3, ss = _images(*ab, cth, sth, ab + ab)
        t = [s2a * y - c2a * x for x, y in zip(g1, g2)]     # (c column - cos 2b g3) / sin 2b
        if sides == _REDUCED:
            col_c = [*t, zero]
        else:
            col_c = [*[s2b * x + c2b * y for x, y in zip(t, g3)], c2b * g3[7]]
        out += [zero, zero, one, *z3, zero, zero,                     # alpha, beta, gamma: W
                s2al, c2al, zero, *z3, zero, zero,
                -c2al * s2be, s2al * s2be, c2be, *z3, zero, zero,
                *z3, *g5, zero,                                       # theta: Ad(Q) l5
                *g3,                                                  # a, b, c: Ad(Q) of W(a, b)
                *[s2a * x + c2a * y for x, y in zip(g1, g2)], zero,
                *col_c,
                *[g3[7] * x for x in r3],                             # phi: Ad(Q) l8
                *[_SQRT3 * x for x in g3[3:7]], 1.0 - 1.5 * ss]
    if sides in (RIGHT, BOTH):
        s2ga, c2ga = _double(cga, sga)
        s2c, c2c = _double(cc, sc)
        ar, ai, br, bi = _su2_entries(cc, -sc, cb, -sb, ca, -sa)
        # e^(i psi) = e^(i phi / sqrt 3) conj(e^(-2i phi / sqrt 3)), psi = sqrt(3) phi
        cp, sp = cw * cv + sw * sv, sw * cv - cw * sv
        d = (ar * cp + ai * sp, ai * cp - ar * sp, br * cp + bi * sp, bi * cp - br * sp,
             ar * cp - ai * sp, ai * cp + ar * sp, br * cp - bi * sp, bi * cp + br * sp)
        h1, h2, h3, h5, _, _ = _images(ar, ai, br, bi, cth, -sth, d)
        out += [*[s2be * (c2ga * x + s2ga * y) + c2be * w for x, y, w in zip(h1, h2, h3)],
                c2be * h3[7],                                         # alpha, beta, gamma:
                *[c2ga * y - s2ga * x for x, y in zip(h1, h2)], zero,   # Ad(Q'^dag) of W
                *h3,
                *z3, *h5, zero,                                       # theta: Ad(Q'^dag) l5
                c2c * s2b, s2c * s2b, c2b, *z3, zero, zero,           # a, b, c: W(c, b)
                -s2c, c2c, zero, *z3, zero, zero,
                zero, zero, one, *z3, zero, zero,
                zero, zero, zero, *z3, zero, one]                     # phi: e8
    return out


def _coeff_stacks(p: np.ndarray, sides=BOTH) -> np.ndarray:
    """The stack (b, c) of a point from ``group._points``, as (2, 8, 8), or of
    an (n, 8) batch, as (2, n, 8, 8), ``_BLOCK`` rows at a time; without the
    leading axis for one side (``sides``)."""
    rows = p.reshape(-1, 8)
    out = np.empty((2 if sides == BOTH else 1, len(rows), 8, 8))
    for i in range(0, len(rows), _BLOCK):
        chunk, block = rows[i:i + _BLOCK], out[:, i:i + _BLOCK]
        m = len(chunk)
        if m < _COLUMNS_FROM:
            cos, sin = _cos_sin([_chart_args(*row) for row in chunk.tolist()])
            entries = [_coeff_entries(c, s, sides, 0.0, 1.0) for c, s in zip(cos, sin)]
            block.transpose(1, 0, 3, 2)[...] = np.array(entries).reshape(m, len(out), 8, 8)
        else:
            entries = _coeff_entries(*_chart_trig(chunk), sides, np.zeros(m), np.ones(m))
            block.transpose(0, 3, 2, 1)[...] = np.array(entries).reshape(len(out), 8, 8, m)
    out = out if sides == BOTH else out[0]
    return out if p.ndim == 2 else out[..., 0, :, :]


def left_coeffs(angles) -> np.ndarray:
    """Exact coefficient matrix b with ``dD/dx_j = i b[k, j] l_k D``.

    An (n, 8) array of points gives the (n, 8, 8) stack of their b.
    """
    p = _points(angles)
    if p.ndim == 2:
        return _coeff_stacks(p, LEFT)
    # The factor-by-factor reference of the kernel, kept for one point only:
    # bench/tests/test_bench.py counts its eight exp_generator calls.
    b = np.empty((8, 8))
    prefix = np.eye(3, dtype=complex)
    for j in range(8):
        gen = LAMBDA[FACTOR_GENERATORS[j] - 1]
        b[:, j] = expand_hermitian(prefix @ gen @ prefix.conj().T)
        prefix = prefix @ exp_generator(FACTOR_GENERATORS[j], p[j])
    return b


def right_coeffs(angles) -> np.ndarray:
    """Exact coefficient matrix c with ``D^dag dD/dx_j = i c[k, j] l_k``.

    An (n, 8) array of points gives the (n, 8, 8) stack of their c.
    """
    return _coeff_stacks(_points(angles), RIGHT)


# (name, coordinate, multiple of it) of each sine factor of the Haar density
_DENSITY_SINES = (("sin(2 beta)", 1, 2), ("sin(2 theta)", 3, 2),
                  ("sin(theta)", 3, 1), ("sin(2 b)", 5, 2))


def _check_nondegenerate(p: np.ndarray) -> None:
    """Raise DegenerateChartError if the point, or any row of a batch, is
    on a stratum where a sine factor of the Haar density vanishes."""
    for name, j, m in _DENSITY_SINES:
        if p.ndim == 1:
            where = " here" if abs(np.sin(m * p[j])) < 1e-13 else None
        else:
            rows = np.flatnonzero(np.abs(np.sin(m * p[:, j])) < 1e-13)
            where = f" at row {rows[0]}" if rows.size else None
        if where is not None:
            raise DegenerateChartError(
                f"chart is degenerate{where}: Haar density factor {name} vanishes")


def _coeffs(p: np.ndarray, sides=BOTH) -> np.ndarray:
    """Refuses points where b is singular, then :func:`_coeff_stacks`: the one checked path."""
    _check_nondegenerate(p)
    return _coeff_stacks(p, sides)


def _fields(b: np.ndarray) -> np.ndarray:
    """The field coefficients A = (b^T)^-1 of b, or of each matrix of a stack."""
    return np.linalg.inv(b.swapaxes(-1, -2))


def left_fields(angles) -> np.ndarray:
    """Coefficients A of the left invariant fields, Lambda_i = i A[i, j] d_j.

    Raises
    ------
    DegenerateChartError
        On strata where the Haar density vanishes and b is singular.
    """
    return _fields(_coeffs(_points(angles), LEFT))


def right_fields(angles) -> np.ndarray:
    """Coefficients of the right invariant fields, Lambda^r_i = i A[i, j] d_j."""
    return _fields(_coeffs(_points(angles), RIGHT))


def left_forms(angles) -> np.ndarray:
    """Coefficients B of the left invariant forms, omega^l = -i B[l, k] dx^k.

    Dual to :func:`left_fields` by construction: ``B @ A.T = identity``.
    """
    return _coeffs(_points(angles), LEFT)


def right_forms(angles) -> np.ndarray:
    """Coefficients of the right invariant forms, omega^l_r = -i C[l, k] dx^k."""
    return _coeffs(_points(angles), RIGHT)


@dataclass(frozen=True)
class FrameAtPoint:
    """All four coefficient matrices of the invariant (co)frame at one point.

    For an (n, 8) batch of points every field holds the stack of the
    per-point values.
    """

    point: np.ndarray
    b_left: np.ndarray
    a_left: np.ndarray
    b_right: np.ndarray
    a_right: np.ndarray


def frame(angles) -> FrameAtPoint:
    p = _points(angles)
    b = _coeffs(p)
    a = _fields(b)
    return FrameAtPoint(point=p, b_left=b[0], a_left=a[0], b_right=b[1], a_right=a[1])


def haar_density(angles):
    """Unnormalized Haar density |det b| / (global constant).

    Normalized so that the value equals
    ``sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta)`` -- the determinant
    route is primary, the closed form serves as its cross-check.  A float
    for one point, an (n,) array for an (n, 8) batch.

    The value is 2 |sin 2b| |det b~|, which equals |det b| / 0.5 because det
    is alternating: b~ is b with its c column made (c - cos 2b a) / sin 2b.
    The LU of b itself would lose a relative eps / |sin 2b| near b = 0 or pi/2.
    Every Ad(Q) column still goes through the LU, so the closed form checks them.
    """
    p = _points(angles)
    rows = p.reshape(-1, 8)
    value = np.abs(np.linalg.det(_coeff_stacks(rows, _REDUCED)) * np.sin(2 * rows[:, 5]))
    value /= DENSITY_DET_RATIO
    return float(value[0]) if p.ndim == 1 else value


def haar_density_closed(angles):
    """Closed-form Haar density sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta).

    A float for one point, an (n,) array for an (n, 8) batch.
    """
    p = _points(angles)
    value = _haar_density(p[..., 1], p[..., 3], p[..., 5])
    return float(value) if p.ndim == 1 else value


@dataclass(frozen=True)
class ClosedFormComparison:
    """Tabulated closed forms evaluated at sample points, vs the exact frame.

    ``deviations[table]`` holds the max absolute entrywise deviation over the
    sample points for each of the four tables (rows = algebra index, columns
    = chart coordinate).  ``catalogue`` lists the entries whose deviation
    exceeded the tolerance, as (table, 1-based row, coordinate-name) triples.
    """

    points: np.ndarray
    deviations: dict
    catalogue: frozenset
    tolerance: float

    def matches_documented_catalogue(self) -> bool:
        from . import closed_forms
        return self.catalogue == closed_forms.KNOWN_DEVIATIONS

    @property
    def agreeing_max(self) -> float:
        """Largest deviation among the entries at or below the tolerance."""
        return max(float(dev[dev <= self.tolerance].max()) for dev in self.deviations.values())


# deviation above which a table entry joins the catalogue: agreeing entries
# stay below 1e-10, the known deviant entries are O(0.1 .. 5)
_COMPARISON_TOL = 1e-9


def closed_form_comparison(seed: int = 0) -> ClosedFormComparison:
    """Evaluate the tabulated closed forms against the exact construction
    at 32 points drawn from the chart interior using ``seed``."""
    from . import closed_forms
    _check_seed(seed)
    points = np.random.default_rng(seed).uniform(0.15, 1.35, size=(32, 8))
    fr = frame(points)
    exact = {"fields_left": 1j * fr.a_left, "fields_right": 1j * fr.a_right,
             "forms_left": -1j * fr.b_left, "forms_right": -1j * fr.b_right}
    deviations = {name: np.abs(getattr(closed_forms, name)(points) - value).max(axis=0)
                  for name, value in exact.items()}
    catalogue = frozenset((name, int(r) + 1, ANGLE_NAMES[k])
                          for name, dev in deviations.items()
                          for r, k in np.argwhere(dev > _COMPARISON_TOL))
    return ClosedFormComparison(points=points, deviations=deviations,
                                catalogue=catalogue, tolerance=_COMPARISON_TOL)
