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

``left_coeffs``, ``right_coeffs``, ``left_fields``, ``right_fields``,
``left_forms``, ``right_forms``, ``frame``, ``haar_density`` and
``haar_density_closed`` also take an (n, 8) array of points and return the
stack of their per-point results.  Each of them but
``haar_density_closed`` and the one-point ``left_coeffs`` runs one stacked
kernel (``_coeff_stacks``), one point being a batch of one row.  It follows
the nesting D = U(alpha, beta, gamma) exp(i l5 theta) V(a, b, c)
exp(i l8 phi) of two SU(2) blocks (the generalized Euler angles of Tilma &
Sudarshan, J. Phys. A 35, 10467 (2002)).  With the partial products
Q = D(alpha, beta, gamma, theta, 0, 0, 0, 0) and Q' = D(0, 0, 0, theta, a,
b, c, phi), b's theta and phi columns are Ad(Q) l5 and Ad(Q) l8, its a, b, c
columns Ad(Q) of V's own columns, and its alpha, beta, gamma columns U's
own, both closed forms on l1, l2, l3.  c mirrors it with Ad(Q'^dag).  A
point thus takes two closed-form chart products (``group._chart_entries``)
and five sandwiches a side, and no product chain.  The one-point
``left_coeffs`` keeps the factor-by-factor loop as the reference, whose
eight ``exp_generator`` calls the benchmark's tracer test counts; the
kernel agrees with it to a few units in the last place.
``closed_form_comparison`` takes the exact fields and forms of all its
points from one ``frame`` call and evaluates each table on the whole batch.
It and ``matches_documented_catalogue`` import ``closed_forms`` when called,
so a caller of the frames and densities alone never loads the tables.

Rows of every 8x8 matrix here are algebra indices (1..8), columns are chart
coordinates in the order (alpha, beta, gamma, theta, a, b, c, phi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LAMBDA, expand_hermitian
from .group import (ANGLE_NAMES, FACTOR_GENERATORS, EulerAngles, _chart_entries, _chart_trig,
                    _check_finite, _dagger, _haar_density, exp_generator)

# |det(left_coeffs)| equals this constant times
# sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta) at every chart point.
DENSITY_DET_RATIO = 0.5


class DegenerateChartError(ValueError):
    """Raised when fields/forms are requested on a degenerate stratum."""


def _points(angles) -> np.ndarray:
    """One finite chart point as (8,), or an (n, 8) batch of them, as floats."""
    p = angles.as_array() if isinstance(angles, EulerAngles) else np.asarray(angles, dtype=float)
    if p.shape != (8,) and (p.ndim != 2 or p.shape[1] != 8):
        raise ValueError("expected an EulerAngles, 8 reals or an (n, 8) array of chart points")
    _check_finite(p)
    return p


# index of the kernel's side axis that selects b alone, c alone, or both
LEFT, RIGHT, BOTH = 0, 1, slice(0, 2)

# Rows per block of _coeff_stacks.  It bounds the kernel's transient memory
# at any batch size: about 0.9 MB a block on both sides.
_BLOCK = 128

# Per side, the chart arguments (group._chart_trig order) that its partial
# product holds at zero: a, c, phi and b in Q, alpha, gamma and beta in Q'.
_HELD = ((2, 3, 4, 5, 7), (0, 1, 6))

# Tr(l_k X l_g X^dag) / 2, the l_k part of the sandwich of l_g by X, is
# entry (k, g) of _PROJECT @ kron(X, conj X) @ _SANDWICHED: the columns of
# _SANDWICHED are l1, l2, l3, l5 and l8 flattened, the rows of _PROJECT
# the eight l_k^T / 2 flattened.
_SANDWICHED = LAMBDA[[0, 1, 2, 4, 7]].reshape(5, 9).T.copy()
_PROJECT = LAMBDA.conj().reshape(8, 9) / 2

# Per side, the angles (x, y) of the SU(2) columns W(x, y) that b or c holds
# as they are and of those that combine Ad(Q) or Ad(Q'^dag) of l1, l2, l3,
# doubled, and the columns of b or c they fill.  The right ones are the left
# ones at negated angles, in reversed order: their columns run backwards.
_PAIRS = np.array([[[0, 1], [4, 5]], [[6, 5], [2, 1]]])
_DOUBLED = np.array([2.0, -2.0])[:, None, None]
_SPANS = ((slice(0, 3), slice(4, 7)), (slice(6, 3, -1), slice(2, None, -1)))
_E8 = np.eye(8)[7]


def _put_partial_product(out: np.ndarray, cos, sin, side: int) -> None:
    """Write Q (side 0) or Q' (side 1) into the complex (m, 3, 3) ``out``,
    from the cosines and sines of the nine chart arguments: (9, m) columns,
    or lists of Python floats for m = 1, with the same bits
    (:func:`group._chart_entries`)."""
    cos, sin = list(cos), list(sin)
    for k in _HELD[side]:
        cos[k], sin[k] = 1.0, 0.0
    out.view(float).reshape(len(out), 18).T[...] = np.array(_chart_entries(cos, sin)).reshape(18, -1)


def _su2_columns(t: np.ndarray) -> np.ndarray:
    """W(x, y) of each doubled angle pair t[..., :] = (2x, 2y), as (..., 3, 3).

    Its columns e3, (sin 2x, cos 2x, 0) and (-cos 2x sin 2y, sin 2x sin 2y,
    cos 2y) are the l1, l2, l3 rows of the left coefficients of
    exp(i l3 x) exp(i l2 y) exp(i l3 z) along x, y and z.
    """
    c, s = np.cos(t), np.sin(t)
    w = np.zeros(t.shape[:-1] + (3, 3))
    w[..., 2, 0] = 1.0
    w[..., 0, 1], w[..., 1, 1] = s[..., 0], c[..., 0]
    w[..., 0, 2] = -c[..., 0] * s[..., 1]
    w[..., 1, 2] = s[..., 0] * s[..., 1]
    w[..., 2, 2] = c[..., 1]
    return w


def _coeff_block(rows: np.ndarray, sides=BOTH) -> np.ndarray:
    """The (2, m, 8, 8) stack (b, c) of an (m, 8) block of points, or the
    (m, 8, 8) stack of the side that ``sides`` selects: b is W(alpha, beta),
    Ad(Q) l5, Ad(Q) l1..l3 times W(a, b), Ad(Q) l8, column block by column
    block, and c its mirror image with Ad(Q'^dag) (module docstring)."""
    m = len(rows)
    keep = sides if sides == BOTH else slice(sides, sides + 1)
    cos, sin = _chart_trig(rows)
    if m == 1:          # Python floats: the bits of a column, in less time
        cos, sin = cos[:, 0].tolist(), sin[:, 0].tolist()
    z = np.empty((2, m, 3, 3), dtype=complex)
    if sides != RIGHT:
        _put_partial_product(z[0], cos, sin, 0)
    if sides != LEFT:
        _put_partial_product(z[1], cos, sin, 1)
        z[1] = _dagger(z[1])
    z = z[keep]
    kron = (z[..., :, None, :, None] * z.conj()[..., None, :, None, :]).reshape(z.shape[:2] + (9, 9))
    adj = (_PROJECT @ kron @ _SANDWICHED).real         # adj[s, :, :, g]: Ad(z) of generator g
    w = _su2_columns(rows[:, _PAIRS[keep]] * _DOUBLED[keep])
    out = np.zeros((2, m, 8, 8))
    for i, side in enumerate(range(2)[keep]):
        f, (fixed, applied) = out[side], _SPANS[side]
        f[:, :3, fixed] = w[:, i, 0]
        f[:, :, applied] = adj[i, ..., :3] @ w[:, i, 1]
        f[:, :, 3] = adj[i, ..., 3]
        f[:, :, 7] = adj[i, ..., 4] if side == LEFT else _E8
    return out[sides]


def _coeff_stacks(p: np.ndarray, sides=BOTH) -> np.ndarray:
    """:func:`_coeff_block` of a point from :func:`_points`, as (2, 8, 8), or
    of an (n, 8) batch, as (2, n, 8, 8), ``_BLOCK`` rows at a time; without
    the leading axis for one side."""
    rows = p.reshape(-1, 8)
    if len(rows) <= _BLOCK:
        out = _coeff_block(rows, sides)
    else:
        out = np.empty((2, len(rows), 8, 8))[sides]     # a side not selected is never touched
        for i in range(0, len(rows), _BLOCK):
            out[..., i:i + _BLOCK, :, :] = _coeff_block(rows[i:i + _BLOCK], sides)
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


def left_fields(angles) -> np.ndarray:
    """Coefficients A of the left invariant fields, Lambda_i = i A[i, j] d_j.

    Raises
    ------
    DegenerateChartError
        On strata where the Haar density vanishes and b is singular.
    """
    p = _points(angles)
    _check_nondegenerate(p)
    return np.linalg.inv(_coeff_stacks(p, LEFT).swapaxes(-1, -2))


def right_fields(angles) -> np.ndarray:
    """Coefficients of the right invariant fields, Lambda^r_i = i A[i, j] d_j."""
    p = _points(angles)
    _check_nondegenerate(p)
    return np.linalg.inv(_coeff_stacks(p, RIGHT).swapaxes(-1, -2))


def left_forms(angles) -> np.ndarray:
    """Coefficients B of the left invariant forms, omega^l = -i B[l, k] dx^k.

    Dual to :func:`left_fields` by construction: ``B @ A.T = identity``.
    """
    p = _points(angles)
    _check_nondegenerate(p)
    return _coeff_stacks(p, LEFT)


def right_forms(angles) -> np.ndarray:
    """Coefficients of the right invariant forms, omega^l_r = -i C[l, k] dx^k."""
    p = _points(angles)
    _check_nondegenerate(p)
    return _coeff_stacks(p, RIGHT)


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


def _coeffs(p: np.ndarray) -> np.ndarray:
    """The stack (b, c) at a point from :func:`_points`, as (2, 8, 8), or at
    an (n, 8) batch, as (2, n, 8, 8); refuses points where b is singular."""
    _check_nondegenerate(p)
    return _coeff_stacks(p)


def frame(angles) -> FrameAtPoint:
    p = _points(angles)
    b = _coeffs(p)
    a = np.linalg.inv(b.swapaxes(-1, -2))
    return FrameAtPoint(point=p, b_left=b[0], a_left=a[0], b_right=b[1], a_right=a[1])


def haar_density(angles):
    """Unnormalized Haar density |det b| / (global constant).

    Normalized so that the value equals
    ``sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta)`` -- the determinant
    route is primary, the closed form serves as its cross-check.  A float
    for one point, an (n,) array for an (n, 8) batch.
    """
    p = _points(angles)
    value = np.abs(np.linalg.det(_coeff_stacks(p, LEFT)))
    value /= DENSITY_DET_RATIO
    return float(value) if p.ndim == 1 else value


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
