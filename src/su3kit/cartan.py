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
kernel (``_coeff_stacks``), one point being a batch of one row: the chart
factors of a block of points are built at once (``group._factors``), seven
stacked products advance the prefix frames of b and the suffix frames of c
together, and one stacked sandwich and one trace projection give every
column of both, or of the one side a call needs.  The one-point
``left_coeffs`` keeps the factor-by-factor loop as the reference, whose
eight ``exp_generator`` calls the benchmark's tracer test counts; the
kernel keeps its association order, so its rows equal the reference to the
bit (numpy 2.4).
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

from .algebra import IDENTITY3, LAMBDA, expand_hermitian
from .group import (_BLOCK, ANGLE_NAMES, FACTOR_GENERATORS, EulerAngles, _check_finite,
                    _dagger, _factor_blocks, _factors, _haar_density, exp_generator)

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


# generator of each chart factor, as (8, 1, 3, 3) to broadcast over a block
_GENS = LAMBDA[np.subtract(FACTOR_GENERATORS, 1)][:, None]


# index of the kernel's side axis that selects b alone, c alone, or both
LEFT, RIGHT, BOTH = 0, 1, slice(0, 2)


def _coeff_block(f: np.ndarray, sides=BOTH) -> np.ndarray:
    """The (2, m, 8, 8) stack (b, c) of a block from its (8, m, 3, 3) chart
    factors f, or the (m, 8, 8) stack of the side that ``sides`` selects.

    The prefixes P[i + 1] = P[i] @ f[i] and suffixes S[6 - i] = f[6 - i] @
    S[7 - i] advance in one stacked product per step: z[:, :, i] holds
    [[P[i], f[6 - i]], [f[i], S[7 - i]]], and the product of its rows is
    the diagonal of z[:, :, i + 1].
    """
    m = f.shape[1]
    z = np.empty((2, 2, 8, m, 3, 3), dtype=complex)
    chain = z.reshape(4, 8, m, 3, 3)[::3]       # chain[:, i] = (P[i], S[7-i])
    z[1, 0] = f
    z[0, 1, :7] = f[6::-1]
    z[0, 0, 0] = IDENTITY3
    z[1, 1, 0] = f[7]
    for i in range(7):
        np.matmul(z[0, sides, i], z[1, sides, i], out=chain[sides, i + 1])
    if sides != LEFT:       # S^dag replaces the factors beside P
        np.conjugate(chain[1, ::-1].swapaxes(-1, -2), out=z[0, 1])
    x = z[0, sides]
    e = expand_hermitian((x @ _GENS) @ _dagger(x))      # e[..., j, r, k] is b[r, k, j]
    return e.swapaxes(-3, -2).swapaxes(-2, -1)


def _coeff_stacks(p: np.ndarray, sides=BOTH) -> np.ndarray:
    """:func:`_coeff_block` of a point from :func:`_points`, as (2, 8, 8), or
    of an (n, 8) batch, as (2, n, 8, 8), ``_BLOCK`` rows at a time; without
    the leading axis for one side."""
    rows = p.reshape(-1, 8)
    if len(rows) <= _BLOCK:
        out = _coeff_block(_factors(rows), sides)
    else:
        out = np.empty((2, len(rows), 8, 8))[sides]     # a side not selected is never touched
        for i, f in _factor_blocks(rows):
            out[..., i:i + _BLOCK, :, :] = _coeff_block(f, sides)
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
