"""Hand-tabulated closed forms for the invariant fields and forms.

These are literal transcriptions of the published trigonometric tables for
the left/right invariant vector fields and one-forms in the eight-angle
chart.  They are *not* used by the library proper: the exact construction in
:mod:`su3kit.cartan` is authoritative, and these expressions exist to be
compared against it.  Transcription is verbatim, including entries that turn
out to disagree with the exact construction (a few terms in the source table
lack a factor of i, carry a wrong sign, or sit in the wrong differential
slot); the disagreeing entries are catalogued in :data:`KNOWN_DEVIATIONS`.

Row r (0-based) of a "fields" table holds the complex coefficients of
``(d/d alpha, ..., d/d phi)`` in Lambda_{r+1}; row r of a "forms" table holds
the complex coefficients of ``(d alpha, ..., d phi)`` in omega^{r+1}.  The
exact counterparts are ``i * left_fields(p)`` / ``-1j * left_coeffs(p)`` and
the right-handed analogs.  Each table takes one point, or an (n, 8) batch
of points for the (n, 8, 8) stack of their tables, read by ``group._points``.
"""

from __future__ import annotations

import numpy as np

from .algebra import SQRT3
from .group import _points

# (table, row, coordinate) triples where the transcribed tables persistently
# disagree with the exact construction; 1-based rows, coordinate names.
# Everything not listed here agrees to 1e-10 at generic points.
KNOWN_DEVIATIONS = frozenset(
    [("forms_left", 3, "phi"),
     ("fields_right", 4, "phi"),
     ("fields_right", 5, "phi"),
     ("fields_right", 6, "a"),
     ("fields_right", 6, "phi"),
     ("fields_right", 7, "phi")]
    + [("forms_right", 1, x) for x in ("alpha", "beta", "gamma", "theta", "a", "b")]
    + [("forms_right", 2, x) for x in ("beta", "gamma", "theta", "a", "b")]
    + [("forms_right", 3, x) for x in ("beta", "gamma", "theta", "a", "c")]
    + [("forms_right", 4, x) for x in ("alpha", "beta", "gamma", "theta", "a")]
    + [("forms_right", 5, x) for x in ("beta", "gamma", "theta", "a")]
    + [("forms_right", 6, x) for x in ("beta", "gamma", "theta", "a")]
    + [("forms_right", 7, x) for x in ("alpha", "beta", "gamma", "theta", "a")]
    + [("forms_right", 8, x) for x in ("beta", "gamma", "theta")]
)


def fields_left(p) -> np.ndarray:
    """Tabulated left invariant vector fields, one row per Lambda_i."""
    al, be, ga, th, a, b, c, ph = _points(p).T
    i = 1j
    sin, cos, tan = np.sin, np.cos, np.tan
    cot2b = cos(2 * b) / sin(2 * b)
    cot2be = cos(2 * be) / sin(2 * be)
    cotth = cos(th) / sin(th)
    t = np.zeros(np.shape(al) + (8, 8), dtype=complex)

    t[..., 0, 0] = i * cos(2 * al) * cot2be
    t[..., 0, 1] = i * sin(2 * al)
    t[..., 0, 2] = -i * cos(2 * al) / sin(2 * be)

    t[..., 1, 0] = -i * sin(2 * al) * cot2be
    t[..., 1, 1] = i * cos(2 * al)
    t[..., 1, 2] = i * sin(2 * al) / sin(2 * be)

    t[..., 2, 0] = i

    t[..., 7, 2] = i * SQRT3
    t[..., 7, 4] = -i * SQRT3
    t[..., 7, 7] = i
    lam8 = t[..., 7, :].T     # shaped like row: (8,) or (8, n)

    row = np.zeros((8,) + np.shape(al), dtype=complex)
    row[0] = i * (sin(be) / sin(2 * be)) * cotth * cos(al + ga)
    row[1] = -i * sin(be) * cotth * sin(al + ga)
    row[2] = (-i * cot2be * sin(be) * cotth * cos(al + ga)
              + i * ((2 - sin(th) ** 2) / sin(2 * th)) * cos(be) * cos(al + ga))
    row[3] = i * cos(be) * sin(al + ga)
    row[4] = (-i * 2 * (cos(be) / sin(2 * th)) * cos(al + ga)
              - i * (cot2b / sin(th)) * sin(be) * cos(al - ga - 2 * a))
    row[5] = i * (sin(be) / sin(th)) * sin(al - ga - 2 * a)
    row[6] = i * (sin(be) / (sin(th) * sin(2 * b))) * cos(al - ga - 2 * a)
    t[..., 3, :] = (row + (-(SQRT3 / 2) * tan(th) * cos(be) * cos(al + ga)) * lam8).T

    row = np.zeros((8,) + np.shape(al), dtype=complex)
    row[0] = -i * (sin(be) / sin(2 * be)) * cotth * sin(al + ga)
    row[1] = -i * sin(be) * cotth * cos(al + ga)
    row[2] = (i * cot2be * sin(be) * cotth * sin(al + ga)
              - i * ((2 - sin(th) ** 2) / sin(2 * th)) * cos(be) * sin(al + ga))
    row[3] = i * cos(be) * cos(al + ga)
    row[4] = (i * 2 * (cos(be) / sin(2 * th)) * sin(al + ga)
              + i * (cot2b / sin(th)) * sin(be) * sin(al - ga - 2 * a))
    row[5] = i * (sin(be) / sin(th)) * cos(al - ga - 2 * a)
    row[6] = -i * (sin(be) / (sin(th) * sin(2 * b))) * sin(al - ga - 2 * a)
    t[..., 4, :] = (row + ((SQRT3 / 2) * tan(th) * cos(be) * sin(al + ga)) * lam8).T

    row = np.zeros((8,) + np.shape(al), dtype=complex)
    row[0] = i * (cos(be) / sin(2 * be)) * cotth * cos(al - ga)
    row[1] = i * cos(be) * cotth * sin(al - ga)
    row[2] = (-i * cot2be * cos(be) * cotth * cos(al - ga)
              - i * ((2 - sin(th) ** 2) / sin(2 * th)) * sin(be) * cos(al - ga))
    row[3] = i * sin(be) * sin(al - ga)
    row[4] = (i * 2 * (sin(be) / sin(2 * th)) * cos(al - ga)
              - i * (cot2b / sin(th)) * cos(be) * cos(al + ga + 2 * a))
    row[5] = -i * (cos(be) / sin(th)) * sin(al + ga + 2 * a)
    row[6] = i * (cos(be) / (sin(th) * sin(2 * b))) * cos(al + ga + 2 * a)
    t[..., 5, :] = (row + ((SQRT3 / 2) * tan(th) * sin(be) * cos(al - ga)) * lam8).T

    row = np.zeros((8,) + np.shape(al), dtype=complex)
    row[0] = i * (cos(be) / sin(2 * be)) * cotth * sin(al - ga)
    row[1] = -i * cos(be) * cotth * cos(al - ga)
    row[2] = (-i * cot2be * cos(be) * cotth * sin(al - ga)
              - i * ((2 - sin(th) ** 2) / sin(2 * th)) * sin(be) * sin(al - ga))
    row[3] = -i * sin(be) * cos(al - ga)
    row[4] = (i * 2 * (sin(be) / sin(2 * th)) * sin(al - ga)
              - i * (cot2b / sin(th)) * cos(be) * sin(al + ga + 2 * a))
    row[5] = i * (cos(be) / sin(th)) * cos(al + ga + 2 * a)
    row[6] = i * (cos(be) / (sin(th) * sin(2 * b))) * sin(al + ga + 2 * a)
    t[..., 6, :] = (row + ((SQRT3 / 2) * tan(th) * sin(be) * sin(al - ga)) * lam8).T

    return t


def fields_right(p) -> np.ndarray:
    """Tabulated right invariant vector fields, one row per Lambda^r_i."""
    al, be, ga, th, a, b, c, ph = _points(p).T
    eta = ph / SQRT3
    i = 1j
    sin, cos, tan = np.sin, np.cos, np.tan
    cot2b = cos(2 * b) / sin(2 * b)
    cot2be = cos(2 * be) / sin(2 * be)
    cotth = cos(th) / sin(th)
    t = np.zeros(np.shape(al) + (8, 8), dtype=complex)

    t[..., 0, 6] = -i * cos(2 * c) * cot2b
    t[..., 0, 5] = -i * sin(2 * c)
    t[..., 0, 4] = i * cos(2 * c) / sin(2 * b)

    t[..., 1, 6] = -i * sin(2 * c) * cot2b
    t[..., 1, 5] = i * cos(2 * c)
    t[..., 1, 4] = i * sin(2 * c) / sin(2 * b)

    t[..., 2, 6] = i

    t[..., 7, 7] = i
    lam8r = t[..., 7, :].T    # shaped like row: (8,) or (8, n)

    row = np.zeros((8,) + np.shape(al), dtype=complex)
    row[6] = -i * (sin(b) / sin(2 * b)) * cotth * cos(c + a + 3 * eta)
    row[5] = i * sin(b) * cotth * sin(c + a + 3 * eta)
    row[4] = (i * cot2b * sin(b) * cotth * cos(c + a + 3 * eta)
              - i * ((2 - sin(th) ** 2) / sin(2 * th)) * cos(b) * cos(c + a + 3 * eta))
    row[3] = -i * cos(b) * sin(c + a + 3 * eta)
    row[2] = (i * 2 * (cos(b) / sin(2 * th)) * cos(c + a + 3 * eta)
              + i * (cot2be / sin(th)) * sin(b) * cos(c - a - 2 * ga + 3 * eta))
    row[1] = -i * (sin(b) / sin(th)) * sin(c - a - 2 * ga + 3 * eta)
    row[0] = -i * (sin(b) / (sin(th) * sin(2 * be))) * cos(c - a - 2 * ga + 3 * eta)
    t[..., 3, :] = (row + (-(SQRT3 / 2) * tan(th) * cos(b) * cos(c + a + 3 * eta)) * lam8r).T

    row = np.zeros((8,) + np.shape(al), dtype=complex)
    row[6] = -i * (sin(b) / sin(2 * b)) * cotth * sin(c + a + 3 * eta)
    row[5] = -i * sin(b) * cotth * cos(c + a + 3 * eta)
    row[4] = (i * cot2b * sin(b) * cotth * sin(c + a + 3 * eta)
              - i * ((2 - sin(th) ** 2) / sin(2 * th)) * cos(b) * sin(c + a + 3 * eta))
    row[3] = i * cos(b) * cos(c + a + 3 * eta)
    row[2] = (i * 2 * (cos(b) / sin(2 * th)) * sin(c + a + 3 * eta)
              + i * (cot2be / sin(th)) * sin(b) * sin(c - a - 2 * ga + 3 * eta))
    row[1] = i * (sin(b) / sin(th)) * cos(c - a - 2 * ga + 3 * eta)
    row[0] = -i * (sin(b) / (sin(th) * sin(2 * be))) * sin(c - a - 2 * ga + 3 * eta)
    t[..., 4, :] = (row + (-(SQRT3 / 2) * tan(th) * cos(b) * sin(c + a + 3 * eta)) * lam8r).T

    row = np.zeros((8,) + np.shape(al), dtype=complex)
    row[6] = i * (cos(b) / sin(2 * b)) * cotth * cos(c - a - 3 * eta)
    row[5] = i * cos(b) * cotth * sin(c - a - 3 * eta)
    # the second d/da term below is printed without the factor i in the source
    row[4] = (-i * cot2b * cos(b) * cotth * cos(c - a - 3 * eta)
              - ((2 - sin(th) ** 2) / sin(2 * th)) * sin(b) * cos(c - a - 3 * eta))
    row[3] = i * sin(b) * sin(c - a - 3 * eta)
    row[2] = (i * 2 * (sin(b) / sin(2 * th)) * cos(c - a - 3 * eta)
              - i * (cot2be / sin(th)) * cos(b) * cos(c + a + 2 * ga - 3 * eta))
    row[1] = -i * (cos(b) / sin(th)) * sin(c + a + 2 * ga - 3 * eta)
    row[0] = i * (cos(b) / (sin(th) * sin(2 * be))) * cos(c + a + 2 * ga - 3 * eta)
    t[..., 5, :] = (row + (-(SQRT3 / 2) * tan(th) * sin(b) * cos(c - a - 3 * eta)) * lam8r).T

    row = np.zeros((8,) + np.shape(al), dtype=complex)
    row[6] = -i * (cos(b) / sin(2 * b)) * cotth * sin(c - a - 3 * eta)
    row[5] = i * cos(b) * cotth * cos(c - a - 3 * eta)
    row[4] = (i * cot2b * cos(b) * cotth * sin(c - a - 3 * eta)
              + i * ((2 - sin(th) ** 2) / sin(2 * th)) * sin(b) * sin(c - a - 3 * eta))
    row[3] = i * sin(b) * cos(c - a - 3 * eta)
    row[2] = (-i * 2 * (sin(b) / sin(2 * th)) * sin(c - a - 3 * eta)
              + i * (cot2be / sin(th)) * cos(b) * sin(c + a + 2 * ga - 3 * eta))
    row[1] = -i * (cos(b) / sin(th)) * cos(c + a + 2 * ga - 3 * eta)
    row[0] = -i * (cos(b) / (sin(th) * sin(2 * be))) * sin(c + a + 2 * ga - 3 * eta)
    t[..., 6, :] = (row + ((SQRT3 / 2) * tan(th) * sin(b) * sin(c - a - 3 * eta)) * lam8r).T

    return t


def forms_left(p) -> np.ndarray:
    """Tabulated left invariant one-forms, one row per omega^l."""
    al, be, ga, th, a, b, c, ph = _points(p).T
    i = 1j
    sin, cos = np.sin, np.cos
    s2t = sin(th) ** 2
    half = 1 - 0.5 * s2t
    w = np.zeros(np.shape(al) + (8, 8), dtype=complex)

    w[..., 0, 1] = -i * sin(2 * al)
    w[..., 0, 2] = i * cos(2 * al) * sin(2 * be)
    w[..., 0, 4] = i * cos(2 * al) * sin(2 * be) * half
    w[..., 0, 5] = (-i * cos(2 * a + 2 * ga) * cos(th) * sin(2 * al)
               - i * cos(2 * al) * cos(2 * be) * cos(th) * sin(2 * a + 2 * ga))
    w[..., 0, 6] = (i * cos(2 * al) * cos(2 * be) * cos(2 * a + 2 * ga) * cos(th) * sin(2 * b)
               - i * cos(th) * sin(2 * al) * sin(2 * b) * sin(2 * a + 2 * ga)
               + i * cos(2 * al) * cos(2 * b) * sin(2 * be) * half)
    w[..., 0, 7] = -i * (SQRT3 / 2) * cos(2 * al) * sin(2 * be) * s2t

    w[..., 1, 1] = -i * cos(2 * al)
    w[..., 1, 2] = -i * sin(2 * al) * sin(2 * be)
    w[..., 1, 4] = -i * sin(2 * al) * sin(2 * be) * half
    w[..., 1, 5] = (-i * cos(2 * al) * cos(2 * a + 2 * ga) * cos(th)
               + i * cos(2 * be) * cos(th) * sin(2 * al) * sin(2 * a + 2 * ga))
    w[..., 1, 6] = (-i * cos(2 * be) * cos(2 * a + 2 * ga) * cos(th) * sin(2 * al) * sin(2 * b)
               - i * cos(2 * al) * cos(th) * sin(2 * b) * sin(2 * a + 2 * ga)
               - i * cos(2 * b) * sin(2 * al) * sin(2 * be) * half)
    w[..., 1, 7] = i * (SQRT3 / 2) * sin(2 * al) * sin(2 * be) * s2t

    w[..., 2, 0] = -i
    w[..., 2, 2] = -i * cos(2 * be)
    w[..., 2, 4] = -i * cos(2 * be) * half
    w[..., 2, 5] = -i * cos(th) * sin(2 * be) * sin(2 * a + 2 * ga)
    w[..., 2, 6] = (i * cos(2 * a + 2 * ga) * cos(th) * sin(2 * b) * sin(2 * be)
               - i * cos(2 * b) * cos(2 * be) * half)
    # the extra 1/2 below is as printed in the source table
    w[..., 2, 7] = i * (SQRT3 / 2) * cos(2 * be) * 0.5 * s2t

    w[..., 3, 3] = -i * cos(be) * sin(al + ga)
    w[..., 3, 4] = i * 0.5 * cos(be) * cos(al + ga) * sin(2 * th)
    w[..., 3, 5] = i * sin(be) * sin(2 * a - al + ga) * sin(th)
    w[..., 3, 6] = (-i * cos(2 * a - al + ga) * sin(2 * b) * sin(be) * sin(th)
               + i * 0.5 * cos(2 * b) * cos(be) * cos(al + ga) * sin(2 * th))
    w[..., 3, 7] = i * (SQRT3 / 2) * cos(be) * cos(al + ga) * sin(2 * th)

    w[..., 4, 3] = -i * cos(be) * cos(al + ga)
    w[..., 4, 4] = -i * 0.5 * cos(be) * sin(al + ga) * sin(2 * th)
    w[..., 4, 5] = -i * cos(2 * a - al + ga) * sin(be) * sin(th)
    w[..., 4, 6] = (-i * sin(2 * b) * sin(be) * sin(2 * a - al + ga) * sin(th)
               - i * 0.5 * cos(2 * b) * cos(be) * sin(al + ga) * sin(2 * th))
    w[..., 4, 7] = -i * (SQRT3 / 2) * cos(be) * sin(al + ga) * sin(2 * th)

    w[..., 5, 3] = -i * sin(be) * sin(al - ga)
    w[..., 5, 5] = i * cos(be) * sin(2 * a + al + ga) * sin(th)
    w[..., 5, 4] = -i * 0.5 * cos(al - ga) * sin(be) * sin(2 * th)
    w[..., 5, 7] = -i * (SQRT3 / 2) * cos(al - ga) * sin(be) * sin(2 * th)
    w[..., 5, 6] = (-i * cos(be) * cos(2 * a + al + ga) * sin(2 * b) * sin(th)
               - i * 0.5 * cos(2 * b) * cos(al - ga) * sin(be) * sin(2 * th))

    w[..., 6, 3] = i * cos(al - ga) * sin(be)
    w[..., 6, 4] = -i * 0.5 * sin(be) * sin(al - ga) * sin(2 * th)
    w[..., 6, 5] = -i * cos(be) * cos(2 * a + al + ga) * sin(th)
    w[..., 6, 6] = (-i * cos(be) * sin(2 * b) * sin(2 * a + al + ga) * sin(th)
               - i * 0.5 * cos(2 * b) * sin(be) * sin(al - ga) * sin(2 * th))
    w[..., 6, 7] = -i * (SQRT3 / 2) * sin(be) * sin(al - ga) * sin(2 * th)

    w[..., 7, 4] = i * (SQRT3 / 2) * s2t
    w[..., 7, 6] = i * (SQRT3 / 2) * cos(2 * b) * s2t
    w[..., 7, 7] = -i * (1 - 1.5 * s2t)

    return w


def forms_right(p) -> np.ndarray:
    """Tabulated right invariant one-forms, one row per omega^l_r."""
    al, be, ga, th, a, b, c, ph = _points(p).T
    eta = ph / SQRT3
    i = 1j
    sin, cos = np.sin, np.cos
    s2t = sin(th) ** 2
    half = 1 - 0.5 * s2t
    w = np.zeros(np.shape(al) + (8, 8), dtype=complex)

    w[..., 0, 0] = (i * cos(2 * b) * cos(2 * c) * cos(2 * a + 2 * ga) * cos(th) * sin(2 * be)
               - i * cos(th) * sin(2 * be) * sin(2 * c) * sin(2 * a + 2 * ga)
               + i * cos(2 * be) * cos(2 * c) * sin(2 * b) * half)
    w[..., 0, 1] = i * cos(2 * c) * sin(2 * b) * half
    w[..., 0, 2] = (-i * cos(2 * a + 2 * ga) * cos(th) * sin(2 * c)
               - i * cos(2 * b) * cos(2 * c) * cos(th) * sin(2 * a + 2 * ga))
    w[..., 0, 3] = i * cos(2 * c) * sin(2 * b) * half
    w[..., 0, 5] = -i * sin(2 * c)

    w[..., 1, 0] = (-i * cos(2 * b) * cos(2 * a + 2 * ga) * cos(th) * sin(2 * be) * sin(2 * c)
               - i * cos(2 * c) * cos(th) * sin(2 * be) * sin(2 * a + 2 * ga)
               - i * cos(2 * be) * sin(2 * b) * sin(2 * c) * half)
    w[..., 1, 1] = -i * sin(2 * b) * sin(2 * c) * half
    w[..., 1, 2] = -i * (cos(2 * c) * cos(2 * a + 2 * ga) * cos(th)
                    - cos(2 * b) * cos(th) * sin(2 * c) * sin(2 * a + 2 * ga))
    w[..., 1, 3] = -i * sin(2 * b) * sin(2 * c) * half
    w[..., 1, 5] = cos(2 * c)  # printed without the factor i

    w[..., 2, 0] = (i * cos(2 * a + 2 * ga) * cos(th) * sin(2 * b) * sin(2 * be)
               - i * cos(2 * b) * cos(2 * be) * half)
    w[..., 2, 1] = -i * cos(2 * b) * half
    w[..., 2, 2] = -i * cos(th) * sin(2 * b) * sin(2 * a + 2 * ga)
    w[..., 2, 3] = -i * cos(2 * b) * half
    w[..., 2, 6] = 1.0  # printed as "+ dc", without the factor i

    w[..., 3, 0] = (-i * cos(a - c + 2 * ga - 3 * eta) * sin(b) * sin(2 * be) * sin(th)
               + i * 0.5 * cos(b) * cos(2 * be) * cos(a + c + 3 * eta) * sin(2 * th))
    w[..., 3, 1] = i * 0.5 * cos(b) * cos(a + c + 3 * eta) * sin(2 * th)
    w[..., 3, 2] = i * sin(b) * sin(th) * sin(a - c + 2 * ga - 3 * eta)
    w[..., 3, 3] = i * 0.5 * cos(b) * cos(a + c + 3 * eta) * sin(2 * th)
    w[..., 3, 4] = -cos(b) * sin(a + c + 3 * eta)  # printed without the factor i

    w[..., 4, 0] = (-i * sin(b) * sin(2 * be) * sin(th) * sin(a - c + 2 * ga - 3 * eta)
               - i * 0.5 * cos(b) * cos(2 * be) * sin(2 * th) * sin(a + c + 3 * eta))
    w[..., 4, 1] = -i * 0.5 * cos(b) * sin(2 * th) * sin(a + c + 3 * eta)
    w[..., 4, 2] = -i * cos(a - c + 2 * ga - 3 * eta) * sin(b) * sin(th)
    w[..., 4, 3] = -i * 0.5 * cos(b) * sin(2 * th) * sin(a + c + 3 * eta)
    w[..., 4, 4] = -i * cos(b) * cos(a + c + 3 * eta)

    w[..., 5, 0] = (-i * cos(b) * cos(a + c + 2 * ga - 3 * eta) * sin(2 * be) * sin(th)
               - i * 0.5 * cos(2 * be) * cos(a - c + 3 * eta) * sin(b) * sin(2 * th))
    w[..., 5, 1] = -i * 0.5 * cos(a - c + 3 * eta) * sin(b) * sin(2 * th)
    w[..., 5, 2] = -i * cos(b) * sin(th) * sin(a + c + 2 * ga - 3 * eta)
    w[..., 5, 3] = -i * 0.5 * cos(a - c + 3 * eta) * sin(b) * sin(2 * th)
    w[..., 5, 4] = i * sin(b) * sin(a - c + 3 * eta)

    w[..., 6, 0] = (-i * cos(b) * sin(2 * be) * sin(th) * sin(a + c + 2 * ga - 3 * eta)
               + i * 0.5 * cos(2 * be) * sin(b) * sin(2 * th) * sin(a - c + 3 * eta))
    w[..., 6, 1] = i * 0.5 * sin(b) * sin(2 * th) * sin(a - c + 3 * eta)
    w[..., 6, 2] = i * cos(b) * cos(a + c + 2 * ga - 3 * eta) * sin(th)
    w[..., 6, 3] = i * 0.5 * sin(b) * sin(2 * th) * sin(a - c + 3 * eta)
    w[..., 6, 4] = i * cos(a - c + 3 * eta) * sin(b)

    w[..., 7, 0] = i * (SQRT3 / 2) * cos(2 * be) * s2t
    w[..., 7, 1] = i * (SQRT3 / 2) * s2t
    w[..., 7, 3] = i * (SQRT3 / 2) * s2t
    w[..., 7, 7] = -i

    return w
