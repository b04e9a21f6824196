"""Pure-state density matrices of three-level systems.

A pure state is ``rho = (1/3)(1 + sqrt(3) n . lambda)`` with an eight-real
coherence vector n obeying ``n.n = 1`` and ``star(n, n) = n``.  Conjugating
the base projector ``rho_0 = diag(0, 0, 1)`` by a group element reaches every
pure state; the map factors through the coset of the block-U(2) stabilizer
spanned by the (a, b, c, phi) angles.

The state of an element is read off its third column psi alone: psi from a
chart point (``group._psi_entries``), and rho and n from psi
(:func:`_state_entries`), are each one formula in real products and sums,
run on Python floats for one point or matrix and on numpy columns for a
stack, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import IDENTITY3, LAMBDA, SQRT3, _matrices, star
from .group import (_SQRT3, _check_bounded, _cos_sin, _dagger, _fill, _points, _psi_args,
                    _psi_entries)


@dataclass(frozen=True)
class DensityState:
    """A pure three-level state: 3x3 density matrix plus coherence vector.

    From a stack of group elements, ``rho`` is an (..., 3, 3) stack and
    ``n`` the matching (..., 8) stack.
    """

    rho: np.ndarray
    n: np.ndarray

    def constraint_residuals(self) -> dict:
        """Residuals of the pure-state constraints (all should be ~0).

        Floats for one state; for a stack, arrays with one entry per state.
        """
        rho, n = self.rho, self.n
        recon = (IDENTITY3 + SQRT3 * np.einsum('...k,kab->...ab', n, LAMBDA)) / 3.0
        worst = {
            "hermiticity": np.abs(rho - _dagger(rho)).max(axis=(-2, -1)),
            "trace": np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0),
            "idempotency": np.abs(rho @ rho - rho).max(axis=(-2, -1)),
            "unit_norm": np.abs(np.einsum('...k,...k->...', n, n) - 1.0),
            "star_identity": np.abs(star(n, n) - n).max(axis=-1),
            "reconstruction": np.abs(recon - rho).max(axis=(-2, -1)),
        }
        return {key: float(r) if r.ndim == 0 else r for key, r in worst.items()}


def base_state() -> DensityState:
    """The reference projector diag(0, 0, 1), with n along -lambda_8."""
    n = np.zeros(8)
    n[7] = -1.0
    return DensityState(rho=np.diag([0.0, 0.0, 1.0]).astype(complex), n=n)


def _state_entries(x0, y0, x1, y1, x2, y2):
    """rho = psi psi^dag as the 18 reals of its float view, row by row, then the
    coherence vector n_k = (sqrt(3)/2) psi^dag l_k psi, from the real and
    imaginary parts of psi's three entries, as Python floats or columns.

    Each entry of rho is a sum of two products, and rho is Hermitian bit for
    bit with a zero imaginary diagonal; n is rho's off-diagonal parts times
    +-sqrt(3) and sums of its diagonal.  With entries up to 1e150 in modulus
    the largest sum, |psi_0|^2 + |psi_1|^2 + 2 |psi_2|^2, is at most 4e300.
    """
    a0, a1, a2 = x0 * x0 + y0 * y0, x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
    r01, i01 = x0 * x1 + y0 * y1, y0 * x1 - x0 * y1        # rho[0, 1] = psi_0 psi_1*
    r02, i02 = x0 * x2 + y0 * y2, y0 * x2 - x0 * y2
    r12, i12 = x1 * x2 + y1 * y2, y1 * x2 - x1 * y2
    return ((a0, 0.0, r01, i01, r02, i02,
             r01, -i01, a1, 0.0, r12, i12,
             r02, -i02, r12, -i12, a2, 0.0),
            (_SQRT3 * r01, -_SQRT3 * i01, 0.5 * _SQRT3 * (a0 - a1), _SQRT3 * r02,
             -_SQRT3 * i02, _SQRT3 * r12, -_SQRT3 * i12, 0.5 * ((a0 + a1) - 2.0 * a2)))


def project(g: np.ndarray) -> DensityState:
    """Conjugate the base projector: rho = g rho_0 g^dag = psi psi^dag, psi = g[:, 2].

    rho and the coherence vector n_k = (sqrt(3)/2) psi^dag l_k psi are real
    products and sums of psi's six reals (:func:`_state_entries`), on Python
    floats for one matrix and on columns for a stack, with the same bits.
    For an element of SU(3), n is minus the eighth row of
    :func:`su3kit.group.adjoint` (both are asserted equal in the tests).
    A (..., 3, 3) stack of elements gives the stack of their states.

    Raises
    ------
    ValueError
        If g is not a (..., 3, 3) stack of numbers, or holds a NaN, an
        infinity or an entry above 1e150 in modulus (so that no product
        overflows); for a stack the message names the first bad row.
    """
    g = _matrices(g)
    _check_bounded(g)
    if g.ndim == 2:
        z0, z1, z2 = g[:, 2].tolist()
        rho, n = _state_entries(z0.real, z0.imag, z1.real, z1.imag, z2.real, z2.imag)
        return DensityState(rho=np.array(rho).view(complex).reshape(3, 3), n=np.array(n))
    lead = g.shape[:-2]
    psi = g.reshape(-1, 3, 3)[:, :, 2]
    rho, n = np.empty(lead + (3, 3), dtype=complex), np.empty(lead + (8,))
    entries = _state_entries(psi[:, 0].real, psi[:, 0].imag, psi[:, 1].real,
                             psi[:, 1].imag, psi[:, 2].real, psi[:, 2].imag)
    for out, values in zip((rho.view(float).reshape(-1, 18), n.reshape(-1, 8)), entries):
        _fill(out, values)
    return DensityState(rho=rho, n=n)


def psi_of(angles) -> np.ndarray:
    """State vector of a chart point: the third column of compose(angles), bit
    for bit, built alone (``group._psi_entries`` on Python floats).

    Satisfies ``psi psi^dag = project(compose(angles)).rho`` and
    ``n_i = (sqrt(3)/2) psi^dag lambda_i psi``.  psi is
    ``e^(-2 i phi / sqrt(3)) (sin(theta) A, -sin(theta) B*, cos(theta))`` with
    ``A = cos(beta) e^(i (alpha + gamma))`` and ``B = sin(beta) e^(i (alpha - gamma))``.
    """
    cos, sin = _cos_sin(_psi_args(*_points(angles, one=True).tolist()))
    return np.array(_psi_entries(*cos, *sin)[4:]).view(complex)
