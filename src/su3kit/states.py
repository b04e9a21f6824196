"""Pure-state density matrices of three-level systems.

A pure state is ``rho = (1/3)(1 + sqrt(3) n . lambda)`` with an eight-real
coherence vector n obeying ``n.n = 1`` and ``star(n, n) = n``.  Conjugating
the base projector ``rho_0 = diag(0, 0, 1)`` by a group element reaches every
pure state; the map factors through the coset of the block-U(2) stabilizer
spanned by the (a, b, c, phi) angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import IDENTITY3, LAMBDA, SQRT3, expand_hermitian, star
from .group import _dagger, compose


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


def project(g: np.ndarray) -> DensityState:
    """Conjugate the base projector: rho = g rho_0 g^dag.

    That is psi psi^dag for the third column psi of g.  The coherence
    vector is extracted by basis expansion of ``(3 rho - 1)/sqrt(3)``;
    equivalently it is minus the eighth row of
    :func:`su3kit.group.adjoint` (both are asserted equal in the tests).
    A (..., 3, 3) stack of elements gives the stack of their states.

    Raises
    ------
    ValueError
        If g, or any matrix of a stack, holds a NaN or an infinity; for a
        stack the message names the first bad row.
    """
    g = np.asarray(g, dtype=complex)
    if not np.isfinite(g).all():
        bad = np.argwhere(~np.isfinite(g).all(axis=(-2, -1)))
        where = f" at row {', '.join(map(str, bad[0]))}" if g.ndim > 2 else ""
        raise ValueError(f"matrix{where} is not finite")
    psi = g[..., :, 2]
    rho = psi[..., :, None] * psi[..., None, :].conj()
    n = expand_hermitian((3.0 * rho - IDENTITY3) / SQRT3)
    return DensityState(rho=rho, n=n)


def psi_of(angles) -> np.ndarray:
    """State vector of a chart point: the third column of compose(angles).

    Satisfies ``psi psi^dag = project(compose(angles)).rho`` and
    ``n_i = (sqrt(3)/2) psi^dag lambda_i psi``.  The magnitudes are
    ``(cos(beta) sin(theta), sin(beta) sin(theta), cos(theta))`` and the
    overall third-component phase is ``exp(-2 i phi / sqrt(3))``.
    """
    return compose(angles)[:, 2]
