"""su(3) Lie-algebra substrate: Gell-Mann basis, structure tensors, products.

Conventions
-----------
The eight Gell-Mann matrices ``lambda_1 .. lambda_8`` are Hermitian,
traceless and normalized by ``Tr(lambda_i lambda_j) = 2 delta_ij``.
Commutators and anticommutators define the structure tensors::

    [lambda_i, lambda_j] = i C_kij lambda_k        (C totally antisymmetric)
    {lambda_i, lambda_j} = (4/3) delta_ij 1 + 2 d_ijk lambda_k   (d symmetric)

Algebra indices are 1-based in the docs and in user-facing arguments
(matching the universal physics convention); array storage is 0-based.
"""

from __future__ import annotations

import numpy as np

SQRT3 = np.sqrt(3.0)

# Gell-Mann basis, LAMBDA[k] is lambda_{k+1}.
LAMBDA = np.zeros((8, 3, 3), dtype=complex)
LAMBDA[0] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
LAMBDA[1] = [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]
LAMBDA[2] = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
LAMBDA[3] = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
LAMBDA[4] = [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]
LAMBDA[5] = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
LAMBDA[6] = [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]
LAMBDA[7] = np.diag([1.0, 1.0, -2.0]) / SQRT3
LAMBDA.setflags(write=False)

IDENTITY3 = np.eye(3, dtype=complex)
IDENTITY3.setflags(write=False)


_PRODUCTS = LAMBDA[:, None] @ LAMBDA[None]      # (8, 8, 3, 3): lambda_i lambda_j
_COMMUTATORS = _PRODUCTS - _PRODUCTS.swapaxes(0, 1)
_ANTICOMMUTATORS = _PRODUCTS + _PRODUCTS.swapaxes(0, 1)


def _structure_tensors():
    """Build C_kij and d_ijk densely from the basis itself."""
    # Tr(X lambda_k)/2 projects onto lambda_k
    c = np.einsum('ijab,kba->kij', _COMMUTATORS, LAMBDA).imag / 2.0
    d = np.einsum('ijab,kba->ijk', _ANTICOMMUTATORS, LAMBDA).real / 4.0
    # scrub roundoff so the tensors are exactly (anti)symmetric
    c[np.abs(c) < 1e-14] = 0.0
    d[np.abs(d) < 1e-14] = 0.0
    return c, d


# C_TENSOR[k, i, j] = C_kij,  D_TENSOR[i, j, k] = d_ijk  (0-based indices)
C_TENSOR, D_TENSOR = _structure_tensors()
C_TENSOR.setflags(write=False)
D_TENSOR.setflags(write=False)


def commutator_tensor_check() -> np.ndarray:
    """Residuals of the commutator identity against the C tensor.

    Returns
    -------
    ndarray, shape (8, 8)
        Entry (i, j) is the max entrywise residual of
        ``[lambda_i, lambda_j] - i C_kij lambda_k``.
    """
    recon = 1j * np.einsum('kij,kab->ijab', C_TENSOR, LAMBDA)
    return np.abs(_COMMUTATORS - recon).max(axis=(2, 3))


def anticommutator_tensor_check() -> np.ndarray:
    """Residuals of ``{lambda_i, lambda_j} - (4/3) delta_ij 1 - 2 d_ijk lambda_k``."""
    recon = (4.0 / 3.0) * np.eye(8)[:, :, None, None] * IDENTITY3
    recon = recon + 2.0 * np.einsum('ijk,kab->ijab', D_TENSOR, LAMBDA)
    return np.abs(_ANTICOMMUTATORS - recon).max(axis=(2, 3))


def star(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric d-tensor product ``(a * b)_i = sqrt(3) d_ijk a_j b_k``.

    Two (..., 8) stacks of vectors give the (..., 8) stack of their products.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1:] != (8,) or b.shape[-1:] != (8,):
        raise ValueError("star expects two 8-component real vectors, or stacks of them")
    return SQRT3 * np.einsum('ijk,...j,...k->...i', D_TENSOR, a, b)


_TRACE_TOL = 1e-12


def expand(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand a traceless 3x3 matrix in the Gell-Mann basis.

    Writes ``m = sum_k (re_k + i im_k) lambda_k`` using the trace
    orthogonality ``coeff_k = Tr(m lambda_k) / 2``.

    Parameters
    ----------
    m : (3, 3) array_like
        Complex traceless matrix: ``|Tr(m)|`` at most 1e-12.

    Returns
    -------
    (re, im) : pair of (8,) ndarrays
        Real and imaginary parts of the expansion coefficients.  A
        Hermitian input yields ``im = 0``.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (3, 3):
        raise ValueError("expand expects a 3x3 matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix is not finite")
    tr = np.trace(m)
    if abs(tr) > _TRACE_TOL:
        raise ValueError(f"matrix is not traceless: |Tr| = {abs(tr):.3e} exceeds {_TRACE_TOL:.1e}")
    coeff = np.einsum('ab,kba->k', m, LAMBDA) / 2.0
    return coeff.real.copy(), coeff.imag.copy()


def expand_hermitian(m: np.ndarray) -> np.ndarray:
    """Real coefficients of a Hermitian traceless matrix (fast path, no checks).

    A (..., 3, 3) stack of matrices gives the (..., 8) stack of coefficients.
    """
    return np.einsum('...ab,kba->...k', np.asarray(m, dtype=complex), LAMBDA).real / 2.0


def from_coefficients(re: np.ndarray, im: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct ``sum_k (re_k + i im_k) lambda_k`` from coefficients."""
    coeff = np.asarray(re, dtype=complex)
    if im is not None:
        coeff = coeff + 1j * np.asarray(im, dtype=float)
    return np.einsum('k,kab->ab', coeff, LAMBDA)
