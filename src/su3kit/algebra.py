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

from numbers import Number, Real

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

    Two (..., 8) stacks of vectors give the (..., 8) stack of their products;
    anything else raises ValueError (see :func:`_vectors`).
    """
    a, b = _vectors(a), _vectors(b)
    return SQRT3 * np.einsum('ijk,...j,...k->...i', D_TENSOR, a, b)


_TRACE_TOL = 1e-12


def _numbers(values, what: str, real: bool = False) -> np.ndarray:
    """The rule for numbers of every parser of arrays: values as a complex array, or as a
    float array if ``real``.  ValueError, naming ``what``, for ragged input, values that are
    not numbers (or not real ones), and numbers beyond a double's range; NaN and inf pass."""
    char, kinds, kind_of = ("d", "biufO", Real) if real else ("D", "biufcO", Number)
    try:
        m = np.asarray(values)
        if m.dtype.char != char:
            kind = m.dtype.kind
            if kind not in kinds or kind == "O" and not all(isinstance(x, kind_of) for x in m.flat):
                raise TypeError(f"not of dtype {m.dtype}")
            with np.errstate(over="raise"):
                m = m.astype(char)
    except (TypeError, ValueError, ArithmeticError) as exc:   # ragged, or beyond a double's range
        raise ValueError(f"{what} must be {'real ' if real else ''}numbers: {exc}") from None
    return m


def _matrices(u, one: bool = False) -> np.ndarray:
    """The only parser of input matrices: a complex 3x3 array, or a (..., 3, 3) stack unless
    ``one``.  ValueError for other shapes, ragged input and non-numbers; NaN and inf pass."""
    m = _numbers(u, "matrix entries")
    if m.shape[-2:] != (3, 3) or one and m.ndim != 2:
        raise ValueError(f"expected a 3x3 matrix{'' if one else ' or a stack'}, got shape {m.shape}")
    return m


def _vectors(v, one: bool = False) -> np.ndarray:
    """The only parser of coefficient vectors: 8 reals, or a (..., 8) stack of them unless
    ``one``.  ValueError, naming the shape, for any other shape, and for ragged input and
    values that are not real numbers; NaN and inf pass."""
    x = _numbers(v, "coefficients", real=True)
    if x.shape[-1:] != (8,) or one and x.ndim != 1:
        want = "an 8-component real vector" if one else "8-component real vectors or stacks"
        raise ValueError(f"expected {want}, got shape {x.shape}")
    return x


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

    Raises
    ------
    ValueError
        If m is not a 3x3 matrix of numbers, holds a NaN or an infinity, is
        not traceless, or is so large that a coefficient overflows.
    """
    m = _matrices(m, one=True)
    if not np.isfinite(m).all():
        raise ValueError("matrix is not finite")
    tr = np.abs(sum(m.diagonal().tolist()))     # an overflow is inf, not a warning or an error
    if tr > _TRACE_TOL:
        raise ValueError(f"matrix is not traceless: |Tr| = {tr:.3e} exceeds {_TRACE_TOL:.1e}")
    coeff = np.einsum('ab,kba->k', m, LAMBDA)
    if not np.isfinite(coeff).all():    # einsum overflows to inf without a warning
        raise ValueError("matrix is too large to expand: a coefficient overflows")
    coeff = coeff / 2.0
    return coeff.real.copy(), coeff.imag.copy()


def expand_hermitian(m: np.ndarray) -> np.ndarray:
    """Real coefficients of a Hermitian traceless matrix (fast path, neither is checked).

    A (..., 3, 3) stack of matrices gives the (..., 8) stack of coefficients.
    """
    return _hermitian_coeffs(_matrices(m))


def _hermitian_coeffs(m: np.ndarray) -> np.ndarray:
    """:func:`expand_hermitian` of a (..., 3, 3) complex array."""
    return np.einsum('...ab,kba->...k', m, LAMBDA).real / 2.0


def from_coefficients(re: np.ndarray, im: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct ``sum_k (re_k + i im_k) lambda_k`` from coefficients, each 8 reals
    (see :func:`_vectors`)."""
    coeff = _vectors(re, one=True).astype(complex)
    if im is not None:
        coeff = coeff + 1j * _vectors(im, one=True)
    return np.einsum('k,kab->ab', coeff, LAMBDA)
