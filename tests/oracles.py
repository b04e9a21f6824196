"""Independent numerical oracles used by the tests.

Deliberately separate from the library code paths they check: a generic
scaling-and-squaring matrix exponential, central finite differences, the
Maurer-Cartan coefficients from the chain of chart factors, and a
Kolmogorov-Smirnov uniformity test.
"""

from __future__ import annotations

import numpy as np


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by Taylor series with scaling and squaring."""
    m = np.asarray(m, dtype=complex)
    norm = np.abs(m).sum(axis=0).max()
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    x = m / (2 ** squarings)
    term = np.eye(m.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 30):
        term = term @ x / k
        out += term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def central_difference(f, p: np.ndarray, j: int, h: float = 1e-6):
    pp, pm = np.array(p, dtype=float), np.array(p, dtype=float)
    pp[j] += h
    pm[j] -= h
    return (f(pp) - f(pm)) / (2 * h)


def chain_coeffs(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(b, c) of one chart point from the product of its eight factors.

    Column j of b is the Gell-Mann projection of P l_g P^dag, P the product
    of the factors left of factor j and l_g its generator; column j of c is
    that of S^dag l_g S, S the product of factor j and those right of it.
    """
    from su3kit.algebra import LAMBDA
    from su3kit.group import FACTOR_GENERATORS, exp_generator

    gens = [LAMBDA[k - 1] for k in FACTOR_GENERATORS]
    factors = [exp_generator(k, t) for k, t in zip(FACTOR_GENERATORS, p)]
    b, c = np.empty((8, 8)), np.empty((8, 8))
    prefix = suffix = np.eye(3, dtype=complex)
    for j in range(8):
        b[:, j] = np.einsum('ab,kba->k', prefix @ gens[j] @ prefix.conj().T, LAMBDA).real / 2
        prefix = prefix @ factors[j]
        suffix = factors[7 - j] @ suffix
        c[:, 7 - j] = np.einsum('ab,kba->k', suffix.conj().T @ gens[7 - j] @ suffix, LAMBDA).real / 2
    return b, c


def ks_uniform_pvalue(x: np.ndarray) -> float:
    """Asymptotic KS p-value for x ~ U[0, 1]."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    grid = np.arange(1, n + 1) / n
    d = max(np.abs(grid - x).max(), np.abs(x - (grid - 1.0 / n)).max())
    lam = (np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n)) * d
    k = np.arange(1, 101)
    return float(2 * np.sum((-1.0) ** (k - 1) * np.exp(-2 * (k * lam) ** 2)))


def ks_two_sample_pvalue(x: np.ndarray, y: np.ndarray) -> float:
    """Asymptotic two-sample KS p-value."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    both = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, both, side="right") / x.size
    cdf_y = np.searchsorted(y, both, side="right") / y.size
    d = np.abs(cdf_x - cdf_y).max()
    ne = x.size * y.size / (x.size + y.size)
    lam = (np.sqrt(ne) + 0.12 + 0.11 / np.sqrt(ne)) * d
    k = np.arange(1, 101)
    return float(2 * np.sum((-1.0) ** (k - 1) * np.exp(-2 * (k * lam) ** 2)))
