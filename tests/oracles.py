"""Independent numerical oracles used by the tests.

Deliberately separate from the library code paths they check: a generic
scaling-and-squaring matrix exponential, central finite differences, a
composite trapezoid, the Maurer-Cartan coefficients from the chain of
chart factors, a
Kolmogorov-Smirnov uniformity test, and a bytecode scan for matrix products;
the tables of the public entries that take chart points and matrices,
which the input-contract tests run through; and a set of chart points that
reaches the strata, for the tests that compare bits.
"""

from __future__ import annotations

import dis
import types

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


def trapezoid(f, lo: float, hi: float, n: int) -> float:
    """Composite trapezoid of the scalar function f over [lo, hi] with n
    equal steps h: the integral plus c h^2 + O(h^4), c independent of n."""
    y = [f(x) for x in np.linspace(lo, hi, n + 1)]
    return (hi - lo) / n * (sum(y[1:-1]) + (y[0] + y[-1]) / 2)


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


def chart_entries() -> list:
    """Every public entry that takes chart points, as (name, fn, shape, takes):
    ``fn(p)`` calls it on p, ``shape`` is the shape of its answer for one
    point (a batch of n rows prepends n), and ``takes`` says whether it takes
    one point, an (n, 8) batch or both.  A new entry needs one line here."""
    from su3kit import cartan, group, phase, states

    def frame(p):
        fr = cartan.frame(p)
        return np.stack([fr.b_left, fr.a_left, fr.b_right, fr.a_right], axis=-3)

    def loop(w):
        return phase.LoopSpec(w, samples_per_segment=4).waypoints

    def curvature_base(p):
        return phase.phase_curvature(p, ("theta", "gamma"), ((0.1, 0.5), (0.2, 0.9)), (4, 4))

    return [("group.compose", group.compose, (3, 3), "one"),
            ("group.compose_batch", group.compose_batch, (3, 3), "batch"),
            ("cartan.frame", frame, (4, 8, 8), "both"),
            ("cartan.haar_density", cartan.haar_density, (), "both"),
            ("cartan.haar_density_closed", cartan.haar_density_closed, (), "both"),
            ("cartan.left_coeffs", cartan.left_coeffs, (8, 8), "both"),
            ("cartan.right_coeffs", cartan.right_coeffs, (8, 8), "both"),
            ("cartan.left_fields", cartan.left_fields, (8, 8), "both"),
            ("cartan.right_fields", cartan.right_fields, (8, 8), "both"),
            ("cartan.left_forms", cartan.left_forms, (8, 8), "both"),
            ("cartan.right_forms", cartan.right_forms, (8, 8), "both"),
            ("states.psi_of", states.psi_of, (3,), "one"),
            ("phase.connection", phase.connection, (8,), "one"),
            ("phase.curvature", phase.curvature, (8, 8), "one"),
            ("phase.LoopSpec", loop, (8,), "batch"),
            ("phase.phase_curvature", curvature_base, (), "one")]


def chart_entry_fns(modules: tuple, takes: str) -> list:
    """The fns of :func:`chart_entries` in these su3kit modules that take
    ``takes``, "one" point or a "batch"."""
    return [fn for name, fn, _, kind in chart_entries()
            if name.split(".")[0] in modules and kind in (takes, "both")]


def matrix_entries() -> list:
    """Every public entry that takes 3x3 matrices, as (name, fn, shape, takes,
    finite): ``fn(u)`` calls it on u, ``shape`` is the shape of its answer for
    one matrix (a stack prepends its leading axes; None for an entry that
    answers None), ``takes`` is "one" matrix, a "stack" of one axis of them or
    "any" (..., 3, 3) stack, and ``finite`` says whether its answer must be
    finite (the two residuals and the unchecked expansion measure, and the
    JSON reader parses).  A new entry needs one line here."""
    from su3kit import algebra, cli, group, states

    def decompose(u):
        return np.asarray(group.decompose(u)[0])

    def project(u):
        st = states.project(u)
        return np.concatenate([st.rho.reshape(st.rho.shape[:-2] + (9,)), st.n], axis=-1)

    return [("group.decompose", decompose, (8,), "stack", True),
            ("group.assert_group_element", group.assert_group_element, None, "stack", True),
            ("group.unitarity_residual", group.unitarity_residual, (), "one", False),
            ("group.det_residual", group.det_residual, (), "one", False),
            ("group.adjoint", group.adjoint, (8, 8), "any", True),
            ("states.project", project, (17,), "any", True),
            ("algebra.expand", lambda u: np.stack(algebra.expand(u)), (2, 8), "one", True),
            ("algebra.expand_hermitian", algebra.expand_hermitian, (8,), "any", False),
            ("cli.matrix_from_json", lambda u: cli.matrix_from_json({"re": u, "im": u}),
             (3, 3), "one", False)]


def edge_points(seed: int) -> np.ndarray:
    """Chart points for bit comparisons: 500 Haar points, 500 in [-10, 10),
    four of +-0.0 angles, and three points at each distance 1e-3 ... 1e-13
    from each stratum (beta, theta or b at 0 or pi/2), other angles interior."""
    from su3kit.measure import sample_haar
    rng = np.random.default_rng(seed)
    near = rng.uniform(0.1, 1.4, (3, 2, 11, 3, 8))
    dist = 10.0 ** -np.arange(3, 14)[:, None]
    for k, j in enumerate((1, 3, 5)):
        near[k, 0, :, :, j], near[k, 1, :, :, j] = dist, np.pi / 2 - dist
    return np.concatenate([sample_haar(seed, 500), rng.uniform(-10, 10, (500, 8)),
                           np.zeros((1, 8)), np.full((1, 8), -0.0), [[0.0, -0.0] * 4],
                           [[-0.0, 0.0] * 4], near.reshape(-1, 8)])


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


def matrix_products(fn) -> list:
    """The ``@`` and ``@=`` operations in the bytecode of fn and of the
    functions nested in it.  The operator reaches numpy's matmul ufunc
    without the ``np.matmul`` attribute, so replacing that attribute does
    not ban it."""
    code = getattr(fn, "__code__", fn)
    found = [i for i in dis.get_instructions(code)
             if i.argrepr in ("@", "@=") or "MATRIX_MULTIPLY" in i.opname]
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            found += matrix_products(const)
    return found
