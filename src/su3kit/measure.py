"""Normalized Haar measure on SU(3) in the eight-angle chart.

The sampler draws the closed-form inverse-CDF marginals

    beta, b  ~ arcsin(sqrt(u)),   theta ~ arcsin(u^(1/4)),
    alpha, a ~ U[0, pi),   gamma, c ~ U[0, 2 pi),   phi ~ U[0, sqrt(3) pi),

which push forward through :func:`su3kit.group.compose` to the normalized
Haar measure (chart density sin(2 beta) sin(2 b) sin(2 theta) sin^2 theta).
Correctness is enforced by the orthogonality-relation and translation
invariance tests rather than assumed.

Sampling uses a counter-based Philox stream keyed by the seed, and every
estimate is accumulated in a fixed chunk order, so results are bit-identical
for a fixed (seed, n) regardless of the environment's thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import ANGLE_NAMES, PHI_PERIOD, compose_batch

_CHUNK = 1 << 14

# Ranges as published for this chart; the product of the eight 1-D integrals
# of the density over them is (sqrt(3)/2) pi^5.  Kept as the reference box
# for the volume cross-check; note the sampler's gamma and c ranges are
# doubled relative to this box (see module docstring of su3kit.group).
REFERENCE_BOX_HIGH = np.array([np.pi, np.pi / 2, np.pi, np.pi / 2,
                               np.pi, np.pi / 2, np.pi, PHI_PERIOD])


def total_volume() -> float:
    """Unnormalized volume of the reference box, in closed form.

    The density integrates to ``pi^4 * sqrt(3) pi * 1 * 1 * (1/2)``
    over the published ranges: the four uniform l3-angles contribute pi
    each, phi contributes sqrt(3) pi, the beta and b integrals are 1, and
    the theta integral is 1/2.
    """
    return 0.5 * np.sqrt(3.0) * np.pi ** 5


def _haar_density(beta, theta, b):
    """Chart density sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta), elementwise."""
    s = np.sin(theta)
    return np.sin(2 * beta) * np.sin(2 * b) * np.sin(2 * theta) * (s * s)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def sample_haar(seed: int, n: int) -> np.ndarray:
    """n i.i.d. Haar samples as an (n, 8) array of chart angles.

    Deterministic for a fixed seed.  Columns follow
    ``su3kit.group.ANGLE_NAMES``; all values are in the canonical ranges.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    u = _rng(seed).random((n, 8))
    p = np.empty((n, 8))
    p[:, 0] = np.pi * u[:, 0]
    p[:, 1] = np.arcsin(np.sqrt(u[:, 1]))
    p[:, 2] = 2 * np.pi * u[:, 2]
    p[:, 3] = np.arcsin(u[:, 3] ** 0.25)
    p[:, 4] = np.pi * u[:, 4]
    p[:, 5] = np.arcsin(np.sqrt(u[:, 5]))
    p[:, 6] = 2 * np.pi * u[:, 6]
    p[:, 7] = PHI_PERIOD * u[:, 7]
    return p


def dump_csv(samples: np.ndarray, path_or_file) -> None:
    """Write samples as CSV with the angle-name header, 17 significant digits."""
    samples = np.asarray(samples, dtype=float)
    if hasattr(path_or_file, "write"):
        _write_csv(samples, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            _write_csv(samples, fh)


def _write_csv(samples: np.ndarray, fh) -> None:
    fh.write(",".join(ANGLE_NAMES) + "\n")
    for row in samples:
        fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def load_csv(path_or_file) -> np.ndarray:
    if not hasattr(path_or_file, "read"):
        with open(path_or_file, "r", encoding="utf-8") as fh:
            return load_csv(fh)
    header = path_or_file.readline().strip().split(",")
    if tuple(header) != ANGLE_NAMES:
        raise ValueError(f"unexpected CSV header {header}")
    return np.loadtxt(path_or_file, delimiter=",", ndmin=2)


@dataclass(frozen=True)
class IntegrationResult:
    estimate: complex
    std_error: float
    n_samples: int
    seed: int


def integrate(f, n: int, seed: int = 0) -> IntegrationResult:
    """Monte Carlo mean of f over normalized Haar measure.

    Parameters
    ----------
    f : callable
        Maps an (m, 3, 3) complex array of group elements to m values
        (real or complex).  Must be bounded on SU(3).
    n : int
        Sample count.
    seed : int
        Philox key; fixed (seed, n) gives bit-identical results.
    """
    angles = sample_haar(seed, n)
    values = np.empty(n, dtype=complex)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        values[start:stop] = f(compose_batch(angles[start:stop]))
    mean = values.mean()
    if n > 1:
        var = values.real.var(ddof=1) + values.imag.var(ddof=1)
        se = float(np.sqrt(var / n))
    else:
        se = 0.0
    if np.abs(values.imag).max(initial=0.0) == 0.0:
        mean = mean.real
    return IntegrationResult(estimate=mean, std_error=se, n_samples=n, seed=seed)


@dataclass(frozen=True)
class OrthogonalityReport:
    """MC estimates of integral D_ij conj(D_kl) dmu for all 81 index tuples."""

    estimates: np.ndarray      # (3,3,3,3) complex
    std_error_re: np.ndarray   # (3,3,3,3)
    std_error_im: np.ndarray
    n_samples: int
    seed: int

    @property
    def targets(self) -> np.ndarray:
        eye = np.eye(3)
        return np.einsum('ik,jl->ijkl', eye, eye) / 3.0

    def deviations_sigma(self) -> np.ndarray:
        """Per-entry deviation from delta_ik delta_jl / 3 in standard errors.

        Components whose sample spread is exactly zero (e.g. the imaginary
        part of |D_ij|^2 entries) count as zero deviation when the estimate
        hits the target exactly, and as infinite otherwise.
        """
        diff = self.estimates - self.targets
        dev = np.zeros(diff.shape)
        for part, se in ((np.abs(diff.real), self.std_error_re),
                         (np.abs(diff.imag), self.std_error_im)):
            scaled = np.full(part.shape, np.inf)
            np.divide(part, se, out=scaled, where=se > 0)
            scaled[(se == 0) & (part == 0)] = 0.0
            np.maximum(dev, scaled, out=dev)
        return dev

    def max_sigma(self) -> float:
        return float(self.deviations_sigma().max())


def orthogonality_suite(n: int, seed: int = 0) -> OrthogonalityReport:
    """Estimate all 81 fundamental-representation orthogonality integrals.

    With the nine entries of D flattened to D_p, only the 45 products
    D_p conj(D_q) with p <= q are summed; the rest are their exact complex
    conjugates.  The diagonal |D_p|^2 is summed as a real number, so its
    imaginary part and standard error are exactly 0.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples for a standard error")
    angles = sample_haar(seed, n)
    s_re, s_im = np.zeros((9, 9)), np.zeros((9, 9))
    s2_re, s2_im = np.zeros((9, 9)), np.zeros((9, 9))
    for start in range(0, n, _CHUNK):
        flat = compose_batch(angles[start:min(start + _CHUNK, n)]).reshape(-1, 9).T
        re, im = np.ascontiguousarray(flat.real), np.ascontiguousarray(flat.imag)
        # one pair at a time keeps the temporaries in cache
        for p in range(9):
            sq = re[p] * re[p] + im[p] * im[p]
            s_re[p, p] += sq.sum()
            s2_re[p, p] += (sq * sq).sum()
            for q in range(p + 1, 9):
                pr = re[p] * re[q] + im[p] * im[q]
                pi = im[p] * re[q] - re[p] * im[q]
                s_re[p, q] += pr.sum()
                s_im[p, q] += pi.sum()
                s2_re[p, q] += (pr * pr).sum()
                s2_im[p, q] += (pi * pi).sum()
    upper = np.triu_indices(9, 1)
    lower = upper[::-1]
    s_re[lower], s_im[lower] = s_re[upper], -s_im[upper]
    s2_re[lower], s2_im[lower] = s2_re[upper], s2_im[upper]
    est = ((s_re + 1j * s_im) / n).reshape(3, 3, 3, 3)
    s2_re, s2_im = s2_re.reshape(3, 3, 3, 3), s2_im.reshape(3, 3, 3, 3)
    var_re = np.maximum(s2_re / n - est.real ** 2, 0.0) * n / (n - 1)
    var_im = np.maximum(s2_im / n - est.imag ** 2, 0.0) * n / (n - 1)
    return OrthogonalityReport(estimates=est,
                               std_error_re=np.sqrt(var_re / n),
                               std_error_im=np.sqrt(var_im / n),
                               n_samples=n, seed=seed)


def volume_mc_estimate(n: int, seed: int = 0) -> tuple[float, float]:
    """(estimate, std_error) of the reference-box volume by plain MC.

    Uniform samples over the reference box times the density value; the mean
    times the box's Lebesgue volume estimates the closed form
    :func:`total_volume`.  Serves as the quadrature cross-check.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples for a standard error")
    rng = _rng(seed)
    dens = np.empty(n)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        u = rng.random((stop - start, 8))      # same stream as one (n, 8) draw
        # only beta, theta and b enter the density
        dens[start:stop] = _haar_density(*(u[:, j] * REFERENCE_BOX_HIGH[j] for j in (1, 3, 5)))
    box = float(np.prod(REFERENCE_BOX_HIGH))
    est = box * dens.mean()
    se = box * dens.std(ddof=1) / np.sqrt(n)
    return float(est), float(se)
