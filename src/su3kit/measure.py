"""Normalized Haar measure on SU(3) in the eight-angle chart.

The sampler draws the closed-form inverse-CDF marginals

    beta, b  ~ arcsin(sqrt(u)),   theta ~ arcsin(u^(1/4)),
    alpha, a ~ U[0, pi),   gamma, c ~ U[0, 2 pi),   phi ~ U[0, sqrt(3) pi),

which push forward through :func:`su3kit.group.compose` to the normalized
Haar measure (chart density sin(2 beta) sin(2 b) sin(2 theta) sin^2 theta).
Correctness is enforced by the orthogonality-relation and translation
invariance tests rather than assumed.

Sampling uses a counter-based Philox stream keyed by the seed, so any row
of a draw can start a stream of its own.  Every function taking a seed
refuses one that is not an integer in [0, 2**128), the Philox key range
(``group._check_seed``).  Each estimate holds O(``_CHUNK``) rows per
thread whatever n: every ``_CHUNK``-row chunk (``_SPAN``-row span
in :func:`integrate`) is reduced to its count, mean and sum of squared
deviations, and these are merged in chunk order (:func:`_merged`), so
results are bit-identical for a fixed (seed, n) whether
:func:`volume_mc_estimate` and :func:`orthogonality_suite` run on one
thread or two.  :func:`integrate` stays on one thread, because the function
it calls need not be thread-safe.
"""

from __future__ import annotations

import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .group import (ANGLE_NAMES, CANONICAL_HIGH, PHI_PERIOD, _check_count, _check_seed,
                    _haar_density, compose_batch)

_CHUNK = 1 << 14
_SPAN = 1 << 11           # rows per compose_batch call
_SCALE = np.where([0, 1, 0, 1, 0, 1, 0, 0], 1.0, CANONICAL_HIGH)  # 1: arcsin columns

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


def _stream(seed: int, start: int) -> np.random.Generator:
    """Philox generator keyed by seed, positioned at row ``start`` of the
    seed's (n, 8) uniform draw: a row takes 8 doubles, a counter step 4."""
    bits = np.random.Philox(key=seed)
    bits.advance(start * 8 // 4)
    return np.random.Generator(bits)


def _angles(u: np.ndarray) -> np.ndarray:
    """Chart angles from an (m, 8) array of uniforms on [0, 1), in place,
    by the inverse-CDF marginals of the module docstring; returns u."""
    u *= _SCALE
    u[:, 1] = np.arcsin(np.sqrt(u[:, 1]))
    u[:, 3] = np.arcsin(u[:, 3] ** 0.25)
    u[:, 5] = np.arcsin(np.sqrt(u[:, 5]))
    return u


def sample_haar(seed: int, n: int) -> np.ndarray:
    """n i.i.d. Haar samples as an (n, 8) array of chart angles.

    Deterministic for a fixed seed, an integer in [0, 2**128).  Columns follow
    ``su3kit.group.ANGLE_NAMES``; all values are in the canonical ranges.
    """
    _check_count(n, "n")
    _check_seed(seed)
    return _angles(_stream(seed, 0).random((n, 8)))


def _moments(x: np.ndarray) -> tuple:
    """(count, mean, sum of |x - mean|^2) of a 1-D chunk of real or complex
    values.  Reduced by ufuncs: OpenBLAS may thread a dot product of rows
    this long, and two estimate threads then contend for the CPUs."""
    mean = x.sum() / len(x)
    d = x - mean
    if np.iscomplexobj(d):
        d = d.view(float)               # the real and imaginary parts in turn
    return len(x), mean, np.multiply(d, d, out=d).sum()


def _merged(moments) -> tuple:
    """(count, mean, sum of squared deviations) of chunks together, from each
    chunk's triple (see :func:`_moments`), merged in chunk order by the
    pairwise update of Chan, Golub & LeVeque (1983).  Means and sums may be
    arrays, merged entry by entry."""
    n, mean, m2 = moments[0]
    for k, mean_k, m2_k in moments[1:]:
        delta = mean_k - mean
        mean = mean + delta * (k / (n + k))
        m2 = m2 + m2_k + (delta * np.conj(delta)).real * (n * k / (n + k))
        n += k
    return n, mean, m2


def dump_csv(samples: np.ndarray, path_or_file) -> None:
    """Write samples as CSV with the angle-name header, 17 significant digits."""
    samples = np.asarray(samples, dtype=float)
    with (nullcontext(path_or_file) if hasattr(path_or_file, "write")
          else open(path_or_file, "w", encoding="utf-8")) as fh:
        fh.write(",".join(ANGLE_NAMES) + "\n")
        for row in samples:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


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
        Sample count, at least 2 for a standard error.
    seed : int
        Philox key, in [0, 2**128); fixed (seed, n) gives bit-identical
        results.

    f is called on one ``_SPAN``-row span of the draw at a time, and each
    span's values are reduced to their :func:`_moments` before the next is
    drawn, so neither the group elements of a whole chunk nor compose_batch's
    temporaries for them are held.
    """
    _check_count(n, "n", 2)
    _check_seed(seed)
    moments, real = [], True
    buf = np.empty((min(n, _SPAN), 8))
    for start in range(0, n, _SPAN):
        angles = _angles(_stream(seed, start).random(out=buf[:min(_SPAN, n - start)]))
        values = np.broadcast_to(f(compose_batch(angles)), len(angles))
        real = real and not (np.iscomplexobj(values) and values.imag.any())
        moments.append(_moments(values))
    _, mean, m2 = _merged(moments)
    se = float(np.sqrt(m2 / (n - 1) / n))
    return IntegrationResult(estimate=mean.real if real else mean, std_error=se,
                             n_samples=n, seed=seed)


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

    With the nine entries of D flattened to D_p and x_pq = D_p conj(D_q),
    each ``_SPAN``-row span adds three Gram products of its rows: of the
    real and imaginary parts of D_p, which give the sums of Re x_pq and
    Im x_pq; of |D_p|^2; and of the parts of D_p^2.  Since
    (Re x)^2 +- (Im x)^2 = |D_p|^2 |D_q|^2 and Re(D_p^2 conj(D_q)^2), the
    last two give the sums of (Re x_pq)^2 and (Im x_pq)^2.  Each Gram
    product is exactly symmetric, so the report is exactly Hermitian, and
    the |D_p|^2 entries have an imaginary part and standard error of
    exactly 0.

    Each ``_CHUNK``-row chunk is reduced to its count, mean and sum of
    squared deviations, and these are merged in chunk order, so the report
    is bit-identical whether the chunks run on one thread or two (see
    :class:`_Chunks`).
    """
    return _start_orthogonality(n, seed).join()


def _start_orthogonality(n: int, seed: int) -> _Chunks:
    """:func:`orthogonality_suite` begun: a helper thread may start on its
    chunks now, and ``join()`` returns the report (see :class:`_Chunks`)."""
    _check_count(n, "n", 2)
    _check_seed(seed)

    def chunk_moments(start, stop, u):
        re_im, squares, abs2 = np.zeros((18, 18)), np.zeros((18, 18)), np.zeros((9, 9))
        # spans this short keep compose_batch's temporaries in cache, and
        # OpenBLAS on one thread; each span draws from its own stream, which
        # continues the chunk's row for row
        for lo in range(start, stop, _SPAN):
            angles = _angles(_stream(seed, lo).random(out=u[:min(_SPAN, stop - lo)]))
            d = compose_batch(angles).reshape(-1, 9)
            r, g = d.view(float), (d * d).view(float)     # Re, Im of D_p, then of D_p^2
            a = r[:, ::2] ** 2 + r[:, 1::2] ** 2           # |D_p|^2
            # np.dot of an array's transpose and itself is a BLAS syrk whose
            # triangle numpy mirrors, so each sum is exactly symmetric; unlike
            # matmul of two matrices, np.dot releases the interpreter lock
            re_im += np.dot(r.T, r)
            squares += np.dot(g.T, g)
            abs2 += np.dot(a.T, a)
        k = stop - start
        mean = np.stack([re_im[::2, ::2] + re_im[1::2, 1::2],
                         re_im[1::2, ::2] - re_im[::2, 1::2]]) / k
        cross = squares[::2, ::2] + squares[1::2, 1::2]
        # Re(D_p^2 conj(D_p^2)) = |D_p|^4: taken from abs2, so that the
        # (Im x_pp)^2, each exactly 0, sum to exactly 0
        np.fill_diagonal(cross, abs2.diagonal())
        return k, mean, np.stack([abs2 + cross, abs2 - cross]) / 2 - k * mean * mean

    def report(moments):
        _, mean, m2 = _merged(moments)
        se_re, se_im = np.sqrt(m2 / (n - 1) / n).reshape(2, 3, 3, 3, 3)
        return OrthogonalityReport(estimates=(mean[0] + 1j * mean[1]).reshape(3, 3, 3, 3),
                                   std_error_re=se_re, std_error_im=se_im,
                                   n_samples=n, seed=seed)

    return _Chunks(n, chunk_moments, lambda: np.empty((min(n, _SPAN), 8)), report)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


class _Chunks:
    """``step(start, stop, ws)`` for each ``_CHUNK``-row chunk [start, stop)
    of n rows, begun when this is made and finished by :meth:`join`, which
    returns ``finish`` of the results in chunk order.

    When the process may use two CPUs and there are two chunks or more, a
    helper thread starts claiming the next unclaimed chunk at once, and the
    calling thread claims the rest in :meth:`join`; so a thread that gets
    less CPU computes fewer chunks, and work done between the start and the
    join overlaps the helper's.  numpy releases the interpreter lock in the
    draws and the ufuncs.  Otherwise nothing starts before :meth:`join`.  A
    step's result must depend only on its chunk; then the results are
    bit-identical on one thread or two.  An exception in the helper is
    raised by :meth:`join`, and the helper is joined before that returns.
    Leaving a ``with`` block on this stops the helper claiming chunks and
    joins it, so an exception raised before the join leaves no thread.

    ``scratch()`` makes one thread's workspace ``ws``, on the calling
    thread: what a helper allocates and frees stays in its own malloc
    arena and raises the process's peak memory.  The caller's own is made
    in :meth:`join`, so it is not held while the helper runs alone.
    """

    def __init__(self, n: int, step, scratch, finish):
        self._n, self._step, self._scratch, self._finish = n, step, scratch, finish
        self._starts = range(0, n, _CHUNK)
        self._results = [None] * len(self._starts)
        self._claims, self._lock = iter(range(len(self._starts))), threading.Lock()
        self._pool = self._helper = None
        if len(self._starts) >= 2 and _usable_cpus() >= 2:
            from concurrent.futures import ThreadPoolExecutor
            helper_ws = scratch()
            self._pool = ThreadPoolExecutor(max_workers=1)
            self._helper = self._pool.submit(self._run, helper_ws)

    def _run(self, ws) -> None:
        while True:
            with self._lock:
                i = next(self._claims, None)
            if i is None:
                return
            start = self._starts[i]
            self._results[i] = self._step(start, min(start + _CHUNK, self._n), ws)

    def join(self):
        """Compute the chunks no thread has claimed, wait for the helper and
        return ``finish(results)``."""
        try:
            self._run(self._scratch())
            if self._helper is not None:
                self._helper.result()
        finally:
            self.close()
        return self._finish(self._results)

    def close(self) -> None:
        """Let no thread claim another chunk, and join the helper."""
        with self._lock:
            self._claims = iter(())
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def volume_mc_estimate(n: int, seed: int = 0) -> tuple[float, float]:
    """(estimate, std_error) of the reference-box volume by plain MC.

    Uniform samples over the reference box times the density value; the mean
    times the box's Lebesgue volume estimates the closed form
    :func:`total_volume`.  Serves as the quadrature cross-check.  Each
    chunk's densities are reduced to their :func:`_moments`, which are
    merged in chunk order, so the chunks run on one thread or two with the
    same bits (see :class:`_Chunks`).
    """
    _check_count(n, "n", 2)
    _check_seed(seed)

    def chunk_moments(start, stop, buf):
        u = _stream(seed, start).random(out=buf[:stop - start])
        # only beta, theta and b enter the density
        return _moments(_haar_density(*(u[:, j] * REFERENCE_BOX_HIGH[j] for j in (1, 3, 5))))

    _, mean, m2 = _Chunks(n, chunk_moments, lambda: np.empty((min(n, _CHUNK), 8)),
                          _merged).join()
    box = float(np.prod(REFERENCE_BOX_HIGH))
    return float(box * mean), float(box * np.sqrt(m2 / (n - 1)) / np.sqrt(n))
