"""Normalized Haar measure on SU(3) in the eight-angle chart.

The sampler draws the closed-form inverse-CDF marginals

    beta, b  ~ arcsin(sqrt(u)),   theta ~ arcsin(u^(1/4)),
    alpha, a ~ U[0, pi),   gamma, c ~ U[0, 2 pi),   phi ~ U[0, sqrt(3) pi),

which push forward through :func:`su3kit.group.compose` to the normalized
Haar measure (chart density sin(2 beta) sin(2 b) sin(2 theta) sin^2 theta).
Correctness is enforced by the orthogonality-relation and translation
invariance tests rather than assumed.

Sampling uses a counter-based Philox stream keyed by the seed, so any
``_CHUNK``-row chunk of a draw can start on its own.  Every estimate is
accumulated over the same chunks in a fixed order, so results are
bit-identical for a fixed (seed, n) whether :func:`volume_mc_estimate` and
:func:`orthogonality_suite` run on one thread or two.  :func:`integrate`
stays on one thread, because the function it calls need not be thread-safe.
"""

from __future__ import annotations

import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .group import ANGLE_NAMES, PHI_PERIOD, _haar_density, compose_batch

_CHUNK = 1 << 14
_SPAN = 1 << 11           # rows per compose_batch call in orthogonality_suite

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
    u[:, 0] *= np.pi
    u[:, 1] = np.arcsin(np.sqrt(u[:, 1]))
    u[:, 2] *= 2 * np.pi
    u[:, 3] = np.arcsin(u[:, 3] ** 0.25)
    u[:, 4] *= np.pi
    u[:, 5] = np.arcsin(np.sqrt(u[:, 5]))
    u[:, 6] *= 2 * np.pi
    u[:, 7] *= PHI_PERIOD
    return u


def sample_haar(seed: int, n: int) -> np.ndarray:
    """n i.i.d. Haar samples as an (n, 8) array of chart angles.

    Deterministic for a fixed seed.  Columns follow
    ``su3kit.group.ANGLE_NAMES``; all values are in the canonical ranges.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    return _angles(_stream(seed, 0).random((n, 8)))


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
        Philox key; fixed (seed, n) gives bit-identical results.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples for a standard error")
    values = np.empty(n, dtype=complex)
    buf = np.empty((min(n, _CHUNK), 8))
    for start in range(0, n, _CHUNK):
        angles = _angles(_stream(seed, start).random(out=buf[:min(_CHUNK, n - start)]))
        values[start:start + len(angles)] = f(compose_batch(angles))
    mean = values.mean()
    var = values.real.var(ddof=1) + values.imag.var(ddof=1)
    se = float(np.sqrt(var / n))
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

    The sums of each ``_CHUNK``-row chunk are added in chunk order, so the
    report is bit-identical whether the chunks run on one thread or two
    (see :class:`_Chunks`).
    """
    return _start_orthogonality(n, seed).join()


def _start_orthogonality(n: int, seed: int) -> _Chunks:
    """:func:`orthogonality_suite` begun: a helper thread may start on its
    chunks now, and ``join()`` returns the report (see :class:`_Chunks`)."""
    if n < 2:
        raise ValueError("need n >= 2 samples for a standard error")
    m = min(n, _CHUNK)

    def scratch():
        # uniforms, the real and imaginary parts of the nine entries, and two
        # rows for the pair products
        return np.empty((m, 8)), np.empty((9, m)), np.empty((9, m)), np.empty(m), np.empty(m)

    def chunk_sums(start, stop, ws):
        k = stop - start
        u, re, im, a, b = ws[0][:k], *(x[..., :k] for x in ws[1:])
        angles = _angles(_stream(seed, start).random(out=u))
        # spans this short keep compose_batch's temporaries in cache
        for lo in range(0, k, _SPAN):
            flat = compose_batch(angles[lo:lo + _SPAN]).reshape(-1, 9).T
            re[:, lo:lo + _SPAN], im[:, lo:lo + _SPAN] = flat.real, flat.imag
        s = np.zeros((4, 9, 9))         # s_re, s_im, s2_re, s2_im
        for p in range(9):
            np.add(np.multiply(re[p], re[p], out=a), np.multiply(im[p], im[p], out=b), out=a)
            s[0, p, p] = a.sum()
            s[2, p, p] = np.multiply(a, a, out=b).sum()
            for q in range(p + 1, 9):
                np.add(np.multiply(re[p], re[q], out=a), np.multiply(im[p], im[q], out=b), out=a)
                s[0, p, q] = a.sum()
                s[2, p, q] = np.multiply(a, a, out=b).sum()
                np.subtract(np.multiply(im[p], re[q], out=a), np.multiply(re[p], im[q], out=b),
                            out=a)
                s[1, p, q] = a.sum()
                s[3, p, q] = np.multiply(a, a, out=b).sum()
        return s

    def report(sums):
        # one running sum in chunk order, as on one thread
        s_re, s_im, s2_re, s2_im = sum(sums, np.zeros((4, 9, 9)))
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

    return _Chunks(n, chunk_sums, scratch, report)


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

    def __init__(self, n: int, step, scratch, finish=list):
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
    :func:`total_volume`.  Serves as the quadrature cross-check.  The
    chunks run on one thread or two with the same bits (see
    :class:`_Chunks`).
    """
    if n < 2:
        raise ValueError("need n >= 2 samples for a standard error")
    dens = np.empty(n)

    def fill(start, stop, buf):
        u = _stream(seed, start).random(out=buf[:stop - start])
        # only beta, theta and b enter the density
        dens[start:stop] = _haar_density(*(u[:, j] * REFERENCE_BOX_HIGH[j] for j in (1, 3, 5)))

    _Chunks(n, fill, lambda: np.empty((min(n, _CHUNK), 8))).join()
    box = float(np.prod(REFERENCE_BOX_HIGH))
    est = box * dens.mean()
    se = box * dens.std(ddof=1) / np.sqrt(n)
    return float(est), float(se)
