import concurrent.futures
import io
import subprocess
import sys
import threading

import numpy as np
import pytest

from su3kit import group, measure
from su3kit.group import CANONICAL_HIGH, compose_batch

from oracles import ks_two_sample_pvalue, ks_uniform_pvalue

SQ3 = np.sqrt(3.0)


def test_total_volume_closed_form():
    assert measure.total_volume() == pytest.approx((SQ3 / 2) * np.pi ** 5, rel=1e-15)
    assert measure.total_volume() == pytest.approx(265.0208, abs=5e-4, rel=0)


def test_volume_mc_matches_closed_form_within_3_sigma():
    est, se = measure.volume_mc_estimate(1_000_000, seed=4)
    assert abs(est - measure.total_volume()) <= 3 * se


def test_samples_respect_canonical_ranges():
    p = measure.sample_haar(0, 20_000)
    assert p.min() >= 0.0
    assert np.all(p.max(axis=0) <= CANONICAL_HIGH)
    # the non-uniform marginals actually reach deep into their ranges
    assert p[:, 1].max() > 1.4 and p[:, 3].max() > 1.4


def test_sampling_is_deterministic_per_seed():
    a = measure.sample_haar(123, 500)
    b = measure.sample_haar(123, 500)
    c = measure.sample_haar(124, 500)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_theta_marginal_inverse_cdf():
    p = measure.sample_haar(1, 100_000)
    # sin^4(theta) should be exactly uniform under the inverse-CDF sampler
    assert ks_uniform_pvalue(np.sin(p[:, 3]) ** 4) > 0.01
    # and E[sin^2 theta] = 2/3
    s2 = np.sin(p[:, 3]) ** 2
    assert abs(s2.mean() - 2 / 3) <= 3 * s2.std(ddof=1) / np.sqrt(s2.size)


def test_beta_marginal_inverse_cdf():
    p = measure.sample_haar(2, 100_000)
    assert ks_uniform_pvalue(np.sin(p[:, 1]) ** 2) > 0.01
    assert ks_uniform_pvalue(np.sin(p[:, 5]) ** 2) > 0.01


def test_integrate_constant_is_exact():
    res = measure.integrate(lambda d: np.ones(d.shape[0]), n=1000, seed=0)
    assert res.estimate == 1.0
    assert res.std_error == 0.0
    assert res.n_samples == 1000 and res.seed == 0


def test_integrate_schur_diagonal_and_off_diagonal():
    res = measure.integrate(lambda d: np.abs(d[:, 0, 0]) ** 2, n=100_000, seed=5)
    assert abs(res.estimate - 1 / 3) <= 3 * res.std_error

    res = measure.integrate(lambda d: d[:, 0, 0] * d[:, 1, 1].conj(), n=100_000, seed=6)
    assert abs(res.estimate) <= 3 * res.std_error


def test_orthogonality_suite_all_81_within_4_sigma():
    report = measure.orthogonality_suite(100_000, seed=7)
    assert report.max_sigma() <= 4.0
    diag = report.estimates[0, 0, 0, 0]
    assert diag.real == pytest.approx(1 / 3, abs=4 * report.std_error_re[0, 0, 0, 0], rel=0)
    # a fully off-diagonal entry sits at zero
    assert abs(report.estimates[0, 1, 0, 2]) <= 4 * max(report.std_error_re[0, 1, 0, 2],
                                                        report.std_error_im[0, 1, 0, 2])


def test_orthogonality_suite_matches_all_81_products():
    n, seed = 2000, 8
    report = measure.orthogonality_suite(n, seed=seed)
    d = compose_batch(measure.sample_haar(seed, n))
    prod = np.einsum('mij,mkl->mijkl', d, d.conj())
    np.testing.assert_allclose(report.estimates, prod.mean(axis=0), rtol=0, atol=1e-14)
    for se, part in ((report.std_error_re, prod.real), (report.std_error_im, prod.imag)):
        np.testing.assert_allclose(se, part.std(axis=0, ddof=1) / np.sqrt(n), rtol=0, atol=1e-14)


def test_orthogonality_suite_is_exactly_conjugate_symmetric():
    report = measure.orthogonality_suite(20_000, seed=9)
    est = report.estimates
    np.testing.assert_array_equal(est, est.transpose(2, 3, 0, 1).conj())
    for se in (report.std_error_re, report.std_error_im):
        np.testing.assert_array_equal(se, se.transpose(2, 3, 0, 1))
    # the nine |D_ij|^2 entries are real
    i, j = np.indices((3, 3))
    assert np.all(est[i, j, i, j].imag == 0)
    assert np.all(report.std_error_im[i, j, i, j] == 0)
    assert np.all(report.std_error_re[i, j, i, j] > 0)


def test_orthogonality_residual_shrinks_like_sqrt_n():
    worst_small = measure.orthogonality_suite(20_000, seed=8)
    worst_big = measure.orthogonality_suite(80_000, seed=9)
    r_small = np.abs(worst_small.estimates - worst_small.targets).max()
    r_big = np.abs(worst_big.estimates - worst_big.targets).max()
    ratio = r_small / r_big
    assert 2 / 1.5 <= ratio <= 2 * 1.5


def test_translation_invariance_left_and_right():
    n = 50_000
    angles = measure.sample_haar(10, n)
    d = compose_batch(angles)
    g = group.random_su3(1, np.random.default_rng(11))[0]
    gd = np.einsum('ab,mbc->mac', g, d)
    dg = np.einsum('mab,bc->mac', d, g)

    functions = [
        lambda u: np.abs(u[:, 0, 0]) ** 2,
        lambda u: np.abs(u[:, 2, 0]) ** 2,
        lambda u: (u[:, 0, 0] * u[:, 1, 1].conj()).real,
        lambda u: (u[:, 0, 1] * u[:, 2, 2].conj()).imag,
        lambda u: np.abs(np.trace(u, axis1=1, axis2=2)) ** 2,
        lambda u: np.trace(u, axis1=1, axis2=2).real,
        lambda u: (u[:, 0, 2] * u[:, 0, 0].conj()).real,
        lambda u: (u[:, 0, 2] * u[:, 0, 0].conj()).imag,
        lambda u: np.abs(u[:, 1, 2]) ** 4,
        lambda u: (u[:, 2, 2] ** 2 * u[:, 0, 0].conj() ** 2).real,
    ]
    for f in functions:
        base = f(d)
        for moved in (f(gd), f(dg)):
            diff = moved - base
            sigma = diff.std(ddof=1) / np.sqrt(n)
            assert abs(diff.mean()) <= 4 * sigma


def test_sampler_matches_qr_haar_distributions():
    # fully independent route to Haar: QR of Ginibre matrices
    n = 20_000
    d_chart = compose_batch(measure.sample_haar(12, n))
    d_qr = group.random_su3(n, np.random.default_rng(13))
    observables = [
        lambda u: np.trace(u, axis1=1, axis2=2).real,
        lambda u: np.trace(u, axis1=1, axis2=2).imag,
        lambda u: np.abs(u[:, 0, 1]) ** 2,
        lambda u: (u[:, 0, 0] * u[:, 1, 1].conj()).real,
        lambda u: np.angle(u[:, 2, 2]),
    ]
    for f in observables:
        assert ks_two_sample_pvalue(f(d_chart), f(d_qr)) > 1e-3


def test_translation_by_diagonal_signs():
    # this element exposes any chart under-coverage immediately
    g = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    n = 50_000
    d = compose_batch(measure.sample_haar(14, n))
    for f in (lambda u: (u[:, 0, 2] * u[:, 0, 0].conj()).imag,
              lambda u: np.trace(u, axis1=1, axis2=2).real):
        diff = f(np.einsum('ab,mbc->mac', g, d)) - f(d)
        assert abs(diff.mean()) <= 4 * diff.std(ddof=1) / np.sqrt(n)
        diff = f(np.einsum('mab,bc->mac', d, g)) - f(d)
        assert abs(diff.mean()) <= 4 * diff.std(ddof=1) / np.sqrt(n)


def test_csv_round_trip_and_determinism():
    samples = measure.sample_haar(3, 50)
    buf1, buf2 = io.StringIO(), io.StringIO()
    measure.dump_csv(samples, buf1)
    measure.dump_csv(samples, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    header = buf1.getvalue().splitlines()[0]
    assert header == "alpha,beta,gamma,theta,a,b,c,phi"
    buf1.seek(0)
    loaded = np.loadtxt(buf1, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(loaded, samples)


def test_sample_haar_rejects_bad_n():
    with pytest.raises(ValueError):
        measure.sample_haar(0, 0)
    for fn in (measure.orthogonality_suite, measure.volume_mc_estimate,
               lambda n: measure.integrate(lambda d: d[:, 0, 0], n)):
        for n in (0, 1):                # a standard error needs two samples
            with pytest.raises(ValueError, match="n >= 2"):
                fn(n)


# Serial oracles: one (n, 8) Philox draw, then the sampler's and the
# estimators' formulas written out, summed chunk by chunk in order.

def _uniforms(seed, n):
    return np.random.Generator(np.random.Philox(key=seed)).random((n, 8))


def _volume_oracle(n, seed):
    u = _uniforms(seed, n)
    beta, theta, b = (u[:, j] * measure.REFERENCE_BOX_HIGH[j] for j in (1, 3, 5))
    s = np.sin(theta)
    dens = np.sin(2 * beta) * np.sin(2 * b) * np.sin(2 * theta) * (s * s)
    box = float(np.prod(measure.REFERENCE_BOX_HIGH))
    return float(box * dens.mean()), float(box * dens.std(ddof=1) / np.sqrt(n))


def _orthogonality_oracle(n, seed):
    u = _uniforms(seed, n)
    p = np.empty((n, 8))
    p[:, 0] = np.pi * u[:, 0]
    p[:, 1] = np.arcsin(np.sqrt(u[:, 1]))
    p[:, 2] = 2 * np.pi * u[:, 2]
    p[:, 3] = np.arcsin(u[:, 3] ** 0.25)
    p[:, 4] = np.pi * u[:, 4]
    p[:, 5] = np.arcsin(np.sqrt(u[:, 5]))
    p[:, 6] = 2 * np.pi * u[:, 6]
    p[:, 7] = group.PHI_PERIOD * u[:, 7]
    s_re, s_im, s2_re, s2_im = np.zeros((4, 9, 9))
    for start in range(0, n, measure._CHUNK):
        flat = compose_batch(p[start:start + measure._CHUNK]).reshape(-1, 9).T
        re, im = np.ascontiguousarray(flat.real), np.ascontiguousarray(flat.imag)
        pr = re[:, None] * re + im[:, None] * im                # [p, q, sample]
        pi = im[:, None] * re - re[:, None] * im
        s_re += pr.sum(axis=-1)
        s_im += pi.sum(axis=-1)
        s2_re += (pr * pr).sum(axis=-1)
        s2_im += (pi * pi).sum(axis=-1)
    est = ((s_re + 1j * s_im) / n).reshape(3, 3, 3, 3)
    var_re = np.maximum(s2_re.reshape(est.shape) / n - est.real ** 2, 0.0) * n / (n - 1)
    var_im = np.maximum(s2_im.reshape(est.shape) / n - est.imag ** 2, 0.0) * n / (n - 1)
    return est, np.sqrt(var_re / n), np.sqrt(var_im / n)


CHUNK_SIZES = (2, measure._CHUNK, measure._CHUNK + 1, 3 * measure._CHUNK + 5)


@pytest.mark.parametrize("cpus", (1, 2))
@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_estimates_equal_serial_oracle_bit_for_bit(monkeypatch, n, cpus):
    monkeypatch.setattr(measure, "_usable_cpus", lambda: cpus)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)         # switch threads as often as possible
    try:
        est, se = measure.volume_mc_estimate(n, seed=n)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads          # the helper was joined
    assert (est.hex(), se.hex()) == tuple(x.hex() for x in _volume_oracle(n, n))
    report = measure.orthogonality_suite(n, seed=n + 1)
    for got, want in zip((report.estimates, report.std_error_re, report.std_error_im),
                         _orthogonality_oracle(n, n + 1)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_sample_haar_is_its_chunk_streams(n):
    chunks = [measure._angles(measure._stream(5, start).random((min(measure._CHUNK, n - start), 8)))
              for start in range(0, n, measure._CHUNK)]
    assert measure.sample_haar(5, n).tobytes() == np.concatenate(chunks).tobytes()


def _equals_serial_oracle(estimator, result, n, seed):
    if estimator == "volume_mc_estimate":
        return tuple(x.hex() for x in result) == tuple(x.hex() for x in _volume_oracle(n, seed))
    got = (result.estimates, result.std_error_re, result.std_error_im)
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, _orthogonality_oracle(n, seed)))


ESTIMATORS = ("volume_mc_estimate", "orthogonality_suite")


@pytest.mark.parametrize("estimator, kernel", zip(ESTIMATORS, ("_haar_density", "compose_batch")),
                         ids=ESTIMATORS)
def test_helper_thread_exception_reaches_caller(monkeypatch, estimator, kernel):
    original = getattr(measure, kernel)
    helper_failed = threading.Event()

    def fail_off_main_thread(*args):
        if threading.current_thread() is threading.main_thread():
            helper_failed.wait(timeout=10)      # so that the helper claims a chunk
            return original(*args)
        helper_failed.set()
        raise RuntimeError("helper failed")

    monkeypatch.setattr(measure, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(measure, kernel, fail_off_main_thread)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="helper failed"):
        getattr(measure, estimator)(2 * measure._CHUNK)
    assert threading.active_count() == threads


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_caller_computes_every_chunk_while_the_helper_is_held_back(monkeypatch, estimator):
    # a helper whose CPU is busy starts late; the caller then claims every
    # chunk instead of waiting for the helper's share
    n = 3 * measure._CHUNK + 5
    starts = set(range(0, n, measure._CHUNK))
    computed_by = {}
    caller_claimed_all = threading.Event()
    stream = measure._stream

    def recording_stream(seed, start):
        computed_by[start] = threading.current_thread()
        if computed_by.keys() == starts:
            caller_claimed_all.set()
        return stream(seed, start)

    class HeldBackPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args):
            def held_back(*args):
                caller_claimed_all.wait(timeout=10)
                return fn(*args)
            return super().submit(held_back, *args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", HeldBackPool)
    monkeypatch.setattr(measure, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(measure, "_stream", recording_stream)
    threads = threading.active_count()
    result = getattr(measure, estimator)(n, seed=n)
    assert threading.active_count() == threads          # the helper was joined
    assert caller_claimed_all.is_set()
    assert set(computed_by.values()) == {threading.main_thread()}
    assert _equals_serial_oracle(estimator, result, n, n)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_two_thread_orthogonality_suite_keeps_peak_memory_low():
    # the helper composes short spans in workspace the caller allocated; whole
    # chunks composed on the helper leave their temporaries in its malloc
    # arena and grow the peak by ~17 MB.  A child's ru_maxrss starts at its
    # parent's peak on Linux, so the child reads its own high-water mark.
    code = """
from su3kit import measure

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

measure._usable_cpus = lambda: 2
measure.orthogonality_suite(2)      # load the sampler and the kernels first
before = peak_kib()
measure.orthogonality_suite(100_000)
print(peak_kib() - before)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert int(out.stdout) < 12 * 1024


def test_import_does_not_load_the_thread_pool():
    # concurrent.futures is imported by the first two-thread estimate only,
    # so one-shot CLI calls do not pay for it
    code = "import sys, su3kit, su3kit.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
