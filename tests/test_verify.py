"""Each residual function of su3kit.verify, which ``su3kit verify`` and the
acceptance suite trust, reports a residual above its threshold once the
identity it checks is broken by a relative error of about 1e-4 or less;
and ``run_checks`` gives the same results however its orthogonality
estimate, begun before the first check, is scheduled."""

import dataclasses
import threading

import numpy as np
import pytest

from su3kit import cartan, measure, phase, verify
from su3kit.group import random_su3
from su3kit.measure import sample_haar

POINTS = sample_haar(7, 4)


def scaled(fn, along_alpha=False):
    """fn with its (n, 8, 8) output times 1 + 1e-4, or times 1 + 1e-4 alpha."""
    return lambda p: fn(p) * (1 + 1e-4 * (p[:, :1, None] if along_alpha else 1))


def test_scaled_fields_are_caught(monkeypatch):
    # the right fields are scaled along alpha: a constant factor on one side
    # would still commute with the other side's fields
    frame = cartan.frame
    monkeypatch.setattr(cartan, "frame", lambda p: dataclasses.replace(
        frame(p), a_left=scaled(cartan.left_fields)(p),
        a_right=scaled(cartan.right_fields, along_alpha=True)(p)))
    left, right, adjoint = verify.defining_relations(POINTS)
    assert left > 1e-7 and right > 1e-7 and adjoint > 1e-10
    assert all(r > 1e-5 for r in verify.closure(POINTS))
    assert verify.duality(POINTS) > 1e-11


def test_scaled_coefficients_are_caught(monkeypatch):
    monkeypatch.setattr(cartan, "_coeffs", lambda p: np.stack(
        [scaled(cartan.left_coeffs, along_alpha=True)(p), scaled(cartan.right_coeffs)(p)]))
    spread, left_right = verify.density_residuals(POINTS)
    assert spread > 1e-9 and left_right > 1e-11


def test_flipped_connection_is_caught(monkeypatch):
    mean_connection = phase._mean_connection
    monkeypatch.setattr(phase, "_mean_connection",
                        lambda *step: tuple(-x for x in mean_connection(*step)))
    base = np.array([0.3, 0.4, 0.0, 0.0, 0.5, 0.6, 0.7, 0.8])
    assert verify.stokes_rectangle(base, ((0.2, 1.1), (0.3, 2.4))) > 1e-6


def test_faulty_matrices_and_states_are_caught():
    mats = random_su3(20, np.random.default_rng(3))
    assert verify.round_trip(mats * (1 + 1e-9)) > 1e-10
    assert verify.pure_state_residual(mats * (1 + 1e-6)) > 1e-11
    moved = POINTS.copy()
    moved[:, 3] += 1e-4                 # theta is not a stabilizer angle
    assert verify.stabilizer_residual(POINTS, moved) > 1e-12


def full_checks(seed):
    return [(c.name, c.residual.hex(), c.passed, c.n_samples)
            for c in verify.run_checks("full", seed)]


ORTH_STARTS = range(0, 100_000, measure._CHUNK)      # at the full level


# catalogued misses (bench/worker.py): the closure residuals sit near their
# bound (1e-5), so these seeds watch the bits the Maurer-Cartan kernel moves
CLOSURES = ["cartan.closure_left_plus_C", "cartan.closure_right_minus_C",
            "cartan.left_right_commute"]
SEED_MISSES = {124: ["measure.orthogonality_4sigma"], 77: CLOSURES,
               95: ["cartan.closure_right_minus_C"]}


@pytest.mark.parametrize("seed", (124, 3, 77, 95))
def test_full_checks_are_bit_identical_on_one_cpu_and_two(monkeypatch, seed):
    results = {}
    for cpus in (1, 2):
        monkeypatch.setattr(measure, "_usable_cpus", lambda: cpus)
        results[cpus] = full_checks(seed)
    assert results[1] == results[2]
    failed = [name for name, _, passed, _ in results[2] if not passed]
    assert failed == SEED_MISSES.get(seed, [])


def test_a_failing_check_stops_and_joins_the_orthogonality_helper(monkeypatch):
    raised = threading.Event()
    helper_chunks = []
    stream = measure._stream

    def recording_stream(seed, start):
        # a chunk's first span opens the stream at the chunk's start
        if threading.current_thread() is not threading.main_thread() and start in ORTH_STARTS:
            helper_chunks.append(start)
            raised.wait(timeout=10)             # so that the check fails mid-estimate
        return stream(seed, start)

    def failing_duality(points):
        raised.set()
        raise RuntimeError("duality failed")

    monkeypatch.setattr(measure, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(measure, "_stream", recording_stream)
    monkeypatch.setattr(verify, "duality", failing_duality)
    with pytest.raises(RuntimeError, match="duality failed"):
        verify.run_checks("full", 3)
    # the helper stopped claiming chunks; no_thread_left_running checks it was joined
    assert len(helper_chunks) < len(ORTH_STARTS)


def test_caller_computes_every_orthogonality_chunk_while_the_helper_is_held_back(
        monkeypatch, held_back_helper):
    seed = 3
    starts = set(ORTH_STARTS)
    computed_by = {}
    stream = measure._stream

    def recording_stream(key, start):
        # the orthogonality chunks are the first streams keyed by the seed itself
        if key == seed and start in starts:
            computed_by.setdefault(start, threading.current_thread())
            if computed_by.keys() == starts:
                held_back_helper.set()
        return stream(key, start)

    monkeypatch.setattr(measure, "_usable_cpus", lambda: 1)
    expected = full_checks(seed)
    monkeypatch.setattr(measure, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(measure, "_stream", recording_stream)
    assert full_checks(seed) == expected
    assert held_back_helper.is_set()
    assert set(computed_by.values()) == {threading.main_thread()}
