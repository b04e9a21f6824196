"""Tests of the benchmark's own code: percentiles, span self time, the
rectangle closed form, input generators, the known-defect limits, the
operation tally, the reference job and the metric lists.

Run with:  python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from stats import percentile  # noqa: E402


def test_percentile_nearest_rank():
    assert percentile(range(1, 101), 50, min_beyond=0) == (50, 50)
    assert percentile(range(1, 101), 99, min_beyond=0) == (99, 1)
    assert percentile([3.0, 1.0, 2.0], 50, min_beyond=0) == (2.0, 1)


def test_percentile_needs_more_than_ten_beyond():
    with pytest.raises(ValueError):
        percentile(range(1000), 99)          # 10 beyond
    value, beyond = percentile(range(1100), 99)
    assert beyond == 11 and value == 1088
    with pytest.raises(ValueError):
        percentile([], 50)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    # a: 0..10 holds b: 2..5 (holding c: 3..4) and d: 6..8; e: 12..13 alone
    clock = FakeClock()
    tr = spans.Tracer(clock)
    events = [(0, "enter", "a"), (2, "enter", "b"), (3, "enter", "c"), (4, "exit", "c"),
              (5, "exit", "b"), (6, "enter", "d"), (8, "exit", "d"), (10, "exit", "a"),
              (12, "enter", "e"), (13, "exit", "e")]
    starts = []
    for t, what, name in events:
        clock.now = float(t)
        if what == "enter":
            starts.append(tr.enter())
        else:
            tr.exit(name, starts.pop(), units=2)
    self_s = {name: s.self_s for name, s in tr.stats.items()}
    assert self_s == {"a": 5.0, "b": 2.0, "c": 1.0, "d": 2.0, "e": 1.0}
    assert tr.covered_s == 11.0
    assert all(s.calls == 1 and s.units == 2 for s in tr.stats.values())


def test_span_counts_time_of_a_raising_call():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def boom():
        clock.now += 3.0
        raise ValueError("x")

    traced = tr.wrap("m.boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert tr.stats["m.boom"].calls == 1 and tr.stats["m.boom"].self_s == 3.0


def test_install_wraps_every_binding_and_uninstall_restores():
    from su3kit import cartan, group
    original = group.exp_generator
    tr = spans.Tracer()
    undo = spans.install(tr)
    try:
        assert cartan.exp_generator is not original
        assert cartan.exp_generator is group.exp_generator
        cartan.left_coeffs(np.full(8, 0.4))
    finally:
        spans.uninstall(undo)
    assert group.exp_generator is original and cartan.exp_generator is original
    assert tr.stats["cartan.left_coeffs"].calls == 1
    assert tr.stats["group.exp_generator"].calls == 8
    assert tr.stats["algebra.expand_hermitian"].calls == 8


def test_rectangle_closed_form_matches_quadrature():
    for rect in gen.rectangles(3)[:4]:
        (x0, x1), (y0, y1) = rect.theta, rect.gamma
        x = np.linspace(x0, x1, 20001)
        f = np.sin(2 * x)                      # curvature component F_theta,gamma
        simpson = (x[1] - x[0]) / 3 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum())
        assert rect.closed_form_phase() == pytest.approx((y1 - y0) * simpson, abs=1e-11)
        corners = rect.boundary()
        assert np.array_equal(corners[0], corners[-1])


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True)


def test_generators_are_deterministic_per_seed():
    a, b, c = gen.point_requests(5), gen.point_requests(5), gen.point_requests(6)
    for field in ("points", "matrices", "states"):
        assert _same(getattr(a, field), getattr(b, field))
        assert not _same(getattr(a, field), getattr(c, field))
    assert a.kinds == b.kinds and a.stratum == b.stratum
    assert _same(gen.closed_loops(5), gen.closed_loops(5))
    assert not _same(gen.closed_loops(5), gen.closed_loops(6))
    r5, r6 = gen.rectangles(5), gen.rectangles(6)
    assert [r.theta for r in r5] == [r.theta for r in gen.rectangles(5)]
    assert [r.theta for r in r5] != [r.theta for r in r6]


def test_point_request_shares_and_inputs():
    req = gen.point_requests(0)
    kinds = np.array(req.kinds)
    assert (kinds == gen.NEAR).sum() == 75 and (kinds == gen.MALFORMED).sum() == 30
    bad = kinds == gen.MALFORMED
    assert np.all(~np.isfinite(req.points[bad]).all(axis=1))
    assert np.isfinite(req.points[~bad]).all()
    for i in np.flatnonzero(bad):
        u = req.matrices[i]
        assert not np.isfinite(u).all() or np.abs(u.conj().T @ u - np.eye(3)).max() > 1e-7
    for i in np.flatnonzero(kinds == gen.NEAR):
        j, dist = req.stratum[i]
        assert 1e-13 <= dist <= 1e-3
        assert min(req.points[i, j], np.pi / 2 - req.points[i, j]) == pytest.approx(dist, rel=1e-3)
        assert np.array_equal(req.matrices[i], req.states[i])


def test_haar_matrices_are_special_unitary():
    u = gen.haar_matrices(gen.make_rng(1, "haar"), 200)
    eye = np.eye(3)
    assert np.abs(np.conj(np.swapaxes(u, 1, 2)) @ u - eye).max() < 1e-13
    assert np.abs(np.linalg.det(u) - 1).max() < 1e-13


def test_chart_product_matches_su3kit():
    from su3kit import group
    p = gen.interior_points(gen.make_rng(2, "points"), 50)
    assert np.abs(gen.chart_product(p) - group.compose_batch(p)).max() < 1e-14


def test_loops_close_on_the_chart():
    loops = gen.closed_loops(0)
    assert loops.shape == (gen.N_LOOPS, gen.LOOP_WAYPOINTS + 1, 8)
    assert np.array_equal(loops[:, 0], loops[:, -1])


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(worker.LAYER_METRICS) + ["trace.overhead_s"]
    latency = [f"{fn}_p50_us" for fn in worker.LATENCY_REPORT]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END) + latency
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_near_stratum_allowance_scales_with_distance():
    theta, beta = worker.THETA, gen.ANGLE_NAMES.index("beta")
    # the rounding loss seen near a stratum is allowed ...
    assert worker.near_stratum_ceiling("frame", beta, True, 1e-12) > 30 * worker.EPS / 1e-12
    assert worker.near_stratum_ceiling("frame", theta, True, 1e-9) > 5.5e3 * worker.EPS / 1e-9
    # ... a garbage frame or a density snapped to 0 is not, however close
    assert worker.near_stratum_ceiling("frame", beta, False, 1e-13) < 1.0
    assert worker.near_stratum_ceiling("frame", theta, False, 1e-3) < 1e-9
    assert worker.near_stratum_ceiling("haar_density", theta, True, 1e-13) < 1.0
    # density failures (ratio error above 1e-9) are allowed only below 1e-6
    assert worker.near_stratum_ceiling("haar_density", beta, False, 1e-6) < worker.DENSITY_RATIO_TOL


def test_verify_misses_are_allowed_only_at_their_seeds():
    check = "cartan.closure_right_minus_C"
    assert worker.verify_defect(95, check, 1.1e-5, 1e-5) == "verify_seed_miss"
    assert worker.verify_defect(95, check, 2e-4, 1e-5) is None           # beyond 10x
    assert worker.verify_defect(96, check, 1.1e-5, 1e-5) is None         # not catalogued
    assert worker.verify_defect(95, "cartan.left_defining_relation", 1.1e-5, 1e-5) is None
    assert all(0 <= seed < worker.VERIFY_SEEDS for seed in worker.VERIFY_SEED_MISSES)
    assert all(name in worker.VERIFY_CHECKS
               for names in worker.VERIFY_SEED_MISSES.values() for name in names)


def test_tally_counts_each_operation_once():
    tally = worker.Outcome()
    for _job in range(3):
        tally.record(("points", 0, "compose"), True, "compose on point 0")
        tally.record(("points", 1, "frame"), False, "frame on point 1", "near_stratum_duality")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.by_class == {"near_stratum_duality": 1}
    tally.record(("points", 0, "compose"), False, "compose on point 0")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.by_class["unexpected"] == 1
    assert "verdict changed" in tally.unexpected[0]


def test_reference_job_calls_no_su3kit_code():
    ref = worker.Reference()
    tr = spans.Tracer()
    undo = spans.install(tr)
    try:
        ref.job()
    finally:
        spans.uninstall(undo)
    assert not any(st.calls for st in tr.stats.values())
    wall, cpu = ref.speed()
    assert wall > 0 and cpu > 0
    assert len(ref.ops.wall) == worker.REFERENCE_POINTS
