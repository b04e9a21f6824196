"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on stdout.
"""

import numpy as np

from su3kit import algebra, cartan, group, measure, phase, verify
from su3kit.measure import sample_haar

SQ3 = np.sqrt(3.0)


def report(num: int, description: str, residual: float, threshold: float) -> None:
    ok = residual <= threshold
    line = (f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}: "
            f"residual {residual:.3e} vs threshold {threshold:.3e}")
    print(line)
    assert ok, line


def test_criterion_01_algebra_tables():
    residual = max(algebra.commutator_tensor_check().max(),
                   algebra.anticommutator_tensor_check().max())
    report(1, "commutator/anticommutator identities, 64 pairs", residual, 1e-14)


def test_criterion_02_chart_round_trip():
    worst = verify.round_trip(group.random_su3(1000, np.random.default_rng(2024)))
    report(2, "compose(decompose(u)) on 1000 Haar-random matrices", worst, 1e-10)


def test_criterion_03_defining_relations():
    left, right, adjoint = verify.defining_relations(sample_haar(301, 100))
    report(3, "Lambda_i D = -l_i D and right analog, 100 points", max(left, right), 1e-7)
    report(3, "Lambda^r = R Lambda", adjoint, 1e-10)


def test_criterion_04_commutator_closure():
    worst = max(verify.closure(sample_haar(401, 20)))
    report(4, "field closure on +C/-C and left-right commutativity", worst, 1e-5)


def test_criterion_05_duality():
    report(5, "form/field duality pairing at 100 points", verify.duality(sample_haar(501, 100)),
           1e-11)


def test_criterion_06_haar_density():
    spread, worst_lr = verify.density_residuals(sample_haar(601, 1000))
    report(6, "det(b)/density global constant over 1000 points",
           max(spread, worst_lr), 1e-9)
    spot = abs(cartan.haar_density([0, np.pi / 4, 0, np.pi / 4, 0, np.pi / 4, 0, 0]) - 0.5)
    report(6, "density spot value 0.5 at beta=b=theta=pi/4", spot, 1e-12)


def test_criterion_07_volume_and_orthogonality():
    est, se = measure.volume_mc_estimate(1_000_000, seed=701)
    dev = abs(est - measure.total_volume()) / se
    report(7, f"MC volume {est:.2f} vs {measure.total_volume():.2f} (sigma units)",
           dev, 3.0)
    orth = measure.orthogonality_suite(100_000, seed=702)
    report(7, "orthogonality integrals, all 81 entries (sigma units)",
           orth.max_sigma(), 4.0)


def test_criterion_08_state_constraints():
    worst = verify.pure_state_residual(group.compose_batch(sample_haar(801, 500)))
    report(8, "n.n=1, star(n,n)=n, rho^2=rho on 500 elements", worst, 1e-11)
    pts = sample_haar(803, 100)
    moved = pts.copy()
    moved[:, 4:8] = np.random.default_rng(802).uniform(
        0, [np.pi, np.pi / 2, 2 * np.pi, SQ3 * np.pi], (100, 4))
    report(8, "stabilizer invariance under (a, b, c, phi)",
           verify.stabilizer_residual(pts, moved), 1e-12)


def test_criterion_09_phase_triple_agreement():
    # closed-form gamma circle
    conn, panch = verify.gamma_circle(10_000)
    report(9, "gamma circle connection phase = pi", conn, 1e-6)
    report(9, "gamma circle overlap-chain phase = pi", panch, 1e-4)

    # connection vs overlap chain on random smooth loops
    rng = np.random.default_rng(901)
    worst = 0.0
    for _ in range(20):
        pts = rng.uniform(0.2, 1.3, size=(6, 8))
        pts[-1] = pts[0]
        loop = phase.LoopSpec(pts, samples_per_segment=2000)
        worst = max(worst, abs(phase.phase_connection(loop)
                               - phase.phase_pancharatnam(loop)))
    report(9, "connection vs overlap chain, 20 smooth loops", worst, 1e-4)

    # Stokes on (theta, gamma) rectangles
    base = np.array([0.3, 0.4, 0.0, 0.0, 0.5, 0.6, 0.7, 0.8])
    worst = max(verify.stokes_rectangle(base, bounds, (2048, 64), 2048)
                for bounds in [((0.0, np.pi / 4), (0.0, 2 * np.pi)),
                               ((0.2, 1.1), (0.3, 2.4)),
                               ((0.6, 1.4), (0.5, 1.9))])
    report(9, "boundary line integral vs curvature surface integral", worst, 1e-6)


def test_criterion_10_closed_form_catalogue():
    cmp_a = cartan.closed_form_comparison(seed=11)
    cmp_b = cartan.closed_form_comparison(seed=12)
    documented = cmp_a.matches_documented_catalogue()
    stable = cmp_a.catalogue == cmp_b.catalogue
    report(10, "tabulated closed forms agree off the documented catalogue",
           cmp_a.agreeing_max, 1e-10)
    report(10, "catalogue documented and stable across seeds",
           0.0 if (documented and stable) else 1.0, 0.5)

    # the verify command emits the catalogue
    import json
    from su3kit.cli import main as cli_main
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["verify", "--level", "quick", "--seed", "10"])
    payload = json.loads(buf.getvalue())
    emitted = {tuple(entry) for entry in payload["closed_form_deviation_catalogue"]}
    report(10, "verify command emits the same catalogue",
           0.0 if (code == 0 and emitted == set(cmp_a.catalogue)) else 1.0, 0.5)
