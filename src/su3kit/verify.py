"""Named invariant checks spanning every module, for the verify command.

Each check measures a residual against a documented threshold.  The quick
level trims sample counts to run in seconds; the full level uses the
acceptance-grade counts.  Checks are deterministic for a fixed seed.

Not every threshold sits far above its residual.  Over the full level at
seeds 0-399 the tightest margins measured are:

* ``cartan.left_defining_relation``: 5.13e-8 against 1e-7 (seed 106);
  its h = 1e-6 central differences are dominated by rounding;
* the three closure checks, also finite differences: up to 2.6e-5
  against 1e-5, failing at seeds 77, 95, 105, 283 and 316;
* ``measure.volume_mc_3sigma``: 2.97 sigma against 3 (seed 351);
* ``measure.orthogonality_4sigma``: up to 4.32 sigma against 4, failing
  at seeds 124, 204, 224, 288 and 355.

The Monte Carlo checks are stated in standard errors, so at a few seeds
a fair estimate lands outside them; the other thresholds hold at every
surveyed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import algebra, cartan, group, measure, phase, states


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _result(name, residual, threshold, detail="") -> CheckResult:
    return CheckResult(name=name, residual=float(residual), threshold=threshold,
                       passed=bool(residual <= threshold), detail=detail)


class Checks(list):
    """The results of :func:`run_checks`, one per check, in order.

    ``closed_form_catalogue`` holds the closed-form deviation catalogue found
    at the run's seed, so a report can show it without recomputing it.
    """

    closed_form_catalogue: frozenset = frozenset()


def _haar_points(rng, n):
    return measure.sample_haar(int(rng.integers(2 ** 62)), n)


def _shifted(points: np.ndarray, h: float) -> np.ndarray:
    """(n, 17, 8): each point, then it shifted by +h and by -h along each
    coordinate in turn, for central differences."""
    steps = h * np.eye(8)
    base = points[:, None, :]
    return np.concatenate([base, base + steps, base - steps], axis=1)


def run_checks(level: str = "quick", seed: int = 0, tol_scale: float = 1.0) -> Checks:
    """Run the named invariant suite; returns one result per check."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    full = level == "full"
    rng = np.random.default_rng(seed)
    checks = Checks()
    add = checks.append

    # algebra tables
    add(_result("algebra.commutator_table",
                algebra.commutator_tensor_check().max(), 1e-14 * tol_scale))
    add(_result("algebra.anticommutator_table",
                algebra.anticommutator_tensor_check().max(), 1e-14 * tol_scale))

    # chart round-trip on QR-Haar matrices
    n_rt = 1000 if full else 100
    mats = group.random_su3(n_rt, rng)
    angles, _ = group.decompose(mats)
    worst = float(np.abs(group.compose_batch(angles) - mats).max())
    add(_result("group.round_trip", worst, 1e-10 * tol_scale, f"n={n_rt}"))

    # defining relations by finite differences
    n_pts = 100 if full else 20
    pts = _haar_points(rng, n_pts)
    h = 1e-6
    fr = cartan.frame(pts)
    d = group.compose_batch(_shifted(pts, h).reshape(-1, 8)).reshape(n_pts, 17, 3, 3)
    d0 = d[:, :1]                                   # (n, 1, 3, 3), broadcasts over the 8 l_i
    dmat = (d[:, 1:9] - d[:, 9:]) / (2 * h)         # (n, 8 coordinates, 3, 3)
    lhs = 1j * np.einsum('nij,njab->niab', fr.a_left, dmat)
    worst_l = float(np.abs(lhs + algebra.LAMBDA @ d0).max())
    lhs = 1j * np.einsum('nij,njab->niab', fr.a_right, dmat)
    worst_r = float(np.abs(lhs + d0 @ algebra.LAMBDA).max())
    worst_rel = float(np.abs(fr.a_right - group.adjoint(d0[:, 0]) @ fr.a_left).max())
    add(_result("cartan.left_defining_relation", worst_l, 1e-7 * tol_scale, f"n={n_pts}"))
    add(_result("cartan.right_defining_relation", worst_r, 1e-7 * tol_scale, f"n={n_pts}"))
    add(_result("cartan.right_equals_adjoint_times_left", worst_rel, 1e-10 * tol_scale))

    # commutator closure (operator level, via differentiated coefficients)
    n_cl = 8 if full else 3
    worst_left, worst_right, worst_mixed = _closure_residuals(_haar_points(rng, n_cl))
    add(_result("cartan.closure_left_plus_C", worst_left, 1e-5 * tol_scale, f"n={n_cl}"))
    add(_result("cartan.closure_right_minus_C", worst_right, 1e-5 * tol_scale))
    add(_result("cartan.left_right_commute", worst_mixed, 1e-5 * tol_scale))

    # duality pairing
    fr = cartan.frame(_haar_points(rng, 100 if full else 20))
    worst = max(float(np.abs(b @ a.transpose(0, 2, 1) - np.eye(8)).max())
                for b, a in ((fr.b_left, fr.a_left), (fr.b_right, fr.a_right)))
    add(_result("cartan.duality_pairing", worst, 1e-11 * tol_scale))

    # Haar density: det ratio constancy, left = right, spot value
    n_det = 1000 if full else 100
    pts = _haar_points(rng, n_det)
    det_l = np.abs(np.linalg.det(cartan.left_coeffs(pts)))
    det_r = np.abs(np.linalg.det(cartan.right_coeffs(pts)))
    ratios = det_l / cartan.haar_density_closed(pts)
    lr = float((np.abs(det_l - det_r) / det_l).max())
    spread = float(ratios.max() / ratios.min() - 1.0)
    add(_result("cartan.density_ratio_constant", spread, 1e-9 * tol_scale, f"n={n_det}"))
    add(_result("cartan.left_right_density_equal", lr, 1e-11 * tol_scale))
    spot = abs(cartan.haar_density([0, np.pi / 4, 0, np.pi / 4, 0, np.pi / 4, 0, 0]) - 0.5)
    add(_result("cartan.density_spot_value", spot, 1e-12 * tol_scale))

    # volume and orthogonality
    n_vol = 1_000_000 if full else 100_000
    est, se = measure.volume_mc_estimate(n_vol, seed=seed)
    dev = abs(est - measure.total_volume()) / se
    add(_result("measure.volume_mc_3sigma", dev, 3.0,
                f"estimate {est:.3f} vs {measure.total_volume():.3f}, n={n_vol}"))
    n_orth = 100_000 if full else 20_000
    report = measure.orthogonality_suite(n_orth, seed=seed)
    add(_result("measure.orthogonality_4sigma", report.max_sigma(), 4.0, f"n={n_orth}"))

    # state constraints
    n_states = 500 if full else 50
    pure = states.project(group.compose_batch(_haar_points(rng, n_states)))
    worst = max(float(r.max()) for r in pure.constraint_residuals().values())
    pts = _haar_points(rng, 20 if full else 5)
    moved = pts.copy()
    moved[:, 4:8] = rng.uniform(0.1, 1.2, (len(pts), 4))
    rho, rho_moved = (states.project(group.compose_batch(p)).rho for p in (pts, moved))
    stab = float(np.abs(rho - rho_moved).max())
    add(_result("states.pure_state_constraints", worst, 1e-11 * tol_scale, f"n={n_states}"))
    add(_result("states.stabilizer_invariance", stab, 1e-12 * tol_scale))

    # phases
    circle = phase.LoopSpec(
        waypoints=[[0, 0, 0, np.pi / 4, 0, 0, 0, 0],
                   [0, 0, 2 * np.pi, np.pi / 4, 0, 0, 0, 0]],
        samples_per_segment=10_000 if full else 2000)
    conn = phase.phase_connection(circle)
    panch = phase.phase_pancharatnam(circle)
    add(_result("phase.gamma_circle_connection", abs(conn - np.pi), 1e-6 * tol_scale))
    add(_result("phase.gamma_circle_pancharatnam", abs(panch - np.pi), 1e-4 * tol_scale))
    rect_phase, boundary_phase = _rectangle_pair(0.2, np.pi / 3, 0.3, 2.1,
                                                 full=full)
    add(_result("phase.stokes_rectangle", abs(rect_phase - boundary_phase), 1e-6 * tol_scale))

    # closed-form tables against the exact construction
    cmp1 = cartan.closed_form_comparison(seed=seed)
    cmp2 = cartan.closed_form_comparison(seed=seed + 1)
    stable = cmp1.catalogue == cmp2.catalogue
    documented = cmp1.matches_documented_catalogue()
    add(_result("closed_forms.catalogue_documented", 0.0 if documented else 1.0, 0.5,
                f"{len(cmp1.catalogue)} deviant entries"))
    add(_result("closed_forms.catalogue_stable", 0.0 if stable else 1.0, 0.5))
    agreeing = max(dev[dev <= 1e-9].max() for dev in cmp1.deviations.values())
    add(_result("closed_forms.agreeing_entries", agreeing, 1e-10 * tol_scale))

    checks.closed_form_catalogue = cmp1.catalogue
    return checks


def _closure_residuals(points: np.ndarray, h: float = 1e-6):
    """Max residuals of left/right/mixed operator commutators over one base
    point (8,) or a batch of them (n, 8).

    The fields at every base point and its 16 shifted points come from one
    batch call per side.  The residuals are dominated by rounding in the
    finite differences, so they move with any last-bit change in the
    fields: the batch path gives the per-point fields exactly, and the
    residual arithmetic below stays per point.
    """
    points = np.atleast_2d(points)
    n = len(points)
    grid = _shifted(points, h).reshape(-1, 8)
    left = cartan.left_fields(grid).reshape(n, 17, 8, 8)
    right = cartan.right_fields(grid).reshape(n, 17, 8, 8)
    ct = algebra.C_TENSOR
    worst_l = worst_r = worst_m = 0.0
    for fl, fr in zip(left, right):
        a0, ar0 = fl[0], fr[0]
        da = (fl[1:9] - fl[9:]) / (2 * h)
        dar = (fr[1:9] - fr[9:]) / (2 * h)
        for i in range(8):
            for j in range(8):
                brk = a0[i] @ da[:, j, :] - a0[j] @ da[:, i, :]
                target = np.einsum('m,mk->k', ct[:, i, j], a0)
                worst_l = max(worst_l, float(np.abs(brk - target).max()))
                brk = ar0[i] @ dar[:, j, :] - ar0[j] @ dar[:, i, :]
                target = -np.einsum('m,mk->k', ct[:, i, j], ar0)
                worst_r = max(worst_r, float(np.abs(brk - target).max()))
                mixed = a0[i] @ dar[:, j, :] - ar0[j] @ da[:, i, :]
                worst_m = max(worst_m, float(np.abs(mixed).max()))
    return worst_l, worst_r, worst_m


def _rectangle_pair(x0, x1, y0, y1, full: bool):
    """(curvature surface integral, connection boundary integral) for a
    (theta, gamma) rectangle."""
    base = np.array([0.3, 0.4, 0.0, 0.0, 0.5, 0.6, 0.7, 0.8])
    n2 = (2048, 64) if full else (1024, 32)
    surf = phase.phase_curvature(base, ("theta", "gamma"),
                                 ((x0, x1), (y0, y1)), samples=n2)
    corners = []
    for th, ga in [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]:
        w = base.copy()
        w[3] = th
        w[2] = ga
        corners.append(w)
    loop = phase.LoopSpec(np.array(corners),
                          samples_per_segment=4096 if full else 1024)
    return surf, phase.phase_connection(loop)
