"""Named invariant checks spanning every module, for the verify command.

Each check measures a residual against a documented threshold.  The quick
level trims sample counts to run in seconds; the full level uses the
acceptance-grade counts.  Checks are deterministic for a fixed seed; only
each result's wall time ``elapsed_s`` varies, and equality ignores it.

Each residual that the tests check too is computed once, by a public
function of explicit inputs; :func:`run_checks` draws the inputs from its
seed, and the tests call the same functions on their own inputs with their
own thresholds.

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

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import algebra, cartan, group, measure, phase, states


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    detail: str = ""
    # seconds from the previous result of the run to this one
    elapsed_s: float = field(default=0.0, compare=False)

    def as_dict(self) -> dict:
        """The fields as JSON values: a residual that is not finite is None."""
        return {**asdict(self), "residual": self.residual if np.isfinite(self.residual) else None}


class Checks(list):
    """The results of :func:`run_checks`, one per check, in order.

    ``closed_form_catalogue`` holds the closed-form deviation catalogue found
    at the run's seed, so a report can show it without recomputing it.
    """

    closed_form_catalogue: frozenset = frozenset()


# step of the central differences in the defining-relation and closure checks
_H = 1e-6


def _haar_points(rng, n):
    return measure.sample_haar(int(rng.integers(2 ** 62)), n)


def _shifted(points: np.ndarray) -> np.ndarray:
    """(n, 17, 8): each point, then it shifted by +_H and by -_H along each
    coordinate in turn, for central differences."""
    steps = _H * np.eye(8)
    base = points[:, None, :]
    return np.concatenate([base, base + steps, base - steps], axis=1)


def round_trip(mats: np.ndarray) -> float:
    """Largest entry of |compose(decompose(u)) - u| over an (n, 3, 3) stack."""
    angles, _ = group.decompose(mats)
    return float(np.abs(group.compose_batch(angles) - mats).max())


def defining_relations(points: np.ndarray):
    """(left, right, adjoint) residuals over an (n, 8) batch of points:
    Lambda_i D = -l_i D and Lambda^r_i D = -D l_i with dD by central
    differences, and Lambda^r = R Lambda."""
    n = len(points)
    fr = cartan.frame(points)
    d = group.compose_batch(_shifted(points).reshape(-1, 8)).reshape(n, 17, 3, 3)
    d0 = d[:, :1]                                   # (n, 1, 3, 3), broadcasts over the 8 l_i
    dmat = (d[:, 1:9] - d[:, 9:]) / (2 * _H)        # (n, 8 coordinates, 3, 3)
    lhs = 1j * np.einsum('nij,njab->niab', fr.a_left, dmat)
    left = float(np.abs(lhs + algebra.LAMBDA @ d0).max())
    lhs = 1j * np.einsum('nij,njab->niab', fr.a_right, dmat)
    right = float(np.abs(lhs + d0 @ algebra.LAMBDA).max())
    adjoint = float(np.abs(fr.a_right - group.adjoint(d0[:, 0]) @ fr.a_left).max())
    return left, right, adjoint


def closure(points: np.ndarray):
    """(left, right, mixed) residuals over an (n, 8) batch of
    [Lambda_i, Lambda_j] = C_ijk Lambda_k, [Lambda^r_i, Lambda^r_j] = -C_ijk Lambda^r_k
    and [Lambda_i, Lambda^r_j] = 0, with field derivatives by central
    differences, which dominate the residuals by rounding."""
    n = len(points)
    fr = cartan.frame(_shifted(points).reshape(-1, 8))
    left, right = fr.a_left.reshape(n, 17, 8, 8), fr.a_right.reshape(n, 17, 8, 8)
    a, ar = left[:, 0], right[:, 0]
    da = (left[:, 1:9] - left[:, 9:]) / (2 * _H)     # da[n, k, j, m] = d_k A[j, m]
    dar = (right[:, 1:9] - right[:, 9:]) / (2 * _H)

    def bracket(x, dx, y, dy):                      # [X_i, Y_j]^m as (n, i, j, m)
        return np.einsum('nik,nkjm->nijm', x, dy) - np.einsum('njk,nkim->nijm', y, dx)

    res_l = bracket(a, da, a, da) - np.einsum('kij,nkm->nijm', algebra.C_TENSOR, a)
    res_r = bracket(ar, dar, ar, dar) + np.einsum('kij,nkm->nijm', algebra.C_TENSOR, ar)
    return (float(np.abs(res_l).max()), float(np.abs(res_r).max()),
            float(np.abs(bracket(a, da, ar, dar)).max()))


def duality(points: np.ndarray) -> float:
    """Largest entry of |b A^T - 1| over both sides of an (n, 8) batch."""
    fr = cartan.frame(points)
    return max(float(np.abs(b @ a.transpose(0, 2, 1) - np.eye(8)).max())
               for b, a in ((fr.b_left, fr.a_left), (fr.b_right, fr.a_right)))


def density_residuals(points: np.ndarray):
    """(spread, left/right) over an (n, 8) batch: max/min - 1 of |det b| over
    the closed-form density, and the largest relative |det b| - |det c|."""
    b, c = cartan._coeffs(cartan._points(points))
    det_l, det_r = np.abs(np.linalg.det(b)), np.abs(np.linalg.det(c))
    ratios = det_l / cartan.haar_density_closed(points)
    return (float(ratios.max() / ratios.min() - 1.0),
            float((np.abs(det_l - det_r) / det_l).max()))


def pure_state_residual(mats: np.ndarray) -> float:
    """Worst pure-state constraint residual of the states of an (n, 3, 3) stack."""
    return max(float(r.max()) for r in states.project(mats).constraint_residuals().values())


def stabilizer_residual(points: np.ndarray, moved: np.ndarray) -> float:
    """Largest entry of |rho(points) - rho(moved)|; moved differs from points
    only in the stabilizer angles (a, b, c, phi)."""
    rho, rho_moved = (states.project(group.compose_batch(p)).rho for p in (points, moved))
    return float(np.abs(rho - rho_moved).max())


def gamma_circle(samples_per_segment):
    """(connection, Pancharatnam) residuals |phase - pi| of the loop at
    theta = pi/4 with gamma going 0 -> 2 pi, whose geometric phase is pi."""
    w = np.zeros((2, 8))
    w[:, 3] = np.pi / 4
    w[1, 2] = 2 * np.pi
    loop = phase.LoopSpec(w, samples_per_segment=samples_per_segment)
    return (abs(phase.phase_connection(loop) - np.pi),
            abs(phase.phase_pancharatnam(loop) - np.pi))


def stokes_rectangle(base, bounds, samples, samples_per_segment) -> float:
    """|curvature surface integral - connection boundary integral| over the
    rectangle ``bounds = ((theta0, theta1), (gamma0, gamma1))`` through base."""
    (t0, t1), (g0, g1) = bounds
    surface = phase.phase_curvature(base, ("theta", "gamma"), bounds, samples=samples)
    corners = np.tile(np.asarray(base, dtype=float), (5, 1))
    corners[:, 3] = (t0, t1, t1, t0, t0)
    corners[:, 2] = (g0, g0, g1, g1, g0)
    loop = phase.LoopSpec(corners, samples_per_segment=samples_per_segment)
    return abs(surface - phase.phase_connection(loop))


def run_checks(level: str = "quick", seed: int = 0) -> Checks:
    """Run the named invariant suite; returns one result per check."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    full = level == "full"
    rng = np.random.default_rng(seed)
    checks = Checks()
    last = time.perf_counter()

    def add(name, residual, threshold, detail=""):
        # timed from the previous result: the first check of a group carries
        # the computation the group shares
        nonlocal last
        now = time.perf_counter()
        checks.append(CheckResult(name=name, residual=float(residual), threshold=threshold,
                                  passed=bool(residual <= threshold), detail=detail,
                                  elapsed_s=now - last))
        last = now

    # algebra tables
    add("algebra.commutator_table", algebra.commutator_tensor_check().max(), 1e-14)
    add("algebra.anticommutator_table", algebra.anticommutator_tensor_check().max(), 1e-14)

    # chart round-trip on QR-Haar matrices
    n_rt = 1000 if full else 100
    add("group.round_trip", round_trip(group.random_su3(n_rt, rng)), 1e-10, f"n={n_rt}")

    # defining relations by finite differences
    n_pts = 100 if full else 20
    left, right, adjoint = defining_relations(_haar_points(rng, n_pts))
    add("cartan.left_defining_relation", left, 1e-7, f"n={n_pts}")
    add("cartan.right_defining_relation", right, 1e-7, f"n={n_pts}")
    add("cartan.right_equals_adjoint_times_left", adjoint, 1e-10)

    # commutator closure (operator level, via differentiated coefficients)
    n_cl = 8 if full else 3
    left, right, mixed = closure(_haar_points(rng, n_cl))
    add("cartan.closure_left_plus_C", left, 1e-5, f"n={n_cl}")
    add("cartan.closure_right_minus_C", right, 1e-5)
    add("cartan.left_right_commute", mixed, 1e-5)

    # duality pairing
    add("cartan.duality_pairing", duality(_haar_points(rng, 100 if full else 20)), 1e-11)

    # Haar density: det ratio constancy, left = right, spot value
    n_det = 1000 if full else 100
    spread, lr = density_residuals(_haar_points(rng, n_det))
    add("cartan.density_ratio_constant", spread, 1e-9, f"n={n_det}")
    add("cartan.left_right_density_equal", lr, 1e-11)
    spot = abs(cartan.haar_density([0, np.pi / 4, 0, np.pi / 4, 0, np.pi / 4, 0, 0]) - 0.5)
    add("cartan.density_spot_value", spot, 1e-12)

    # volume and orthogonality
    n_vol = 1_000_000 if full else 100_000
    est, se = measure.volume_mc_estimate(n_vol, seed=seed)
    dev = abs(est - measure.total_volume()) / se
    add("measure.volume_mc_3sigma", dev, 3.0,
        f"estimate {est:.3f} vs {measure.total_volume():.3f}, n={n_vol}")
    n_orth = 100_000 if full else 20_000
    report = measure.orthogonality_suite(n_orth, seed=seed)
    add("measure.orthogonality_4sigma", report.max_sigma(), 4.0, f"n={n_orth}")

    # state constraints
    n_states = 500 if full else 50
    pure = pure_state_residual(group.compose_batch(_haar_points(rng, n_states)))
    pts = _haar_points(rng, 20 if full else 5)
    moved = pts.copy()
    moved[:, 4:8] = rng.uniform(0.1, 1.2, (len(pts), 4))
    add("states.pure_state_constraints", pure, 1e-11, f"n={n_states}")
    add("states.stabilizer_invariance", stabilizer_residual(pts, moved), 1e-12)

    # phases
    conn, panch = gamma_circle(10_000 if full else 2000)
    add("phase.gamma_circle_connection", conn, 1e-6)
    add("phase.gamma_circle_pancharatnam", panch, 1e-4)
    stokes = stokes_rectangle(np.array([0.3, 0.4, 0.0, 0.0, 0.5, 0.6, 0.7, 0.8]),
                              ((0.2, np.pi / 3), (0.3, 2.1)),
                              (2048, 64) if full else (1024, 32), 4096 if full else 1024)
    add("phase.stokes_rectangle", stokes, 1e-6)

    # closed-form tables against the exact construction
    cmp1 = cartan.closed_form_comparison(seed=seed)
    cmp2 = cartan.closed_form_comparison(seed=seed + 1)
    stable = cmp1.catalogue == cmp2.catalogue
    documented = cmp1.matches_documented_catalogue()
    add("closed_forms.catalogue_documented", 0.0 if documented else 1.0, 0.5,
        f"{len(cmp1.catalogue)} deviant entries")
    add("closed_forms.catalogue_stable", 0.0 if stable else 1.0, 0.5)
    add("closed_forms.agreeing_entries", cmp1.agreeing_max, 1e-10)

    checks.closed_form_catalogue = cmp1.catalogue
    return checks
