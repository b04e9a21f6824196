"""One workload process: generate inputs, run jobs in a closed loop, check
every output, and print the measurements as one JSON line.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S [--traced]

``bench/run.py`` starts this process; it is not meant to be run by hand
except for debugging.  The su3kit under test is the one in ``src/`` of the
checkout that holds this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import spans  # noqa: E402
from stats import percentile  # noqa: E402

MIN_JOBS = 3
HAAR_ROWS = 200_000
HAAR_HEADER = ",".join(gen.ANGLE_NAMES)
PROBE_POINTS = 200            # p50 of 200 inputs has 100 beyond it
PROBE_WARMUP = 50
PROBE_PASSES = 16
SETUP_STARTS = 16             # fresh interpreters per run, spread over it
REFERENCE_POINTS = 96         # parts of the reference job, one point each
# Best-of wall and CPU seconds of the reference job on the machine the
# bounds were set on (2-core x86-64, Python 3.11, numpy 2.4, OpenBLAS 0.3).
REFERENCE_S = 8.0e-3
REFERENCE_CPU_S = 8.0e-3

# thresholds of su3kit's own verify for the same quantities
ROUND_TRIP_TOL = 1e-10       # group.round_trip
DUALITY_TOL = 1e-11          # cartan.duality_pairing
DENSITY_RATIO_TOL = 1e-9     # cartan.density_ratio_constant
PURE_STATE_TOL = 1e-11       # states.pure_state_constraints
PANCHARATNAM_TOL = 1e-4      # phase.gamma_circle_pancharatnam
STOKES_TOL = 1e-6            # phase.stokes_rectangle

# the 23 checks of `su3kit verify --level full`
VERIFY_CHECKS = (
    "algebra.commutator_table", "algebra.anticommutator_table", "group.round_trip",
    "cartan.left_defining_relation", "cartan.right_defining_relation",
    "cartan.right_equals_adjoint_times_left", "cartan.closure_left_plus_C",
    "cartan.closure_right_minus_C", "cartan.left_right_commute",
    "cartan.duality_pairing", "cartan.density_ratio_constant",
    "cartan.left_right_density_equal", "cartan.density_spot_value",
    "measure.volume_mc_3sigma", "measure.orthogonality_4sigma",
    "states.pure_state_constraints", "states.stabilizer_invariance",
    "phase.gamma_circle_connection", "phase.gamma_circle_pancharatnam",
    "phase.stokes_rectangle", "closed_forms.catalogue_documented",
    "closed_forms.catalogue_stable", "closed_forms.agreeing_entries",
)

# Classes of failure the current su3kit is known to produce, each limited to
# where and how far it was seen.  They count in `failed` like any other; a
# failure outside them makes the run incorrect.
KNOWN_DEFECTS = (
    "malformed_accepted",     # non-finite / non-unitary input answered, not ValueError
    "near_stratum_duality",   # frame near a stratum: duality lost to rounding
    "near_stratum_density",   # haar_density near a stratum: ratio lost to rounding
    "verify_seed_miss",       # a catalogued verify check misses at its seed
)

# Near a stratum the current code loses accuracy in proportion to EPS/distance.
# Over the 15000 near points of seeds 0..199 the duality residual reached
# 30 EPS/d at beta, b and theta = pi/2, and 5.5e3 EPS/d at theta = 0, where
# the density vanishes to third order.  The density ratio error reached
# 0.62 EPS/d; under its ceiling of 4 EPS/d no density failure at d >= 1e-6
# is allowed.  A larger error is not this defect.
EPS = float(np.finfo(float).eps)
THETA = gen.ANGLE_NAMES.index("theta")
NEAR_DUALITY_GAIN = 300.0
NEAR_DUALITY_GAIN_THETA0 = 1e5
NEAR_DENSITY_GAIN = 4.0

# `verify --level full` is run at the benchmark seed modulo VERIFY_SEEDS: all
# of those seeds were surveyed, and these are the checks that fail there,
# seed-sensitive Monte Carlo sigma counts and finite differences.  The allowance
# holds only for these pairs, and only up to SEED_MISS_FACTOR times the
# threshold (the misses seen reach 2.6x).
VERIFY_SEEDS = 400
_CLOSURES = ("cartan.closure_left_plus_C", "cartan.closure_right_minus_C",
             "cartan.left_right_commute")
_ORTHOGONALITY = ("measure.orthogonality_4sigma",)
VERIFY_SEED_MISSES = {
    77: _CLOSURES, 95: ("cartan.closure_right_minus_C",),
    105: ("cartan.closure_right_minus_C",), 124: _ORTHOGONALITY, 204: _ORTHOGONALITY,
    224: _ORTHOGONALITY, 283: _CLOSURES, 288: _ORTHOGONALITY, 316: _CLOSURES,
    355: _ORTHOGONALITY,
}
SEED_MISS_FACTOR = 10.0

POINT_CALLS = ("compose", "decompose", "frame", "project", "haar_density")
# p99 is reported only where more than 10 inputs lie beyond it
LATENCY_REPORT = {"compose": (50, 99), "decompose": (50, 99), "frame": (50, 99),
                  "haar_density": (50,), "project": (50,)}
# per-layer failure counts come from the point_requests checks
FAILED_LAYER = {"decompose": "group.decompose", "frame": "cartan.frame",
                "haar_density": "cartan.haar_density", "project": "states.project"}


def load_su3kit():
    """Import su3kit from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "su3kit" / "__init__.py").is_file():
        raise SystemExit(f"error: no su3kit sources under {src}")
    sys.path.insert(0, str(src))
    import su3kit
    import su3kit.cli
    if Path(su3kit.__file__).resolve().parent != (src / "su3kit").resolve():
        raise SystemExit(f"error: imported su3kit from {su3kit.__file__}, not {src}")
    return su3kit


class BestOf:
    """Fastest wall and CPU seconds seen for each operation of a job.

    Other tenants of a shared machine slow everything for seconds to
    minutes at a time; an operation's fastest repeat is the least disturbed
    measure of its cost, and a job's best time is the sum over its
    operations.
    """

    def __init__(self):
        self.wall: dict = {}
        self.cpu: dict = {}

    def add(self, key, wall: float, cpu: float) -> None:
        if wall < self.wall.get(key, float("inf")):
            self.wall[key] = wall
        if cpu < self.cpu.get(key, float("inf")):
            self.cpu[key] = cpu

    def time(self, key, fn, *args):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args)
        finally:
            self.add(key, time.perf_counter() - t0, time.process_time() - c0)

    def totals(self) -> tuple[float, float]:
        return sum(self.wall.values()), sum(self.cpu.values())


class Outcome:
    """Tally of checked operations, failures by class, and unexpected ones.

    An operation is one output check on one input, named by a key; the same
    operation checked again in a later job is counted once.  So `attempted`
    and `failed` depend only on the seed, not on how many jobs fit in the
    run.  An operation whose verdict changes between repeats is unexpected.
    """

    def __init__(self):
        self.verdicts: dict = {}
        self.by_class: dict[str, int] = {}
        self.by_layer: dict[str, int] = {}
        self.unexpected: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.verdicts.values())

    def record(self, key, ok: bool, what: str, defect: str | None = None,
               layer: str | None = None):
        seen = self.verdicts.get(key)
        if seen is not None:
            if seen != ok:
                self._count("unexpected")
                self._note(f"{what} (verdict changed between repeats)")
            return
        self.verdicts[key] = ok
        if ok:
            return
        if layer:
            self.by_layer[layer] = self.by_layer.get(layer, 0) + 1
        if defect in KNOWN_DEFECTS:
            self._count(defect)
        else:
            self._count("unexpected")
            self._note(what)

    def _count(self, kind: str):
        self.by_class[kind] = self.by_class.get(kind, 0) + 1

    def _note(self, what: str):
        if len(self.unexpected) < 20:
            self.unexpected.append(what)


def near_stratum_ceiling(call: str, coord: int, at_zero: bool, dist: float) -> float:
    """Largest error of `call` ("frame" or "haar_density") at `dist` from the
    stratum of chart coordinate `coord` that is the known rounding loss."""
    if call == "haar_density":
        gain = NEAR_DENSITY_GAIN
    elif coord == THETA and at_zero:
        gain = NEAR_DUALITY_GAIN_THETA0
    else:
        gain = NEAR_DUALITY_GAIN
    return gain * EPS / dist


def verify_defect(seed: int, check: str, residual: float, threshold: float) -> str | None:
    """The known-defect class of a failed verify check, or None."""
    if check in VERIFY_SEED_MISSES.get(seed, ()) and residual <= SEED_MISS_FACTOR * threshold:
        return "verify_seed_miss"
    return None


class VerifyFull:
    """`su3kit verify --level full` in process, stdout captured."""

    def __init__(self, su3, seed):
        self.cli = su3.cli
        self.seed = seed % VERIFY_SEEDS
        self.argv = ["verify", "--level", "full", "--seed", str(self.seed)]
        self.ops = BestOf()

    def job(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.ops.time("verify", self.cli.main, self.argv)
        return code, out.getvalue()

    def check(self, result, tally: Outcome):
        code, text = result
        try:
            checks, why = {c["name"]: c for c in json.loads(text)["checks"]}, "readable"
        except (ValueError, KeyError, TypeError) as exc:
            checks, why = {}, f"unreadable ({exc})"
        tally.record(("verify", "report"), bool(checks), f"verify: report {why}")
        for name in VERIFY_CHECKS:
            c = checks.get(name)
            if c is None:
                tally.record(("verify", name), False, f"verify: {name} missing")
                continue
            tally.record(("verify", name), c["passed"] is True,
                         f"verify: {name} residual {c['residual']:.3e} "
                         f"over {c['threshold']:.1e} at seed {self.seed}",
                         verify_defect(self.seed, name, c["residual"], c["threshold"]))
        extra = sorted(set(checks) - set(VERIFY_CHECKS))
        tally.record(("verify", "no_extra"), not extra, f"verify: unexpected checks {extra}")
        all_passed = bool(checks) and all(c["passed"] for c in checks.values())
        tally.record(("verify", "exit"), code == (0 if all_passed else 1),
                     f"verify: exit code {code} with all_passed={all_passed}")


class HaarCsv:
    """`su3kit haar --n 200000 --out FILE` in process."""

    def __init__(self, su3, seed, work_dir: Path):
        self.cli = su3.cli
        self.path = work_dir / f"haar-{os.getpid()}.csv"
        self.argv = ["haar", "--n", str(HAAR_ROWS), "--seed", str(seed), "--out", str(self.path)]
        self.reference = su3.measure.sample_haar(seed, HAAR_ROWS)
        self.digest = None
        self.ops = BestOf()

    def job(self):
        return self.ops.time("haar", self.cli.main, self.argv)

    def check(self, code, tally: Outcome):
        if not self.path.is_file():
            tally.record("haar", False, f"haar: exit code {code}, no output file")
            return
        digest = _sha256(self.path)
        if self.digest is None:
            ok, why = self._values_ok()
            if ok:
                self.digest = digest
        else:
            ok, why = digest == self.digest, "bytes differ from the first file of this run"
        tally.record("haar", code == 0 and ok, f"haar: exit code {code}, {why}")
        self.path.unlink(missing_ok=True)

    def _values_ok(self):
        """Exact header, n rows, each value parsing back to the sampler's
        float, every value in the canonical box."""
        with open(self.path, "r", encoding="utf-8") as fh:
            if fh.readline() != HAAR_HEADER + "\n":
                return False, "header differs"
            row = 0
            while True:
                lines = fh.readlines(1 << 20)
                if not lines:
                    break
                try:
                    vals = np.array("".join(lines).replace("\n", ",").rstrip(",").split(","),
                                    dtype=float).reshape(len(lines), 8)
                except ValueError:
                    return False, f"unparsable rows after row {row}"
                ref = self.reference[row:row + len(lines)]
                if vals.shape != ref.shape or not np.array_equal(vals, ref):
                    return False, f"values differ from the sampler after row {row}"
                if np.any(vals < 0) or np.any(vals > gen.BOX_HIGH):
                    return False, f"value outside the canonical box after row {row}"
                row += len(lines)
        if row != HAAR_ROWS:
            return False, f"{row} rows, expected {HAAR_ROWS}"
        return True, "ok"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class PointRequests:
    """Five scalar calls per generated point, each timed on its own."""

    def __init__(self, su3, requests: gen.PointInputs, tag="points"):
        self.req = requests
        self.tag = tag                  # names this input set's operations in the tally
        self.density = gen.haar_density_closed(requests.points)
        g, c, s = su3.group, su3.cartan, su3.states
        # resolved at call time, so traced bindings are the ones timed
        self.calls = {
            "compose": lambda i: g.compose(self.req.points[i]),
            "decompose": lambda i: g.decompose(self.req.matrices[i]),
            "frame": lambda i: c.frame(self.req.points[i]),
            "project": lambda i: s.project(self.req.states[i]),
            "haar_density": lambda i: c.haar_density(self.req.points[i]),
        }
        self.degenerate = c.DegenerateChartError
        self.lam = su3.algebra.LAMBDA
        self.reset_latency()

    def reset_latency(self):
        """Forget timings: best[name][i] is the fastest call on input i."""
        self.best = {name: [float("inf")] * len(self.req.kinds) for name in POINT_CALLS}
        self.ops = BestOf()             # the five calls on one input are one operation
        self.repeats = 0

    def job(self, rows=None):
        clock, cpu_clock = time.perf_counter, time.process_time
        results = []
        for i in range(rows or len(self.req.kinds)):
            row_t0, row_c0 = clock(), cpu_clock()
            row = []
            for name in POINT_CALLS:
                call, best = self.calls[name], self.best[name]
                t0 = clock()
                try:
                    r = call(i)
                except Exception as exc:  # judged by check()
                    exc.__traceback__ = None    # frees the frames it holds now
                    r = exc
                elapsed = clock() - t0
                if elapsed < best[i]:
                    best[i] = elapsed
                row.append(r)
            self.ops.add(i, clock() - row_t0, cpu_clock() - row_c0)
            results.append(row)
        self.repeats += 1
        return results

    def check(self, results, tally: Outcome):
        for i, row in enumerate(results):
            kind = self.req.kinds[i]
            for name, r in zip(POINT_CALLS, row):
                ok, why, defect = self._judge(i, kind, name, r)
                tally.record((self.tag, i, name), ok, f"{name} on {kind} point {i}: {why}", defect,
                             FAILED_LAYER.get(name))

    def _judge(self, i, kind, name, r):
        if kind == gen.MALFORMED:
            if isinstance(r, ValueError):
                return True, "", None
            if isinstance(r, Exception):
                return False, f"raised {type(r).__name__}: {r}", None
            return False, "answered malformed input", "malformed_accepted"
        if name == "frame" and kind == gen.NEAR and isinstance(r, self.degenerate):
            return True, "", None
        if isinstance(r, Exception):
            return False, f"raised {type(r).__name__}: {r}", None
        u = self.req.matrices[i]
        if name == "compose":
            err = _max_abs(r - self.req.states[i])
            return err <= ROUND_TRIP_TOL, f"deviation {err:.2e} from the chart product", None
        if name == "decompose":
            angles, _flags = r
            err = _max_abs(gen.chart_product(angles.as_array()[None])[0] - u)
            return err <= ROUND_TRIP_TOL, f"round trip {err:.2e}", None
        if name == "frame":
            eye = np.eye(8)
            err = max(_max_abs(r.b_left @ r.a_left.T - eye), _max_abs(r.b_right @ r.a_right.T - eye))
            return (err <= DUALITY_TOL, f"duality {err:.2e}{_stratum(self.req.stratum[i])}",
                    self._near_defect(i, name, err, "near_stratum_duality"))
        if name == "project":
            psi = self.req.states[i][:, 2]
            rho = np.outer(psi, psi.conj())
            recon = (np.eye(3) + np.sqrt(3.0) * np.einsum('k,kab->ab', r.n, self.lam)) / 3.0
            err = max(_max_abs(r.rho - rho), abs(float(r.n @ r.n) - 1.0), _max_abs(recon - r.rho))
            return err <= PURE_STATE_TOL, f"pure-state residual {err:.2e}", None
        err = abs(r / self.density[i] - 1.0)
        return (err <= DENSITY_RATIO_TOL, f"density ratio {err:.2e}{_stratum(self.req.stratum[i])}",
                self._near_defect(i, name, err, "near_stratum_density"))

    def _near_defect(self, i, name, err, defect):
        """`defect` if input i is near a stratum and `err` is within the known
        rounding loss there, else None."""
        if self.req.kinds[i] != gen.NEAR:
            return None
        j, dist = self.req.stratum[i]
        at_zero = self.req.points[i, j] < np.pi / 4
        return defect if err <= near_stratum_ceiling(name, j, at_zero, dist) else None

    def latency_summary(self) -> dict:
        """Percentiles over inputs of each input's best-of-repeats latency.

        Taking each input's fastest repeat removes slowdowns caused by other
        tenants of the machine, which come and go within seconds; the
        percentiles then describe how latency varies with the input.
        """
        out = {}
        for name, qs in LATENCY_REPORT.items():
            samples = self.best[name]
            for q in qs:
                try:
                    value, beyond = percentile(samples, q)
                except ValueError:              # too few inputs for this tail
                    continue
                out[f"{name}_p{q}_us"] = {"value": value * 1e6, "samples": len(samples),
                                          "beyond": beyond, "repeats": self.repeats}
        return out


def _max_abs(a) -> float:
    a = np.abs(np.asarray(a))
    return float(a.max()) if np.all(np.isfinite(a)) else float("inf")


def _stratum(stratum) -> str:
    if stratum is None:
        return ""
    j, dist = stratum
    return f" at {gen.ANGLE_NAMES[j]} stratum distance {dist:.1e}"


class PhaseLoops:
    """Closed loops through two phase routes, rectangles through two more."""

    def __init__(self, su3, seed):
        self.phase = su3.phase
        self.loops = gen.closed_loops(seed)
        self.rects = gen.rectangles(seed)
        self.per_segment = gen.LOOP_SAMPLES // gen.LOOP_WAYPOINTS
        self.ops = BestOf()

    def _loop(self, w):
        spec = self.phase.LoopSpec(w, samples_per_segment=self.per_segment)
        return self.phase.phase_connection(spec), self.phase.phase_pancharatnam(spec)

    def _rect(self, r):
        ph = self.phase
        surface = ph.phase_curvature(r.base, ("theta", "gamma"), (r.theta, r.gamma),
                                     samples=gen.RECT_SAMPLES)
        edge = ph.LoopSpec(r.boundary(), samples_per_segment=gen.RECT_BOUNDARY_SAMPLES)
        return surface, ph.phase_connection(edge)

    def job(self):
        loops = [self.ops.time(("loop", k), self._loop, w) for k, w in enumerate(self.loops)]
        rects = [self.ops.time(("rect", k), self._rect, r) for k, r in enumerate(self.rects)]
        return loops, rects

    def check(self, result, tally: Outcome):
        loops, rects = result
        for k, (conn, panch) in enumerate(loops):
            err = abs(panch - conn)
            tally.record(("loop", k), err <= PANCHARATNAM_TOL, f"loop {k}: |pancharatnam - connection| {err:.2e}")
        for k, ((surface, edge), rect) in enumerate(zip(rects, self.rects)):
            exact = rect.closed_form_phase()
            for route, value in (("curvature", surface), ("boundary connection", edge)):
                err = abs(value - exact)
                tally.record(("rect", k, route), err <= STOKES_TOL, f"rectangle {k}: {route} off by {err:.2e}")


class Reference:
    """A fixed job of short scalar calls into the benchmark's own numpy code,
    run after every job.

    Other tenants of a shared machine change its speed by tens of percent
    for minutes at a time, longer than a run, so no statistic within a run
    removes it.  The reference job calls no su3kit code and is timed the way
    scalar calls are (best of its repeats, call by call), so the ratio of a
    scalar call's best-of time to the reference's measures su3kit's cost
    with the machine's speed of the moment divided out.  Long batched jobs
    slow differently from short calls; no reference tried tracked them
    better than their own best-of time, so they are not scaled.
    """

    def __init__(self):
        self.points = gen.interior_points(gen.make_rng(0, "points"), REFERENCE_POINTS)
        self.ops = BestOf()

    @staticmethod
    def _part(points):
        u = gen.chart_product(points)
        np.linalg.eigvalsh(u + np.conj(np.swapaxes(u, 1, 2)))
        return gen.haar_density_closed(points)

    def job(self):
        for k in range(REFERENCE_POINTS):
            self.ops.time(k, self._part, self.points[k:k + 1])

    def speed(self) -> tuple[float, float]:
        """Wall and CPU speed of the machine in this run against the one the
        bounds were set on: multiply a best-of time by it to compare runs."""
        wall, cpu = self.ops.totals()
        return REFERENCE_S / wall, REFERENCE_CPU_S / cpu


def build(name: str, su3, seed: int, work_dir: Path):
    if name == "verify_full":
        return VerifyFull(su3, seed)
    if name == "haar_csv":
        return HaarCsv(su3, seed, work_dir)
    if name == "point_requests":
        return PointRequests(su3, gen.point_requests(seed))
    if name == "phase_loops":
        return PhaseLoops(su3, seed)
    raise ValueError(f"unknown workload {name!r}")


class Interlude:
    """A task run `count` times between jobs, spread evenly over the run.

    Slowdowns caused by other tenants of the machine last seconds to
    minutes; samples spread over the whole run meet all of them in
    proportion, where a burst of samples may meet only one.
    """

    def __init__(self, count: int, step):
        self.count, self.step, self.done = count, step, 0

    def due(self, elapsed: float, seconds: float) -> bool:
        return self.done < self.count and elapsed >= seconds * (self.done + 0.5) / self.count

    def run(self):
        self.step()
        self.done += 1


def run_jobs(workload, seconds: float, tally: Outcome, tracer=None, interludes=(),
             reference=None):
    """Warm-up job, then jobs back to back until `seconds` have passed, with
    the reference job after each and the interludes between them."""
    workload.check(workload.job(), tally)
    if reference:
        reference.job()
        reference.ops = BestOf()
    if isinstance(workload, PointRequests):
        workload.reset_latency()
    else:
        workload.ops = BestOf()
    if tracer:
        tracer.reset()          # checks between jobs call no su3kit function
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < MIN_JOBS or time.perf_counter() < start + seconds:
        t0, c0 = time.perf_counter(), time.process_time()
        result = workload.job()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        workload.check(result, tally)
        del result
        if reference:
            reference.job()
        for task in interludes:
            while task.due(time.perf_counter() - start, seconds):
                task.run()
    for task in interludes:
        while task.done < task.count:
            task.run()
    return walls, cpus


def latency_probe(su3, seed: int, tally: Outcome) -> tuple[PointRequests, Interlude]:
    """Scalar calls on interior points, for workloads that make none."""
    requests = PointRequests(su3, gen.point_requests(seed, PROBE_POINTS, 0.0, 0.0), "probe")
    requests.check(requests.job(PROBE_WARMUP), tally)
    requests.reset_latency()
    return requests, Interlude(PROBE_PASSES, lambda: requests.check(requests.job(), tally))


def setup_seconds() -> float:
    """A fresh interpreter, timed until ``import su3kit, su3kit.cli`` returns."""
    code = ("import time, su3kit, su3kit.cli; "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout.split()[-1]) - t0


# per-layer metrics of the traced run, as <module>.<function>.<quantity>
# or <module>.self_s; trace.overhead_s is added by the runner, which has the
# untraced run to subtract
LAYER_METRICS = (
    "group.compose_batch.self_s", "group.compose_batch.us_per_elem",
    "group.exp_generator.calls", "group.exp_generator.self_s",
    "algebra.expand_hermitian.calls", "algebra.expand_hermitian.self_s",
    "group.compose.calls", "group.compose.self_s",
    "group.decompose.calls", "group.decompose.self_s", "group.decompose.failed",
    "group.assert_group_element.self_s", "group.random_su3.self_s", "group.adjoint.self_s",
    "cartan.left_coeffs.calls", "cartan.left_coeffs.self_s",
    "cartan.right_coeffs.calls", "cartan.right_coeffs.self_s",
    "cartan.left_fields.self_s", "cartan.right_fields.self_s",
    "cartan.frame.self_s", "cartan.frame.failed",
    "cartan.haar_density.self_s", "cartan.haar_density.failed",
    "cartan.closed_form_comparison.calls", "cartan.closed_form_comparison.self_s",
    "verify.run_checks.self_s",
    "measure.sample_haar.us_per_row",
    "measure.orthogonality_suite.self_s", "measure.volume_mc_estimate.self_s",
    "phase.phase_pancharatnam.self_s", "phase.overlap_chain_phase.self_s",
    "phase.phase_connection.us_per_sample", "phase.phase_curvature.us_per_cell",
    "states.project.self_s", "states.project.failed",
    "cli.main.self_s",
) + tuple(f"{layer}.self_s" for layer in spans.LAYERS) + (
    "trace.job_s", "trace.unattributed_s",
)
# only haar_csv writes CSV; on the other workloads this would read 0
CSV_LAYER_METRICS = ("measure.dump_csv.us_per_row",)


def layer_metrics(tracer, walls: list, failed_by_layer: dict, names=LAYER_METRICS) -> dict:
    """Per-job means of counts and self times, per-unit rates, module sums."""
    jobs = len(walls)
    layer = tracer.stats
    out = {}
    for name in names:
        head, quantity = name.rsplit(".", 1)
        if head in spans.LAYERS:                      # <layer>.self_s
            out[name] = sum(st.self_s for fn, st in layer.items()
                            if fn.split(".")[0] == head) / jobs
        elif head == "trace":
            continue
        else:
            st = layer.get(head, spans.FunctionStats())
            calls, self_s, units = st.calls, st.self_s, st.units
            if quantity == "calls":
                out[name] = calls / jobs
            elif quantity == "self_s":
                out[name] = self_s / jobs
            elif quantity == "failed":          # failing inputs, each counted once
                out[name] = failed_by_layer.get(head, 0)
            else:                                     # us_per_<unit>
                out[name] = self_s * 1e6 / units if units else 0.0
    out["trace.job_s"] = sum(walls) / jobs
    out["trace.unattributed_s"] = (sum(walls) - tracer.covered_s) / jobs
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    warnings.simplefilter("ignore")      # numpy warnings on malformed inputs
    su3 = load_su3kit()
    work_dir = ROOT / ".bench_work"
    work_dir.mkdir(exist_ok=True)
    tally = Outcome()
    workload = build(args.workload, su3, args.seed, work_dir)
    tracer = undo = probe = reference = None
    setup, interludes = [], []
    if args.traced:
        tracer = spans.Tracer()
        undo = spans.install(tracer)
    else:
        reference = Reference()
        interludes.append(Interlude(SETUP_STARTS, lambda: setup.append(setup_seconds())))
        # workloads without scalar calls of their own time them on a probe
        if not isinstance(workload, PointRequests):
            probe, passes = latency_probe(su3, args.seed, tally)
            interludes.append(passes)
    try:
        walls, cpus = run_jobs(workload, args.seconds, tally, tracer, interludes, reference)
    finally:
        if undo:
            spans.uninstall(undo)
    best_wall, best_cpu = workload.ops.totals()
    report = {
        "workload": args.workload, "jobs": len(walls), "job_walls": walls, "job_cpus": cpus,
        "job_s": best_wall, "job_cpu_s": best_cpu,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.by_class, "unexpected": tally.unexpected,
    }
    if isinstance(workload, HaarCsv):
        report["csv_sha256"] = workload.digest
    if tracer:
        names = LAYER_METRICS + (CSV_LAYER_METRICS if isinstance(workload, HaarCsv) else ())
        report["layer"] = layer_metrics(tracer, walls, tally.by_layer, names)
        report["modules_self_s"] = sum(report["layer"][f"{m}.self_s"] for m in spans.LAYERS)
    else:
        report["setup_s"], report["setup_starts"] = statistics.median(setup), setup
        report["latency"] = (probe or workload).latency_summary()
        speed, cpu_speed = reference.speed()
        report["speed"] = speed
        # a job of scalar calls is scaled like them; a batched job is not
        scalar = isinstance(workload, PointRequests)
        report["job_speed"], report["job_cpu_speed"] = (speed, cpu_speed) if scalar else (1.0, 1.0)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with contextlib.suppress(OSError):
        work_dir.rmdir()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
