"""su3kit benchmark: one workload, one seed, one run.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the su3kit under test is ``src/su3kit`` of the checkout
holding this file.  Workloads:

    verify_full      su3kit verify --level full --seed (N mod 400), in process;
                     every one of those verify seeds was surveyed, so each
                     failing check is catalogued in worker.py
    haar_csv         su3kit haar --n 200000 --out FILE, in process
    point_requests   five scalar calls on each of 1500 generated points
    phase_loops      24 loops and 24 rectangles through the phase routes

BENCHMARK.json gates verify_full and point_requests, which together reach
every layer, with long runs: on a shared machine a slowdown lasting minutes
then spoils fewer of a workload's runs.  haar_csv (CSV output) and
phase_loops (the batched chart kernel) run the same way on request.

Load is one closed-loop client: a single worker process runs one job after
another.  With ``--trace 0`` the run reports the end-to-end metrics:

    setup_s      median of 16 fresh interpreters, each timed until
                 ``import su3kit, su3kit.cli`` returns, started between the
                 jobs and spread evenly over the run
    job_s        best-of wall seconds per job: the sum over the job's
                 operations (one CLI call; one scalar-call input; one loop or
                 rectangle) of each operation's fastest repeat in the run,
                 after a warm-up job; on point_requests at the reference
                 speed (below)
    job_cpu_s    the same in process CPU seconds
    peak_rss_mb  peak resident set of the worker process
    <call>_p50_us    median per-call latency over inputs, each input timed
                 as the best of its repeats; on point_requests the inputs
                 are the workload's own 1500, elsewhere a probe of 200
                 interior points timed in passes between the jobs; at the
                 reference speed

Reference speed: after every job the worker also runs a fixed reference job
of short scalar calls into the benchmark's own numpy code (no su3kit call),
timed the same best-of way.  Times of scalar calls (the latencies, and
point_requests' job times) are multiplied by REFERENCE_S / (the reference
job's best-of time in this run), so a machine that is slower for the whole
run, as shared machines are for minutes at a time, does not read as a slower
su3kit.  Batched jobs slow differently and are not scaled.  The factors and
the times as measured are printed with the result.

point_requests also prints p99 latencies (1500 inputs, 15 beyond); they are
not gated metrics, because their run-to-run spread on a shared machine
exceeds any useful bound.

Best-of timings are used because other tenants of a small shared machine
slow whole jobs by tens of percent for seconds at a time.
fail_frac (failed / attempted checked operations) is printed, and carried
by ``attempted`` and ``failed`` in the JSON result.  An operation is one
output check on one input, counted once however often the run repeats it,
so both counts depend on the seed alone.

With ``--trace 1`` the run reports the per-layer metrics of a traced run,
and the tracing overhead against an untraced run of the same length.
haar_csv alone adds measure.dump_csv.us_per_row, which reads 0 elsewhere.
Human-readable lines go first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("verify_full", "haar_csv", "point_requests", "phase_loops")
# end-to-end metrics of every workload; the median latencies follow them
END_TO_END = ("setup_s", "job_s", "job_cpu_s", "peak_rss_mb")


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_limit(seconds: int) -> float:
    """Wall seconds a whole run may take; every subprocess is stopped by then."""
    return 2 * seconds + 60


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("run exceeded its time limit")
    return left


def run_worker(workload: str, seed: int, seconds: float, deadline: float,
               traced=False) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--traced"] if traced else []
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining(deadline))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "git_sha": git_sha(),
            "loadavg": list(os.getloadavg()), "seed": seed}


def end_to_end(report: dict) -> dict:
    """Median set-up, peak memory, best-of job time, and median latencies at
    the reference speed."""
    metrics = {
        "setup_s": (report["setup_s"], "s"),
        "job_s": (report["job_s"] * report["job_speed"], "s"),
        "job_cpu_s": (report["job_cpu_s"] * report["job_cpu_speed"], "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    for name, lat in report["latency"].items():
        if name.endswith("_p50_us"):
            metrics[name] = (lat["value"] * report["speed"], "us")
    return metrics


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = {}
    for name, value in traced["layer"].items():
        quantity = name.rsplit(".", 1)[1]
        unit = ("count" if quantity in ("calls", "failed") else
                "us" if quantity.startswith("us_per_") else "s")
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (traced["job_s"] - untraced["job_s"], "s")
    return metrics


def print_report(args, env, report, metrics, extra_lines):
    print(f"su3kit benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    print("environment " + json.dumps(env))
    print(f"jobs {report['jobs']} (one closed-loop client, warm-up job excluded)")
    for line in extra_lines:
        print(line)
    attempted, failed = report["attempted"], report["failed"]
    print(f"{'fail_frac':<40} {failed / attempted:>14.6g} 1  "
          f"({failed} of {attempted} checked operations)")
    for kind, count in sorted(report["failures"].items()):
        print(f"  failures {kind}: {count}")
    for what in report["unexpected"]:
        print(f"  unexpected: {what}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be >= 0")
    if args.seconds < 1:
        return fail("--seconds must be >= 1")
    if not (ROOT / "src" / "su3kit" / "__init__.py").is_file():
        return fail(f"no su3kit sources under {ROOT / 'src'}")

    deadline = time.monotonic() + run_limit(args.seconds)
    env = environment(args.seed)
    extra = []
    try:
        if args.trace:
            half = args.seconds / 2
            untraced = run_worker(args.workload, args.seed, half, deadline)
            report = run_worker(args.workload, args.seed, half, deadline, traced=True)
            metrics = per_layer(untraced, report)
            extra.append(f"per traced job (mean): {metrics['trace.job_s'][0]:.4f} s = module "
                         f"self times {report['modules_self_s']:.4f} s + unattributed "
                         f"{metrics['trace.unattributed_s'][0]:.4f} s")
        else:
            report = run_worker(args.workload, args.seed, args.seconds, deadline)
            metrics = end_to_end(report)
            starts = report["setup_starts"]
            extra.append(f"setup_s over {len(starts)} starts: min {min(starts):.4f} s, "
                         f"max {max(starts):.4f} s")
            extra.append(f"machine speed against the reference {report['speed']:.4f}; job_s "
                         f"scaled by {report['job_speed']:.4f} from {report['job_s']:.4f} s, "
                         f"job_cpu_s by {report['job_cpu_speed']:.4f} from "
                         f"{report['job_cpu_s']:.4f} s")
            for name, lat in report["latency"].items():
                extra.append(f"{name:<24} {lat['value']:10.4g} us as measured over "
                             f"{lat['samples']} inputs, each the best of {lat['repeats']} "
                             f"repeats; {lat['beyond']} beyond")
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(str(exc))
    if report.get("csv_sha256"):
        extra.append(f"haar csv sha256 {report['csv_sha256']}")

    print_report(args, env, report, metrics, extra)
    print(json.dumps({
        "correct": report["failures"].get("unexpected", 0) == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
