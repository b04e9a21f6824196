"""Command-line interface.

Subcommands
-----------
compose     eight angles -> group element (JSON matrix on stdout)
decompose   JSON matrix file -> angles and stratum flags
haar        deterministic Haar sample CSV
phase       geometric phase of a loop JSON by one of three methods
verify      run the named invariant suite, exit nonzero on failure

stdout carries machine-readable JSON or CSV only; diagnostics go to stderr.
Exit codes: 0 success, 1 verification failure, 2 input error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np


def matrix_to_json(u: np.ndarray) -> dict:
    u = np.asarray(u, dtype=complex)
    return {"re": u.real.tolist(), "im": u.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (3, 3) or im.shape != (3, 3):
        raise ValueError("matrix JSON must hold 3x3 're' and 'im' blocks")
    return re + 1j * im


def loop_from_json(obj: dict):
    """The ``phase.LoopSpec`` of a loop JSON object; ``LoopSpec`` checks its fields."""
    from .phase import LoopSpec
    if not obj.get("closed", True):
        raise ValueError("phase computation requires a closed loop")
    return LoopSpec(waypoints=np.asarray(obj["waypoints"], dtype=float),
                    samples_per_segment=obj.get("samples_per_segment", 256))


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, allow_nan=False)    # strict JSON: no NaN
    sys.stdout.write("\n")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# each _cmd_* imports the layers it runs when it runs, so a one-shot command
# loads no others
def _cmd_compose(args) -> int:
    from .group import compose, unitarity_residual
    try:
        if args.angles is not None:
            obj = json.loads(args.angles)
            values = [float(obj[name]) for name in
                      ("alpha", "beta", "gamma", "theta", "a", "b", "c", "phi")]
        else:
            values = [float(x) for x in args.values]
        u = compose(values)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(2, f"bad angles: {exc}")
    print(f"unitarity residual {unitarity_residual(u):.3e}", file=sys.stderr)
    _emit(matrix_to_json(u))
    return 0


def _cmd_decompose(args) -> int:
    from .group import decompose
    try:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            u = matrix_from_json(json.load(fh))
    except OSError as exc:
        return _fail(3, f"cannot read {args.matrix}: {exc}")
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(2, f"bad matrix JSON: {exc}")
    try:
        angles, flags = decompose(u, tol=args.tol)
    except ValueError as exc:
        return _fail(2, str(exc))
    _emit({"angles": angles.as_dict(), "stratum_flags": flags})
    return 0


def _cmd_haar(args) -> int:
    from . import measure
    if args.n < 1:
        return _fail(2, "--n must be >= 1")
    samples = measure.sample_haar(args.seed, args.n)
    try:
        if args.out == "-":
            measure.dump_csv(samples, sys.stdout)
        else:
            measure.dump_csv(samples, args.out)
    except OSError as exc:
        return _fail(3, f"cannot write {args.out}: {exc}")
    return 0


def _cmd_phase(args) -> int:
    from . import phase
    try:
        with open(args.loop, "r", encoding="utf-8") as fh:
            loop = loop_from_json(json.loads(fh.read()))
    except OSError as exc:
        return _fail(3, f"cannot read {args.loop}: {exc}")
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(2, f"bad loop JSON: {exc}")
    n_samples = loop.samples_per_segment * (len(loop.waypoints) - 1)
    try:
        if args.method == "connection":
            value = phase.phase_connection(loop, include_dphi=args.include_dphi)
        elif args.method == "pancharatnam":
            value = phase.phase_pancharatnam(loop)
        else:
            value = _rectangle_phase(loop)
    except ValueError as exc:
        return _fail(2, str(exc))
    _emit({"method": args.method, "phase_rad": value, "samples": n_samples})
    return 0


def _rectangle_phase(loop) -> float:
    """Curvature surface integral for a loop bounding a coordinate rectangle.

    The loop must be a 4-corner rectangle varying exactly two coordinates;
    the surface spans it with the loop's orientation.
    """
    from .phase import phase_curvature
    w = loop.waypoints
    if len(w) != 5:
        raise ValueError("curvature method expects a 4-corner rectangle loop")
    varying = [k for k in range(8) if np.ptp(w[:, k]) > 0]
    if len(varying) != 2:
        raise ValueError("rectangle loop must vary exactly two coordinates")
    i, j = varying
    # orientation: first edge should vary axis i
    if w[0, i] == w[1, i]:
        i, j = j, i
    x0, x1 = w[0, i], w[1, i]
    y0, y1 = w[0, j], w[2, j]
    n = max(loop.samples_per_segment, 2)
    return phase_curvature(w[0], (i, j), ((x0, x1), (y0, y1)), samples=(n, n))


def _cmd_verify(args) -> int:
    from . import __version__, verify
    start = time.perf_counter()
    checks = verify.run_checks(level=args.level, seed=args.seed)
    elapsed = time.perf_counter() - start
    catalogue = sorted(checks.closed_form_catalogue)
    payload = {
        "level": args.level,
        "seed": args.seed,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "su3kit": __version__},
        "elapsed_s": elapsed,
        "checks": [c.as_dict() for c in checks],
        "closed_form_deviation_catalogue": [list(entry) for entry in catalogue],
        "passed": all(c.passed for c in checks),
    }
    _emit(payload)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{status:4s} {c.name}: residual {c.residual:.3e} "
              f"(threshold {c.threshold:.3e}) {c.detail}", file=sys.stderr)
    return 0 if payload["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="su3kit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="angles -> matrix JSON")
    p.add_argument("--angles", help="JSON object with the eight named angles")
    p.add_argument("values", nargs="*", help="eight angles in radians (positional)")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("decompose", help="matrix JSON file -> angles")
    p.add_argument("--matrix", required=True, help="path to matrix JSON")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="admission tolerance for the SU(3) invariants")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("haar", help="deterministic Haar sample CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.set_defaults(func=_cmd_haar)

    p = sub.add_parser("phase", help="geometric phase of a loop JSON")
    p.add_argument("--loop", required=True, help="path to LoopSpec JSON")
    p.add_argument("--method", choices=("connection", "pancharatnam", "curvature"),
                   default="connection")
    p.add_argument("--include-dphi", action="store_true",
                   help="keep the -2/sqrt(3) d phi term in the line integral")
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compose" and args.angles is None and len(args.values) != 8:
        return _fail(2, "compose needs --angles JSON or exactly 8 positional radians")
    # a seed keys a Philox stream, whose key is a 128-bit unsigned integer
    if not 0 <= getattr(args, "seed", 0) < 2 ** 128:
        return _fail(2, "--seed must be an integer in [0, 2**128)")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
