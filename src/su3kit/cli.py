"""Command-line interface.

Subcommands
-----------
compose     eight angles -> group element (JSON matrix on stdout)
decompose   JSON matrix file -> angles and stratum flags
haar        deterministic Haar sample CSV
phase       geometric phase of a loop JSON by one of three methods
verify      run the named invariant suite, exit nonzero on failure

The commands parse no numbers of their own.  Positional angles pass
through ``float``; JSON values reach the library's parsers unconverted
(``group._points`` for angles and waypoints, ``algebra._matrices`` for the
're' and 'im' blocks of a matrix, ``LoopSpec`` and ``measure.sample_haar``
for counts), so a JSON string where a number belongs is an input error;
``--seed`` is judged by the library's one seed check, ``group._check_seed``.

stdout carries machine-readable JSON or CSV only, each written whole or not
at all; diagnostics go to stderr.
Exit codes: 0 success, 1 verification failure, 2 input error (a size that
does not fit in memory included), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np


def matrix_to_json(u: np.ndarray) -> dict:
    return {"re": np.real(u).tolist(), "im": np.imag(u).tolist()}


def _json_object(obj, what: str) -> dict:
    """obj, if it is a JSON object; other JSON values raise ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON must be an object, not {type(obj).__name__}")
    return obj


def matrix_from_json(obj: dict) -> np.ndarray:
    """The matrix of a matrix JSON object, its 're' and 'im' blocks 3x3 each."""
    from .algebra import _matrices
    obj = _json_object(obj, "matrix")
    re, im = _matrices(obj["re"], one=True), _matrices(obj["im"], one=True)
    # 1j * inf has a NaN real part, and complex blocks may sum to inf: decompose refuses both
    with np.errstate(invalid="ignore", over="ignore"):
        return re + 1j * im


def loop_from_json(obj: dict):
    """The ``phase.LoopSpec`` of a loop JSON object; ``LoopSpec`` checks its fields."""
    from .phase import LoopSpec
    obj = _json_object(obj, "loop")
    closed = obj.get("closed", True)
    if not isinstance(closed, bool):
        raise ValueError(f"'closed' must be true or false, not {json.dumps(closed)}")
    if not closed:
        raise ValueError("phase computation requires a closed loop")
    return LoopSpec(obj["waypoints"], obj.get("samples_per_segment", 256))


def _emit(payload) -> None:
    # strict JSON (no NaN), built whole first, so a refused value prints nothing
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# each _cmd_* imports the layers it runs when it runs, so a one-shot command
# loads no others
def _cmd_compose(args) -> int:
    from .group import ANGLE_NAMES, _points, compose, unitarity_residual
    values = args.values
    if args.angles is not None:
        if values:
            return _fail(2, "give the angles either as --angles JSON or positionally, not both")
        try:
            obj = _json_object(json.loads(args.angles), "angles")
            values = _points([obj[name] for name in ANGLE_NAMES], one=True)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            return _fail(2, f"bad angles JSON: {exc}")
    try:
        u = compose([float(x) for x in values])
    except ValueError as exc:
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
    try:
        samples = measure.sample_haar(args.seed, args.n)
        if args.out == "-":
            measure.dump_csv(samples, sys.stdout)
        else:
            measure.dump_csv(samples, args.out)
    except ValueError as exc:
        return _fail(2, f"--n {args.n}, --seed {args.seed}: {exc}")
    except MemoryError as exc:
        return _fail(2, f"--n {args.n} does not fit in memory: {exc}")
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
    except MemoryError as exc:
        return _fail(2, f"samples_per_segment does not fit in memory: {exc}")
    _emit({"method": args.method, "phase_rad": value, "samples": n_samples})
    return 0


def _rectangle_phase(loop) -> float:
    """Curvature surface integral over the rectangle bounded by a loop that is
    exactly ``phase._rectangle_corners(w[0], (i, j), bounds)``, where the first
    edge moves axis i and the second axis j; any other loop raises ValueError."""
    from .phase import _rectangle_corners, phase_curvature
    w = loop.waypoints
    if len(w) != 5:
        raise ValueError("curvature method expects the 5-waypoint boundary of a rectangle")
    moved = [np.flatnonzero(w[k + 1] != w[k]) for k in (0, 1)]
    if any(len(axis) != 1 for axis in moved):
        raise ValueError("each rectangle edge must move exactly one coordinate")
    (i,), (j,) = moved
    bounds = ((w[0, i], w[2, i]), (w[0, j], w[2, j]))
    if not np.array_equal(w, _rectangle_corners(w[0], (i, j), bounds)):
        raise ValueError("loop is not the boundary of a coordinate rectangle")
    return phase_curvature(w[0], (i, j), bounds)


def _cmd_verify(args) -> int:
    from . import __version__, verify
    start = time.perf_counter()
    try:
        checks = verify.run_checks(level=args.level, seed=args.seed)
    except ValueError as exc:           # argparse admits the level: the seed is refused
        return _fail(2, f"--seed {args.seed}: {exc}")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
