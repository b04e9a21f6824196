"""The input contracts.  Every public entry that takes chart points (the
table ``oracles.chart_entries``) or matrices (``oracles.matrix_entries``)
either answers with output of its documented shape, finite where it
documents so, or raises ValueError, and it never warns.  A chart entry
answers only 8 real numbers, or an (n, 8) array of them where it takes a
batch, each finite and at most half the largest float in magnitude; a
matrix entry only a 3x3 matrix, or a stack of them where it takes one, of
numbers.  The command line, fuzzed in process, exits 0 with strict JSON or
CSV on stdout, or 2 with nothing on stdout and one line on stderr."""

import io
import json
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su3kit import cli
from su3kit.algebra import from_coefficients
from su3kit.group import ANGLE_NAMES, EulerAngles, compose, compose_batch

from oracles import chart_entries, matrix_entries

HALF_MAX = sys.float_info.max / 2
EDGES = (0.0, -0.0, 5e-324, 1e308, -1e308, HALF_MAX, -HALF_MAX, float("nan"), float("inf"),
         -float("inf"), True, False, 2 ** 70, 10 ** 400, 0.3 + 0.5j, "0.3", None)
SHAPES = ((8,), (3, 8), (1, 8), (0, 8), (7,), (3, 7), (2, 2, 8), ())


@st.composite
def chart_inputs(draw):
    """Nested lists, arrays or EulerAngles of plain angles, up to three of
    them replaced by edge values, in right and wrong shapes; the rows of a
    batch may repeat, so that a loop through them closes."""
    shape = draw(st.sampled_from(SHAPES))
    size = int(np.prod(shape))
    values = draw(st.lists(st.floats(0.05, 1.5), min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 3)) if size else 0):
        values[draw(st.integers(0, size - 1))] = draw(st.sampled_from(EDGES))
    nested = np.array(values, dtype=object).reshape(shape).tolist()
    if len(shape) == 2 and draw(st.booleans()):
        nested = nested[:1] * len(nested)
    form = draw(st.sampled_from(("list", "array", "EulerAngles")))
    if form == "array":
        return np.array(nested)
    if form == "EulerAngles" and shape in ((8,), (0, 8), (1, 8), (3, 8)):
        return EulerAngles(*nested) if shape == (8,) else [EulerAngles(*row) for row in nested]
    return nested


def admitted(angles, takes: str) -> bool:
    """Whether angles are 8 reals, or an (n, 8) batch of them where a batch is
    taken, each finite and at most HALF_MAX in magnitude."""
    shape = np.shape(angles)
    if not (shape == (8,) and takes != "batch"
            or len(shape) == 2 and shape[1] == 8 and takes != "one"):
        return False
    values = np.array(angles, dtype=object).ravel().tolist()
    return all(isinstance(x, (bool, int, float)) and abs(x) <= HALF_MAX for x in values)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(chart_inputs())
@example(np.full(8, 0.3 + 0.5j))                # complex arrays, not cut to their real part
@example(np.full((2, 8), 0.3 + 0.5j))
@example([0.0] * 7 + [1e308])                   # -2 phi would overflow
@example([0.0, 1e308] + [0.0] * 6)              # 2 beta would overflow in the densities
@example([[0.0] * 7 + [1e308]] * 3)
@example([HALF_MAX] * 8)
@example([None] * 8)
@example(["0.3"] * 8)
@example(EulerAngles(*np.linspace(0.1, 0.8, 8)))
@example([EulerAngles(*np.linspace(0.1, 0.8, 8))] * 3)
def test_chart_entries_answer_finitely_or_raise_value_error(angles):
    for name, fn, shape, takes in chart_entries():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = np.asarray(fn(angles))
            except ValueError:
                continue
        assert admitted(angles, takes), f"{name} answered {angles!r}"
        rows = np.shape(angles)[:-1]
        assert out.shape == rows + shape, (name, out.shape)
        assert np.isfinite(out).all(), (name, angles)


MATRIX_EDGES = (float("nan"), float("inf"), -float("inf"), complex(0, float("inf")), 1e200, -1e200,
                1.5e308, True, False, 0.3 + 0.5j, 10 ** 400, "0.3", None)
MATRIX_SHAPES = ((3, 3), (1, 3, 3), (2, 3, 3), (0, 3, 3), (2, 2, 3, 3), (2, 2), (3,), (), (3, 3, 1))


@st.composite
def matrix_inputs(draw):
    """Nested lists or arrays of SU(3) elements (decompose answers them) or of
    Hermitian traceless matrices (expand answers them), or of plain numbers in
    wrong shapes, with up to three entries replaced by edge values; now and
    then ragged."""
    shape = draw(st.sampled_from(MATRIX_SHAPES))
    size = int(np.prod(shape))
    if shape[-2:] == (3, 3):
        points = np.array(draw(st.lists(st.floats(0.05, 1.5), min_size=8 * size // 9,
                                        max_size=8 * size // 9))).reshape(-1, 8)
        if draw(st.booleans()):
            mats = compose_batch(points)
        else:
            mats = np.array([from_coefficients(p) for p in points]).reshape(-1, 3, 3)
        values = mats.ravel().tolist()
    else:
        values = draw(st.lists(st.floats(-2, 2), min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 3)) if size else 0):
        values[draw(st.integers(0, size - 1))] = draw(st.sampled_from(MATRIX_EDGES))
    nested = np.array(values, dtype=object).reshape(shape).tolist()
    form = draw(st.sampled_from(("list", "array", "ragged")))
    if form == "ragged" and size and len(shape) >= 2:
        row = nested
        while isinstance(row[0][0], list):
            row = row[0]
        row[0] = row[0][:-1]
    return np.array(nested) if form == "array" else nested


def admitted_matrix(u, takes: str) -> bool:
    """Whether u is a 3x3 matrix, or a stack of them where ``takes`` allows
    one, of numbers a complex double holds."""
    try:
        shape = np.shape(u)
    except ValueError:                      # ragged
        return False
    if not (shape == (3, 3) or shape[-2:] == (3, 3)
            and (takes == "stack" and len(shape) == 3 or takes == "any")):
        return False
    values = np.array(u, dtype=object).ravel().tolist()
    return all(isinstance(x, (int, float, complex)) and not (isinstance(x, int) and abs(x) >= 2 ** 1024)
               for x in values)


STRINGS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrix_inputs())
@example(STRINGS)                           # decompose, adjoint and project answered strings
@example(np.array(STRINGS))
@example(np.full((3, 3), 1e200))            # adjoint and project warned and answered inf
@example(np.full((2, 3, 3), 1e200))
@example(np.full((3, 3), np.nan))           # adjoint answered NaN
@example(np.eye(2))                         # assert_group_element and the residuals: IndexError
@example(np.ones(3))                        # assert_group_element: TypeError
@example([[0, 1.5e308, 0], [1.5e308, 0, 0], [0, 0, 0]])    # expand's sums overflow
@example([[1.5e308 + 1.5e308j, 0, 0], [0, 0, 0], [0, 0, 0]])   # |Tr| overflows
@example([[10 ** 400, 0, 0], [0, 1, 0], [0, 0, 1]])
@example(np.full((3, 3), np.longdouble("1e4000")))     # warned in the cast to complex
@example([[1, 0, 0], [0, 1], [0, 0, 1]])
def test_matrix_entries_answer_or_raise_value_error(u):
    for name, fn, shape, takes, finite in matrix_entries():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = fn(u)
            except ValueError:
                continue
        assert admitted_matrix(u, takes), f"{name} answered {u!r}"
        if shape is None:
            assert out is None, name
            continue
        out = np.asarray(out)
        assert out.shape == np.shape(u)[:-2] + shape, (name, out.shape)
        assert not finite or np.isfinite(out).all(), (name, u)


TAU = 2 * np.pi
GAMMA_CIRCLE = [[0, 0, 0, 0.4, 0, 0, 0, 0], [0, 0, TAU, 0.4, 0, 0, 0, 0]]
RECTANGLE = [[0.3, 0.4, ga, th, 0.5, 0.6, 0.7, 0.8]
             for th, ga in ((0.2, 0.3), (1.0, 0.3), (1.0, 2.1), (0.2, 2.1), (0.2, 0.3))]
JSON_EDGES = (-0.0, 1e308, HALF_MAX, -HALF_MAX, float("nan"), float("inf"), True, None, "0.3",
              10 ** 400, [0.3], {})
ARGV_EDGES = ("nan", "inf", "1e308", "8.98846567431158e307", "-0.5", "0x10", "abc", "")


def _edged(draw, values: list, edges) -> list:
    """values as they are, half the time, or with one or two replaced by edges."""
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(edges))
    return values


@st.composite
def cli_calls(draw):
    """(argv, text): argv of compose, decompose, phase or haar, with "{file}"
    standing for a file that holds text, from plain and edge values."""
    command = draw(st.sampled_from(("compose", "compose-json", "decompose", "phase", "haar")))
    if command == "compose":
        count = draw(st.sampled_from((8, 8, 7, 9)))
        values = _edged(draw, [f"{x:.17g}" for x in np.linspace(0.1, 0.8, count)], ARGV_EDGES)
        return ["compose", "--", *values], None
    if command == "compose-json":
        angles = dict(zip(ANGLE_NAMES, _edged(draw, np.linspace(0.1, 0.8, 8).tolist(), JSON_EDGES)))
        if draw(st.sampled_from((False, False, False, True))):
            del angles[draw(st.sampled_from(ANGLE_NAMES))]
        return ["compose", "--angles", json.dumps(angles)], None
    if command == "decompose":
        u = compose(np.linspace(0.1, 0.8, 8))
        values = _edged(draw, u.real.ravel().tolist() + u.imag.ravel().tolist(), JSON_EDGES)
        re, im = np.array(values, dtype=object).reshape(2, 3, 3).tolist()
        matrix = {"re": re, "im": im}
        tol = draw(st.sampled_from(("1e-8", "1e-8", "1e-8", "nan", "-1")))
        return ["decompose", "--matrix", "{file}", "--tol", tol], json.dumps(matrix)
    if command == "phase":
        base = draw(st.sampled_from((GAMMA_CIRCLE, RECTANGLE)))
        values = _edged(draw, np.ravel(base).tolist(), JSON_EDGES)
        loop = {"waypoints": np.array(values, dtype=object).reshape(-1, 8).tolist(),
                "samples_per_segment": draw(st.sampled_from((4, 64, 4, 64, 1, 0, 2.5, "8", True,
                                                             None, 10 ** 15)))}
        method = draw(st.sampled_from(("connection", "pancharatnam", "curvature")))
        return ["phase", "--loop", "{file}", "--method", method], json.dumps(loop)
    n = draw(st.sampled_from((1, 3, 100, 10 ** 4, 0, -2, 10 ** 15)))
    seed = draw(st.sampled_from((0, 7, 2 ** 128 - 1, -1, 2 ** 128)))
    return ["haar", "--n", str(n), "--seed", str(seed)], None


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cli_calls())
@example((["compose", "--angles", json.dumps(dict.fromkeys(ANGLE_NAMES, "0.1"))], None))
@example((["decompose", "--matrix", "{file}"],                      # strings in a matrix JSON
          json.dumps({"re": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                      "im": [[0] * 3] * 3})))
@example((["phase", "--loop", "{file}"],                            # a string waypoint
          json.dumps({"waypoints": [GAMMA_CIRCLE[0], GAMMA_CIRCLE[1][:2] + [str(TAU)]
                                    + GAMMA_CIRCLE[1][3:]]})))
@example((["phase", "--loop", "{file}", "--method", "curvature"],   # a rectangle out to +-max/2
          json.dumps({"waypoints": [[0, 0, ga, th, 0, 0, 0, 0] for th, ga in
                                    ((-HALF_MAX, -HALF_MAX), (HALF_MAX, -HALF_MAX), (HALF_MAX, HALF_MAX),
                                     (-HALF_MAX, HALF_MAX), (-HALF_MAX, -HALF_MAX))],
                      "samples_per_segment": 4})))
@example((["phase", "--loop", "{file}"],                            # a line integral that overflows
          json.dumps({"waypoints": [GAMMA_CIRCLE[0], [0, HALF_MAX, HALF_MAX, HALF_MAX, 0, 0, 0, 0],
                                    [0, -HALF_MAX, -HALF_MAX, -HALF_MAX, 0, 0, 0, 0], GAMMA_CIRCLE[0]],
                      "samples_per_segment": 1})))
@example((["haar", "--n", "0"], None))
@example((["haar", "--n", str(10 ** 15)], None))
def test_cli_exits_0_with_strict_output_or_2_with_one_line(tmp_path_factory, call):
    argv, text = call
    if text is not None:
        path = tmp_path_factory.mktemp("cli") / "input.json"
        path.write_text(text)
        argv = [str(path) if arg == "{file}" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        return
    assert code == 0, (argv, code, err)
    if argv[0] == "haar":
        header, *rows = out.splitlines()
        assert header == ",".join(ANGLE_NAMES) and len(rows) == int(argv[2])
        assert all(np.isfinite([float(x) for x in row.split(",")]).all() for row in rows)
    else:
        json.loads(out, parse_constant=_strict)
