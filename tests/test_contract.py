"""The input contract of every public entry that takes chart points (the
table ``oracles.chart_entries``): on any input it either answers with
finite output of its documented shape or raises ValueError, and it never
warns.  It answers only 8 real numbers, or an (n, 8) array of them where
it takes a batch, each finite and at most half the largest float in
magnitude."""

import sys
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su3kit.group import EulerAngles

from oracles import chart_entries

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
