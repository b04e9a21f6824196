import numpy as np

from su3kit import cartan, closed_forms
from su3kit.group import ANGLE_NAMES

SQ3 = np.sqrt(3.0)


def interior_points(seed, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.15, 1.35, size=(n, 8))


def test_tables_on_a_batch_equal_their_rows():
    # array and scalar sin/cos may differ in the last bit, so allow a few ulps
    p = interior_points(5, 16)
    for table in (closed_forms.fields_left, closed_forms.fields_right,
                  closed_forms.forms_left, closed_forms.forms_right):
        rows = np.array([table(q) for q in p])
        np.testing.assert_allclose(table(p), rows, rtol=4 * np.finfo(float).eps, atol=0)


def test_tabulated_left_fields_match_exact_everywhere():
    p = interior_points(1, 20)
    dev = np.abs(closed_forms.fields_left(p) - 1j * cartan.left_fields(p))
    assert dev.max() <= 1e-10


def test_tabulated_left_forms_match_except_omega3_dphi():
    p = interior_points(2, 20)
    dev = np.abs(closed_forms.forms_left(p) + 1j * cartan.left_coeffs(p))
    mask = np.ones((8, 8), dtype=bool)
    mask[2, 7] = False        # the omega^3 d phi entry carries a stray 1/2
    assert dev[:, mask].max() <= 1e-10
    # the deviant entry is exactly half the true coefficient away
    expected_gap = 0.5 * (SQ3 / 2) * abs(np.cos(2 * p[:, 1])) * np.sin(p[:, 3]) ** 2
    assert np.abs(dev[:, 2, 7] - expected_gap).max() <= 1e-12


def test_tabulated_right_field_tail_terms_flip_sign():
    # the d/dphi coefficients of Lambda^r_4..7 in the table differ from the
    # exact construction by an overall sign of the Lambda^r_8 tail term
    p = interior_points(3, 20)
    tab = closed_forms.fields_right(p)
    exact = 1j * cartan.right_fields(p)
    rows = [3, 4, 6]          # rows whose only deviation is the tail term
    np.testing.assert_allclose(tab[:, rows, 7], -exact[:, rows, 7], atol=1e-10)
    assert np.abs(tab[:, rows, :7] - exact[:, rows, :7]).max() <= 1e-10


def test_deviation_catalogue_matches_documented_set():
    cmp = cartan.closed_form_comparison(seed=0)
    assert cmp.catalogue == closed_forms.KNOWN_DEVIATIONS
    assert cmp.matches_documented_catalogue()


def test_deviation_catalogue_stable_across_seeds():
    catalogues = {cartan.closed_form_comparison(seed=s).catalogue for s in range(4)}
    assert len(catalogues) == 1


def test_agreeing_entries_are_tight():
    assert cartan.closed_form_comparison(seed=1).agreeing_max <= 1e-10


def test_deviant_entry_magnitudes_are_order_one():
    cmp = cartan.closed_form_comparison(seed=2)
    for table, row, coord in cmp.catalogue:
        dev = cmp.deviations[table][row - 1, ANGLE_NAMES.index(coord)]
        assert dev > 1e-3, (table, row, coord)


def test_tabulated_omega8_right_row_as_printed():
    # the printed omega^8_r places the gamma coefficient in the d beta and
    # d theta slots; the transcription reproduces the printed row verbatim
    p = interior_points(4, 10)
    w = closed_forms.forms_right(p)[:, 7]
    s2t = np.sin(p[:, 3]) ** 2
    expected = np.zeros((10, 8), dtype=complex)
    expected[:, 0] = 1j * (SQ3 / 2) * np.cos(2 * p[:, 1]) * s2t
    expected[:, 1] = 1j * (SQ3 / 2) * s2t
    expected[:, 3] = 1j * (SQ3 / 2) * s2t
    expected[:, 7] = -1j
    np.testing.assert_allclose(w, expected, atol=1e-15)
