import json
import platform
import warnings

import numpy as np
import pytest

import su3kit
from su3kit import cli, measure, verify
from su3kit.group import compose


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compose_zeros_prints_identity_json(capsys):
    code, out, err = run_cli(capsys, "compose", *(["0"] * 8))
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_array_equal(payload["re"], np.eye(3))
    np.testing.assert_array_equal(payload["im"], np.zeros((3, 3)))
    assert "unitarity residual" in err
    assert "unitarity" not in out


def test_compose_non_finite_angle_exit_2(capsys):
    code, out, err = run_cli(capsys, "compose", "nan", *(["0"] * 7))
    assert code == 2 and out == "" and "finite" in err
    angles = {**dict.fromkeys(("alpha", "beta", "gamma", "theta", "a", "b", "c"), 0.0),
              "phi": float("inf")}
    code, out, _ = run_cli(capsys, "compose", "--angles", json.dumps(angles))
    assert code == 2 and out == ""


def test_compose_angle_beyond_half_the_largest_float_exit_2(capsys):
    # -2 phi would overflow: the angle is refused before any output
    code, out, err = run_cli(capsys, "compose", *(["0"] * 7), "1e308")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: bad angles: ")


def test_compose_accepts_named_angle_json(capsys):
    angles = dict(zip(("alpha", "beta", "gamma", "theta", "a", "b", "c", "phi"),
                      [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]))
    code, out, _ = run_cli(capsys, "compose", "--angles", json.dumps(angles))
    assert code == 0
    u = cli.matrix_from_json(json.loads(out))
    np.testing.assert_allclose(u, compose(np.arange(1, 9) / 10), atol=1e-15)


def test_compose_input_errors_exit_2(capsys):
    code, out, err = run_cli(capsys, "compose", "1", "2")
    assert code == 2 and out == "" and "error" in err
    code, _, _ = run_cli(capsys, "compose", "--angles", "{bad json")
    assert code == 2
    # positional angles beside --angles are refused, not dropped
    code, out, err = run_cli(capsys, "compose", "--angles", json.dumps(ZERO_ANGLES), "1", "2", "3")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and "not both" in err


def test_compose_decompose_round_trip_via_files(tmp_path, capsys):
    rng = np.random.default_rng(0)
    p = measure.sample_haar(17, 1)[0]
    code, out, _ = run_cli(capsys, "compose", *(f"{x:.17g}" for x in p))
    assert code == 0
    matrix_file = tmp_path / "u.json"
    matrix_file.write_text(out)
    code, out, _ = run_cli(capsys, "decompose", "--matrix", str(matrix_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["stratum_flags"] == []
    got = np.array([payload["angles"][k] for k in
                    ("alpha", "beta", "gamma", "theta", "a", "b", "c", "phi")])
    np.testing.assert_allclose(got, p, atol=1e-10)


def test_decompose_rejects_non_unitary_exit_2(tmp_path, capsys):
    matrix_file = tmp_path / "bad.json"
    matrix_file.write_text(json.dumps(cli.matrix_to_json(np.eye(3) * 1.1)))
    code, out, err = run_cli(capsys, "decompose", "--matrix", str(matrix_file))
    assert code == 2
    assert "residual" in err


@pytest.mark.parametrize("scale", [1e200, 1.5e308])
def test_decompose_overflowing_matrix_exit_2_without_a_warning(tmp_path, capsys, scale):
    matrix_file = tmp_path / "big.json"
    for u in (scale * np.eye(3), scale * su3kit.random_su3(1, np.random.default_rng(3))[0]):
        matrix_file.write_text(json.dumps(cli.matrix_to_json(u)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "decompose", "--matrix", str(matrix_file))
        assert code == 2 and out == "" and "not unitary" in err
        assert "Warning" not in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_decompose_tolerance_not_finite_and_non_negative_exit_2(tmp_path, capsys, tol):
    matrix_file = tmp_path / "u.json"
    matrix_file.write_text(json.dumps(cli.matrix_to_json(np.diag([2.0, 1.0, 0.5]))))
    code, out, err = run_cli(capsys, "decompose", "--matrix", str(matrix_file), "--tol", tol)
    assert code == 2 and out == "" and "tol must be finite" in err


def test_decompose_missing_file_exit_3(capsys):
    code, _, err = run_cli(capsys, "decompose", "--matrix", "/nonexistent/u.json")
    assert code == 3


def test_haar_csv_deterministic_and_in_range(tmp_path, capsys):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert run_cli(capsys, "haar", "--n", "200", "--seed", "5", "--out", str(out1))[0] == 0
    assert run_cli(capsys, "haar", "--n", "200", "--seed", "5", "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "alpha,beta,gamma,theta,a,b,c,phi"
    data = np.loadtxt(out1, delimiter=",", skiprows=1)
    assert data.shape == (200, 8)
    from su3kit.group import CANONICAL_HIGH
    assert data.min() >= 0 and np.all(data.max(axis=0) <= CANONICAL_HIGH)
    assert data[:, 7].max() < np.sqrt(3) * np.pi


def test_haar_stdout_and_sin2_theta_mean(capsys):
    code, out, _ = run_cli(capsys, "haar", "--n", "100000", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,beta,gamma,theta,a,b,c,phi"
    theta = np.array([float(line.split(",")[3]) for line in lines[1:]])
    s2 = np.sin(theta) ** 2
    assert abs(s2.mean() - 2 / 3) <= 3 * s2.std(ddof=1) / np.sqrt(s2.size)


def test_haar_seed_out_of_range_exit_2(capsys):
    for seed in ("-5", str(2 ** 128)):
        code, out, err = run_cli(capsys, "haar", "--n", "3", "--seed", seed)
        assert code == 2 and out == "" and "--seed" in err
    assert run_cli(capsys, "haar", "--n", "3", "--seed", str(2 ** 128 - 1))[0] == 0


def test_haar_write_failure_exit_3(capsys):
    code, _, err = run_cli(capsys, "haar", "--n", "1", "--out", "/nonexistent/dir/x.csv")
    assert code == 3


def test_sizes_that_do_not_fit_in_memory_exit_2(tmp_path, capsys):
    # 10**15 rows or samples need petabytes, so numpy refuses them at once
    # without allocating anything
    code, out, err = run_cli(capsys, "haar", "--n", str(10 ** 15))
    assert code == 2 and out == "" and err.count("\n") == 1 and "--n" in err
    corners = [[0.0] * 8 for _ in range(5)]
    for w, (th, ga) in zip(corners, [(0, 0), (0.5, 0), (0.5, 1), (0, 1), (0, 0)]):
        w[3], w[2] = th, ga
    loop_file = tmp_path / "rect.json"
    loop_file.write_text(json.dumps({"waypoints": corners, "samples_per_segment": 10 ** 15}))
    code, out, err = run_cli(capsys, "phase", "--loop", str(loop_file), "--method", "pancharatnam")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "samples_per_segment" in err
    # the exact integrals take no samples: both answer sin^2(0.5)
    for method in ("connection", "curvature"):
        code, out, _ = run_cli(capsys, "phase", "--loop", str(loop_file), "--method", method)
        assert code == 0, method
        assert json.loads(out)["phase_rad"] == pytest.approx(np.sin(0.5) ** 2, abs=1e-15, rel=0)


def test_phase_methods_on_gamma_circle(tmp_path, capsys):
    loop = {
        "waypoints": [[0, 0, 0, np.pi / 4, 0, 0, 0, 0],
                      [0, 0, 2 * np.pi, np.pi / 4, 0, 0, 0, 0]],
        "samples_per_segment": 10_000,
        "closed": True,
    }
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(loop))
    code, out, _ = run_cli(capsys, "phase", "--loop", str(loop_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "connection"
    assert payload["phase_rad"] == pytest.approx(np.pi, abs=1e-6, rel=0)
    assert payload["samples"] == 10_000

    code, out, _ = run_cli(capsys, "phase", "--loop", str(loop_file),
                           "--method", "pancharatnam")
    assert json.loads(out)["phase_rad"] == pytest.approx(np.pi, abs=1e-4, rel=0)

    code, out, _ = run_cli(capsys, "phase", "--loop", str(loop_file), "--include-dphi")
    assert json.loads(out)["phase_rad"] == pytest.approx(np.pi, abs=1e-6, rel=0)


def test_phase_curvature_method_on_rectangle(tmp_path, capsys):
    t0, t1, g0, g1 = 0.0, np.pi / 4, 0.0, 2 * np.pi
    base = [0.0] * 8
    corners = []
    for th, ga in [(t0, g0), (t1, g0), (t1, g1), (t0, g1), (t0, g0)]:
        w = list(base)
        w[3], w[2] = th, ga
        corners.append(w)
    loop_file = tmp_path / "rect.json"
    loop_file.write_text(json.dumps({"waypoints": corners,
                                     "samples_per_segment": 2048}))
    code, out, _ = run_cli(capsys, "phase", "--loop", str(loop_file),
                           "--method", "curvature")
    assert code == 0
    assert json.loads(out)["phase_rad"] == pytest.approx(np.pi, abs=1e-5, rel=0)


def test_phase_curvature_reversed_orientation_negates(tmp_path, capsys):
    t0, t1, g0, g1 = 0.1, 0.8, 0.2, 1.5
    corners = []
    # clockwise traversal: gamma edge first
    for th, ga in [(t0, g0), (t0, g1), (t1, g1), (t1, g0), (t0, g0)]:
        w = [0.0] * 8
        w[3], w[2] = th, ga
        corners.append(w)
    loop_file = tmp_path / "rect_cw.json"
    loop_file.write_text(json.dumps({"waypoints": corners,
                                     "samples_per_segment": 1024}))
    code, out, _ = run_cli(capsys, "phase", "--loop", str(loop_file),
                           "--method", "curvature")
    assert code == 0
    cw = json.loads(out)["phase_rad"]
    code, out, _ = run_cli(capsys, "phase", "--loop", str(loop_file),
                           "--method", "connection")
    boundary = json.loads(out)["phase_rad"]
    assert cw == pytest.approx(boundary, abs=1e-5, rel=0)


_RECT_BASE = [0.3, 0.4, 0, 0, 0.5, 0.6, 0.7, 0.8]


def _theta_gamma_loop(corners):
    """Waypoints through _RECT_BASE at the given (theta, gamma) corners."""
    return [_RECT_BASE[:2] + [ga, th] + _RECT_BASE[4:] for th, ga in corners]


@pytest.mark.parametrize("corners", [
    # trapezoid: the connection route gives 0.8756
    [(0.2, 0.3), (1.0, 0.3), (1.0, 2.1), (0.2, 1.0), (0.2, 0.3)],
    # bowtie: the connection route gives 0.0
    [(0.2, 0.3), (1.0, 0.3), (0.2, 2.1), (1.0, 2.1), (0.2, 0.3)],
    # first edge moves theta and gamma together
    [(0.2, 0.3), (1.0, 1.0), (1.0, 2.1), (0.2, 2.1), (0.2, 0.3)],
    # a rectangle whose last waypoint is the first one wound once in gamma
    [(0.2, 0.3), (1.0, 0.3), (1.0, 2.1), (0.2, 2.1), (0.2, 0.3 + 2 * np.pi)],
], ids=["trapezoid", "bowtie", "two-coordinate-edge", "gamma-winding"])
def test_phase_curvature_refuses_loops_that_are_not_rectangles(tmp_path, capsys, corners):
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps({"waypoints": _theta_gamma_loop(corners),
                                     "samples_per_segment": 512}))
    code, _, _ = run_cli(capsys, "phase", "--loop", str(loop_file), "--method", "connection")
    assert code == 0                    # a valid closed loop for the line integral
    code, out, err = run_cli(capsys, "phase", "--loop", str(loop_file), "--method", "curvature")
    assert code == 2 and out == "" and "rectangle" in err


def test_phase_open_loop_exit_2(tmp_path, capsys):
    loop_file = tmp_path / "open.json"
    loop_file.write_text(json.dumps({
        "waypoints": [[0] * 8, [0, 0, 0, 0.4, 0, 0, 0, 0]],
        "closed": False}))
    code, _, err = run_cli(capsys, "phase", "--loop", str(loop_file))
    assert code == 2
    loop_file.write_text(json.dumps({
        "waypoints": [[0] * 8, [0, 0, 0, 0.4, 0, 0, 0, 0]]}))
    code, _, err = run_cli(capsys, "phase", "--loop", str(loop_file))
    assert code == 2


def test_phase_non_integer_samples_per_segment_exit_2(tmp_path, capsys):
    loop_file = tmp_path / "loop.json"
    waypoints = [[0, 0, 0, np.pi / 4, 0, 0, 0, 0], [0, 0, 2 * np.pi, np.pi / 4, 0, 0, 0, 0]]
    for value in (2.5, "7", True):
        loop_file.write_text(json.dumps({"waypoints": waypoints, "samples_per_segment": value}))
        code, out, err = run_cli(capsys, "phase", "--loop", str(loop_file))
        assert code == 2 and out == "" and "samples_per_segment must be an integer" in err
    loop_file.write_text(json.dumps({"waypoints": waypoints, "samples_per_segment": 8}))
    code, out, _ = run_cli(capsys, "phase", "--loop", str(loop_file))
    assert code == 0 and json.loads(out)["samples"] == 8


def test_phase_non_finite_waypoint_exit_2(tmp_path, capsys):
    loop_file = tmp_path / "nan.json"
    loop_file.write_text(json.dumps({
        "waypoints": [[0] * 8, [0, 0, float("nan"), 0.4, 0, 0, 0, 0], [0] * 8]}))
    code, out, err = run_cli(capsys, "phase", "--loop", str(loop_file))
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.parametrize("method", ["connection", "pancharatnam", "curvature"])
def test_phase_waypoint_beyond_half_the_largest_float_exit_2(tmp_path, capsys, method):
    # a gamma circle at phi = 1e308, above half the largest float: refused
    # by LoopSpec before any method runs
    loop_file = tmp_path / "loop.json"
    waypoints = [[0, 0, 0, np.pi / 4, 0, 0, 0, 1e308], [0, 0, 2 * np.pi, np.pi / 4, 0, 0, 0, 1e308]]
    loop_file.write_text(json.dumps({"waypoints": waypoints, "samples_per_segment": 8}))
    code, out, err = run_cli(capsys, "phase", "--loop", str(loop_file), "--method", method)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: bad loop JSON: ")


ZERO_ANGLES = dict.fromkeys(("alpha", "beta", "gamma", "theta", "a", "b", "c", "phi"), 0)


@pytest.mark.parametrize("command, option, text", [
    ("phase", "--loop", "[1, 2]"),
    ("decompose", "--matrix", "[1]"),
    ("compose", "--angles", "[1,2]"),
    ("compose", "--angles", json.dumps({**ZERO_ANGLES, "alpha": [1]})),
], ids=("loop-array", "matrix-array", "angles-array", "angle-array"))
def test_json_that_is_not_the_expected_object_exit_2(tmp_path, capsys, command, option, text):
    if option != "--angles":
        path = tmp_path / "input.json"
        path.write_text(text)
        text = str(path)
    code, out, err = run_cli(capsys, command, option, text)
    assert code == 2 and out == ""
    assert err.startswith("error: bad ") and " JSON: " in err


def test_phase_closed_must_be_a_json_boolean(tmp_path, capsys):
    loop_file = tmp_path / "loop.json"
    waypoints = [[0, 0, 0, np.pi / 4, 0, 0, 0, 0], [0, 0, 2 * np.pi, np.pi / 4, 0, 0, 0, 0]]
    loop_file.write_text(json.dumps({"waypoints": waypoints, "closed": True}))
    code, out, _ = run_cli(capsys, "phase", "--loop", str(loop_file))
    assert code == 0 and json.loads(out)["phase_rad"] == pytest.approx(np.pi, abs=1e-3)
    loop_file.write_text(json.dumps({"waypoints": waypoints, "closed": False}))
    code, out, err = run_cli(capsys, "phase", "--loop", str(loop_file))
    assert code == 2 and out == "" and "requires a closed loop" in err
    for value in ("no", 1, None):
        loop_file.write_text(json.dumps({"waypoints": waypoints, "closed": value}))
        code, out, err = run_cli(capsys, "phase", "--loop", str(loop_file))
        assert code == 2 and out == "" and "'closed' must be true or false" in err


def test_verify_quick_passes_and_reports_catalogue(capsys):
    code, out, err = run_cli(capsys, "verify", "--level", "quick", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(check["passed"] for check in payload["checks"])
    assert len(payload["closed_form_deviation_catalogue"]) == 43
    names = {check["name"] for check in payload["checks"]}
    assert "measure.orthogonality_4sigma" in names
    assert "closed_forms.catalogue_documented" in names
    assert "pass" in err


def test_verify_report_carries_versions_and_times(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--seed", "3")
    payload = json.loads(out)
    assert code == 0 and list(payload)[:4] == ["level", "seed", "versions", "elapsed_s"]
    assert payload["versions"] == {"python": platform.python_version(),
                                   "numpy": np.__version__, "su3kit": su3kit.__version__}
    times = [c["elapsed_s"] for c in payload["checks"]]
    assert all(isinstance(t, float) and t >= 0 for t in times)
    # the checks share the run's time between them and nothing else
    assert 0 < sum(times) <= payload["elapsed_s"]
    counts = {c["name"]: c["n_samples"] for c in payload["checks"]}
    assert all(n is None or type(n) is int and n > 0 for n in counts.values())
    assert counts["group.round_trip"] == 100 and counts["measure.volume_mc_3sigma"] == 100_000
    assert counts["algebra.commutator_table"] is None and counts["phase.stokes_rectangle"] is None
    # a detail that names the sample count keeps its text and agrees
    for c in payload["checks"]:
        if "n=" in c["detail"]:
            assert c["detail"].endswith(f"n={c['n_samples']}")


def test_verify_negative_seed_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "-5")
    assert code == 2 and out == "" and "--seed" in err


def test_a_seed_outside_the_range_is_one_stderr_line_from_the_library_check(capsys):
    for command in (["haar", "--n", "3"], ["verify"]):
        for seed in ("-5", str(2 ** 128)):
            code, out, err = run_cli(capsys, *command, "--seed", seed)
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and err.startswith("error: ") and "--seed" in err
            assert "seed must be an integer in [0, 2**128)" in err


def test_verify_is_deterministic_for_fixed_seed(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--seed", "6")
        assert code == 0
        payload = json.loads(out)
        del payload["elapsed_s"]            # wall times are the only part that varies
        for check in payload["checks"]:
            del check["elapsed_s"]
        outs.append(json.dumps(payload))
    assert outs[0] == outs[1]


def test_verify_seed_variation_keeps_outcome(capsys):
    for seed in (1, 2):
        code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--seed", str(seed))
        payload = json.loads(out)
        assert code == 0 and payload["passed"] is True
        assert [e for e in payload["closed_form_deviation_catalogue"]] == \
            sorted(payload["closed_form_deviation_catalogue"])


def test_verify_reports_the_catalogue_found_at_its_seed(capsys):
    from su3kit.cartan import closed_form_comparison
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--seed", "4")
    payload = json.loads(out)
    expected = sorted(closed_form_comparison(seed=4).catalogue)
    assert payload["closed_form_deviation_catalogue"] == [list(e) for e in expected]


def test_verify_report_stays_strict_json_with_a_nan_residual(capsys, monkeypatch):
    monkeypatch.setattr(verify, "duality", lambda points: float("nan"))
    code, out, err = run_cli(capsys, "verify", "--level", "quick", "--seed", "3")
    assert code == 1

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(out, parse_constant=reject)
    check = {c["name"]: c for c in payload["checks"]}["cartan.duality_pairing"]
    assert check["residual"] is None and check["passed"] is False
    assert payload["passed"] is False
    assert "FAIL cartan.duality_pairing: residual nan" in err
