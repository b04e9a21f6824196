import inspect

import su3kit


def test_public_names_are_stable():
    assert sorted(su3kit.__all__) == [
        "ANGLE_NAMES", "C_TENSOR", "D_TENSOR", "DegenerateChartError", "DensityState",
        "EulerAngles", "FrameAtPoint", "IntegrationResult", "LAMBDA", "LoopSpec", "adjoint",
        "base_state", "closed_form_comparison", "compose", "compose_batch", "connection",
        "curvature", "decompose", "exp_generator", "expand", "expand_hermitian", "frame",
        "from_coefficients", "haar_density", "haar_density_closed", "integrate",
        "left_coeffs", "left_fields", "left_forms", "orthogonality_suite",
        "phase_connection", "phase_curvature", "phase_pancharatnam", "project", "psi_of",
        "random_su3", "right_coeffs", "right_fields", "right_forms", "sample_haar", "star",
        "total_volume"]


def test_removed_options_stay_removed():
    def params(fn):
        return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]
    none = inspect.Parameter.empty
    assert params(su3kit.decompose) == [("u", none), ("tol", 1e-8)]
    assert params(su3kit.expand) == [("m", none)]
    assert params(su3kit.phase_pancharatnam) == [("loop", none)]
    assert params(su3kit.phase.overlap_chain_phase) == [("psi", none)]
    assert params(su3kit.closed_form_comparison) == [("seed", 0)]
    assert params(su3kit.EulerAngles.is_canonical) == [("self", none)]
    assert params(su3kit.LoopSpec) == [("waypoints", none), ("samples_per_segment", 256)]
    # the benchmark tracer's WORK_UNITS entry for phase_curvature mirrors this
    assert params(su3kit.phase_curvature) == [("base", none), ("axes", none), ("bounds", none),
                                              ("samples", (1024, 1024))]
