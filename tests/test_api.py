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
