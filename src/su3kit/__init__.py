"""Euler-coordinate differential geometry on SU(3).

Group composition and decomposition in the eight-angle chart, exact
Maurer-Cartan data (invariant vector fields, one-forms, Haar density),
normalized Haar sampling and Monte Carlo integration, three-level pure-state
density matrices, and geometric phases of closed state loops.

Each layer module is imported on first use: ``import su3kit`` loads none of
them, and ``su3kit.compose`` or ``su3kit.phase`` imports the layer that
defines it.  The package forwards each public name to its layer on every
access rather than copying it here, so a binding replaced in the layer is
the one the package returns.
"""

import importlib

__version__ = "0.1.0"

# the public names each layer defines
_EXPORTS = {
    "algebra": ("C_TENSOR", "D_TENSOR", "LAMBDA", "expand", "expand_hermitian",
                "from_coefficients", "star"),
    "cartan": ("DegenerateChartError", "FrameAtPoint", "closed_form_comparison", "frame",
               "haar_density", "haar_density_closed", "left_coeffs", "left_fields",
               "left_forms", "right_coeffs", "right_fields", "right_forms"),
    "group": ("ANGLE_NAMES", "EulerAngles", "adjoint", "compose", "compose_batch",
              "decompose", "exp_generator", "random_su3"),
    "measure": ("IntegrationResult", "integrate", "orthogonality_suite", "sample_haar",
                "total_volume"),
    "phase": ("LoopSpec", "connection", "curvature", "phase_connection", "phase_curvature",
              "phase_pancharatnam"),
    "states": ("DensityState", "base_state", "project", "psi_of"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
_LAYERS = (*_EXPORTS, "cli", "closed_forms", "verify")

__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is not None:
        return getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
