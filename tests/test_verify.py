"""Each residual function of su3kit.verify, which ``su3kit verify`` and the
acceptance suite trust, reports a residual above its threshold once the
identity it checks is broken by a relative error of about 1e-4 or less."""

import dataclasses

import numpy as np

from su3kit import cartan, phase, verify
from su3kit.group import random_su3
from su3kit.measure import sample_haar

POINTS = sample_haar(7, 4)


def scaled(fn, along_alpha=False):
    """fn with its (n, 8, 8) output times 1 + 1e-4, or times 1 + 1e-4 alpha."""
    return lambda p: fn(p) * (1 + 1e-4 * (p[:, :1, None] if along_alpha else 1))


def test_scaled_fields_are_caught(monkeypatch):
    # the right fields are scaled along alpha: a constant factor on one side
    # would still commute with the other side's fields
    frame = cartan.frame
    monkeypatch.setattr(cartan, "frame", lambda p: dataclasses.replace(
        frame(p), a_left=scaled(cartan.left_fields)(p),
        a_right=scaled(cartan.right_fields, along_alpha=True)(p)))
    left, right, adjoint = verify.defining_relations(POINTS)
    assert left > 1e-7 and right > 1e-7 and adjoint > 1e-10
    assert all(r > 1e-5 for r in verify.closure(POINTS))
    assert verify.duality(POINTS) > 1e-11


def test_scaled_coefficients_are_caught(monkeypatch):
    frame = cartan.frame
    monkeypatch.setattr(cartan, "frame", lambda p: dataclasses.replace(
        frame(p), b_left=scaled(cartan.left_coeffs, along_alpha=True)(p),
        b_right=scaled(cartan.right_coeffs)(p)))
    spread, left_right = verify.density_residuals(POINTS)
    assert spread > 1e-9 and left_right > 1e-11


def test_flipped_connection_is_caught(monkeypatch):
    connection = phase._connection
    monkeypatch.setattr(phase, "_connection", lambda p, dphi: -connection(p, dphi))
    base = np.array([0.3, 0.4, 0.0, 0.0, 0.5, 0.6, 0.7, 0.8])
    assert verify.stokes_rectangle(base, ((0.2, 1.1), (0.3, 2.4)), (2048, 64), 2048) > 1e-6


def test_faulty_matrices_and_states_are_caught():
    mats = random_su3(20, np.random.default_rng(3))
    assert verify.round_trip(mats * (1 + 1e-9)) > 1e-10
    assert verify.pure_state_residual(mats * (1 + 1e-6)) > 1e-11
    moved = POINTS.copy()
    moved[:, 3] += 1e-4                 # theta is not a stabilizer angle
    assert verify.stabilizer_residual(POINTS, moved) > 1e-12
