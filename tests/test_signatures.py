"""Parameter lists of the functions that decide against a numerical threshold.

Each threshold is a named constant of the module that owns the decision (the
README lists them under "Numerical thresholds"), so every call decides
against the same value. A parameter comes back here only together with a
caller that passes it.
"""

import dataclasses
import inspect

import pytest

from saddle_lab import dynamics, games, linalg, spectral, verify

PARAMETERS = {
    linalg.span: ["vectors"],
    linalg.sym_eig: ["m"],
    linalg.eig_complex: ["m"],
    linalg.pinv: ["a"],
    linalg.matrix_rank: ["a"],
    linalg.kernel_basis: ["a"],
    linalg.image_basis: ["a"],
    linalg.subspaces_equal: ["b1", "b2"],
    games.payoffs: ["game", "x", "y"],
    games.solve_affine: ["M", "rhs"],
    games.nash_set: ["game"],
    games.accelerate: ["game"],
    spectral.coupling_spectrum: ["game"],
    spectral.lambda_spectrum: ["game", "eta"],
    spectral.is_diagonalizable: ["m"],
    verify.estimate_rate: ["traj", "limit"],
    verify.check_bound: ["traj", "report", "D", "limit"],
    verify.classify: ["traj", "game"],
    verify.random_matrix: ["rng", "n", "p", "rank"],
    verify._applicable_prediction_cases: ["rng", "count"],
    dynamics.IterateState.at: ["x", "y"],
}


@pytest.mark.parametrize("fn, params", list(PARAMETERS.items()),
                         ids=[f"{fn.__module__}.{fn.__qualname__}" for fn in PARAMETERS])
def test_parameter_list(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_suites_take_only_the_generator():
    suites = [getattr(verify, name) for name in dir(verify) if name.startswith("suite_")]
    assert len(suites) == 23
    for suite in suites:
        assert list(inspect.signature(suite).parameters) == ["rng"], suite.__name__


def test_removed_methods_stay_removed():
    assert not hasattr(games.AffineSet, "contains")
    assert not hasattr(linalg.ComplexScalarSet, "max_modulus")
    assert not hasattr(linalg.SubspaceBasis, "orthonormalized")
    assert not hasattr(dynamics.IterateState, "block_norms")


def test_one_stored_form_of_a_state():
    assert dynamics.IterateState.__slots__ == ("z", "n")
    assert [f.name for f in dataclasses.fields(dynamics.Trajectory)] == [
        "eta", "n", "states", "times", "stop_reason"]
    assert [f.name for f in dataclasses.fields(linalg.SubspaceBasis)] == [
        "ambient_dim", "vectors"]
