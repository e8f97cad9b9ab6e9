"""Parameter lists of the functions that decide against a numerical threshold.

Each threshold is a named constant of the module that owns the decision (the
README lists them under "Numerical thresholds"), so every call decides
against the same value. A parameter comes back here only together with a
caller that passes it.
"""

import dataclasses
import inspect

import pytest

from saddle_lab import dynamics, games, linalg, predict, spectral, verify

PARAMETERS = {
    linalg.span: ["vectors"],
    linalg.eig_complex: ["m"],
    linalg.pinv: ["a"],
    linalg.kernel_basis: ["a"],
    linalg.svd_rank: ["a"],
    games.payoffs: ["game", "x", "y"],
    games.solve_affine: ["svd", "rhs"],
    games.coupling_svds: ["game"],
    games.nash_from_svds: ["game", "svd_a", "svd_b"],
    games.nash_set: ["game"],
    games.accelerate: ["game"],
    spectral.coupling_spectrum: ["game"],
    spectral.lambda_spectrum: ["game", "eta"],
    spectral.rate_report: ["game", "eta", "algo"],
    spectral.CouplingSpectrum: ["game", "algo"],
    spectral.rate_curve: ["spec", "etas"],
    spectral.is_diagonalizable: ["m"],
    spectral.rate_root: ["eta", "mu"],
    # the benchmark workloads call these four positionally
    predict.predict_limit: ["game", "algo", "eta", "init"],
    predict.tight_witness: ["game", "eta"],
    predict.divergence_witness: ["game", "eta"],
    predict.distance_to_nash: ["game", "init"],
    # the same analyses from the caller's spectrum (or its Nash set) and report
    predict.limit: ["spec", "report", "init"],
    predict.witness: ["spec", "report"],
    predict.distance: ["ns", "init"],
    verify.estimate_rate: ["traj", "limit"],
    verify.check_bound: ["traj", "report", "D", "limit"],
    verify.classify: ["traj", "spec"],
    verify.random_matrix: ["rng", "n", "p", "rank"],
    verify._applicable_prediction_cases: ["rng", "count"],
    dynamics.IterateState.at: ["x", "y"],
    dynamics.run: ["game", "algo", "eta", "init", "max_steps", "stop_tol", "blow_cap",
                   "record_stride"],
    dynamics.run_batch: ["game", "algo", "etas", "init", "max_steps", "stop_tol",
                         "blow_cap", "record_stride"],
}


@pytest.mark.parametrize("fn, params", list(PARAMETERS.items()),
                         ids=[f"{fn.__module__}.{fn.__qualname__}" for fn in PARAMETERS])
def test_parameter_list(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_suites_take_only_the_generator():
    suites = [getattr(verify, name) for name in dir(verify) if name.startswith("suite_")]
    assert len(suites) == 22
    for suite in suites:
        assert list(inspect.signature(suite).parameters) == ["rng"], suite.__name__


def test_removed_methods_stay_removed():
    assert not hasattr(games.AffineSet, "contains")
    assert not hasattr(linalg.ComplexScalarSet, "max_modulus")
    assert not hasattr(linalg.SubspaceBasis, "orthonormalized")
    assert not hasattr(dynamics.IterateState, "block_norms")
    assert not hasattr(predict, "_predict_dogda")
    assert not hasattr(predict, "_predict_zero_sum")
    for name in ("image_basis", "full_space", "subspaces_equal", "SUBSPACE_ANGLE_TOL",
                 "sym_eig", "NotSymmetricError", "SYMMETRY_REL_TOL", "matrix_rank"):
        assert not hasattr(linalg, name), name
    for name in ("_expected_payoff_growth", "GROWTH_MU_MIN"):
        assert not hasattr(verify, name), name


def test_one_stored_form_of_a_state():
    assert dynamics.IterateState.__slots__ == ("z", "n")
    assert [f.name for f in dataclasses.fields(dynamics.Trajectory)] == [
        "eta", "n", "states", "times", "stop_reason"]
    assert [f.name for f in dataclasses.fields(linalg.SubspaceBasis)] == [
        "ambient_dim", "vectors"]
