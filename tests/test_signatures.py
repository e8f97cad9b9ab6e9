"""Parameter lists of the functions that decide against a numerical threshold.

Each threshold is a named constant of the module that owns the decision (the
README lists them under "Numerical thresholds"), so every call decides
against the same value. A parameter comes back here only together with a
caller that passes it.
"""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from saddle_lab import cli, dynamics, games, linalg, predict, spectral, verify

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
    # the same analyses from the caller's spectrum and report
    predict.limit: ["spec", "report", "init"],
    predict.witness: ["spec", "report"],
    predict.distance: ["spec", "init"],
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
    assert len(suites) == 23
    for suite in suites:
        assert list(inspect.signature(suite).parameters) == ["rng"], suite.__name__


def test_removed_methods_stay_removed():
    assert not hasattr(games.AffineSet, "contains")
    assert not hasattr(linalg.ComplexScalarSet, "max_modulus")
    assert not hasattr(dynamics.IterateState, "block_norms")
    assert not hasattr(predict, "_predict_dogda")
    assert not hasattr(predict, "_predict_zero_sum")
    for name in ("image_basis", "full_space", "subspaces_equal", "SUBSPACE_ANGLE_TOL",
                 "sym_eig", "NotSymmetricError", "SYMMETRY_REL_TOL", "matrix_rank"):
        assert not hasattr(linalg, name), name
    for name in ("_expected_payoff_growth", "GROWTH_MU_MIN"):
        assert not hasattr(verify, name), name
    # the analysis decides diagonalizability from the coupling, not the companion
    assert not hasattr(spectral, "companion_matrix")
    # DOGDA is analysed as zero-sum OGDA on the doubled game
    assert not hasattr(spectral, "_below_half_threshold")
    assert not hasattr(spectral.CouplingSpectrum, "aux_infeasible")
    # a subspace is the SVD's orthonormal column array, and no copy of it is kept
    assert not hasattr(linalg, "SubspaceBasis")
    assert "residual" not in [f.name for f in dataclasses.fields(games.AffineSet)]
    spec = spectral.CouplingSpectrum(games.BilinearGame.zero_sum_game([[1.0, 2.0]]))
    assert not hasattr(spec, "ata_eig")
    # the engine tests the stop rules on the norms against the thresholds as given
    assert not hasattr(dynamics, "_squared_limits")
    # every JSON document goes through linalg.jsonable
    assert not hasattr(cli, "_finite_or_null")
    assert not hasattr(verify.CheckResult, "to_json")
    # every step size and run setting goes through linalg.json_number
    assert not hasattr(dynamics, "_check_eta")
    assert not hasattr(dynamics, "_check_count")


def test_one_stored_form_of_a_state():
    assert dynamics.IterateState.__slots__ == ("z", "n")
    assert [f.name for f in dataclasses.fields(dynamics.Trajectory)] == [
        "eta", "n", "states", "times", "stop_reason"]
    assert [f.name for f in dataclasses.fields(games.AffineSet)] == [
        "point", "directions", "feasible", "image"]
    # the recorded times are one int64 array, derived when a run stops
    game = games.BilinearGame.zero_sum_game([[1.0]])
    init = dynamics.IterateState.at([1.0], [1.0])
    trajs = [dynamics.run(game, "OGDA", 0.3, init, max_steps=100),
             *(traj for _, traj in dynamics.run_batch(game, "OGDA", [0.2, 0.3], init,
                                                      max_steps=100)),
             dynamics.run(game, "DOGDA", 0.3, init, max_steps=100, record_stride=3),
             dynamics.run(game, "OGDA", 0.3, init, record_stride=int(1e300))]
    for traj in trajs:
        assert type(traj.times) is np.ndarray and traj.times.dtype == np.int64
        assert len(traj.times) == len(traj.states)
    assert trajs[-1].times.tolist() == [0, 564]


DIAG12 = games.BilinearGame.zero_sum_game(np.diag([1.0, 2.0]))
DIAG12_INIT = dynamics.IterateState.at([1.0, 1.0], [1.0, -1.0])
# each library entry point that takes a step size, called on DIAG12 at eta
STEP_SIZE_ENTRY_POINTS = {
    "run": lambda eta: dynamics.run(DIAG12, "OGDA", eta, DIAG12_INIT),
    "run_batch": lambda eta: dynamics.run_batch(DIAG12, "OGDA", [0.1, eta], DIAG12_INIT),
    "rate_curve": lambda eta: spectral.rate_curve(spectral.CouplingSpectrum(DIAG12), [eta]),
    "rate_report": lambda eta: spectral.rate_report(DIAG12, eta),
    "tight_witness": lambda eta: predict.tight_witness(DIAG12, eta),
    "lambda_spectrum": lambda eta: spectral.lambda_spectrum(DIAG12, eta),
    "oracle_reconcile": lambda eta: verify.oracle_reconcile(DIAG12, eta),
    "s_star_roots": lambda eta: spectral.s_star_roots(-1.0, eta),
    "companion_matrix": lambda eta: dynamics.companion_matrix(DIAG12, eta),
    "predict_limit": lambda eta: predict.predict_limit(DIAG12, "OGDA", eta, DIAG12_INIT),
    "divergence_witness": lambda eta: predict.divergence_witness(DIAG12, eta),
}


@pytest.mark.parametrize("eta", [-1, 0, math.nan, math.inf])
@pytest.mark.parametrize("entry", list(STEP_SIZE_ENTRY_POINTS))
def test_step_size_rule(entry, eta):
    # one ValueError from linalg.json_number, before any arithmetic on eta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^eta must be a finite number > 0, got "):
            STEP_SIZE_ENTRY_POINTS[entry](eta)
