"""Optimistic gradient dynamics on unconstrained bilinear games.

Closed-form convergence ratios, optimal step sizes and limit points for the
plain, optimistic and doubled-optimistic gradient schemes, with a brute-force
spectral oracle confirming every formula.
"""

from .dynamics import (Algo, IterateState, StopReason, Trajectory,
                       companion_matrix, run, write_csv)
from .games import (BilinearGame, NashSet, accelerate, doubled, game_from_json,
                    game_to_json, nash_set, payoffs, scale_opponent)
from .predict import (DistanceD, Geometry, LimitPrediction, distance_to_nash,
                      divergence_witness, predict_limit, tight_witness)
from .spectral import (CouplingSpectrum, RateCurve, Regime, RootSet,
                       SpectralReport, Verdict, lambda_spectrum, optimal_eta,
                       rate_curve, rate_report, s_star_roots)
from .fits import (BoundCheck, OutcomeClass, OutcomeKind, RateFit, check_bound,
                   classify, estimate_rate)

__all__ = [
    "Algo", "BilinearGame", "BoundCheck", "CouplingSpectrum", "DistanceD",
    "Geometry", "IterateState", "LimitPrediction", "NashSet", "OutcomeClass",
    "OutcomeKind", "RateCurve", "RateFit", "Regime", "RootSet",
    "SpectralReport", "StopReason", "Trajectory", "Verdict", "accelerate",
    "check_bound", "classify", "companion_matrix", "distance_to_nash",
    "divergence_witness", "doubled", "estimate_rate", "game_from_json",
    "game_to_json", "is_diagonalizable", "lambda_spectrum", "nash_set",
    "optimal_eta", "oracle_reconcile", "payoffs", "predict_limit",
    "rate_curve", "rate_report", "run", "run_all_suites", "s_star_roots",
    "scale_opponent", "tight_witness", "write_csv",
]

__version__ = "0.1.0"

# The oracles and property suites of `verify` are loaded on first access: a
# process that runs, sweeps or analyses never compiles them.
_FROM_VERIFY = ("is_diagonalizable", "oracle_reconcile", "run_all_suites")


def __getattr__(name):
    if name in _FROM_VERIFY:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
