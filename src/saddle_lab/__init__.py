"""Optimistic gradient dynamics on unconstrained bilinear games.

Closed-form convergence ratios, optimal step sizes and limit points for the
plain, optimistic and doubled-optimistic gradient schemes, with a brute-force
spectral oracle confirming every formula.
"""

from .dynamics import (Algo, IterateState, StopReason, Trajectory,
                       companion_matrix, run, trajectory_to_csv)
from .games import (BilinearGame, NashSet, accelerate, doubled, game_from_json,
                    game_to_json, nash_set, payoffs, scale_opponent)
from .predict import (DistanceD, Geometry, LimitPrediction, distance_to_nash,
                      divergence_witness, predict_limit, tight_witness)
from .spectral import (Regime, RootSet, SpectralReport, Verdict,
                       is_diagonalizable, lambda_spectrum, optimal_eta,
                       rate_report, s_star_roots)
from .verify import (BoundCheck, OutcomeClass, OutcomeKind, RateFit,
                     check_bound, classify, estimate_rate, oracle_reconcile,
                     run_all_suites)

__all__ = [
    "Algo", "BilinearGame", "BoundCheck", "DistanceD", "Geometry",
    "IterateState", "LimitPrediction", "NashSet", "OutcomeClass",
    "OutcomeKind", "RateFit", "Regime", "RootSet", "SpectralReport",
    "StopReason", "Trajectory", "Verdict", "accelerate", "check_bound",
    "classify", "companion_matrix", "distance_to_nash", "divergence_witness",
    "doubled", "estimate_rate", "game_from_json", "game_to_json",
    "is_diagonalizable", "lambda_spectrum", "nash_set",
    "optimal_eta", "oracle_reconcile", "payoffs",
    "predict_limit", "rate_report", "run", "run_all_suites", "s_star_roots",
    "scale_opponent", "tight_witness", "trajectory_to_csv",
]

__version__ = "0.1.0"
