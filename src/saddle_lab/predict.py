"""Exact limit prediction from the initialization, plus rate-witness starts.

The limit of the optimistic dynamics is a projection of (x_0, y_0) onto the
Nash set: orthogonal in the zero-sum and doubled schemes, oblique (along the
coupling images) in the applicable general-sum case. Witness initializations
are built from eigenvectors of the companion matrix so their distance decays
at exactly the closed-form ratio.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import games as games_mod
from . import linalg
from .dynamics import Algo, IterateState, companion_matrix
from .games import BilinearGame
from .spectral import Regime, rate_report


class EmptyNashSetError(ValueError):
    pass


class ZeroMatrixError(ValueError):
    pass


class DivergentRegimeError(ValueError):
    pass


class Geometry(str, enum.Enum):
    ORTHOGONAL_ONTO_KERNELS = "OrthogonalOntoKernels"
    OBLIQUE_ALONG_IMAGES = "ObliqueAlongImages"
    DOGDA_ORTHOGONAL = "DogdaOrthogonal"


@dataclass
class LimitPrediction:
    x_inf: np.ndarray | None
    y_inf: np.ndarray | None
    geometry: Geometry
    valid: bool
    reason: str = ""

    def pair(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.valid:
            raise ValueError(f"prediction invalid: {self.reason}")
        return self.x_inf, self.y_inf

    def to_json(self) -> dict:
        return {
            "x_inf": None if self.x_inf is None else [float(v) for v in self.x_inf],
            "y_inf": None if self.y_inf is None else [float(v) for v in self.y_inf],
            "geometry": self.geometry.value,
            "valid": self.valid,
            "reason": self.reason,
        }


def _invalid(geometry: Geometry, reason: str) -> LimitPrediction:
    return LimitPrediction(None, None, geometry, False, reason)


def _orthogonal_affine(point: np.ndarray, kernel: linalg.SubspaceBasis,
                       v0: np.ndarray) -> np.ndarray:
    # point is the least-norm solution, hence orthogonal to the kernel
    return point + linalg.project(v0, kernel)


def predict_limit(game: BilinearGame, algo: Algo, eta: float,
                  init: IterateState) -> LimitPrediction:
    """Predict the limit of (x_t, y_t); invalidity is a value, not an error."""
    algo = Algo(algo)
    if algo is Algo.GDA:
        return _invalid(Geometry.ORTHOGONAL_ONTO_KERNELS,
                        "GDA has no characterized limit (it cycles or diverges)")
    if algo is Algo.DOGDA:
        return _predict_dogda(game, eta, init)
    if game.zero_sum:
        return _predict_zero_sum(game, eta, init)
    return _predict_general_sum(game, eta, init)


def _predict_zero_sum(game: BilinearGame, eta: float, init: IterateState) -> LimitPrediction:
    geo = Geometry.ORTHOGONAL_ONTO_KERNELS
    ns = games_mod.nash_set(game)
    if not ns.nonempty:
        return _invalid(geo, "nash_set_empty")
    report = rate_report(game, eta)
    if report.eta_regime is Regime.DIVERGENT:
        return _invalid(geo, "eta_in_divergent_regime")
    x_inf = _orthogonal_affine(ns.x_star, ns.x_part.directions, init.x)
    y_inf = _orthogonal_affine(ns.y_star, ns.y_part.directions, init.y)
    return LimitPrediction(x_inf, y_inf, geo, True)


def _predict_general_sum(game: BilinearGame, eta: float,
                         init: IterateState) -> LimitPrediction:
    geo = Geometry.OBLIQUE_ALONG_IMAGES
    report = rate_report(game, eta)
    if not report.applicable:
        return _invalid(geo, report.violated or "rate_theory_inapplicable")
    ns = games_mod.nash_set(game)
    if not ns.nonempty:
        return _invalid(geo, "nash_set_empty")
    im_a = linalg.image_basis(game.A)
    im_bt = linalg.image_basis(game.B.T)
    try:
        x_inf = ns.x_star + linalg.project(init.x - ns.x_star,
                                           ns.x_part.directions, along=im_a)
        y_inf = ns.y_star + linalg.project(init.y - ns.y_star,
                                           ns.y_part.directions, along=im_bt)
    except linalg.NotComplementaryError as exc:
        return _invalid(geo, f"subspaces_not_complementary: {exc}")
    return LimitPrediction(x_inf, y_inf, geo, True)


def _predict_dogda(game: BilinearGame, eta: float, init: IterateState) -> LimitPrediction:
    """Each half of the doubled scheme is a plain zero-sum system; the played
    pair converges to orthogonal projections onto the two Nash constraints."""
    geo = Geometry.DOGDA_ORTHOGONAL
    x_set = games_mod.solve_affine(game.B.T, game.f)
    y_set = games_mod.solve_affine(game.A, game.b)
    if not (x_set.feasible and y_set.feasible):
        return _invalid(geo, "nash_set_empty")
    # The aux constraints must be solvable too, else one half never settles.
    if not games_mod.solve_affine(game.B, game.e).feasible:
        return _invalid(geo, "aux_constraint_infeasible_for_player2_payoff")
    if not games_mod.solve_affine(game.A.T, game.c).feasible:
        return _invalid(geo, "aux_constraint_infeasible_for_player1_payoff")
    for m in (game.A, game.B):
        top = float(np.linalg.norm(m, 2)) ** 2
        if top > 0 and eta >= 1.0 / math.sqrt(3.0 * top):
            return _invalid(geo, "eta_in_divergent_regime")
    x_inf = _orthogonal_affine(x_set.point, x_set.directions, init.x)
    y_inf = _orthogonal_affine(y_set.point, y_set.directions, init.y)
    return LimitPrediction(x_inf, y_inf, geo, True)


@dataclass
class DistanceD:
    """Distance from the stacked initialization to the embedded Nash set."""

    value: float


def distance_to_nash(game: BilinearGame, init: IterateState) -> DistanceD:
    """Euclidean distance from (x0, y0, x_-1, y_-1) to {(x, y, x, y) : Nash}."""
    ns = games_mod.nash_set(game)
    if not ns.nonempty:
        raise EmptyNashSetError("game has no Nash equilibrium")
    # a Nash direction u of x (or v of y) embeds as the resting state (u, 0, u, 0) / sqrt 2
    cols = [IterateState.at(u, np.zeros(game.p)).z for u in ns.x_part.directions.vectors.T]
    cols += [IterateState.at(np.zeros(game.n), v).z for v in ns.y_part.directions.vectors.T]
    diff = init.z - IterateState.at(ns.x_star, ns.y_star).z
    if cols:
        q = np.column_stack(cols) / math.sqrt(2.0)
        diff = diff - q @ (q.T @ diff)
    return DistanceD(float(np.linalg.norm(diff)))


def _eigen_witness(game: BilinearGame, eta: float, mu: float,
                   lam: complex) -> IterateState:
    """Real initialization carried by the companion eigenvector for lam.

    The eigenvector is assembled from the eigenspace characterization: pick a
    (deterministic) eigenvector y of A^T A for mu, then the stacked vector
    (lam*x, lam*y, x, y) with x = (1-2 lam) eta / (lam (1-lam)) A y is an
    eigenvector of the companion matrix.
    """
    vals, vecs = linalg.sym_eig(game.A.T @ game.A)
    idx = int(np.argmin(np.abs(vals - mu)))
    if abs(vals[idx] - mu) > 1e-6 * max(1.0, abs(mu)):
        raise ValueError(f"mu={mu} is not an eigenvalue of A^T A")
    y_dir = vecs[:, idx]
    coeff = (1.0 - 2.0 * lam) * eta / (lam * (1.0 - lam))
    x_dir = coeff * (game.A @ y_dir)
    z = np.concatenate([lam * x_dir, lam * y_dir, x_dir, y_dir])
    lam_mat = companion_matrix(game, eta)
    resid = np.linalg.norm(lam_mat @ z - lam * z) / np.linalg.norm(z)
    if resid > 1e-8:
        raise RuntimeError(f"eigenvector construction failed, residual {resid:.2e}")
    z_real = z.real if np.linalg.norm(z.real) > 1e-8 * np.linalg.norm(z) else z.imag
    return IterateState.of(z_real / np.linalg.norm(z_real), game.n)


def tight_witness(game: BilinearGame, eta: float) -> IterateState:
    """Initialization whose distance to the limit decays at exactly the
    closed-form ratio (the slowest achievable decay)."""
    if not game.zero_sum:
        raise ValueError("tight_witness expects a zero-sum game")
    report = rate_report(game, eta)
    if report.mu_min is None:
        raise ZeroMatrixError("witness undefined for the zero coupling matrix")
    if report.eta_regime is Regime.DIVERGENT:
        raise DivergentRegimeError(
            f"eta={eta} is beyond the convergence threshold")
    if report.lambda_star >= report.lambda_dstar:
        mu = report.mu_min
        lam = complex(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 4 * eta * eta * mu))),
                      eta * math.sqrt(mu))
    else:
        mu = report.mu_max
        lam = complex(0.5, 0.5 * (math.sqrt(max(0.0, 4 * eta * eta * mu - 1.0))
                                  + 2.0 * eta * math.sqrt(mu)))
    return _eigen_witness(game, eta, mu, lam)


def divergence_witness(game: BilinearGame, eta: float) -> IterateState:
    """Initialization aligned with an expanding eigendirection (|lambda| > 1);
    only exists beyond the step-size threshold."""
    if not game.zero_sum:
        raise ValueError("divergence_witness expects a zero-sum game")
    report = rate_report(game, eta)
    if report.mu_min is None:
        raise ZeroMatrixError("witness undefined for the zero coupling matrix")
    mu = report.mu_max
    x = eta * math.sqrt(mu)
    if x <= 1.0 / math.sqrt(3.0):
        raise ValueError(f"eta={eta} is inside the convergence range")
    lam = complex(0.5, 0.5 * (math.sqrt(4.0 * x * x - 1.0) + 2.0 * x))
    return _eigen_witness(game, eta, mu, lam)
