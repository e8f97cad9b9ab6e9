"""Exact limit prediction from the initialization, plus rate-witness starts.

The limit of the optimistic dynamics is a projection of (x_0, y_0) onto the
Nash set: orthogonal in the zero-sum and doubled schemes, oblique (along the
coupling images) in the applicable general-sum case. Witness initializations
are built from eigenvectors of the companion matrix so their distance decays
at exactly the closed-form ratio.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import games as games_mod
from . import linalg
from .dynamics import Algo, IterateState, companion_matrix
from .games import BilinearGame, NashSet
from .spectral import (DIVERGENCE_THRESHOLD, CouplingSpectrum, Regime, SpectralReport,
                       rate_curve, rate_root)


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
        """The prediction's fields as strict JSON values (`linalg.jsonable`)."""
        return linalg.jsonable(self)


def _invalid(geometry: Geometry, reason: str) -> LimitPrediction:
    return LimitPrediction(None, None, geometry, False, reason)


def limit(spec: CouplingSpectrum, report: SpectralReport,
          init: IterateState) -> LimitPrediction:
    """Predict the limit of (x_t, y_t) from the analysis of (game, algo) and
    its report at the run's step size; invalidity is a value, not an error.

    GDA has no limit. General-sum OGDA has one where the report is
    applicable. Zero-sum OGDA and DOGDA, zero-sum OGDA on the doubled game,
    have one below the divergence threshold.
    """
    return limits(spec, [report], init)[0]


def limits(spec: CouplingSpectrum, reports: list[SpectralReport],
           init: IterateState) -> list[LimitPrediction]:
    """`limit` at each of `reports`. Where a limit exists it is one point at
    every step size, so it is projected once, at the first report that has
    one, and every valid prediction is that one object."""
    if spec.general_sum:
        point = functools.cache(functools.partial(_oblique_point, spec, init))
        return [point() if report.applicable else
                _invalid(Geometry.OBLIQUE_ALONG_IMAGES,
                         report.violated or "rate_theory_inapplicable")
                for report in reports]
    point = functools.cache(functools.partial(_orthogonal_point, spec, init))
    return [_orthogonal_at(spec, report.eta, point) for report in reports]


def predict_limit(game: BilinearGame, algo: Algo, eta: float,
                  init: IterateState) -> LimitPrediction:
    """`limit` at one step size, on CouplingSpectrum.of(game, algo); the
    orthogonal paths need no report."""
    spec = CouplingSpectrum.of(game, algo)
    if spec.general_sum:
        return limit(spec, rate_curve(spec, [eta])[0], init)
    return _orthogonal_at(spec, linalg.json_number(eta, "eta", 0, strict=True),
                          functools.partial(_orthogonal_point, spec, init))


def _orthogonal_at(spec: CouplingSpectrum, eta: float, point) -> LimitPrediction:
    """The prediction `point()` where it is valid and eta converges."""
    pred = point()
    if pred.valid and spec.divergent(eta):
        return _invalid(pred.geometry, "eta_in_divergent_regime")
    return pred


def _orthogonal_point(spec: CouplingSpectrum, init: IterateState) -> LimitPrediction:
    """Zero-sum OGDA, and DOGDA, each of whose halves is a plain zero-sum
    system: the played pair converges to the orthogonal projections onto
    the two Nash constraints, at every step size below the threshold."""
    if spec.algo is Algo.GDA:
        return _invalid(Geometry.ORTHOGONAL_ONTO_KERNELS,
                        "GDA has no characterized limit (it cycles or diverges)")
    dogda = spec.algo is Algo.DOGDA
    geo = Geometry.DOGDA_ORTHOGONAL if dogda else Geometry.ORTHOGONAL_ONTO_KERNELS
    ns = spec.nash
    if not ns.nonempty:
        return _invalid(geo, "nash_set_empty")
    # The aux constraints must be solvable too, else one half never settles.
    if dogda and not spec.aux.nonempty:
        player = 2 if not spec.aux.y_part.feasible else 1
        return _invalid(geo, f"aux_constraint_infeasible_for_player{player}_payoff")
    # the Nash points are least-norm solutions, hence orthogonal to the kernels
    x_inf = ns.x_star + linalg.project(init.x, ns.x_part.directions)
    y_inf = ns.y_star + linalg.project(init.y, ns.y_part.directions)
    return LimitPrediction(x_inf, y_inf, geo, True)


def _oblique_point(spec: CouplingSpectrum, init: IterateState) -> LimitPrediction:
    """General-sum OGDA: the oblique projections onto the Nash constraints,
    at every step size where the report is applicable."""
    geo = Geometry.OBLIQUE_ALONG_IMAGES
    ns = spec.nash
    if not ns.nonempty:
        return _invalid(geo, "nash_set_empty")
    # x projects along Im(A) (the y solve's image), y along Im(B^T) (the x solve's)
    try:
        x_inf = ns.x_star + linalg.project(init.x - ns.x_star,
                                           ns.x_part.directions, along=ns.y_part.image)
        y_inf = ns.y_star + linalg.project(init.y - ns.y_star,
                                           ns.y_part.directions, along=ns.x_part.image)
    except linalg.NotComplementaryError as exc:
        return _invalid(geo, f"subspaces_not_complementary: {exc}")
    return LimitPrediction(x_inf, y_inf, geo, True)


@dataclass
class DistanceD:
    """Distance from the stacked initialization to the embedded Nash set."""

    value: float


def distance(spec: CouplingSpectrum, init: IterateState) -> DistanceD:
    """Distance from the state a run of `spec` starts in to its embedded Nash
    set: for DOGDA the doubled state, whose aux copies start at the played
    ones, to the doubled game's Nash set (`spec.nash` and `spec.aux`)."""
    d = _distance(spec.nash, init)
    if spec.algo is Algo.DOGDA:
        d = math.hypot(d, _distance(spec.aux, init))
    return DistanceD(d)


def _distance(ns: NashSet, init: IterateState) -> float:
    """Euclidean distance from (x0, y0, x_-1, y_-1) to {(x, y, x, y) : Nash}."""
    if not ns.nonempty:
        raise EmptyNashSetError("game has no Nash equilibrium")
    # a Nash direction u of x (or v of y) embeds as the resting state (u, 0, u, 0) / sqrt 2
    zero_x, zero_y = np.zeros_like(ns.x_star), np.zeros_like(ns.y_star)
    cols = [IterateState.at(u, zero_y).z for u in ns.x_part.directions.T]
    cols += [IterateState.at(zero_x, v).z for v in ns.y_part.directions.T]
    diff = init.z - IterateState.at(ns.x_star, ns.y_star).z
    if cols:
        q = np.column_stack(cols) / math.sqrt(2.0)
        diff = diff - q @ (q.T @ diff)
    return float(np.linalg.norm(diff))


def distance_to_nash(game: BilinearGame, init: IterateState) -> DistanceD:
    return DistanceD(_distance(games_mod.nash_set(game), init))


def _eigen_witness(spec: CouplingSpectrum, eta: float, mu: float) -> IterateState:
    """Real initialization carried by the companion eigenvector for the
    dominant root lam of mu.

    The eigenvector is assembled from the eigenspace characterization: take
    the eigenvector y of A^T A for mu, a row of vh in A's SVD, then the stacked vector
    (lam*x, lam*y, x, y) with x = (1-2 lam) eta / (lam (1-lam)) A y is an
    eigenvector of the companion matrix.
    """
    game = spec.game
    lam = rate_root(eta, mu)
    svd_a = spec.svds[0]
    mus = np.pad(svd_a.s ** 2, (0, game.p - svd_a.s.size))
    y_dir = svd_a.vh[int(np.argmin(np.abs(mus - mu)))]
    coeff = (1.0 - 2.0 * lam) * eta / (lam * (1.0 - lam))
    x_dir = coeff * (game.A @ y_dir)
    z = np.concatenate([lam * x_dir, lam * y_dir, x_dir, y_dir])
    lam_mat = companion_matrix(game, eta)
    resid = np.linalg.norm(lam_mat @ z - lam * z) / np.linalg.norm(z)
    if resid > 1e-8:
        raise RuntimeError(f"eigenvector construction failed, residual {resid:.2e}")
    z_real = z.real if np.linalg.norm(z.real) > 1e-8 * np.linalg.norm(z) else z.imag
    return IterateState.of(z_real / np.linalg.norm(z_real), game.n)


def _witness_spectrum(spec: CouplingSpectrum) -> CouplingSpectrum:
    """A witness is built from a zero-sum OGDA spectrum with some coupling."""
    if spec.algo is not Algo.OGDA or not spec.game.zero_sum_coupling:
        raise ValueError("a witness needs a zero-sum game under OGDA")
    if spec.mu_min is None:
        raise ZeroMatrixError("witness undefined for the zero coupling matrix")
    return spec


def witness(spec: CouplingSpectrum, report: SpectralReport) -> IterateState:
    """Initialization whose distance to the limit decays at exactly the
    closed-form ratio of `report` (the slowest achievable decay)."""
    _witness_spectrum(spec)
    if report.eta_regime is Regime.DIVERGENT:
        raise DivergentRegimeError(
            f"eta={report.eta} is beyond the convergence threshold")
    slow = report.lambda_star >= report.lambda_dstar
    return _eigen_witness(spec, report.eta, spec.mu_min if slow else spec.mu_max)


def tight_witness(game: BilinearGame, eta: float) -> IterateState:
    spec = CouplingSpectrum.of(game)
    return witness(spec, rate_curve(spec, [eta])[0])


def divergence_witness(game: BilinearGame, eta: float) -> IterateState:
    """Initialization aligned with an expanding eigendirection (|lambda| > 1);
    only exists beyond the step-size threshold (at it the root has modulus 1)."""
    eta = linalg.json_number(eta, "eta", 0, strict=True)
    spec = _witness_spectrum(CouplingSpectrum.of(game))
    if eta * math.sqrt(spec.mu_max) <= DIVERGENCE_THRESHOLD:
        raise ValueError(f"eta={eta} is inside the convergence range")
    return _eigen_witness(spec, eta, spec.mu_max)
