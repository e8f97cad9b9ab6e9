"""Closed-form spectral objects of the optimistic dynamics.

The companion matrix of the dynamics has spectrum equal to the union, over
mu in Sp(B^T A) u Sp(A B^T), of the root set

    S*(mu) = { lambda : lambda^2 (1-lambda)^2 = mu eta^2 (1-2 lambda)^2 }.

For a zero-sum game (B = -A) the relevant mu are -Sp(A^T A), so every root is
reachable through S*(-mu) with mu >= 0. All convergence ratios, constants,
step-size regimes and the optimal step size below are exact functions of
eta and of the spectrum of A^T A (zero-sum) or B^T A (general-sum).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .dynamics import Algo, companion_matrix
from .games import BilinearGame
from .linalg import ComplexScalarSet, as_matrix, cluster_scalars

MEMBERSHIP_REL_TOL = 1e-9       # for "1/(4 eta^2) in S(A)" and the rate indicators
REALITY_REL_TOL = 1e-8          # for accepting Sp(B^T A) as real non-positive
GRAM_CLUSTER_REL_TOL = 1e-12    # merges Gram eigenvalues, times max(1, largest)
DIAGONALIZABLE_REL_TOL = 1e-8   # singular values counted as null, times max(1, ||m||_F)


class InvalidRatioError(ValueError):
    pass


class Regime(str, enum.Enum):
    PART2 = "Part2"
    PART3A = "Part3a"
    PART3B = "Part3b"
    DIVERGENT = "Divergent"
    INAPPLICABLE = "Inapplicable"


class Verdict(str, enum.Enum):
    YES = "Yes"
    NO = "No"
    BORDERLINE = "Borderline"


def _quartic_root_multiset(mu: complex, eta: float) -> list[complex]:
    """The four roots of lambda^2(1-lambda)^2 = mu eta^2 (1-2 lambda)^2.

    The quartic factors into two quadratics lambda(1-lambda) = +-eta nu
    (1-2 lambda) with nu^2 = mu, giving roots (1 +- 2 eta nu +- delta)/2 with
    delta^2 = 1 + 4 eta^2 mu. Real mu is special-cased so conjugate pairs and
    double roots come out exact.
    """
    if mu.imag == 0.0:
        m = mu.real
        if m >= 0.0:
            nu = math.sqrt(m)
            delta = math.sqrt(1.0 + 4.0 * eta * eta * m)
            return [complex(0.5 * (1.0 + s1 * 2.0 * eta * nu + s2 * delta))
                    for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
        x = eta * math.sqrt(-m)
        disc = 1.0 - 4.0 * x * x
        if disc >= 0.0:
            delta = math.sqrt(disc)
            return [complex(0.5 * (1.0 + s2 * delta), s1 * x)
                    for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
        delta_im = math.sqrt(-disc)
        return [complex(0.5, 0.5 * (s1 * 2.0 * x + s2 * delta_im))
                for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
    nu = cmath.sqrt(mu)
    delta = cmath.sqrt(1.0 + 4.0 * eta * eta * mu)
    return [0.5 * (1.0 + s1 * 2.0 * eta * nu + s2 * delta)
            for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]


@dataclass
class RootSet:
    """Distinct roots of the quartic for one mu (2 of them at the double-root
    parameters, 4 otherwise)."""

    mu: float
    eta: float
    roots: np.ndarray

    def residuals(self) -> np.ndarray:
        lam = self.roots
        return np.abs(lam ** 2 * (1 - lam) ** 2
                      - self.mu * self.eta ** 2 * (1 - 2 * lam) ** 2)


def s_star_roots(mu: float, eta: float) -> RootSet:
    """Root set S*(mu) for real mu; mu < 0 covers the zero-sum case S(-mu)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    raw = _quartic_root_multiset(complex(mu), eta)
    dedup = cluster_scalars(raw, 1e-12 * (1.0 + abs(mu) * eta * eta)).values
    return RootSet(float(mu), float(eta), dedup)


def _coupling_product(game: BilinearGame) -> np.ndarray:
    """The smaller of B^T A (p x p) and A B^T (n x n). The larger one has the
    same spectrum plus |n - p| zeros."""
    return game.B.T @ game.A if game.p <= game.n else game.A @ game.B.T


def coupling_spectrum(game: BilinearGame) -> ComplexScalarSet:
    """Distinct eigenvalues of B^T A and A B^T pooled together."""
    values = linalg.eig_complex(_coupling_product(game)).values
    if game.n != game.p:
        values = np.append(values, 0j)
    scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
    distinct = cluster_scalars(values, linalg.EIG_CLUSTER_REL_TOL * scale)
    return ComplexScalarSet(distinct.values, np.ones(len(distinct.values), dtype=int))


def lambda_spectrum(game: BilinearGame, eta: float) -> ComplexScalarSet:
    """Spectrum of the companion matrix, predicted from the quartic root sets.

    Follows the multiset structure: every eigenvalue mu of the smaller of
    B^T A / A B^T contributes its four quartic roots with mu's multiplicity,
    and the |n - p| leftover dimensions contribute {0, 1} pairs. Totals always
    match the companion dimension 2(n + p).
    """
    base = linalg.eig_complex(_coupling_product(game))
    roots: list[complex] = []
    for mu, mult in zip(base.values, base.multiplicities):
        if abs(mu.imag) <= REALITY_REL_TOL * (1.0 + abs(mu)):
            mu = complex(mu.real)
        roots.extend(_quartic_root_multiset(mu, eta) * int(mult))
    roots.extend([0j, 1 + 0j] * abs(game.n - game.p))
    root_scale = max(1.0, float(np.max(np.abs(roots), initial=0.0)))
    return cluster_scalars(roots, linalg.EIG_CLUSTER_REL_TOL * root_scale)


def rate_lambda_star(eta: float, mu: float) -> float:
    """Modulus of the dominant root for mu below the 1/(4 eta^2) threshold."""
    return math.sqrt(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * eta * eta * mu))))


def rate_lambda_dstar(eta: float, mu: float) -> float:
    """Modulus of the dominant root for mu above the 1/(4 eta^2) threshold."""
    x2 = eta * eta * mu
    return math.sqrt(2.0 * x2 + eta * math.sqrt(mu) * math.sqrt(max(0.0, 4.0 * x2 - 1.0)))


def _angle_constant_low(eta: float, mu: float) -> float:
    # valid when eta*sqrt(mu) < 1/2
    ratio = (1.0 + 5.0 * eta * eta * mu) / (2.0 + eta * eta * mu)
    return math.sqrt(2.0 / (1.0 - math.sqrt(ratio)))


def _angle_constant_high(eta: float, mu: float) -> float:
    # valid when eta*sqrt(mu) > 1/2
    ratio = (2.0 + eta * eta * mu) / (1.0 + 5.0 * eta * eta * mu)
    return math.sqrt(2.0 / (1.0 - math.sqrt(ratio)))


@dataclass
class SpectralReport:
    algo: Algo
    eta: float
    mu_set: list[float]
    mu_imag_max: float
    mu_min: float | None
    mu_max: float
    lambda_star: float
    lambda_dstar: float
    lambda_max: float
    C: float | None
    eta_regime: Regime
    diagonalizable: Verdict
    assumptions_met: dict[str, bool] = field(default_factory=dict)
    violated: str | None = None

    @property
    def applicable(self) -> bool:
        return self.eta_regime in (Regime.PART2, Regime.PART3A, Regime.PART3B)

    def to_json(self) -> dict:
        return {
            "algo": self.algo.value,
            "eta": self.eta,
            "mu_set": self.mu_set,
            "mu_imag_max": self.mu_imag_max,
            "mu_min": self.mu_min,
            "mu_max": self.mu_max,
            "lambda_star": self.lambda_star,
            "lambda_dstar": self.lambda_dstar,
            "lambda_max": self.lambda_max,
            "C": self.C,
            "eta_regime": self.eta_regime.value,
            "diagonalizable": self.diagonalizable.value,
            "assumptions_met": self.assumptions_met,
            "violated": self.violated,
        }


def _positive_mus(mus: np.ndarray, mu_max: float, dims: tuple[int, int]) -> np.ndarray:
    """Drop eigenvalues that are numerically zero (kernel directions)."""
    cutoff = max(dims) * np.finfo(float).eps * max(mu_max, 1e-300)
    return mus[mus > cutoff]


def _gram_fields(algo: Algo, eta: float, game: BilinearGame,
                 grams: tuple[np.ndarray, ...]) -> tuple[dict, np.ndarray]:
    """The report fields fixed by the pooled spectra of symmetric Gram products
    (clipped at 0 and clustered), and the numerically positive values."""
    mus = np.maximum(np.concatenate([linalg.sym_eig(m)[0] for m in grams]), 0.0)
    scale = max(1.0, mus.max(initial=0.0))
    distinct = cluster_scalars(mus, GRAM_CLUSTER_REL_TOL * scale).values.real
    mu_max = float(distinct.max(initial=0.0))
    base = dict(algo=algo, eta=float(eta), mu_max=mu_max, mu_imag_max=0.0,
                mu_set=sorted((float(v) for v in distinct), reverse=True))
    return base, _positive_mus(distinct, mu_max, (game.n, game.p))


def _zero_coupling(base: dict, assumption: str) -> SpectralReport:
    # A = 0: the dynamics freeze immediately; ratio 0 by convention.
    return SpectralReport(
        **base, mu_min=None, lambda_star=0.0, lambda_dstar=0.0, lambda_max=0.0,
        C=_angle_constant_low(base["eta"], 0.0), eta_regime=Regime.PART2,
        diagonalizable=Verdict.YES, assumptions_met={assumption: True})


def _inapplicable(base: dict, assumptions: dict[str, bool], violated: str,
                  diag: Verdict = Verdict.BORDERLINE) -> SpectralReport:
    return SpectralReport(
        **base, mu_min=None, lambda_star=0.0, lambda_dstar=0.0,
        lambda_max=float("nan"), C=None, eta_regime=Regime.INAPPLICABLE,
        diagonalizable=diag, assumptions_met=assumptions, violated=violated)


def _zero_sum_report(game: BilinearGame, eta: float) -> SpectralReport:
    base, positives = _gram_fields(Algo.OGDA, eta, game,
                                   (game.A.T @ game.A, game.A @ game.A.T))
    if positives.size == 0:
        return _zero_coupling(base, "eta_below_divergence_threshold")

    mu_max = base["mu_max"]
    mu_min = float(positives.min())
    member_tol = MEMBERSHIP_REL_TOL * mu_max
    quarter = 1.0 / (4.0 * eta * eta)
    lam_star = (rate_lambda_star(eta, mu_min)
                if mu_min <= quarter + member_tol else 0.0)
    lam_dstar = (rate_lambda_dstar(eta, mu_max)
                 if mu_max >= quarter - member_tol else 0.0)
    lam_max = max(lam_star, lam_dstar)
    hits_quarter = bool(np.any(np.abs(positives - quarter) <= member_tol))

    if eta * math.sqrt(mu_max) >= 1.0 / math.sqrt(3.0):
        return SpectralReport(
            **base, mu_min=mu_min, lambda_star=lam_star, lambda_dstar=lam_dstar,
            lambda_max=lam_max, C=None, eta_regime=Regime.DIVERGENT,
            diagonalizable=Verdict.YES if not hits_quarter else Verdict.NO,
            assumptions_met={"eta_below_divergence_threshold": False},
            violated="eta_below_divergence_threshold")

    assumptions = {"eta_below_divergence_threshold": True}
    if hits_quarter:
        # Knife-edge: the companion matrix is defective, only near-rate bounds hold.
        return SpectralReport(
            **base, mu_min=mu_min, lambda_star=lam_star, lambda_dstar=lam_dstar,
            lambda_max=lam_max, C=None, eta_regime=Regime.PART3B,
            diagonalizable=Verdict.NO, assumptions_met=assumptions)

    below = positives[eta * np.sqrt(positives) < 0.5]
    above = positives[eta * np.sqrt(positives) > 0.5]
    c_low = _angle_constant_low(eta, float(below.max())) if below.size else 0.0
    c_high = _angle_constant_high(eta, float(above.min())) if above.size else 0.0
    c_const = max(c_low, c_high)
    regime = (Regime.PART2 if eta < 0.5 / math.sqrt(mu_max) else Regime.PART3A)
    return SpectralReport(
        **base, mu_min=mu_min, lambda_star=lam_star, lambda_dstar=lam_dstar,
        lambda_max=lam_max, C=c_const, eta_regime=regime,
        diagonalizable=Verdict.YES, assumptions_met=assumptions)


def _general_sum_report(game: BilinearGame, eta: float) -> SpectralReport:
    spec = coupling_spectrum(game)
    mus = spec.values
    mu_imag_max = float(np.max(np.abs(mus.imag), initial=0.0))
    abs_scale = float(np.max(np.abs(mus), initial=0.0))
    real_ok = bool(np.all(np.abs(mus.imag) <= REALITY_REL_TOL * (1.0 + np.abs(mus))))
    nonpos_ok = bool(np.all(mus.real <= MEMBERSHIP_REL_TOL * (1.0 + abs_scale)))
    mu_reals = np.minimum(mus.real, 0.0)
    mu_mags = -mu_reals
    mu_max = float(mu_mags.max(initial=0.0))
    positives = _positive_mus(mu_mags, mu_max, (game.n, game.p))
    mu_set = sorted((float(v) for v in mu_reals), reverse=True)
    base = dict(algo=Algo.OGDA, eta=float(eta), mu_set=mu_set,
                mu_imag_max=mu_imag_max, mu_max=mu_max)
    assumptions = {"spectrum_real_nonpositive": real_ok and nonpos_ok}
    if not (real_ok and nonpos_ok):
        return _inapplicable(base, assumptions, "spectrum_real_nonpositive")

    if mu_max > 0 and not eta < 0.5 / math.sqrt(mu_max):
        assumptions["eta_below_half_threshold"] = False
        return _inapplicable(base, assumptions, "eta_below_half_threshold")
    assumptions["eta_below_half_threshold"] = True

    square = game.n == game.p
    invertible = (square and linalg.matrix_rank(game.A) == game.n
                  and linalg.matrix_rank(game.B) == game.n)
    if invertible:
        diag_verdict = Verdict.YES
    else:
        diag_verdict = is_diagonalizable(companion_matrix(game, eta))
    assumptions["companion_diagonalizable"] = diag_verdict == Verdict.YES
    if diag_verdict != Verdict.YES:
        return _inapplicable(base, assumptions, "companion_diagonalizable", diag_verdict)

    mu_min = float(positives.min()) if positives.size else None
    lam_max = rate_lambda_star(eta, mu_min) if mu_min is not None else 0.0
    return SpectralReport(
        **base, mu_min=mu_min, lambda_star=lam_max, lambda_dstar=0.0,
        lambda_max=lam_max, C=None, eta_regime=Regime.PART2,
        diagonalizable=diag_verdict, assumptions_met=assumptions)


def _dogda_report(game: BilinearGame, eta: float) -> SpectralReport:
    base, positives = _gram_fields(Algo.DOGDA, eta, game,
                                   (game.A.T @ game.A, game.B.T @ game.B))
    mu_max = base["mu_max"]
    if positives.size == 0:
        return _zero_coupling(base, "eta_below_half_threshold")
    if not eta < 0.5 / math.sqrt(mu_max):
        return _inapplicable(base, {"eta_below_half_threshold": False},
                             "eta_below_half_threshold")
    mu_prime_min = float(positives.min())
    lam_max = rate_lambda_star(eta, mu_prime_min)
    return SpectralReport(
        **base, mu_min=mu_prime_min, lambda_star=lam_max, lambda_dstar=0.0,
        lambda_max=lam_max, C=_angle_constant_low(eta, mu_max),
        eta_regime=Regime.PART2, diagonalizable=Verdict.YES,
        assumptions_met={"eta_below_half_threshold": True})


def rate_report(game: BilinearGame, eta: float, algo: Algo = Algo.OGDA) -> SpectralReport:
    """Regime, exact geometric ratio and (where it exists) the bound constant.

    Zero-sum games follow the full regime analysis (Part2 / Part3a / Part3b /
    Divergent); general-sum games require a real non-positive coupling
    spectrum, a small enough step and a diagonalizable companion matrix, and
    otherwise come back Inapplicable with the violated assumption named.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    algo = Algo(algo)
    if algo is Algo.DOGDA:
        return _dogda_report(game, eta)
    if algo is Algo.GDA:
        base = dict(algo=algo, eta=float(eta), mu_set=[], mu_imag_max=0.0, mu_max=0.0)
        return _inapplicable(base, {}, "no_convergence_theory_for_gda")
    if game.zero_sum:
        return _zero_sum_report(game, eta)
    return _general_sum_report(game, eta)


def optimal_eta(mu_min: float, mu_max: float) -> tuple[float, float]:
    """Step size minimizing the geometric ratio, and that optimal ratio.

    Both are closed forms in alpha = mu_min/mu_max: the optimum balances the
    decreasing branch (driven by mu_min) against the increasing branch
    (driven by mu_max), always landing at or above 1/(2 sqrt(mu_max)).
    """
    if not (0.0 < mu_min <= mu_max):
        raise InvalidRatioError(
            f"need 0 < mu_min <= mu_max, got ({mu_min}, {mu_max})")
    alpha = mu_min / mu_max
    q = (3.0 + 6.0 * alpha - alpha * alpha
         - (1.0 - alpha) * math.sqrt((1.0 - alpha) * (9.0 - alpha)))
    eta_star = math.sqrt(q / (32.0 * alpha)) / math.sqrt(mu_max)
    lam_star = math.sqrt(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - q / 8.0))))
    return eta_star, lam_star


def is_diagonalizable(m) -> Verdict:
    """Numerical diagonalizability: do geometric multiplicities fill the dimension?

    Eigenvalues are clustered (a defective pair splits by roughly the square
    root of machine epsilon, well inside the cluster radius), then each
    cluster's geometric multiplicity is the nullity of m - lambda I. Clusters
    too close to each other for confident separation give Borderline.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("is_diagonalizable needs a square matrix")
    dim = a.shape[0]
    if dim == 0:
        return Verdict.YES
    scale = max(1.0, float(np.linalg.norm(a, ord="fro")))
    # A defective eigenvalue of Jordan size k scatters by ~eps^(1/k); the
    # cluster radius must swallow at least k <= 3 so the scattered copies are
    # treated as one eigenvalue.
    radius = 4.0 * np.finfo(float).eps ** (1.0 / 3.0) * scale
    clusters = cluster_scalars(np.linalg.eigvals(a), radius)
    centers, mults = clusters.values, clusters.multiplicities
    gaps = np.abs(centers[:, None] - centers[None, :])
    np.fill_diagonal(gaps, np.inf)
    if (gaps < 10.0 * radius).any():
        return Verdict.BORDERLINE
    # a simple eigenvalue has geometric multiplicity 1
    geo_total = int(np.sum(mults == 1))
    for lam in centers[mults > 1]:
        sing = np.linalg.svd(a - lam * np.eye(dim), compute_uv=False)
        geo_total += int(np.sum(sing <= DIAGONALIZABLE_REL_TOL * scale))
    return Verdict.YES if geo_total == dim else Verdict.NO
