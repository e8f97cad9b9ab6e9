"""Run-time checks of one trajectory: the rate fit toward its predicted limit,
the outcome classification and the bound envelope. `saddle-lab run` and
`sweep` call these on every run; `verify` re-exports them for its suites."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, spectral
from .dynamics import StopReason, Trajectory, recorded_payoffs
from .predict import DistanceD, LimitPrediction
from .spectral import Regime, SpectralReport

FLOOR = 1e-13              # distances at or below this are double-precision noise
TRANSIENT_FRACTION = 0.2   # early eigen-mixture pollutes the slope
ENVELOPE_SLACK = 1e-9      # absolute excess over the bound envelope that still passes
COOP_CAP = 1e6             # both final payoffs above this for Cooperating
COOP_TREND_POINTS = 50


class InsufficientDataError(ValueError):
    pass


class NotConvergedError(ValueError):
    pass


def _log_linear_fit(times: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit of log(values) ~ slope * t + intercept; returns
    (slope, intercept, r_squared)."""
    t = np.asarray(times, dtype=float)
    logs = np.log(np.asarray(values, dtype=float))
    t_mean, l_mean = t.mean(), logs.mean()
    var = float(np.sum((t - t_mean) ** 2))
    if var == 0.0:
        raise InsufficientDataError("degenerate fit window")
    slope = float(np.sum((t - t_mean) * (logs - l_mean)) / var)
    intercept = float(l_mean - slope * t_mean)
    ss_res = float(np.sum((logs - slope * t - intercept) ** 2))
    ss_tot = float(np.sum((logs - l_mean) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def _distances(traj: Trajectory, x_inf: np.ndarray, y_inf: np.ndarray) -> np.ndarray:
    target = np.concatenate([x_inf, y_inf])
    return linalg.row_norms(traj.states[:, :target.size] - target)


@dataclass
class RateFit:
    fitted_ratio: float
    window: tuple[int, int]
    r_squared: float
    floor_hit: bool


def estimate_rate(traj: Trajectory, limit: LimitPrediction) -> RateFit:
    """Geometric ratio from the log-distance slope over the clean window
    (past the transient, above the double-precision floor)."""
    if traj.stop_reason is StopReason.DIVERGED:
        raise NotConvergedError("trajectory diverged; no rate to fit")
    x_inf, y_inf = limit.pair()
    dists = _distances(traj, x_inf, y_inf)
    start = int(math.ceil(TRANSIENT_FRACTION * len(dists)))
    floor_hits = np.nonzero(dists <= FLOOR)[0]
    end = int(floor_hits[0]) if floor_hits.size else len(dists)
    keep = slice(start, end)
    t_win, d_win = traj.times[keep], dists[keep]
    mask = d_win > FLOOR
    t_win, d_win = t_win[mask], d_win[mask]
    if t_win.size < 10:
        raise InsufficientDataError(
            f"only {t_win.size} usable points between transient and floor")
    slope, _, r2 = _log_linear_fit(t_win, d_win)
    return RateFit(fitted_ratio=math.exp(slope),
                   window=(int(t_win[0]), int(t_win[-1])),
                   r_squared=r2, floor_hit=bool(floor_hits.size))


class OutcomeKind(str, enum.Enum):
    CONVERGED = "Converged"
    DIVERGED = "Diverged"
    COOPERATING = "Cooperating"
    UNFINISHED = "Unfinished"


@dataclass
class OutcomeClass:
    kind: OutcomeKind
    limit: tuple[np.ndarray, np.ndarray] | None = None
    growth_ratio: float | None = None
    evidence: dict = field(default_factory=dict)


def classify(traj: Trajectory, spec: spectral.CouplingSpectrum) -> OutcomeClass:
    """Converged / Cooperating (both payoffs blowing up together) / Diverged
    / Unfinished.

    Cooperation needs both final payoffs above COOP_CAP and a fitted per-step
    payoff growth ratio above 1 over the trailing window, which separates
    joint payoff explosion from a one-sided norm blow-up. The run's spectrum
    `spec` supplies the game and, where its `growth_mu` drives a blow-up,
    the expected growth ratio: the square of the dominant root of S*(mu).
    A run that is not cooperating is Diverged when it stopped past the cap,
    and Unfinished when the step budget cut it off.
    """
    s = traj.final
    # np.max, unlike max, keeps the NaN block norm of an overflowed last state
    evidence = {"final_norm": float(np.max([np.linalg.norm(v) for v in
                                            (s.x, s.y, s.x_prev, s.y_prev)]))}
    if traj.stop_reason is StopReason.CONVERGED:
        return OutcomeClass(OutcomeKind.CONVERGED, limit=(s.x.copy(), s.y.copy()),
                            evidence=evidence)
    g1, g2 = recorded_payoffs(traj, spec.game)
    tail = slice(-COOP_TREND_POINTS, None)
    g1_tail, g2_tail = g1[tail], g2[tail]
    evidence.update({"final_g1": float(g1[-1]), "final_g2": float(g2[-1])})
    if spec.growth_mu is not None:
        roots = spectral.s_star_roots(spec.growth_mu, traj.eta).roots
        evidence["expected_growth_ratio"] = float(np.abs(roots).max()) ** 2
    if min(g1[-1], g2[-1]) > COOP_CAP and (g1_tail > 0).all() and (g2_tail > 0).all():
        s1, _, _ = _log_linear_fit(traj.times[tail], g1_tail)
        s2, _, _ = _log_linear_fit(traj.times[tail], g2_tail)
        growth = math.exp(min(s1, s2))
        evidence.update({"growth_g1": math.exp(s1), "growth_g2": math.exp(s2)})
        if growth > 1.0:
            return OutcomeClass(OutcomeKind.COOPERATING, growth_ratio=growth,
                                evidence=evidence)
    kind = (OutcomeKind.DIVERGED if traj.stop_reason is StopReason.DIVERGED
            else OutcomeKind.UNFINISHED)
    return OutcomeClass(kind, evidence=evidence)


@dataclass
class BoundCheck:
    ok: bool
    worst_ratio: float
    max_violation: float
    lambda_used: float
    constant_used: float
    fitted_constant: bool


def check_bound(traj: Trajectory, report: SpectralReport, D: DistanceD,
                limit: LimitPrediction) -> BoundCheck:
    """Check the exponential envelope on every recorded distance above the floor.

    With a closed-form constant (zero-sum Part2/Part3a) the envelope is
    C * D * lambda_max^t. Without one (Part3b, general-sum) the constant is
    fitted on the first half of the run and checked on the second half, using
    lambda_max + 0.01 in the defective Part3b regime.
    """
    x_inf, y_inf = limit.pair()
    dists = _distances(traj, x_inf, y_inf)
    mask = dists > FLOOR
    t_use, d_use = traj.times[mask], dists[mask]
    if t_use.size == 0:
        return BoundCheck(True, 0.0, 0.0, report.lambda_max, 0.0, False)

    lam = report.lambda_max + (0.01 if report.eta_regime is Regime.PART3B else 0.0)
    # log(d / lam^t) in place of the ratio: lam^t underflows on long runs. lam is
    # 0 without coupling, where lam^0 = 1 and the envelope is 0 after t = 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pow = np.where(t_use > 0, t_use * np.log(lam), 0.0)
    log_scaled = np.log(d_use) - log_pow

    if report.C is not None and report.eta_regime in (Regime.PART2, Regime.PART3A):
        # D is 0 from a start on the Nash set; a ratio to a zero envelope is inf
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_env = np.log(report.C) + np.log(D.value)
            ratios = np.exp(log_scaled - log_env)
        excess = d_use - np.exp(log_env + log_pow)
        return BoundCheck(bool(np.all(excess <= ENVELOPE_SLACK)), float(ratios.max()),
                          float(excess.max()), lam, report.C, False)

    half = max(1, t_use.size // 2)
    log_c = log_scaled[:half].max()
    log_env = log_c + np.log(1.05)
    # a fitted constant or a ratio may overflow; with lam = 0 both are inf, and
    # the envelope inf * 0 and the ratios are NaN
    with np.errstate(over="ignore", invalid="ignore"):
        constant = float(np.exp(log_c))
        ratios = np.exp(log_scaled[half:] - log_env)
        excess = d_use[half:] - np.exp(log_env + log_pow[half:])
    # the excess net of the slack, and 0 when the second half has no point
    return BoundCheck(bool(np.all(excess <= ENVELOPE_SLACK)), float(ratios.max(initial=0.0)),
                      float((excess - ENVELOPE_SLACK).max(initial=0.0)), lam, constant, True)
