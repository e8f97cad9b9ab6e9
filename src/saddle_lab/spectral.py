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
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import games as games_mod
from . import linalg
from .dynamics import Algo
from .games import BilinearGame, NashSet
from .linalg import ComplexScalarSet, RankedSVD, as_matrix, cluster_scalars, json_number

MEMBERSHIP_REL_TOL = 1e-9       # for "1/(4 eta^2) in S(A)", the rate indicators and a positive mu
REALITY_REL_TOL = 1e-8          # for accepting Sp(B^T A) as real non-positive
GRAM_CLUSTER_REL_TOL = 1e-12    # merges Gram eigenvalues, times max(1, largest)
DIAGONALIZABLE_REL_TOL = 1e-8   # cosines of principal angles counted as right angles, and
                                # singular values counted as null in verify.is_diagonalizable,
                                # times max(1, ||m||_F)
# The 2-norm condition number of the coupling product's unit-column
# eigenvector matrix: below the first the product is diagonalizable (Yes),
# above the second defective (No), Borderline between.
DIAGONALIZABLE_COND = 1e6
DEFECTIVE_COND = 1e12
DIVERGENCE_THRESHOLD = 1.0 / math.sqrt(3.0)  # eta sqrt(mu_max) from which OGDA diverges


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
    eta = json_number(eta, "eta", 0, strict=True)
    raw = _quartic_root_multiset(complex(mu), eta)
    dedup = cluster_scalars(raw, 1e-12 * (1.0 + abs(mu) * eta * eta)).values
    return RootSet(float(mu), float(eta), dedup)


def _coupling_product(game: BilinearGame) -> np.ndarray:
    """The smaller of B^T A (p x p) and A B^T (n x n). The larger one has the
    same spectrum plus |n - p| zeros."""
    return game.B.T @ game.A if game.p <= game.n else game.A @ game.B.T


def _coupling_decomposition(game: BilinearGame) -> tuple[ComplexScalarSet, float]:
    """The one eigendecomposition of the coupling product per game (see
    games.memo): its eigenvalues, clustered as eig_complex clusters them, in
    read-only arrays, and the 2-norm condition number of its unit-column
    eigenvector matrix. Only a general-sum coupling has its eigenvectors
    computed. A zero-sum product -A^T A is symmetric, so its eigenvectors
    are orthonormal and the number is 1."""
    def decompose() -> tuple[ComplexScalarSet, float]:
        product = as_matrix(_coupling_product(game))
        if game.zero_sum_coupling:
            values, cond = np.linalg.eigvals(product), 1.0
        else:
            values, vectors = np.linalg.eig(product)
            cond = float(np.linalg.cond(vectors))
        eig = linalg.cluster_eigenvalues(values)
        linalg.read_only(eig.values, eig.multiplicities)
        return eig, cond
    return games_mod.memo(game, "coupling_decomposition", decompose)


def coupling_spectrum(game: BilinearGame) -> ComplexScalarSet:
    """Distinct eigenvalues of B^T A and A B^T pooled together."""
    values = _coupling_decomposition(game)[0].values
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
    eta = json_number(eta, "eta", 0, strict=True)
    base = _coupling_decomposition(game)[0]
    roots: list[complex] = []
    for mu, mult in zip(base.values, base.multiplicities):
        if abs(mu.imag) <= REALITY_REL_TOL * (1.0 + abs(mu)):
            mu = complex(mu.real)
        roots.extend(_quartic_root_multiset(mu, eta) * int(mult))
    roots.extend([0j, 1 + 0j] * abs(game.n - game.p))
    root_scale = max(1.0, float(np.max(np.abs(roots), initial=0.0)))
    return cluster_scalars(roots, linalg.EIG_CLUSTER_REL_TOL * root_scale)


def rate_lambda_star(eta, mu):
    """Modulus of the dominant root for mu below the 1/(4 eta^2) threshold
    (eta and mu may be arrays)."""
    return np.sqrt(0.5 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - 4.0 * eta * eta * mu))))


def rate_lambda_dstar(eta, mu):
    """Modulus of the dominant root for mu above the 1/(4 eta^2) threshold
    (eta and mu may be arrays)."""
    x2 = eta * eta * mu
    return np.sqrt(2.0 * x2 + eta * np.sqrt(mu) * np.sqrt(np.maximum(0.0, 4.0 * x2 - 1.0)))


def rate_root(eta: float, mu: float) -> complex:
    """The dominant root of S*(-mu) for mu >= 0, in the upper half-plane: its
    modulus is rate_lambda_star(eta, mu) for mu up to 1/(4 eta^2) and
    rate_lambda_dstar(eta, mu) above."""
    x2 = eta * eta * mu
    if 4.0 * x2 <= 1.0:
        return complex(0.5 * (1.0 + math.sqrt(1.0 - 4.0 * x2)), eta * math.sqrt(mu))
    return complex(0.5, 0.5 * (math.sqrt(4.0 * x2 - 1.0) + 2.0 * eta * math.sqrt(mu)))


def _angle_constant_low(eta, mu):
    # valid when eta*sqrt(mu) < 1/2
    ratio = (1.0 + 5.0 * eta * eta * mu) / (2.0 + eta * eta * mu)
    return np.sqrt(2.0 / (1.0 - np.sqrt(ratio)))


def _angle_constant_high(eta, mu):
    # valid when eta*sqrt(mu) > 1/2
    ratio = (2.0 + eta * eta * mu) / (1.0 + 5.0 * eta * eta * mu)
    return np.sqrt(2.0 / (1.0 - np.sqrt(ratio)))


_APPLICABLE = (Regime.PART2, Regime.PART3A, Regime.PART3B)


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
        return self.eta_regime in _APPLICABLE

    def to_json(self) -> dict:
        """The report's fields as strict JSON values (`linalg.jsonable`)."""
        return linalg.jsonable(self)


class CouplingSpectrum:
    """The part of the rate analysis of one (game, algo) that no step size changes.

    `CouplingSpectrum.of(game, algo)` is the one the public calls share: it
    is built once per game and algo while the game is the last one analysed
    (games.memo). A spectrum built directly shares the game's decompositions
    through the same memo. `svds` holds the ranked SVDs of A and B
    (games.coupling_svds): every rank decision of the analysis reads them.
    Zero-sum OGDA (B = -A, `zero_sum_coupling`) pools the spectra of A^T A
    and A A^T. DOGDA, zero-sum OGDA on games.doubled(game) with coupling
    blockdiag(-B, A), pools those of A^T A, A A^T, B^T B and B B^T.
    General-sum OGDA takes the magnitudes of the non-positive real parts of
    Sp(B^T A), with the checks that the spectrum is real and non-positive
    and that the companion is diagonalizable; each mu = -m then gives the
    quartic of the zero-sum Gram value m, so the same curve applies.
    `growth_mu` is its largest real value that fails the sign check, the
    one that drives payoff growth (None when there is none, and for the
    other spectra). `positives` are the numerically positive values,
    ascending, in a read-only array; `mu_set` is a tuple.
    `assumptions` are the conditions a report checks, in order, and
    `violated` names the one that fails at every step size (None when the
    step size decides). `nash` is the game's Nash set (games.nash_set),
    `aux` the aux half of the Nash set of DOGDA's doubled game and
    `diagonalizable` the general-sum verdict on the companion matrix, each
    taken on first use; a general-sum spectrum that passes the sign check
    takes the verdict when it is built.
    """

    def __init__(self, game: BilinearGame, algo: Algo = Algo.OGDA):
        self.game = game
        self.algo = Algo(algo)
        self.mu_imag_max = 0.0
        self.violated: str | None = None
        self.general_sum = False
        self.growth_mu: float | None = None
        if self.algo is Algo.GDA:
            self.assumptions: tuple[str, ...] = ()
            self.violated = "no_convergence_theory_for_gda"
            self.mu_set, self.mu_max, self.positives = (), 0.0, np.zeros(0)
        elif game.zero_sum_coupling or self.algo is Algo.DOGDA:
            self.assumptions = ("eta_below_divergence_threshold",)
            # A^T A is p x p and A A^T is n x n, and B's Gram products for DOGDA
            self._gram(self.svds if self.algo is Algo.DOGDA else self.svds[:1],
                       max(game.n, game.p))
        else:
            self.general_sum = True
            self.assumptions = ("spectrum_real_nonpositive", "companion_diagonalizable",
                                "eta_below_divergence_threshold")
            self._coupling()
            if self.violated is None and self.diagonalizable is not Verdict.YES:
                self.violated = "companion_diagonalizable"
        linalg.read_only(self.positives)
        self.mu_min = float(self.positives[0]) if self.positives.size else None

    @classmethod
    def of(cls, game: BilinearGame, algo: Algo = Algo.OGDA) -> "CouplingSpectrum":
        """The spectrum of (game, algo), built once per game (see games.memo)."""
        algo = Algo(algo)
        return games_mod.memo(game, ("spectrum", algo), lambda: cls(game, algo))

    def _gram(self, svds: tuple[RankedSVD, ...], size: int) -> None:
        """Pool the Gram spectra of the factors whose SVDs are `svds`. The
        positives are the squared singular values inside each factor's rank;
        `mu_set` clusters them and holds 0 when a Gram product has a null
        direction, that is, a factor's rank is below `size` or a square
        underflows."""
        squares = np.concatenate([svd.s[:svd.rank] ** 2 for svd in svds])
        self.positives = np.sort(squares[squares > 0.0])
        self.mu_max = float(self.positives.max(initial=0.0))
        null = self.positives.size < squares.size or any(svd.rank < size for svd in svds)
        scale = max(1.0, self.mu_max)
        distinct = cluster_scalars(self.positives, GRAM_CLUSTER_REL_TOL * scale).values.real
        self.mu_set = tuple(sorted([float(v) for v in distinct] + ([0.0] if null else []),
                                   reverse=True))

    def _coupling(self) -> None:
        mus = coupling_spectrum(self.game).values
        self.mu_imag_max = float(np.max(np.abs(mus.imag), initial=0.0))
        abs_scale = float(np.max(np.abs(mus), initial=0.0))
        real = np.abs(mus.imag) <= REALITY_REL_TOL * (1.0 + np.abs(mus))
        positive = mus.real > MEMBERSHIP_REL_TOL * (1.0 + abs_scale)
        growth = mus.real[real & positive]
        if growth.size:
            self.growth_mu = float(growth.max())
        mu_reals = np.minimum(mus.real, 0.0)
        mu_mags = -mu_reals
        self.mu_max = float(mu_mags.max(initial=0.0))
        self.mu_set = tuple(sorted((float(v) for v in mu_reals), reverse=True))
        # magnitudes within max(n, p) eps of mu_max are kernel directions,
        # unless A and B are square and of full rank: B^T A is then invertible
        n, p = self.game.n, self.game.p
        cutoff = max(n, p) * np.finfo(float).eps * max(self.mu_max, 1e-300)
        if (mu_mags <= cutoff).any() and n == p and all(svd.rank == n for svd in self.svds):
            cutoff = 0.0
        self.positives = np.sort(mu_mags[mu_mags > cutoff])
        if not real.all() or positive.any():
            self.violated = "spectrum_real_nonpositive"

    def divergent(self, eta):
        """eta sqrt(mu_max) at or above DIVERGENCE_THRESHOLD, where zero-sum
        OGDA and DOGDA diverge (eta may be an array)."""
        return eta * math.sqrt(self.mu_max) >= DIVERGENCE_THRESHOLD

    @functools.cached_property
    def svds(self) -> tuple[RankedSVD, RankedSVD]:
        return games_mod.coupling_svds(self.game)

    @functools.cached_property
    def nash(self) -> NashSet:
        return games_mod.nash_set(self.game)

    @functools.cached_property
    def aux(self) -> NashSet:
        """The aux half of the Nash set of DOGDA's doubled game: x_aux solves
        A^T z + c = 0, y_aux solves B z + e = 0."""
        svd_a, svd_b = self.svds
        return NashSet(x_part=games_mod.solve_affine(svd_a.T, self.game.c),
                       y_part=games_mod.solve_affine(svd_b, self.game.e))

    @functools.cached_property
    def diagonalizable(self) -> Verdict:
        """The general-sum verdict on the companion matrix at every step off
        the knife edge, where it does not depend on eta.

        With M = [[0, A], [B^T, 0]] the companion is
        [[I + 2 eta M, -eta M], [I, 0]]. Each eigenvalue nu of M gives the
        roots of lambda (lambda - 1) = eta nu (2 lambda - 1), two distinct
        ones unless nu^2 = -1/(4 eta^2): the knife edge m = 1/(4 eta^2),
        which reads Part3b with verdict No. Elsewhere the companion is
        diagonalizable iff M is, that is, iff
        rank(B^T A) = rank A, rank(A B^T) = rank B and the smaller of the
        two products is diagonalizable. The rank conditions hold iff A and
        B have one rank r and the r x r products of their image bases, and
        of their row-space bases, are nonsingular (read from `svds`). Where r
        is n, both image bases are orthogonal n x n matrices, so their test
        holds and is skipped; the same goes for the row spaces where r is p.
        The product is diagonalizable iff its eigenvector matrix is
        nonsingular. The verdict reads the 2-norm condition number of that
        matrix, with unit columns, from the product's one decomposition: Yes
        below DIAGONALIZABLE_COND, No above DEFECTIVE_COND, Borderline
        between. A Jordan block of size k splits by about eps^(1/k) in
        floating point, so its eigenvalues look simple, but its computed
        eigenvectors are nearly parallel.
        """
        svd_a, svd_b = self.svds
        r, n, p = svd_a.rank, self.game.n, self.game.p
        if not (svd_b.rank == r and (r == n or _meets(svd_a.u[:, :r], svd_b.u[:, :r]))
                and (r == p or _meets(svd_a.vh[:r].T, svd_b.vh[:r].T))):
            return Verdict.NO
        cond = _coupling_decomposition(self.game)[1]
        if cond < DIAGONALIZABLE_COND:
            return Verdict.YES
        return Verdict.NO if cond > DEFECTIVE_COND else Verdict.BORDERLINE


def _meets(u: np.ndarray, v: np.ndarray) -> bool:
    """No direction of span(u) is orthogonal to span(v), for orthonormal
    columns as many in each: every singular value of u^T v, a cosine of a
    principal angle, is above DIAGONALIZABLE_REL_TOL."""
    cosines = np.linalg.svd(u.T @ v, compute_uv=False)
    return bool(cosines.min(initial=1.0) > DIAGONALIZABLE_REL_TOL)


class RateCurve:
    """The closed forms of one CouplingSpectrum at every step size in `etas`.

    The arrays and lists align with `etas`; C is NaN where a report has no
    constant. Element i is the SpectralReport at etas[i]. A new curve is
    Inapplicable at every step, for the spectrum's `violated` reason, with
    the spectrum's diagonalizability verdict where that is the reason.
    """

    def __init__(self, spectrum: CouplingSpectrum, etas: np.ndarray):
        m = etas.size
        self.spectrum, self.etas = spectrum, etas
        self.lambda_star, self.lambda_dstar = np.zeros(m), np.zeros(m)
        self.lambda_max, self.C = np.full(m, math.nan), np.full(m, math.nan)
        self.eta_regime: list[Regime] = [Regime.INAPPLICABLE] * m
        verdict = (spectrum.diagonalizable if spectrum.violated == "companion_diagonalizable"
                   else Verdict.BORDERLINE)
        self.diagonalizable: list[Verdict] = [verdict] * m
        self.violated: list[str | None] = [spectrum.violated] * m

    @property
    def applicable(self) -> np.ndarray:
        return np.array([r in _APPLICABLE for r in self.eta_regime], dtype=bool)

    def __len__(self) -> int:
        return self.etas.size

    def __getitem__(self, i: int) -> SpectralReport:
        spec = self.spectrum
        regime, violated = self.eta_regime[i], self.violated[i]
        # the assumptions are checked in order, up to the first that fails
        names = spec.assumptions
        if violated in names:
            names = names[:names.index(violated) + 1]
        c_const = float(self.C[i])
        return SpectralReport(
            algo=spec.algo, eta=float(self.etas[i]), mu_set=list(spec.mu_set),
            mu_imag_max=spec.mu_imag_max,
            mu_min=None if regime is Regime.INAPPLICABLE else spec.mu_min,
            mu_max=spec.mu_max, lambda_star=float(self.lambda_star[i]),
            lambda_dstar=float(self.lambda_dstar[i]),
            lambda_max=float(self.lambda_max[i]),
            C=None if math.isnan(c_const) else c_const, eta_regime=regime,
            diagonalizable=self.diagonalizable[i],
            assumptions_met={name: name != violated for name in names},
            violated=violated)


def _zero_sum_constant(eta: np.ndarray, positives: np.ndarray) -> np.ndarray:
    """The bound constant: the larger of the low-step angle constant at the
    largest mu with eta sqrt(mu) < 1/2 and the high-step one at the smallest
    mu with eta sqrt(mu) > 1/2 (0 for a side with no mu). Both sides are runs
    of the ascending positives, so each is found by counting."""
    roots = eta[:, None] * np.sqrt(positives)
    below = (roots < 0.5).sum(axis=1)
    above = (roots > 0.5).sum(axis=1)
    low, high = below > 0, above > 0
    c_const = np.zeros(eta.size)
    c_const[low] = _angle_constant_low(eta[low], positives[below[low] - 1])
    c_const[high] = np.maximum(c_const[high],
                               _angle_constant_high(eta[high], positives[-above[high]]))
    return c_const


def _curve(curve: RateCurve) -> None:
    spec, eta = curve.spectrum, curve.etas
    mu_min, mu_max = spec.mu_min, spec.mu_max
    member_tol = MEMBERSHIP_REL_TOL * mu_max
    quarter = 1.0 / (4.0 * eta * eta)
    curve.lambda_star = np.where(mu_min <= quarter + member_tol,
                                 rate_lambda_star(eta, mu_min), 0.0)
    curve.lambda_dstar = np.where(mu_max >= quarter - member_tol,
                                  rate_lambda_dstar(eta, mu_max), 0.0)
    curve.lambda_max = np.maximum(curve.lambda_star, curve.lambda_dstar)
    # Knife-edge: the companion matrix is defective, only near-rate bounds hold.
    hits_quarter = (np.abs(spec.positives - quarter[:, None]) <= member_tol).any(axis=1)
    divergent = spec.divergent(eta)
    small = eta < 0.5 / math.sqrt(mu_max)
    bounded = ~(divergent | hits_quarter)
    curve.C[bounded] = _zero_sum_constant(eta[bounded], spec.positives)
    # labels by index: the first condition that holds picks the regime
    regimes = (Regime.PART3A, Regime.PART2, Regime.PART3B, Regime.DIVERGENT)
    codes = np.where(divergent, 3, np.where(hits_quarter, 2, small.astype(int))).tolist()
    curve.eta_regime = [regimes[c] for c in codes]
    verdicts = (Verdict.YES, Verdict.NO)
    curve.diagonalizable = [verdicts[h] for h in hits_quarter.tolist()]
    reasons = (None, "eta_below_divergence_threshold")
    curve.violated = [reasons[d] for d in divergent.tolist()]


def rate_curve(spec: CouplingSpectrum, etas) -> RateCurve:
    """Regime, exact geometric ratio and (where it exists) the bound constant
    of one spectrum at every step size in `etas`.

    Each closed form is a numpy expression in eta. Every spectrum with some
    coupling follows one curve: the Gram values of zero-sum OGDA and DOGDA,
    or the magnitudes of a general-sum spectrum that meets its assumptions.
    """
    etas = np.array([json_number(eta, "eta", 0, strict=True)
                     for eta in np.ravel(etas).tolist()], dtype=float)
    curve = RateCurve(spec, etas)
    if spec.violated is not None:
        return curve
    # Overflow goes to inf silently, as in Python float arithmetic. An angle
    # constant whose ratio rounds to 1 (a step just below 1/(2 sqrt(mu))) is inf.
    with np.errstate(over="ignore", divide="ignore"):
        if spec.positives.size:
            _curve(curve)
        else:
            # No coupling: the dynamics freeze at once; Part2, ratio 0 by convention.
            curve.lambda_max[:] = 0.0
            curve.C = _angle_constant_low(etas, 0.0)
            curve.eta_regime = [Regime.PART2] * etas.size
            curve.diagonalizable = [Verdict.YES] * etas.size
            curve.violated = [None] * etas.size
    if spec.general_sum:
        # the angle constants assume orthogonal eigenvectors: a general-sum
        # envelope fits its constant
        curve.C[:] = math.nan
    return curve


def rate_report(game: BilinearGame, eta: float, algo: Algo = Algo.OGDA) -> SpectralReport:
    """Regime, exact geometric ratio and (where it exists) the bound constant.

    OGDA and DOGDA follow the full regime analysis (Part2 / Part3a / Part3b /
    Divergent). General-sum games under OGDA also require a real
    non-positive coupling spectrum and a diagonalizable companion matrix
    (CouplingSpectrum.diagonalizable, decided from the coupling, not from the
    companion), and otherwise come back Inapplicable with the violated
    assumption named.
    This is rate_curve at the one step size, on CouplingSpectrum.of(game,
    algo): the game's SVDs, coupling eigenvalues, Nash set and spectrum are
    taken once while it is the last game analysed (games.memo), so a
    report, limit, distance or witness that follows on the same game object
    decomposes nothing again. For many step sizes, call rate_curve.
    """
    return rate_curve(CouplingSpectrum.of(game, algo), [eta])[0]


def optimal_eta(mu_min: float, mu_max: float) -> tuple[float, float]:
    """Step size minimizing the geometric ratio, and that optimal ratio.

    Both are closed forms in alpha = mu_min/mu_max: the optimum balances the
    decreasing branch (driven by mu_min) against the increasing branch
    (driven by mu_max), always landing at or above 1/(2 sqrt(mu_max)).
    """
    if not (0.0 < mu_min <= mu_max < math.inf):
        raise InvalidRatioError(
            f"need 0 < mu_min <= mu_max < inf, got ({mu_min}, {mu_max})")
    alpha = mu_min / mu_max
    q = (3.0 + 6.0 * alpha - alpha * alpha
         - (1.0 - alpha) * math.sqrt((1.0 - alpha) * (9.0 - alpha)))
    eta_star = math.sqrt(q / (32.0 * alpha)) / math.sqrt(mu_max)
    lam_star = math.sqrt(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - q / 8.0))))
    return eta_star, lam_star
