"""Verification: reconciliation of every closed form against the brute-force
eigensolver, the dense and exact oracles of the general-sum diagonalizability
verdict, and the named property suites `saddle-lab verify` runs. The rate
fit, outcome classification and bound envelope live in `fits`; they are
re-exported here, as the same objects."""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import games as games_mod
from . import linalg, predict, spectral
from .dynamics import Algo, IterateState, StopReason, companion_matrix, run
from .fits import (COOP_CAP, COOP_TREND_POINTS, ENVELOPE_SLACK, FLOOR,  # noqa: F401
                   TRANSIENT_FRACTION, BoundCheck, InsufficientDataError,
                   NotConvergedError, OutcomeClass, OutcomeKind, RateFit,
                   _distances, _log_linear_fit, check_bound, classify, estimate_rate)
from .games import BilinearGame
from .spectral import Regime


@dataclass
class OracleReport:
    max_distance: float
    predicted_count: int
    observed_count: int

    @property
    def counts_match(self) -> bool:
        return self.predicted_count == self.observed_count


def _greedy_match_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max pairwise distance under greedy nearest-neighbor matching of two
    equally sized multisets (adequate when spectra are well separated)."""
    remaining = list(b)
    worst = 0.0
    for z in a:
        gaps = [abs(z - w) for w in remaining]
        k = int(np.argmin(gaps))
        worst = max(worst, gaps[k])
        remaining.pop(k)
    return worst


def oracle_reconcile(game: BilinearGame, eta: float) -> OracleReport:
    """Compare the closed-form spectrum against the brute-force eigensolver.

    The oracle is desk-scale: a companion matrix above linalg.MAX_ORACLE_DIM
    raises DimensionTooLargeError.
    """
    dim = 2 * (game.n + game.p)
    if dim > linalg.MAX_ORACLE_DIM:
        raise linalg.DimensionTooLargeError(
            f"dimension {dim} exceeds oracle cap {linalg.MAX_ORACLE_DIM}")
    pred = spectral.lambda_spectrum(game, eta).as_multiset()
    obs = linalg.eig_complex(companion_matrix(game, eta)).as_multiset()
    if len(pred) != len(obs):
        return OracleReport(float("inf"), len(pred), len(obs))
    return OracleReport(_greedy_match_distance(pred, obs), len(pred), len(obs))


def is_diagonalizable(m) -> spectral.Verdict:
    """The dense oracle of diagonalizability: do the geometric multiplicities
    of a square matrix fill its dimension?

    Tests and the `diagonalizable_oracle` suite check
    CouplingSpectrum.diagonalizable against it on companion matrices; the
    analysis never calls it. Eigenvalues are clustered (a defective pair
    splits by roughly the square root of machine epsilon, well inside the
    cluster radius), then each cluster's geometric multiplicity is the
    nullity of m - lambda I. Clusters too close to each other for confident
    separation give Borderline.

    Its blind spot is a large Jordan block: a size-k block splits by about
    eps^(1/k), which from k = 4 on can leave the cluster radius. The
    companion of a nilpotent coupling with one size-6 block then reads Yes
    at some steps. `exact_diagonalizable` decides such integer cases.
    """
    a = linalg.as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("is_diagonalizable needs a square matrix")
    dim = a.shape[0]
    if dim == 0:
        return spectral.Verdict.YES
    scale = max(1.0, float(np.linalg.norm(a, ord="fro")))
    if math.isinf(scale):  # the squares of the entries overflow: no radius to test with
        return spectral.Verdict.BORDERLINE
    # A defective eigenvalue of Jordan size k scatters by ~eps^(1/k); the
    # cluster radius must swallow at least k <= 3 so the scattered copies are
    # treated as one eigenvalue.
    radius = 4.0 * np.finfo(float).eps ** (1.0 / 3.0) * scale
    clusters = linalg.cluster_scalars(np.linalg.eigvals(a), radius)
    centers, mults = clusters.values, clusters.multiplicities
    gaps = np.abs(centers[:, None] - centers[None, :])
    np.fill_diagonal(gaps, np.inf)
    if (gaps < 10.0 * radius).any():
        return spectral.Verdict.BORDERLINE
    # a simple eigenvalue has geometric multiplicity 1
    geo_total = int(np.sum(mults == 1))
    for lam in centers[mults > 1]:
        sing = np.linalg.svd(a - lam * np.eye(dim), compute_uv=False)
        geo_total += int(np.sum(sing <= spectral.DIAGONALIZABLE_REL_TOL * scale))
    return spectral.Verdict.YES if geo_total == dim else spectral.Verdict.NO


# Exact linear algebra over the rationals. A matrix is a list of rows and a
# polynomial a list of coefficients, the leading one first. Each number is a
# Python int where it is integral, else a Fraction: a float converts exactly,
# and integer arithmetic is several times faster than Fraction's.


def _exact(x: Fraction) -> int | Fraction:
    return x.numerator if x.denominator == 1 else x


def _rational(m) -> list[list]:
    return [[_exact(Fraction(x)) for x in row] for row in np.asarray(m).tolist()]


def _matmul(a: list, b: list) -> list[list]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _exact_rank(m: list) -> int:
    """Rank by fraction-free Gaussian elimination."""
    rows, rank = [list(row) for row in m], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            rows[i] = [top[col] * x - rows[i][col] * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def _charpoly(m: list) -> list:
    """det(x I - m), by Faddeev-LeVerrier: with A_0 = 0 and c_0 = 1,
    M_k = A_{k-1} + c_{k-1} I, A_k = m M_k and c_k = -tr(A_k) / k."""
    dim = len(m)
    coeffs = [1]
    am = [[0] * dim for _ in range(dim)]
    for k in range(1, dim + 1):
        for i in range(dim):
            am[i][i] += coeffs[-1]
        am = _matmul(m, am)
        coeffs.append(_exact(Fraction(-sum(am[i][i] for i in range(dim)), k)))
    return coeffs


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a / b, b with a nonzero leading coefficient;
    the remainder has no leading zeros."""
    quot, rem = [], list(a)
    while len(rem) >= len(b):
        factor = _exact(Fraction(rem[0]) / b[0])
        quot.append(factor)
        tail = b[1:] + [0] * (len(rem) - len(b))
        rem = [x - factor * y for x, y in zip(rem[1:], tail)]
    while rem and rem[0] == 0:
        rem.pop(0)
    return quot, rem


def exact_diagonalizable(m) -> bool:
    """Whether a square matrix with rational entries (ints, Fractions or
    floats) is diagonalizable over C, decided with no tolerance: iff
    q(m) = 0, where q = p / gcd(p, p') is the square-free part of its
    characteristic polynomial p (then the minimal polynomial has only simple
    roots)."""
    a = _rational(m)
    p = _charpoly(a)
    deg = len(p) - 1
    g, r = p, [c * (deg - i) for i, c in enumerate(p[:-1])]  # gcd(p, p')
    while r:
        g, r = r, _poly_divmod(g, r)[1]
    # a monic g keeps q integral where m is (Gauss's lemma)
    q = _poly_divmod(p, [_exact(Fraction(c) / g[0]) for c in g])[0]
    acc = [[0] * deg for _ in range(deg)]
    for c in q:  # Horner's rule on the matrix
        acc = _matmul(acc, a)
        for i in range(deg):
            acc[i][i] += c
    return not any(x for row in acc for x in row)


# ----------------------------------------------------------------------------
# Named property suites (the `verify` subcommand runs all of them)
# ----------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def random_matrix(rng: np.random.Generator, n: int, p: int,
                  rank: int | None = None) -> np.ndarray:
    """Random matrix with singular values in [0.5, 2] (well-conditioned on its
    row/column space, optional exact rank deficiency)."""
    k = min(n, p)
    rank = k if rank is None else rank
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(p, p)))
    sig = np.zeros((n, p))
    vals = rng.uniform(0.5, 2.0, size=k)
    vals[rank:] = 0.0
    np.fill_diagonal(sig, vals)
    return u @ sig @ v.T


def random_zero_sum_game(rng: np.random.Generator, n: int | None = None,
                         p: int | None = None, affine: bool = True) -> BilinearGame:
    n = int(rng.integers(1, 5)) if n is None else n
    p = int(rng.integers(1, 5)) if p is None else p
    rank = None
    if min(n, p) > 1 and rng.uniform() < 0.4:
        rank = int(rng.integers(1, min(n, p) + 1))
    a = random_matrix(rng, n, p, rank)
    if not affine:
        return BilinearGame.zero_sum_game(a)
    x_star = rng.normal(size=n)
    y_star = rng.normal(size=p)
    return BilinearGame.zero_sum_game(a, b=-a @ y_star, c=-a.T @ x_star)


def random_negative_spectrum_game(rng: np.random.Generator) -> BilinearGame:
    """General-sum games whose coupling spectrum is real non-positive."""
    n = int(rng.integers(1, 5))
    p = int(rng.integers(1, 5))
    kind = rng.integers(0, 3)
    if kind == 0:
        return games_mod.scale_opponent(
            random_zero_sum_game(rng, n, p), float(rng.uniform(0.5, 2.0)))
    if kind == 1:
        return games_mod.accelerate(random_zero_sum_game(rng, n, p))
    return random_spd_coupled_game(rng, n, p)


def random_spd_coupled_game(rng: np.random.Generator, n: int, p: int) -> BilinearGame:
    """B = -A S with A = random_matrix(rng, n, p) and S symmetric positive
    definite (eigenvalues in [0.7, 1.5]). Sp(B^T A) = -Sp(S A^T A) is real
    non-positive, and the coupling is diagonalizable at any size."""
    a = random_matrix(rng, n, p)
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    spd = q @ np.diag(rng.uniform(0.7, 1.5, size=p)) @ q.T
    return BilinearGame.from_matrices(a, -a @ spd)


COUPLING_KINDS = ("rank_deficient", "non_square", "accelerated", "kernel_mismatched")


def random_coupling_game(rng: np.random.Generator, kind: str) -> BilinearGame:
    """A general-sum game with n, p in 1..4 of one of COUPLING_KINDS: A and B
    of random, possibly unequal ranks; full-rank A and B with n != p;
    B = -pinv(A)^T; or A and B of one rank r whose images share only r - 1
    directions. The last two kinds are transposed half the time, which moves
    a mismatch from the images to the row spaces."""
    if kind == "rank_deficient":
        n, p = (int(v) for v in rng.integers(2, 5, size=2))
        rank_a, rank_b = (int(v) for v in rng.integers(1, min(n, p) + 1, size=2))
        return BilinearGame.from_matrices(random_matrix(rng, n, p, rank_a),
                                          random_matrix(rng, n, p, rank_b))
    if kind == "accelerated":
        return games_mod.accelerate(random_zero_sum_game(rng))
    if kind == "non_square":
        n = int(rng.integers(1, 4))
        p = int(rng.integers(n + 1, 5))
        a, b = random_matrix(rng, n, p), random_matrix(rng, n, p)
    else:
        n, p = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        r = int(rng.integers(1, min(n - 1, p) + 1))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = q[:, :r] @ rng.normal(size=(r, p))
        b = q[:, [*range(r - 1), r]] @ rng.normal(size=(r, p))
    if rng.uniform() < 0.5:
        a, b = a.T, b.T
    return BilinearGame.from_matrices(a, b)


def _safe_eta(game: BilinearGame, rng: np.random.Generator,
              lo: float = 0.5, hi: float = 0.9) -> float:
    mu_max = max(float(np.linalg.norm(game.A, 2)) ** 2,
                 float(np.linalg.norm(game.B, 2)) ** 2, 1e-12)
    return float(rng.uniform(lo, hi)) * 0.5 / math.sqrt(mu_max)


def _random_iterate(rng: np.random.Generator, n: int, p: int) -> IterateState:
    return IterateState.of(rng.uniform(-1, 1, 2 * (n + p)), n)


def suite_penrose(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        shape = tuple(rng.integers(1, 7, size=2))
        a = rng.normal(size=shape)
        if rng.uniform() < 0.2:  # exercise rank deficiency
            a[:, rng.integers(0, shape[1])] = 0.0
        ap = linalg.pinv(a)
        scale = max(1.0, float(np.linalg.norm(a)))
        worst = max(
            worst,
            np.linalg.norm(a @ ap @ a - a) / scale,
            np.linalg.norm(ap @ a @ ap - ap) / max(1.0, np.linalg.norm(ap)),
            np.linalg.norm((a @ ap).T - a @ ap),
            np.linalg.norm((ap @ a).T - ap @ a),
        )
    return CheckResult("linalg.penrose_conditions", worst < 1e-10, worst, 1e-10)


def suite_pinv_kernel(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(40):
        n, p = (int(v) for v in rng.integers(1, 6, size=2))
        rank = int(rng.integers(1, min(n, p) + 1))
        a = random_matrix(rng, n, p, rank)
        ker_pinv = linalg.kernel_basis(linalg.pinv(a))
        ker_at = linalg.kernel_basis(a.T)
        if ker_pinv.shape[1] != ker_at.shape[1]:
            return CheckResult("linalg.pinv_kernel_identity", False, float("inf"), 1e-8,
                               "kernel dimensions differ")
        ang = linalg.principal_angles(ker_pinv, ker_at)
        worst = max(worst, float(ang.max(initial=0.0)))
    return CheckResult("linalg.pinv_kernel_identity", worst < 1e-8, worst, 1e-8)


def suite_projection_idempotent(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim))
        # complementary pair carved out of one well-conditioned invertible matrix
        m = random_matrix(rng, dim, dim)
        onto = linalg.span(m[:, :k].T)
        along = linalg.span(m[:, k:].T)
        v = rng.normal(size=dim)
        p1 = linalg.project(v, onto)
        worst = max(worst, float(np.linalg.norm(linalg.project(p1, onto) - p1)))
        q1 = linalg.project(v, onto, along=along)
        q2 = linalg.project(q1, onto, along=along)
        worst = max(worst, float(np.linalg.norm(q2 - q1)))
    return CheckResult("linalg.projection_idempotent", worst < 1e-12, worst, 1e-12)


def suite_eig_determinant(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(40):
        dim = int(rng.integers(1, 7))
        m = rng.normal(size=(dim, dim))
        s = linalg.eig_complex(m)
        det_spec = complex(np.prod(np.repeat(s.values, s.multiplicities)))
        det = np.linalg.det(m)
        rel = abs(det_spec - det) / max(1.0, abs(det))
        conj_gap = _greedy_match_distance(s.as_multiset(),
                                          np.conj(s.as_multiset()))
        worst = max(worst, rel, conj_gap)
    return CheckResult("linalg.eig_det_and_conjugacy", worst < 1e-8, worst, 1e-8)


def suite_nash_scale_invariance(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        game = random_zero_sum_game(rng)
        scaled = games_mod.scale_opponent(game, float(rng.uniform(0.2, 3.0)))
        ns0, ns1 = games_mod.nash_set(game), games_mod.nash_set(scaled)
        if ns0.nonempty != ns1.nonempty:
            return CheckResult("games.nash_scale_invariance", False, float("inf"), 1e-8)
        ang_x = linalg.principal_angles(ns0.x_part.directions, ns1.x_part.directions)
        ang_y = linalg.principal_angles(ns0.y_part.directions, ns1.y_part.directions)
        worst = max(worst, float(ang_x.max(initial=0.0)), float(ang_y.max(initial=0.0)),
                    *ns1.residuals(game))
    return CheckResult("games.nash_scale_invariance", worst < 1e-8, worst, 1e-8)


def suite_accelerate_spectrum(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        game = games_mod.accelerate(random_zero_sum_game(rng))
        spec = linalg.eig_complex(game.A @ game.B.T)
        for mu in spec.values:
            worst = max(worst, min(abs(mu), abs(mu + 1.0)))
    return CheckResult("games.accelerate_spectrum_in_0_minus1", worst < 1e-8, worst, 1e-8)


def suite_fixed_points(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        game = random_zero_sum_game(rng)
        eta = _safe_eta(game, rng)
        ns = games_mod.nash_set(game)
        s = IterateState.at(ns.x_star, ns.y_star)
        stepped = run(game, Algo.OGDA, eta, s, max_steps=1).final
        worst = max(worst, float(np.linalg.norm(stepped.stacked() - s.stacked())))
        off = _random_iterate(rng, game.n, game.p)
        stepped = run(game, Algo.OGDA, eta, off, max_steps=1).final
        moved = np.linalg.norm(stepped.stacked() - off.stacked())
        grad = np.linalg.norm(np.concatenate([game.A @ off.y + game.b,
                                              game.B.T @ off.x + game.f]))
        if grad > 1e-6 and moved < 1e-12:
            return CheckResult("dynamics.fixed_points_are_nash", False,
                               float(moved), 1e-10, "non-Nash point did not move")
    return CheckResult("dynamics.fixed_points_are_nash", worst < 1e-10, worst, 1e-10)


def suite_linear_system_equivalence(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        game = random_zero_sum_game(rng, affine=False)
        eta = _safe_eta(game, rng)
        lam = companion_matrix(game, eta)
        s = _random_iterate(rng, game.n, game.p)
        z = s.stacked()
        traj = run(game, Algo.OGDA, eta, s, max_steps=50, stop_tol=0.0, record_stride=1)
        for row in traj.states[1:]:
            z = lam @ z
            denom = max(1.0, float(np.linalg.norm(z)))
            worst = max(worst, float(np.linalg.norm(row - z)) / denom)
    return CheckResult("dynamics.linear_system_equivalence", worst < 1e-12, worst, 1e-12)


def suite_affine_shift_equivalence(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        game = random_zero_sum_game(rng, affine=True)
        homog = BilinearGame.zero_sum_game(game.A)
        ns = games_mod.nash_set(game)
        eta = _safe_eta(game, rng)
        s_aff = _random_iterate(rng, game.n, game.p)
        shift = np.concatenate([ns.x_star, ns.y_star, ns.x_star, ns.y_star])
        s_hom = IterateState.of(s_aff.z - shift, game.n)
        aff = run(game, Algo.OGDA, eta, s_aff, max_steps=40, stop_tol=0.0, record_stride=1)
        hom = run(homog, Algo.OGDA, eta, s_hom, max_steps=40, stop_tol=0.0, record_stride=1)
        for row_aff, row_hom in zip(aff.states[1:], hom.states[1:]):
            shifted = row_hom + shift
            worst = max(worst, float(np.linalg.norm(row_aff - shifted))
                        / max(1.0, float(np.linalg.norm(shifted))))
    return CheckResult("dynamics.affine_shift_equivalence", worst < 1e-12, worst, 1e-12)


def suite_dogda_decoupling(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        n, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        game = BilinearGame.from_matrices(rng.normal(size=(n, p)),
                                          rng.normal(size=(n, p)))
        eta = _safe_eta(game, rng)
        init = _random_iterate(rng, n, p)
        traj = run(game, Algo.DOGDA, eta, init, max_steps=40, stop_tol=0.0, record_stride=1)
        # The played x follows the (x, y_aux) half on -B, the played y the
        # (x_aux, y) half on A; both halves start from the initial state.
        lam1 = companion_matrix(BilinearGame.zero_sum_game(-game.B), eta)
        lam2 = companion_matrix(BilinearGame.zero_sum_game(game.A), eta)
        z1 = z2 = init.stacked()
        for row in traj.states[1:]:
            z1, z2 = lam1 @ z1, lam2 @ z2
            gap1 = np.linalg.norm(row[:n] - z1[:n])
            gap2 = np.linalg.norm(row[n:n + p] - z2[n:n + p])
            scale = max(1.0, float(np.linalg.norm(np.concatenate([z1, z2]))))
            worst = max(worst, float(gap1) / scale, float(gap2) / scale)
    return CheckResult("dynamics.dogda_decoupling", worst < 1e-12, worst, 1e-12)


def suite_spectrum_oracle(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for i in range(25):
        game = (random_zero_sum_game(rng) if i % 2 == 0
                else random_negative_spectrum_game(rng))
        for _ in range(5):
            rep = oracle_reconcile(game, _safe_eta(game, rng, lo=0.2, hi=0.95))
            if not rep.counts_match:
                return CheckResult("spectral.spectrum_oracle", False, float("inf"), 1e-7,
                                   "multiset sizes differ")
            worst = max(worst, rep.max_distance)
    return CheckResult("spectral.spectrum_oracle", worst < 1e-7, worst, 1e-7)


def suite_root_residuals(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(200):
        mu = float(rng.uniform(-30.0, 30.0))
        eta = float(rng.uniform(0.01, 0.6))
        rs = spectral.s_star_roots(mu, eta)
        tol = 1e-12 * (1.0 + abs(mu) * eta * eta)
        worst = max(worst, float(rs.residuals().max()) / tol * 1e-12)
    return CheckResult("spectral.root_residuals", worst < 1e-12, worst, 1e-12)


def suite_rate_realized_by_spectrum(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        game = random_zero_sum_game(rng, affine=False)
        mu_max = float(np.linalg.norm(game.A, 2)) ** 2
        eta = float(rng.uniform(0.15, 0.95)) / math.sqrt(3.0 * mu_max)
        report = spectral.rate_report(game, eta)
        if not report.applicable:
            continue
        spec = spectral.lambda_spectrum(game, eta)
        # the largest modulus apart from the unit root of the kernel directions
        realized = max((abs(v) for v in spec.values if abs(v - 1.0) > 1e-9), default=0.0)
        worst = max(worst, abs(realized - report.lambda_max))
    return CheckResult("spectral.rate_realized_by_spectrum", worst < 1e-10, worst, 1e-10)


def suite_optimal_eta_argmin(rng: np.random.Generator) -> CheckResult:
    """The closed-form (eta*, lambda*) must sit on the rate curve and beat
    every grid point (the curve has a square-root kink at the optimum, so the
    grid can only approach from above)."""
    worst = 0.0
    grid = np.linspace(0.02, spectral.DIVERGENCE_THRESHOLD - 1e-6, 400)
    for alpha in np.arange(0.05, 1.0001, 0.05):
        mu_min, mu_max = float(alpha), 1.0
        eta_star, lam_star = spectral.optimal_eta(mu_min, mu_max)
        game = BilinearGame.zero_sum_game(np.diag([math.sqrt(mu_min), 1.0]))
        lams = spectral.rate_curve(spectral.CouplingSpectrum.of(game),
                                   np.concatenate([[eta_star], grid])).lambda_max
        worst = max(worst, abs(float(lams[0]) - lam_star),
                    float(np.max(lam_star - lams[1:])))
    return CheckResult("spectral.optimal_eta_is_argmin", worst < 1e-9, worst, 1e-9)


def suite_part2_monotonicity(rng: np.random.Generator) -> CheckResult:
    ok = True
    for _ in range(10):
        mu_min = float(rng.uniform(0.1, 2.0))
        mu_max = float(rng.uniform(1.0, 2.0)) * mu_min
        etas = np.linspace(1e-3, 0.5 / math.sqrt(mu_max) * 0.999, 200)
        lams = [spectral.rate_lambda_star(float(e), mu_min) for e in etas]
        ok = ok and all(b < a for a, b in zip(lams, lams[1:]))
    return CheckResult("spectral.part2_rate_monotone_in_eta", ok,
                       0.0 if ok else 1.0, 0.0)


def _applicable_prediction_cases(rng: np.random.Generator, count: int):
    produced = 0
    while produced < count:
        kind = produced % 4
        if kind == 0:
            game, algo = random_zero_sum_game(rng), Algo.OGDA
        elif kind == 1:
            game, algo = random_negative_spectrum_game(rng), Algo.OGDA
        elif kind == 2:
            game, algo = games_mod.accelerate(random_zero_sum_game(rng)), Algo.OGDA
        else:
            n, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            game = BilinearGame.from_matrices(rng.normal(size=(n, p)),
                                              rng.normal(size=(n, p)))
            algo = Algo.DOGDA
        eta = _safe_eta(game, rng, lo=0.4, hi=0.8)
        init = _random_iterate(rng, game.n, game.p)
        spec = spectral.CouplingSpectrum.of(game, algo)
        report = spectral.rate_curve(spec, [eta])[0]
        pred = predict.limit(spec, report, init)
        if not pred.valid:
            continue
        # keep the step budget finite: skip near-unit ratios
        if not report.applicable or report.lambda_max > 0.995:
            continue
        produced += 1
        yield game, algo, eta, init, pred


def suite_limit_predictions(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for game, algo, eta, init, pred in _applicable_prediction_cases(rng, 25):
        traj = run(game, algo, eta, init, max_steps=60000, stop_tol=1e-14)
        if traj.stop_reason is StopReason.DIVERGED:
            return CheckResult("predict.limit_predictions", False, float("inf"), 1e-6,
                               "applicable configuration diverged")
        final = traj.final
        gap = np.linalg.norm(np.concatenate([final.x - pred.x_inf,
                                             final.y - pred.y_inf]))
        allowed = max(1e-8, 1e-6 * float(np.linalg.norm(init.stacked())))
        worst = max(worst, float(gap) / allowed * 1e-6)
    return CheckResult("predict.limit_predictions", worst < 1e-6, worst, 1e-6)


def suite_init_independence(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        game = random_zero_sum_game(rng)
        eta = _safe_eta(game, rng)
        init_a = _random_iterate(rng, game.n, game.p)
        init_b = IterateState(init_a.x, init_a.y, rng.uniform(-1, 1, game.n),
                              rng.uniform(-1, 1, game.p))
        spec = spectral.CouplingSpectrum.of(game)
        report = spectral.rate_curve(spec, [eta])[0]
        pred_a = predict.limit(spec, report, init_a)
        pred_b = predict.limit(spec, report, init_b)
        gap = np.linalg.norm(np.concatenate([pred_a.x_inf - pred_b.x_inf,
                                             pred_a.y_inf - pred_b.y_inf]))
        ta = run(game, Algo.OGDA, eta, init_a, max_steps=60000, stop_tol=1e-14)
        tb = run(game, Algo.OGDA, eta, init_b, max_steps=60000, stop_tol=1e-14)
        emp = np.linalg.norm(np.concatenate([ta.final.x - tb.final.x,
                                             ta.final.y - tb.final.y]))
        worst = max(worst, float(gap), float(emp))
    return CheckResult("predict.init_independence", worst < 1e-8, worst, 1e-8)


def suite_prediction_is_fixed_point(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for game, algo, eta, init, pred in _applicable_prediction_cases(rng, 15):
        if algo is Algo.DOGDA:
            continue
        s = IterateState.at(pred.x_inf, pred.y_inf)
        stepped = run(game, Algo.OGDA, eta, s, max_steps=1).final
        moved = np.linalg.norm(stepped.stacked() - s.stacked())
        worst = max(worst, float(moved))
    return CheckResult("predict.prediction_is_fixed_point", worst < 1e-10, worst, 1e-10)


def suite_witness_rates(rng: np.random.Generator) -> CheckResult:
    worst_low, worst_high = 0.0, 0.0
    for _ in range(8):
        game = random_zero_sum_game(rng, affine=False)
        mu_max = float(np.linalg.norm(game.A, 2)) ** 2
        eta = float(rng.uniform(0.3, 0.9)) / math.sqrt(3.0 * mu_max)
        spec = spectral.CouplingSpectrum.of(game)
        report = spectral.rate_curve(spec, [eta])[0]
        if not report.applicable or report.eta_regime is Regime.PART3B:
            continue
        witness = predict.witness(spec, report)
        traj = run(game, Algo.OGDA, eta, witness, max_steps=2500)
        pred = predict.limit(spec, report, witness)
        fit = estimate_rate(traj, pred)
        worst_low = max(worst_low, report.lambda_max - fit.fitted_ratio)
        worst_high = max(worst_high, fit.fitted_ratio - report.lambda_max)
    worst = max(worst_low - 0.005, worst_high - 0.02, 0.0)
    return CheckResult("predict.witness_rate_tightness", worst == 0.0,
                       max(worst_low, worst_high), 0.02,
                       f"below={worst_low:.2e} above={worst_high:.2e}")


def suite_cooperation_never_diverges(rng: np.random.Generator) -> CheckResult:
    for _ in range(20):
        n, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.normal(size=(n, p))
        if np.linalg.norm(a) < 1e-9:
            continue
        alpha = float(rng.uniform(0.2, 2.0))
        game = BilinearGame.from_matrices(a, alpha * a)
        mu_max = float(np.linalg.norm(game.B.T @ game.A, 2))
        eta = float(rng.uniform(0.4, 0.9)) * 0.5 / math.sqrt(mu_max)
        traj = run(game, Algo.OGDA, eta, _random_iterate(rng, n, p),
                   max_steps=40000)
        outcome = classify(traj, spectral.CouplingSpectrum.of(game))
        if outcome.kind in (OutcomeKind.DIVERGED, OutcomeKind.UNFINISHED):
            return CheckResult("verify.cooperation_never_diverges", False, 1.0, 0.0,
                               f"{outcome.kind.value} with alpha={alpha}")
    return CheckResult("verify.cooperation_never_diverges", True, 0.0, 0.0)


def suite_part2_bounds(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        game = random_zero_sum_game(rng)
        mu_max = float(np.linalg.norm(game.A, 2)) ** 2
        eta = float(rng.uniform(0.3, 0.9)) * 0.5 / math.sqrt(mu_max)
        spec = spectral.CouplingSpectrum.of(game)
        report = spectral.rate_curve(spec, [eta])[0]
        if report.eta_regime is not Regime.PART2:
            continue
        init = _random_iterate(rng, game.n, game.p)
        pred = predict.limit(spec, report, init)
        traj = run(game, Algo.OGDA, eta, init, max_steps=30000)
        check = check_bound(traj, report, predict.distance(spec, init), pred)
        if not check.ok:
            return CheckResult("verify.part2_bound_envelope", False,
                               check.max_violation, ENVELOPE_SLACK, "envelope violated")
        fit = estimate_rate(traj, pred)
        worst = max(worst, fit.fitted_ratio - report.lambda_max)
    return CheckResult("verify.part2_bound_envelope", worst <= 0.02, worst, 0.02)


def suite_part3a_bounds(rng: np.random.Generator) -> CheckResult:
    """The envelope also holds with the large-step constant (steps between
    1/(2 sqrt(mu_max)) and the divergence threshold)."""
    count, worst = 0, 0.0
    while count < 8:
        game = random_zero_sum_game(rng)
        mu_max = float(np.linalg.norm(game.A, 2)) ** 2
        eta = float(rng.uniform(0.51, 0.98)) / math.sqrt(3.0 * mu_max)
        spec = spectral.CouplingSpectrum.of(game)
        report = spectral.rate_curve(spec, [eta])[0]
        if report.eta_regime is not Regime.PART3A or report.lambda_max > 0.995:
            continue
        init = _random_iterate(rng, game.n, game.p)
        traj = run(game, Algo.OGDA, eta, init, max_steps=40000)
        pred = predict.limit(spec, report, init)
        check = check_bound(traj, report, predict.distance(spec, init), pred)
        if not check.ok:
            return CheckResult("verify.part3a_bound_envelope", False,
                               check.max_violation, ENVELOPE_SLACK, "envelope violated")
        worst = max(worst, check.worst_ratio)
        count += 1
    return CheckResult("verify.part3a_bound_envelope", worst <= 1.0, worst, 1.0)


def suite_diagonalizable_oracle(rng: np.random.Generator) -> CheckResult:
    """CouplingSpectrum.diagonalizable, decided from the coupling, against
    the dense test of the companion matrix at a step below the half
    threshold. `measured` counts the games where the dense test decides (Yes
    or No) and the two disagree."""
    games_count, borderline, disagree = 20, 0, 0
    for i in range(games_count):
        game = random_coupling_game(rng, COUPLING_KINDS[i % len(COUPLING_KINDS)])
        dense = is_diagonalizable(companion_matrix(game, _safe_eta(game, rng)))
        if dense is spectral.Verdict.BORDERLINE:
            borderline += 1
        elif dense is not spectral.CouplingSpectrum.of(game).diagonalizable:
            disagree += 1
    return CheckResult("spectral.diagonalizable_oracle", disagree == 0, float(disagree), 0.0,
                       f"dense test Borderline on {borderline} of {games_count} games")


def _unimodular(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """An integer matrix of determinant 1 and its integer inverse: the
    identity under random row additions, the inverse under the inverse
    column operations."""
    u, inv = np.eye(dim), np.eye(dim)
    for _ in range(2 * dim if dim > 1 else 0):
        i, j = rng.permutation(dim)[:2].tolist()
        s = 2.0 * rng.integers(2) - 1.0
        u[i] += s * u[j]  # u <- (I + s e_i e_j^T) u
        inv[:, j] -= s * inv[:, i]
    return u, inv


EXACT_KINDS = ("jordan", "diagonal", "rank_deficient")


def random_integer_game(rng: np.random.Generator, kind: str) -> BilinearGame:
    """A general-sum game with integer A and B, n, p <= 3, of one of
    EXACT_KINDS: B^T A a Jordan form with one block of size 2 or 3 under a
    unimodular similarity; a diagonal one likewise (its eigenvalues may
    repeat); or A and B with entries in {-1, 0, 1}, of any ranks. The first
    two are square, with A unimodular, and their eigenvalues are in
    {-1, -2, -3}."""
    if kind == "rank_deficient":
        n, p = (int(v) for v in rng.integers(1, 4, size=2))
        return BilinearGame.from_matrices(rng.integers(-1, 2, size=(n, p)),
                                          rng.integers(-1, 2, size=(n, p)))
    dim = int(rng.integers(2, 4)) if kind == "jordan" else int(rng.integers(1, 4))
    jordan = np.diag(rng.integers(-3, 0, size=dim).astype(float))
    if kind == "jordan":
        size = int(rng.integers(2, dim + 1))
        jordan[:size, :size] = np.diag(np.full(size, jordan[0, 0])) + np.eye(size, k=1)
    s, s_inv = _unimodular(rng, dim)
    a, a_inv = _unimodular(rng, dim)
    # B^T A = S J S^-1 with A unimodular, so B = (S J S^-1 A^-1)^T
    return BilinearGame.from_matrices(a, (s @ jordan @ s_inv @ a_inv).T)


def suite_diagonalizable_exact(rng: np.random.Generator) -> CheckResult:
    """CouplingSpectrum.diagonalizable against the exact verdict on integer
    games: the companion is diagonalizable iff rank(B^T A) = rank A,
    rank(A B^T) = rank B and the smaller product is diagonalizable
    (`exact_diagonalizable`), all decided over the rationals. `measured`
    counts the games where the verdict is Yes or No and disagrees."""
    games_count, borderline, defective, disagree = 36, 0, 0, 0
    for i in range(games_count):
        game = random_integer_game(rng, EXACT_KINDS[i % len(EXACT_KINDS)])
        a, b_t = _rational(game.A), _rational(game.B.T)
        products = _matmul(b_t, a), _matmul(a, b_t)
        exact = (_exact_rank(products[0]) == _exact_rank(a)
                 and _exact_rank(products[1]) == _exact_rank(b_t)
                 and exact_diagonalizable(products[game.p > game.n]))
        defective += not exact
        verdict = spectral.CouplingSpectrum.of(game).diagonalizable
        if verdict is spectral.Verdict.BORDERLINE:
            borderline += 1
        elif (verdict is spectral.Verdict.YES) != exact:
            disagree += 1
    return CheckResult("spectral.diagonalizable_exact", disagree == 0, float(disagree), 0.0,
                       f"{defective} of {games_count} games defective, "
                       f"verdict Borderline on {borderline}")


def suite_general_sum_part3a(rng: np.random.Generator) -> CheckResult:
    """General-sum OGDA at Part3a steps, eta sqrt(mu_max) between 1/2 and
    the divergence threshold, where the zero-sum curve on the magnitudes of
    Sp(B^T A) gives the rate. Each run must pass its envelope (check_bound,
    fitted constant) and end at predict.limit (relative 1e-6, as in
    limit_predictions); `measured` is the worst gap, either way, between the
    fitted ratio and lambda_max, against the 0.02 of part2_bounds."""
    count, worst_fit, worst_limit = 0, 0.0, 0.0
    while count < 6:
        game = random_negative_spectrum_game(rng)
        spec = spectral.CouplingSpectrum.of(game)
        if spec.violated is not None or spec.mu_min is None:
            continue
        eta = float(rng.uniform(0.5, spectral.DIVERGENCE_THRESHOLD)) / math.sqrt(spec.mu_max)
        report = spectral.rate_curve(spec, [eta])[0]
        if report.eta_regime is not Regime.PART3A or report.lambda_max > 0.98:
            continue
        init = _random_iterate(rng, game.n, game.p)
        pred = predict.limit(spec, report, init)
        traj = run(game, Algo.OGDA, eta, init, max_steps=5000, stop_tol=1e-14)
        final = traj.final
        gap = np.linalg.norm(np.concatenate([final.x - pred.x_inf, final.y - pred.y_inf]))
        allowed = max(1e-8, 1e-6 * float(np.linalg.norm(init.stacked())))
        worst_limit = max(worst_limit, float(gap) / allowed * 1e-6)
        check = check_bound(traj, report, predict.distance(spec, init), pred)
        if worst_limit >= 1e-6 or not check.ok:
            return CheckResult("verify.general_sum_part3a", False, float("inf"), 0.02,
                               f"limit gap {worst_limit:.2e}, envelope ok {check.ok}")
        fit = estimate_rate(traj, pred)
        worst_fit = max(worst_fit, abs(fit.fitted_ratio - report.lambda_max))
        count += 1
    return CheckResult("verify.general_sum_part3a", worst_fit <= 0.02, worst_fit, 0.02,
                       f"limit gap {worst_limit:.2e}")


def suites() -> list:
    """Every suite, in seed order: suite i draws from seed + i, and the None
    slot keeps the later suites' seeds. The list is built at each call, so a
    suite patched on this module runs patched."""
    return [
        suite_penrose, suite_pinv_kernel, suite_projection_idempotent,
        suite_eig_determinant, None,
        suite_nash_scale_invariance, suite_accelerate_spectrum,
        suite_fixed_points, suite_linear_system_equivalence,
        suite_affine_shift_equivalence, suite_dogda_decoupling,
        suite_spectrum_oracle, suite_root_residuals,
        suite_rate_realized_by_spectrum, suite_optimal_eta_argmin,
        suite_part2_monotonicity, suite_limit_predictions,
        suite_init_independence, suite_prediction_is_fixed_point,
        suite_witness_rates, suite_cooperation_never_diverges,
        suite_part2_bounds, suite_part3a_bounds, suite_diagonalizable_oracle,
        suite_diagonalizable_exact, suite_general_sum_part3a,
    ]


def _take_suites(listed: list, seed: int, todo: int) -> dict[int, CheckResult]:
    """Run the suites whose indices this process reads, one byte each, from
    the pipe `todo`, until it is empty."""
    done = {}
    while token := os.read(todo, 1):
        done[token[0]] = listed[token[0]](np.random.default_rng(seed + token[0]))
    return done


def _fork_worker(listed: list, seed: int, todo: int) -> tuple[int, int]:
    """Fork a child that takes suites from `todo` and, when none is left,
    pickles its results (or the exception that stopped it, with the
    traceback text) into a pipe of its own. Returns (pid, read end)."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:  # the child never returns into the caller's stack
        os.close(read_end)
        try:
            outcome = _take_suites(listed, seed, todo)
        except Exception as exc:
            import traceback
            outcome = (exc, traceback.format_exc())
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


def run_all_suites(seed: int = 20240) -> list[CheckResult]:
    """Every module's invariants, as named pass/fail checks (deterministic).

    This process and one forked child for each further CPU in its affinity
    mask share the suites: each takes the next suite not yet started, until
    none is left. Suite i draws from seed + i wherever it runs, so the
    results, returned in suite order, do not depend on the CPU count. With
    one CPU, or without os.fork, this process runs every suite. An exception
    in a child is raised here; every child is reaped before this returns."""
    listed = suites()
    indices = bytes(i for i, suite in enumerate(listed) if suite is not None)
    workers = (min(len(os.sched_getaffinity(0)), len(indices))
               if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    todo, todo_w = os.pipe()
    os.write(todo_w, indices)
    os.close(todo_w)
    children: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        for _ in range(workers - 1):
            pid, read_end = _fork_worker(listed, seed, todo)
            children[pid] = read_end
        done = _take_suites(listed, seed, todo)
        for pid, read_end in list(children.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if code != 0 or not payload:
                raise RuntimeError(f"verify worker {pid} exited with status {code} "
                                   "before it sent its results")
            outcome = pickle.loads(payload)
            if isinstance(outcome, tuple):
                exc, text = outcome
                raise exc from RuntimeError(f"in verify worker {pid}:\n{text}")
            done.update(outcome)
    finally:
        os.close(todo)
        for pid, read_end in children.items():  # left only when a call raised
            import signal
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [done[i] for i in indices]
