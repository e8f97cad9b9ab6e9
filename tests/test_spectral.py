import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddle_lab import dynamics, games, linalg, predict, spectral, verify
from saddle_lab.dynamics import Algo
from saddle_lab.games import BilinearGame
from saddle_lab.spectral import Regime, Verdict

PENNIES = BilinearGame.zero_sum_game([[1.0]])
DIAG12 = BilinearGame.zero_sum_game(np.diag([1.0, 2.0]))


class TestRootSets:
    def test_mu_zero(self):
        roots = spectral.s_star_roots(0.0, 0.3).roots
        assert sorted(z.real for z in roots) == [0.0, 1.0]

    def test_negative_mu_small_step(self):
        rs = spectral.s_star_roots(-1.0, 0.3)
        expected = {0.9 + 0.3j, 0.1 + 0.3j, 0.9 - 0.3j, 0.1 - 0.3j}
        assert len(rs.roots) == 4
        for z in rs.roots:
            assert min(abs(z - w) for w in expected) < 1e-14
        assert rs.residuals().max() < 1e-12
        mods = sorted(abs(z) for z in rs.roots)
        assert mods[-1] == pytest.approx(math.sqrt(0.9))
        assert mods[0] == pytest.approx(math.sqrt(0.1))

    def test_negative_mu_double_root(self):
        rs = spectral.s_star_roots(-1.0, 0.5)
        assert len(rs.roots) == 2
        assert sorted(rs.roots, key=lambda z: z.imag) == [
            pytest.approx(0.5 - 0.5j), pytest.approx(0.5 + 0.5j)]

    def test_positive_mu_has_expanding_root(self):
        rs = spectral.s_star_roots(1.0, 0.1)
        top = max(z.real for z in rs.roots)
        assert top == pytest.approx(0.5 * (1 + 0.2 + math.sqrt(1.04)))
        assert top > 1.0
        assert np.allclose([z.imag for z in rs.roots], 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50.0, 50.0), st.floats(0.01, 0.7))
    def test_quartic_residuals(self, mu, eta):
        rs = spectral.s_star_roots(mu, eta)
        assert rs.residuals().max() < 1e-12 * (1.0 + abs(mu) * eta * eta)
        # conjugate closure
        for z in rs.roots:
            assert min(abs(z.conjugate() - w) for w in rs.roots) < 1e-12


class TestLambdaSpectrum:
    def test_unit_coupling(self):
        spec = spectral.lambda_spectrum(PENNIES, 0.3)
        expected = {0.9 + 0.3j, 0.1 + 0.3j, 0.9 - 0.3j, 0.1 - 0.3j}
        assert len(spec.values) == 4
        for z in spec.values:
            assert min(abs(z - w) for w in expected) < 1e-10

    def test_zero_matrix(self):
        g = BilinearGame.zero_sum_game(np.zeros((2, 3)))
        spec = spectral.lambda_spectrum(g, 0.2)
        assert sorted(z.real for z in spec.values) == [0.0, 1.0]
        assert spec.total == 2 * (2 + 3)

    def test_rank_deficient_general_sum_example(self):
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        b = np.array([[-2.0, -1.0], [0.0, 0.0]])
        g = BilinearGame.from_matrices(a, b)
        rep = verify.oracle_reconcile(g, 0.1)
        assert rep.counts_match and rep.max_distance < 1e-8

    def test_matches_oracle_on_random_games(self):
        rng = np.random.default_rng(100)
        for _ in range(6):
            g = verify.random_zero_sum_game(rng, affine=False)
            for eta in (0.05, 0.1, 0.2):
                rep = verify.oracle_reconcile(g, eta)
                assert rep.counts_match and rep.max_distance < 1e-7

    def test_matches_oracle_with_complex_coupling_spectrum(self):
        # the union-of-root-sets identity holds for arbitrary couplings, not
        # just real non-positive spectra
        rng = np.random.default_rng(321)
        for _ in range(12):
            n, p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            g = BilinearGame.from_matrices(rng.normal(size=(n, p)),
                                           rng.normal(size=(n, p)))
            rep = verify.oracle_reconcile(g, float(rng.uniform(0.02, 0.5)))
            assert rep.counts_match and rep.max_distance < 1e-7


class TestCouplingSpectrum:
    @pytest.mark.parametrize("n, p", [(3, 2), (2, 3), (3, 3)])
    def test_pools_both_products(self, n, p):
        rng = np.random.default_rng(10 * n + p)
        g = BilinearGame.from_matrices(rng.normal(size=(n, p)), rng.normal(size=(n, p)))
        spec = spectral.coupling_spectrum(g).values
        pooled = np.concatenate([np.linalg.eigvals(g.B.T @ g.A),
                                 np.linalg.eigvals(g.A @ g.B.T)])
        gaps = np.abs(spec[:, None] - pooled[None, :])
        assert gaps.min(axis=1).max() < 1e-10 and gaps.min(axis=0).max() < 1e-10
        # generic: min(n, p) distinct nonzero values, plus 0 when n != p
        assert len(spec) == min(n, p) + (n != p)


class TestOneRankDecision:
    def test_mu_min_is_the_smallest_singular_value_in_the_rank(self):
        rng = np.random.default_rng(9)
        deficient = 0
        for _ in range(20):
            n, p = (int(k) for k in rng.integers(2, 6, size=2))
            k = min(n, p)
            sig = 10.0 ** rng.uniform(-12.0, 0.0, size=k)
            sig[0] = 1.0
            sig[1:][rng.random(k - 1) < 0.3] = 0.0
            u = np.linalg.qr(rng.normal(size=(n, k)))[0]
            v = np.linalg.qr(rng.normal(size=(p, k)))[0]
            game = BilinearGame.zero_sum_game((u * sig) @ v.T)
            ns = games.nash_set(game)
            rank = game.p - ns.y_part.directions.shape[1]
            assert game.n - ns.x_part.directions.shape[1] == rank
            spec = spectral.CouplingSpectrum(game)
            assert spec.positives.size == rank
            assert spec.mu_min == np.linalg.svd(game.A)[1][rank - 1] ** 2
            deficient += rank < k
        assert 0 < deficient < 20

    @pytest.mark.parametrize("algo", [Algo.OGDA, Algo.DOGDA])
    def test_one_rank_at_the_cutoff(self, algo):
        # sigma_min of A sits at the rank cutoff, where separate SVDs of A
        # and -A^T can disagree on the rank; the analysis decomposes A once
        a = np.array([[0.12436870126844929, -0.4571711343746457],
                      [0.2311678746303803, -0.8497578441993178]])
        game = BilinearGame.zero_sum_game(a)
        spec = spectral.CouplingSpectrum(game, algo)
        ns = spec.nash
        n = game.n
        kernel = n - (spec.positives.size if algo is Algo.OGDA else spec.positives.size // 2)
        assert ns.x_part.directions.shape[1] == ns.y_part.directions.shape[1] == kernel
        public = games.nash_set(game)
        assert public.x_part.directions.shape[1] == public.y_part.directions.shape[1] == kernel

    @pytest.mark.parametrize("algo", [Algo.OGDA, Algo.DOGDA])
    def test_mu_set_holds_zero_where_a_gram_product_is_singular(self, algo):
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(30):
            n, p = (int(k) for k in rng.integers(1, 5, size=2))
            ranks = rng.integers(0, min(n, p) + 1, size=2)
            a = verify.random_matrix(rng, n, p, int(ranks[0]))
            if algo is Algo.OGDA:
                game, grams = BilinearGame.zero_sum_game(a), [a.T @ a, a @ a.T]
            else:
                # the Gram products of the doubled game's coupling blockdiag(-B, A)
                b = verify.random_matrix(rng, n, p, int(ranks[1]))
                game, grams = BilinearGame.from_matrices(a, b), [a.T @ a, a @ a.T,
                                                                 b.T @ b, b @ b.T]
            # nonzero singular values of random_matrix are at least 0.5
            singular = any(np.linalg.eigh(g)[0].min() < 1e-8 for g in grams)
            assert (0.0 in spectral.CouplingSpectrum(game, algo).mu_set) == singular
            seen.add((singular, n == p))
        assert {(True, True), (True, False), (False, True)} <= seen


def spd_coupled_game(seed, n):
    """General-sum B = -A P with P symmetric positive definite, so
    Sp(B^T A) = -Sp(P A^T A) is real and negative."""
    rng = np.random.default_rng(seed)
    q = [np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(3)]
    a = (q[0] * np.linspace(0.5, 2.0, n)) @ q[1].T
    spd = (q[2] * np.linspace(0.5, 1.5, n)) @ q[2].T
    return BilinearGame.from_matrices(a, -a @ spd)


class TestRateReport:
    def test_general_sum_above_oracle_cap(self):
        n = 80
        g = spd_coupled_game(3, n)
        eta = 0.3 / math.sqrt(np.abs(np.linalg.eigvals(g.B.T @ g.A)).max())
        rep = spectral.rate_report(g, eta)
        assert rep.eta_regime is Regime.PART2
        rho = np.abs(np.linalg.eigvals(dynamics.companion_matrix(g, eta))).max()
        assert rep.lambda_max == pytest.approx(rho, rel=1e-9)
        assert spectral.lambda_spectrum(g, eta).total == 2 * (n + n)

    def test_wgan_identity_coupling(self):
        g = BilinearGame.zero_sum_game(-np.eye(2), b=[3.0, 4.0])
        rep = spectral.rate_report(g, 0.3)
        assert rep.eta_regime is Regime.PART2
        assert rep.lambda_max == pytest.approx(3 / math.sqrt(10))
        assert rep.C == pytest.approx(3.4599644, rel=1e-6)

    def test_optimal_step_regime(self):
        rep = spectral.rate_report(DIAG12, 0.2804)
        assert rep.eta_regime is Regime.PART3A
        assert rep.lambda_max == pytest.approx(0.956, abs=5e-4)
        assert rep.lambda_max == max(rep.lambda_star, rep.lambda_dstar)

    def test_accelerated_rate_near_half(self):
        acc = games.accelerate(DIAG12)
        rep = spectral.rate_report(acc, 0.49)
        assert rep.eta_regime is Regime.PART2
        assert rep.lambda_max == pytest.approx(
            math.sqrt(0.5 * (1 + math.sqrt(1 - 4 * 0.49 ** 2))))
        rep_close = spectral.rate_report(acc, 0.4999)
        assert rep_close.lambda_max < 0.72

    def test_accelerated_thresholds(self):
        # B^T A = -I: the zero-sum curve of m = 1 from Part2 through the knife
        # edge eta = 1/2 (defective companion) and Part3a up to 1/sqrt(3)
        game = games.accelerate(BilinearGame.zero_sum_game(np.diag([1.0, 1.0 / 16])))
        assert np.allclose(game.B.T @ game.A, -np.eye(2))
        init = dynamics.IterateState.at(np.ones(2), -np.ones(2))
        cases = [(0.49, Regime.PART2, 0.774273), (0.5, Regime.PART3B, math.sqrt(0.5)),
                 (0.501, Regime.PART3A, 0.730550), (0.577, Regime.PART3A, 0.999090),
                 (0.578, Regime.DIVERGENT, None)]
        for eta, regime, lam in cases:
            rep = spectral.rate_report(game, eta)
            assert rep.eta_regime is regime, eta
            assert rep.diagonalizable is (Verdict.NO if regime is Regime.PART3B else Verdict.YES)
            pred = predict.predict_limit(game, Algo.OGDA, eta, init)
            assert pred.valid is (regime is not Regime.DIVERGENT), eta
            if lam is not None:
                assert rep.lambda_max == pytest.approx(lam, abs=1e-6)
            if regime is Regime.PART3B:
                assert not verify.exact_diagonalizable(dynamics.companion_matrix(game, eta))
                continue
            vals = np.linalg.eigvals(dynamics.companion_matrix(game, eta))
            rho = float(np.abs(vals[np.abs(vals - 1.0) > 1e-9]).max())
            assert abs(rep.lambda_max - rho) <= 1e-9, eta
        assert pred.reason == "eta_in_divergent_regime"

    def test_general_sum_example(self):
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        b = np.array([[-2.0, -1.0], [0.0, 0.0]])
        rep = spectral.rate_report(BilinearGame.from_matrices(a, b), 0.1)
        assert rep.eta_regime is Regime.PART2
        assert rep.lambda_max == pytest.approx(
            math.sqrt(0.5 * (1 + math.sqrt(0.92))))
        assert rep.mu_min == pytest.approx(2.0)

    def test_step_above_divergence_threshold_is_divergent(self):
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        b = np.array([[-2.0, -1.0], [0.0, 0.0]])
        obj = spectral.rate_report(BilinearGame.from_matrices(a, b), 2.0).to_json()
        assert obj.pop("lambda_dstar") == obj.pop("lambda_max") == pytest.approx(
            float(spectral.rate_lambda_dstar(2.0, 2.0)))
        assert obj == {
            "algo": "OGDA", "eta": 2.0, "mu_set": [0.0, -2.0], "mu_imag_max": 0.0,
            "mu_min": 2.0, "mu_max": 2.0, "lambda_star": 0.0,
            "C": None, "eta_regime": "Divergent", "diagonalizable": "Yes",
            "assumptions_met": {"spectrum_real_nonpositive": True,
                                "companion_diagonalizable": True,
                                "eta_below_divergence_threshold": False},
            "violated": "eta_below_divergence_threshold"}

    def test_to_json_is_strict(self):
        """An Inapplicable report's NaN rate and its invalid limit go out as null."""
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        game = BilinearGame.from_matrices(a, a)
        rep = spectral.rate_report(game, 2.0)
        pred = predict.predict_limit(game, Algo.OGDA, 2.0,
                                     dynamics.IterateState.at(np.ones(2), np.ones(2)))
        assert math.isnan(rep.lambda_max) and not pred.valid
        for obj in (rep, pred):
            json.dumps(obj.to_json(), allow_nan=False)

    def test_zero_sum_coupling_is_analysed_as_zero_sum(self):
        """B = -A fixes the dynamics, whatever e, f and g are: the game with
        f = 1 runs as the zero-sum game with c = -1."""
        game = BilinearGame([[1.0]], [[-1.0]], [0.0], [0.0], [0.0], [1.0])
        twin = BilinearGame.zero_sum_game([[1.0]], c=[-1.0])
        assert not game.zero_sum and game.zero_sum_coupling
        rep, twin_rep = spectral.rate_report(game, 0.55), spectral.rate_report(twin, 0.55)
        assert rep.eta_regime is twin_rep.eta_regime is Regime.PART3A
        assert rep.lambda_max == twin_rep.lambda_max == 0.9257654471963033

    def test_divergent_regime(self):
        rep = spectral.rate_report(PENNIES, 0.6)
        assert rep.eta_regime is Regime.DIVERGENT
        assert not rep.applicable

    def test_part3b_on_knife_edge(self):
        rep = spectral.rate_report(PENNIES, 0.5)
        assert rep.eta_regime is Regime.PART3B
        assert rep.C is None
        assert rep.lambda_max == pytest.approx(math.sqrt(0.5))

    def test_lambda_max_window_invariant(self):
        rng = np.random.default_rng(200)
        for _ in range(20):
            g = verify.random_zero_sum_game(rng, affine=False)
            mu_max = float(np.linalg.norm(g.A, 2)) ** 2
            eta = float(rng.uniform(0.05, 0.99)) / math.sqrt(3 * mu_max)
            rep = spectral.rate_report(g, eta)
            if rep.eta_regime in (Regime.PART2, Regime.PART3A):
                assert math.sqrt(0.5) - 1e-12 <= rep.lambda_max < 1.0

    def test_positive_coupling_inapplicable(self):
        g = BilinearGame.from_matrices([[1.0]], [[1.0]])
        rep = spectral.rate_report(g, 0.1)
        assert rep.eta_regime is Regime.INAPPLICABLE
        assert rep.violated == "spectrum_real_nonpositive"

    def test_growth_mu_is_the_largest_positive_coupling_value(self):
        g = BilinearGame.from_matrices(np.diag([1.0, 3.0]), np.diag([2.0, -1.0]))
        assert spectral.CouplingSpectrum(g).growth_mu == 2.0
        # zero-sum, DOGDA and GDA spectra carry none, nor does a tiny positive
        # value within MEMBERSHIP_REL_TOL of zero
        tiny = BilinearGame.from_matrices([[1.0]], [[1e-10]])
        for spec in (spectral.CouplingSpectrum(PENNIES), spectral.CouplingSpectrum(tiny),
                     spectral.CouplingSpectrum(g, Algo.DOGDA),
                     spectral.CouplingSpectrum(g, Algo.GDA)):
            assert spec.growth_mu is None

    def test_gda_has_no_theory(self):
        rep = spectral.rate_report(PENNIES, 0.1, Algo.GDA)
        assert rep.eta_regime is Regime.INAPPLICABLE

    def test_dogda_path(self):
        g = BilinearGame.from_matrices([[1.0]], [[1.0]])
        rep = spectral.rate_report(g, 0.2, Algo.DOGDA)
        assert rep.eta_regime is Regime.PART2
        assert rep.lambda_max == pytest.approx(
            math.sqrt(0.5 * (1 + math.sqrt(1 - 4 * 0.2 ** 2))))
        assert rep.C is not None

    def test_dogda_constant_at_the_half_threshold(self):
        # eta sqrt(mu) just below 1/2, within MEMBERSHIP_REL_TOL of it: the
        # zero-sum curve of the doubled game marks the knife-edge, Part3b
        # with no constant
        a = 0.5247914532927936
        g = BilinearGame.from_matrices([[a]], [[a]])
        rep = spectral.rate_report(g, 0.952759418741978, Algo.DOGDA)
        assert rep.eta_regime is Regime.PART3B and rep.C is None

    def test_zero_matrix_convention(self):
        g = BilinearGame.zero_sum_game(np.zeros((2, 2)))
        rep = spectral.rate_report(g, 0.4)
        assert rep.lambda_max == 0.0
        assert rep.applicable

    def test_json_round_trip_fields(self):
        rep = spectral.rate_report(DIAG12, 0.2)
        obj = rep.to_json()
        assert obj["eta_regime"] == "Part2"
        assert obj["mu_set"] == [4.0, 1.0]
        assert obj["violated"] is None


# (game, algo, step sizes, the regimes or violated assumptions the steps reach)
CURVE_CASES = {
    "zero-sum": (DIAG12, Algo.OGDA, [0.05, 0.1, 0.25, 0.26, 0.28, 0.2804, 0.3, 0.5, 0.9],
                 {"Part2", "Part3a", "Part3b", "Divergent"}),
    "zero-sum-knife-edge": (PENNIES, Algo.OGDA, [0.3, 0.5, 0.55, 0.6],
                            {"Part2", "Part3b", "Part3a", "Divergent"}),
    "general-sum": (BilinearGame.from_matrices([[1.0, 0.0], [2.0, 0.0]],
                                               [[-2.0, -1.0], [0.0, 0.0]]),
                    Algo.OGDA, [0.1, 0.3, 0.35, 0.38, 2.0], {"Part2", "Part3a", "Divergent"}),
    "general-sum-invertible": (spd_coupled_game(5, 3), Algo.OGDA, [0.05, 0.2, 0.23, 0.4, 0.8],
                               {"Part2", "Part3a", "Divergent"}),
    "general-sum-positive": (BilinearGame.from_matrices([[1.0]], [[1.0]]), Algo.OGDA,
                             [0.1, 0.6], {"spectrum_real_nonpositive"}),
    "general-sum-defective": (BilinearGame.from_matrices(np.ones((2, 2)),
                                                         [[1.0, 1.0], [-1.0, -1.0]]),
                              Algo.OGDA, [0.1, 0.3], {"companion_diagonalizable"}),
    "dogda": (BilinearGame.from_matrices([[1.0, 0.5], [0.0, 2.0]], [[1.0, 0.0], [1.0, 1.0]]),
              Algo.DOGDA, [0.05, 0.2, 0.25, 0.27, 0.3, 0.9], {"Part2", "Part3a", "Divergent"}),
    "gda": (PENNIES, Algo.GDA, [0.1, 0.9], {"no_convergence_theory_for_gda"}),
    "zero-coupling": (BilinearGame.zero_sum_game(np.zeros((2, 3))), Algo.OGDA, [0.1, 5.0],
                      {"Part2"}),
    "zero-coupling-dogda": (BilinearGame.zero_sum_game(np.zeros((2, 2))), Algo.DOGDA,
                            [0.1, 5.0], {"Part2"}),
}


def _outcome(rep):
    return rep.violated if rep.eta_regime is Regime.INAPPLICABLE else rep.eta_regime.value


class TestRateCurve:
    @pytest.mark.parametrize("case", list(CURVE_CASES))
    def test_elements_are_the_reports(self, case):
        game, algo, etas, outcomes = CURVE_CASES[case]
        curve = spectral.rate_curve(spectral.CouplingSpectrum(game, algo), etas)
        assert len(curve) == len(etas)
        for i, eta in enumerate(etas):
            rep = spectral.rate_report(game, eta, algo)
            assert json.dumps(curve[i].to_json()) == json.dumps(rep.to_json())
            assert curve.applicable[i] == rep.applicable
        assert {_outcome(curve[i]) for i in range(len(etas))} == outcomes

    @pytest.mark.parametrize("case", list(CURVE_CASES))
    def test_lambda_max_is_the_companion_radius(self, case):
        game, algo, etas, _ = CURVE_CASES[case]
        self._check_radius(game, algo, etas)

    def test_lambda_max_is_the_companion_radius_on_random_games(self):
        rng = np.random.default_rng(77)
        grid = np.linspace(0.02, 0.6, 60)
        for i in range(12):
            kind = i % 4
            if kind == 0:
                game, algo = verify.random_zero_sum_game(rng), Algo.OGDA
            elif kind == 1:
                game, algo = verify.random_negative_spectrum_game(rng), Algo.OGDA
            elif kind == 2:
                game, algo = games.accelerate(verify.random_zero_sum_game(rng)), Algo.OGDA
            else:
                n, p = (int(v) for v in rng.integers(1, 4, size=2))
                game = BilinearGame.from_matrices(rng.normal(size=(n, p)),
                                                  rng.normal(size=(n, p)))
                algo = Algo.DOGDA
            assert self._check_radius(game, algo, grid) > 0

    @staticmethod
    def _check_radius(game, algo, etas):
        """The largest eigenvalue modulus of the companion matrix, apart from
        its unit roots, at every applicable step; DOGDA runs OGDA on the
        doubled game. Part3b is left out: its matrix is defective, and numpy
        finds its eigenvalues only to about sqrt(eps)."""
        curve = spectral.rate_curve(spectral.CouplingSpectrum(game, algo), etas)
        played = games.doubled(game) if algo is Algo.DOGDA else game
        checked = 0
        for i, eta in enumerate(etas):
            if not curve.applicable[i] or curve.eta_regime[i] is Regime.PART3B:
                continue
            vals = np.linalg.eigvals(dynamics.companion_matrix(played, float(eta)))
            rho = float(np.abs(vals[np.abs(vals - 1.0) > 1e-9]).max(initial=0.0))
            assert abs(curve.lambda_max[i] - rho) <= 1e-9 * max(1.0, rho), (eta, rho)
            checked += 1
        return checked

    @pytest.mark.parametrize("n, p", [(40, 24), (80, 48)])
    def test_large_general_sum_curve_is_part2(self, n, p):
        # B = -A S with S SPD is diagonalizable at any size; the dense test
        # of the companion called most of these steps Borderline
        game = verify.random_spd_coupled_game(np.random.default_rng(3), n, p)
        spec = spectral.CouplingSpectrum(game)
        etas = 0.5 / math.sqrt(spec.mu_max) * np.linspace(0.02, 0.99, 50)
        curve = spectral.rate_curve(spec, etas)
        assert set(curve.eta_regime) == {Regime.PART2}
        assert set(curve.diagonalizable) == {Verdict.YES}
        vals = np.linalg.eigvals(dynamics.companion_matrix(game, float(etas[-1])))
        rho = float(np.abs(vals[np.abs(vals - 1.0) > 1e-9]).max())
        assert abs(curve.lambda_max[-1] - rho) <= 1e-9

    @pytest.mark.parametrize("game", [CURVE_CASES["general-sum"][0],
                                      CURVE_CASES["general-sum-defective"][0],
                                      verify.random_spd_coupled_game(np.random.default_rng(4), 4, 3)])
    def test_general_sum_curve_builds_no_companion(self, monkeypatch, game):
        # the verdict is taken once per spectrum, from the coupling product's
        # one decomposition: the dense test is never called
        shapes = {"companion_matrix": [], "is_diagonalizable": []}

        def counting(module, name):
            real = getattr(module, name)

            def wrapped(m, *args):
                shapes[name].append(np.shape(m))
                return real(m, *args)
            monkeypatch.setattr(module, name, wrapped)

        counting(dynamics, "companion_matrix")
        counting(verify, "is_diagonalizable")
        spec = spectral.CouplingSpectrum(game)
        assert spec.general_sum
        assert not (game.n == game.p and all(svd.rank == game.n for svd in spec.svds))
        for etas in (np.linspace(0.01, 1.0, 40), [0.01]):
            curve = spectral.rate_curve(spec, etas)
            assert (curve.violated[0] == "companion_diagonalizable") == (
                spec.diagonalizable is not Verdict.YES)
        assert shapes["companion_matrix"] == []
        assert shapes["is_diagonalizable"] == []

    def test_bound_constant_from_singular_values(self):
        # C from its definition, on mu = squared singular values of A:
        # the low-step constant at the largest mu with eta sqrt(mu) < 1/2,
        # the high-step one at the smallest mu with eta sqrt(mu) > 1/2
        def angle(ratio):
            return math.sqrt(2.0 / (1.0 - math.sqrt(ratio)))

        rng = np.random.default_rng(91)
        checked = 0
        for _ in range(8):
            game = BilinearGame.zero_sum_game(verify.random_matrix(rng, 4, 3))
            mus = np.linalg.svd(game.A, compute_uv=False) ** 2
            etas = np.linspace(0.05, 1.0 / math.sqrt(3.0 * mus.max()), 50, endpoint=False)
            curve = spectral.rate_curve(spectral.CouplingSpectrum(game), etas)
            for i, eta in enumerate(etas):
                if curve.eta_regime[i] not in (Regime.PART2, Regime.PART3A):
                    continue
                below = [mu * eta * eta for mu in mus if eta * math.sqrt(mu) < 0.5]
                above = [mu * eta * eta for mu in mus if eta * math.sqrt(mu) > 0.5]
                low = angle((1 + 5 * max(below)) / (2 + max(below))) if below else 0.0
                high = angle((2 + min(above)) / (1 + 5 * min(above))) if above else 0.0
                assert curve.C[i] == pytest.approx(max(low, high), rel=1e-9)
                checked += 1
        assert checked > 300

    @pytest.mark.parametrize("game, algo, calls", [
        (functools.partial(BilinearGame.zero_sum_game, np.diag([1.0, 2.0])), Algo.OGDA,
         {"svd_rank": 1, "eig": 0, "eigvals": 0}),
        (functools.partial(BilinearGame.zero_sum_game, np.diag([1.0, 2.0])), Algo.DOGDA,
         {"svd_rank": 1, "eig": 0, "eigvals": 0}),
        (functools.partial(spd_coupled_game, 5, 3), Algo.OGDA,
         {"svd_rank": 2, "eig": 1, "eigvals": 0})])
    def test_decomposes_once_for_many_steps(self, monkeypatch, game, algo, calls):
        # one SVD of A, which a zero-sum B = -A reuses; general-sum: one
        # LAPACK eigendecomposition of B^T A, whose values and eigenvectors
        # the verdict reads, and the SVDs of A and B for the rank test. The
        # game is built here, so no earlier test left it in the memo of the
        # last game analysed.
        game = game()
        counts = dict.fromkeys(calls, 0)

        def counting(module, name):
            real = getattr(module, name)

            def wrapped(m):
                counts[name] += 1
                return real(m)
            monkeypatch.setattr(module, name, wrapped)

        counting(linalg, "svd_rank")
        counting(np.linalg, "eig")
        counting(np.linalg, "eigvals")
        etas = np.linspace(0.01, 1.0, 400)
        curve = spectral.rate_curve(spectral.CouplingSpectrum(game, algo), etas)
        assert len(curve) == 400 and curve.applicable.any()
        assert counts == calls
        # a report on the same game object decomposes nothing again
        spectral.rate_report(game, 0.1, algo)
        assert counts == calls

    def test_rejects_non_positive_step(self):
        spec = spectral.CouplingSpectrum(PENNIES)
        with pytest.raises(ValueError):
            spectral.rate_curve(spec, [0.1, 0.0])
        with pytest.raises(ValueError):
            spectral.rate_report(PENNIES, -0.1)


class TestOptimalEta:
    def test_alpha_one_exact(self):
        eta, lam = spectral.optimal_eta(1.0, 1.0)
        assert eta == 0.5
        assert lam == math.sqrt(0.5)

    def test_quarter_alpha(self):
        eta, lam = spectral.optimal_eta(1.0, 4.0)
        assert eta * 2.0 == pytest.approx(0.5608, abs=2e-4)
        assert lam == pytest.approx(0.956, abs=5e-4)

    def test_monotone_toward_small_alpha(self):
        alphas = np.linspace(0.001, 1.0, 60)
        pairs = [spectral.optimal_eta(a, 1.0) for a in alphas]
        etas = [p[0] for p in pairs]
        lams = [p[1] for p in pairs]
        assert all(b <= a + 1e-12 for a, b in zip(etas, etas[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))
        assert etas[0] == pytest.approx(1 / math.sqrt(3), abs=1e-3)
        assert lams[0] == pytest.approx(1.0, abs=1e-2)

    def test_invalid_ratio(self):
        with pytest.raises(spectral.InvalidRatioError):
            spectral.optimal_eta(2.0, 1.0)
        with pytest.raises(spectral.InvalidRatioError):
            spectral.optimal_eta(0.0, 1.0)

    @pytest.mark.parametrize("mu_max", [math.inf, math.nan])
    def test_non_finite_mu_max(self, mu_max):
        with pytest.raises(spectral.InvalidRatioError):
            spectral.optimal_eta(1.0, mu_max)


class TestDiagonalizable:
    def test_identity(self):
        assert verify.is_diagonalizable(np.eye(4)) is Verdict.YES

    def test_empty_matrix(self):
        assert verify.is_diagonalizable(np.zeros((0, 0))) is Verdict.YES

    def test_close_clusters_are_borderline(self):
        # 1e-4 apart: past the cluster radius, inside ten times it
        assert verify.is_diagonalizable(np.diag([1.0, 1.0 + 1e-4])) is Verdict.BORDERLINE

    def test_generic_companion(self):
        lam = dynamics.companion_matrix(DIAG12, 0.1)
        assert verify.is_diagonalizable(lam) is Verdict.YES

    def test_defective_general_sum_example(self):
        a = np.ones((2, 2))
        b = np.array([[1.0, 1.0], [-1.0, -1.0]])
        lam = dynamics.companion_matrix(BilinearGame.from_matrices(a, b), 0.1)
        assert verify.is_diagonalizable(lam) is Verdict.NO

    def test_square_full_rank_jordan_coupling(self):
        # A and B are invertible, but B^T A = [[-1, 0], [2, -1]] is a Jordan
        # block: full rank alone does not make the companion diagonalizable
        game = BilinearGame.from_matrices([[1.0, -1.0], [1.0, 0.0]],
                                          [[0.0, 1.0], [-1.0, 1.0]])
        assert all(svd.rank == 2 for svd in spectral.CouplingSpectrum(game).svds)
        assert verify.is_diagonalizable(game.B.T @ game.A) is Verdict.NO
        assert verify.is_diagonalizable(dynamics.companion_matrix(game, 0.1)) is Verdict.NO
        report = spectral.rate_report(game, 0.1)
        assert report.eta_regime is Regime.INAPPLICABLE
        assert report.violated == "companion_diagonalizable"
        assert report.diagonalizable is Verdict.NO

    def test_needs_a_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            verify.is_diagonalizable(np.ones((2, 3)))

    def test_knife_edge_zero_sum(self):
        lam = dynamics.companion_matrix(PENNIES, 0.5)
        assert verify.is_diagonalizable(lam) is Verdict.NO

    def test_coupling_rule_matches_dense_oracle(self):
        # CouplingSpectrum.diagonalizable against the dense test of the
        # companion, wherever that test decides
        rng = np.random.default_rng(7)
        verdicts = set()
        for i in range(240):
            game = verify.random_coupling_game(rng, verify.COUPLING_KINDS[i % 4])
            eta = 0.45 / max(np.linalg.norm(game.A, 2), np.linalg.norm(game.B, 2))
            dense = verify.is_diagonalizable(dynamics.companion_matrix(game, eta))
            if dense is not Verdict.BORDERLINE:
                assert spectral.CouplingSpectrum(game).diagonalizable is dense, (i, game)
                verdicts.add(dense)
        assert verdicts == {Verdict.YES, Verdict.NO}

    def test_overflowing_scale_is_borderline(self):
        # a Jordan block whose Frobenius norm overflows leaves no cluster
        # radius to test with; an infinite one called it diagonalizable
        with np.errstate(over="ignore"):
            verdict = verify.is_diagonalizable([[1e300, 1e300], [0.0, 1e300]])
        assert verdict is Verdict.BORDERLINE

    def test_kernel_mismatch_is_defective(self):
        # B^T A = 0, so every mu is 0, yet Ker(A B^T) = R^2 is larger than
        # Ker(B^T): x_1 grows linearly
        game = BilinearGame.from_matrices(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert not (game.B.T @ game.A).any()
        report = spectral.rate_report(game, 0.1)
        assert report.diagonalizable is Verdict.NO
        assert report.violated == "companion_diagonalizable"
        lam = dynamics.companion_matrix(game, 0.1)
        assert verify.is_diagonalizable(lam) is Verdict.NO

    @pytest.mark.parametrize("eta", [0.1, 0.3])
    def test_jordan_block_under_similarity(self, eta):
        # B^T A = [[-3, 4, 1], [-1, 1, 1], [0, 0, -1]] is one size-3 Jordan
        # block at -1. Its computed eigenvalues lie about 2e-8 apart, so they
        # look simple, but its computed eigenvectors are nearly parallel
        game = BilinearGame.from_matrices([[0, 1, -1], [-1, 2, 0], [1, -1, 0]],
                                          [[-1, -1, 1], [2, 1, -1], [-1, 0, -1]])
        assert (game.B.T @ game.A).tolist() == [[-3, 4, 1], [-1, 1, 1], [0, 0, -1]]
        report = spectral.rate_report(game, eta)
        assert report.eta_regime is Regime.INAPPLICABLE
        assert report.violated == "companion_diagonalizable"
        assert report.diagonalizable in (Verdict.NO, Verdict.BORDERLINE)
        assert not verify.exact_diagonalizable(game.B.T @ game.A)

    @pytest.mark.parametrize("seed", [0, 1, 2, 4])
    def test_large_spd_coupling_is_diagonalizable(self, seed):
        # B = -A S, S SPD: B^T A = -S A^T A is similar to a symmetric matrix.
        # The eigenvector condition number is about 1.4; the dense test of the
        # product found clusters too close to separate at seeds 1 and 2 and
        # read Borderline (seed 3 is test_large_general_sum_curve_is_part2)
        game = verify.random_spd_coupled_game(np.random.default_rng(seed), 80, 48)
        assert spectral.CouplingSpectrum(game).diagonalizable is Verdict.YES

    def test_nilpotent_coupling(self):
        # B^T A is nilpotent and M = [[0, A], [B^T, 0]] one size-6 Jordan
        # block: the dense oracle reads the companion Borderline at eta 1/8
        # and Yes at 1/2, the exact test No at both
        game = BilinearGame.from_matrices([[-1, 1, -1], [0, 1, 1], [-1, -1, 0]],
                                          [[0, 0, -1], [0, 0, -1], [1, -1, 1]])
        assert spectral.CouplingSpectrum(game).diagonalizable is Verdict.NO
        for eta in (0.125, 0.5):
            assert not verify.exact_diagonalizable(dynamics.companion_matrix(game, eta))


class TestExactDiagonalizable:
    @pytest.mark.parametrize("m, expected", [
        ([[5]], True),
        (np.eye(3), True),
        (np.diag([-1.0, -1.0, -2.0]), True),
        ([[-1, 0], [2, -1]], False),           # a Jordan block
        ([[0, 1], [-1, 0]], True),             # eigenvalues +-i
        ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], False),
        ([[2, 1, 0], [0, 2, 0], [0, 0, 3]], False),
        ([[Fraction(1, 3), 1], [0, Fraction(1, 3)]], False),
        ([[0.5, 0.25], [0.0, -0.125]], True),  # floats convert exactly
        (np.zeros((2, 2)), True)])
    def test_small_matrices(self, m, expected):
        assert verify.exact_diagonalizable(m) is expected

    def test_invariant_under_similarity(self):
        # the one-block forms above, moved by unimodular similarities
        rng = np.random.default_rng(5)
        for jordan, expected in ((np.diag([-2.0, -2.0, -1.0]), True),
                                 (np.array([[-2.0, 1, 0], [0, -2, 0], [0, 0, -1]]), False),
                                 (np.array([[-1.0, 1, 0], [0, -1, 1], [0, 0, -1]]), False)):
            for _ in range(5):
                s, s_inv = verify._unimodular(rng, 3)
                assert np.array_equal(s @ s_inv, np.eye(3))
                assert verify.exact_diagonalizable(s @ jordan @ s_inv) is expected

    def test_companion_charpoly_from_coupling_charpoly(self):
        # det(l I - companion) = (l^2 - l)^|n-p| det(l^2 (l-1)^2 I - eta^2 (2l-1)^2 P)
        # over the rationals, P the smaller coupling product with
        # det(x I - P) = sum_j c_j x^(k-j): the root map of lambda_spectrum,
        # multiplicities included; eta = 1/8 keeps the companion exact in floats
        def mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        def power(a, k):
            return functools.reduce(mul, [a] * k, [1])

        eta_sq = Fraction(1, 64)
        quartic, step = [1, -2, 1, 0, 0], [4 * eta_sq, -4 * eta_sq, eta_sq]
        rng = np.random.default_rng(8)
        shapes = []
        for i in range(5):
            game = verify.random_integer_game(rng, verify.EXACT_KINDS[i % 3])
            coeffs = verify._charpoly(verify._rational(spectral._coupling_product(game)))
            k = len(coeffs) - 1
            expected = [0] * (4 * k + 1)
            for j, c in enumerate(coeffs):
                term = mul(power(quartic, k - j), power(step, j))
                expected = [x + c * y for x, y in zip(expected, [0] * (2 * j) + term)]
            expected = mul(power([1, -1, 0], abs(game.n - game.p)), expected)
            companion = dynamics.companion_matrix(game, 0.125)
            assert verify._charpoly(verify._rational(companion)) == expected
            shapes.append((game.n, game.p))
        assert any(n != p for n, p in shapes), shapes

    def test_integer_games_are_drawn_of_each_kind(self):
        rng = np.random.default_rng(9)
        for kind in verify.EXACT_KINDS:
            for _ in range(10):
                game = verify.random_integer_game(rng, kind)
                assert np.array_equal(game.A, np.round(game.A))
                assert np.array_equal(game.B, np.round(game.B))
                assert max(game.n, game.p) <= 3
                if kind != "rank_deficient":
                    product = game.B.T @ game.A
                    assert verify.exact_diagonalizable(product) is (kind == "diagonal")
                    assert set(np.round(np.linalg.eigvals(product).real)) <= {-1.0, -2.0, -3.0}
