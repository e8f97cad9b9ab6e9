import dataclasses
import math

import numpy as np
import pytest

from saddle_lab import dynamics, games, linalg, predict, spectral, verify
from saddle_lab.dynamics import Algo, IterateState, StopReason
from saddle_lab.games import BilinearGame
from saddle_lab.predict import Geometry

PENNIES = BilinearGame.zero_sum_game([[1.0]])


def wgan_game():
    return BilinearGame.zero_sum_game(-np.eye(2), b=[3.0, 4.0])


def doubled_start(init):
    """The state on games.doubled that a DOGDA run from `init` starts in:
    each aux copy at the played one, previous pairs alike."""
    return IterateState.of(np.concatenate([np.tile(v, 2) for v in (
        init.x, init.y, init.x_prev, init.y_prev)]), 2 * init.n)


class TestPredictLimit:
    def test_unit_coupling_limits_at_origin(self):
        pred = predict.predict_limit(PENNIES, Algo.OGDA, 0.3,
                                     IterateState.at([2.5], [-1.0]))
        assert pred.valid and pred.geometry is Geometry.ORTHOGONAL_ONTO_KERNELS
        assert np.allclose(pred.x_inf, 0.0) and np.allclose(pred.y_inf, 0.0)

    def test_invalid_prediction_has_no_pair(self):
        pred = predict.predict_limit(PENNIES, Algo.GDA, 0.3, IterateState.at([1.0], [1.0]))
        assert not pred.valid
        with pytest.raises(ValueError, match="prediction invalid: GDA has no characterized"):
            pred.pair()

    def test_mean_fitting_limits(self):
        g = wgan_game()
        for x0 in ([0.0, 0.0], [5.0, -3.0]):
            pred = predict.predict_limit(g, Algo.OGDA, 0.3,
                                         IterateState.at(x0, [1.0, 1.0]))
            assert pred.valid
            assert np.allclose(pred.x_inf, [0.0, 0.0])
            assert np.allclose(pred.y_inf, [3.0, 4.0])

    def test_oblique_example(self):
        # rank-one coupling pair: y-limit slides along the span of (2, 1)
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        b = np.array([[-2.0, -1.0], [0.0, 0.0]])
        g = BilinearGame.from_matrices(a, b)
        y0 = np.array([1.7, -0.6])
        pred = predict.predict_limit(g, Algo.OGDA, 0.1,
                                     IterateState.at([1.0, 1.0], y0))
        assert pred.valid and pred.geometry is Geometry.OBLIQUE_ALONG_IMAGES
        # decompose y0 = alpha*(0,1) + beta*(2,1); keep the vertical part
        beta = y0[0] / 2.0
        assert np.allclose(pred.y_inf, [0.0, y0[1] - beta])
        traj = dynamics.run(g, Algo.OGDA, 0.1, IterateState.at([1.0, 1.0], y0),
                            max_steps=20000)
        assert traj.stop_reason is StopReason.CONVERGED
        assert np.allclose(traj.final.y, pred.y_inf, atol=1e-9)

    def test_accelerated_limit_is_orthogonal(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 2))
        acc = games.accelerate(BilinearGame.zero_sum_game(a))
        init = IterateState.at(rng.normal(size=3), rng.normal(size=2))
        pred = predict.predict_limit(acc, Algo.OGDA, 0.45, init)
        assert pred.valid
        ker = linalg.kernel_basis(acc.B.T)
        assert np.allclose(pred.x_inf, linalg.project(init.x, ker), atol=1e-10)

    def test_dogda_prediction(self):
        g = BilinearGame.from_matrices([[1.0]], [[1.0]])
        init = IterateState([1.0], [1.0], [0.0], [0.0])
        pred = predict.predict_limit(g, Algo.DOGDA, 0.2, init)
        assert pred.valid and pred.geometry is Geometry.DOGDA_ORTHOGONAL
        assert np.allclose(pred.x_inf, 0.0) and np.allclose(pred.y_inf, 0.0)

    def test_dogda_aux_constraints_infeasible(self):
        # B z + e = 0 has no solution, while the Nash constraints do
        g = BilinearGame(A=np.eye(2), B=np.diag([1.0, 0.0]), b=np.zeros(2), c=np.zeros(2),
                         e=np.array([0.0, 1.0]), f=np.zeros(2), d=0.0, g=0.0)
        init = IterateState.at([1.0, 1.0], [1.0, 1.0])
        pred = predict.predict_limit(g, Algo.DOGDA, 0.1, init)
        assert not pred.valid and pred.geometry is Geometry.DOGDA_ORTHOGONAL
        assert pred.reason == "aux_constraint_infeasible_for_player2_payoff"
        # A^T w + c = 0 has no solution
        g = BilinearGame(A=np.diag([1.0, 0.0]), B=np.eye(2), b=np.zeros(2),
                         c=np.array([0.0, 1.0]), e=np.zeros(2), f=np.zeros(2), d=0.0, g=0.0)
        pred = predict.predict_limit(g, Algo.DOGDA, 0.1, init)
        assert pred.reason == "aux_constraint_infeasible_for_player1_payoff"

    def test_dogda_divergence_matches_per_matrix_rule(self):
        def per_matrix_rule(game, eta):
            for m in (game.A, game.B):
                top = float(np.linalg.norm(m, 2)) ** 2
                if top > 0 and eta >= 1.0 / math.sqrt(3.0 * top):
                    return True
            return False

        # only B crosses the threshold: |A|^2 = 1/4, |B|^2 = 4
        g = BilinearGame.from_matrices([[0.5]], [[2.0]])
        init = IterateState.at([1.0], [1.0])
        pred = predict.predict_limit(g, Algo.DOGDA, 0.3, init)
        assert pred.reason == "eta_in_divergent_regime"
        assert per_matrix_rule(g, 0.3) and 0.3 * 0.5 < 1.0 / math.sqrt(3.0)
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = BilinearGame.from_matrices(rng.normal(size=(3, 3)),
                                           3.0 * rng.normal(size=(3, 3)))
            top = max(np.linalg.norm(g.A, 2), np.linalg.norm(g.B, 2))
            for k in (0.2, 0.5, 0.57, 0.58, 0.9, 2.0):
                eta = k / top
                pred = predict.predict_limit(g, Algo.DOGDA, eta, IterateState.at(
                    rng.normal(size=3), rng.normal(size=3)))
                assert (pred.reason == "eta_in_divergent_regime") == per_matrix_rule(g, eta)
                assert pred.valid != per_matrix_rule(g, eta)

    def test_dogda_zero_coupling_valid_at_any_step(self):
        g = BilinearGame.from_matrices(np.zeros((2, 3)), np.zeros((2, 3)))
        init = IterateState.at([1.0, -2.0], [0.5, 3.0, -1.0])
        for eta in (0.1, 10.0, 1e6):
            pred = predict.predict_limit(g, Algo.DOGDA, eta, init)
            assert pred.valid
            assert np.array_equal(pred.x_inf, init.x) and np.array_equal(pred.y_inf, init.y)

    def test_orthogonal_path_evaluates_no_rate_curve(self, monkeypatch):
        curves = []
        init_curve = spectral.RateCurve.__init__

        def counted(self, *args):
            curves.append(args)
            init_curve(self, *args)

        monkeypatch.setattr(spectral.RateCurve, "__init__", counted)
        init = IterateState.at([1.0, 1.0], [1.0, 1.0])
        for algo in (Algo.OGDA, Algo.DOGDA):
            for eta in (0.3, 0.7):
                predict.predict_limit(wgan_game(), algo, eta, init)
        assert curves == []

    def test_gda_invalid(self):
        pred = predict.predict_limit(PENNIES, Algo.GDA, 0.1,
                                     IterateState.at([1.0], [1.0]))
        assert not pred.valid

    def test_empty_nash_invalid(self):
        g = BilinearGame.zero_sum_game([[0.0]], b=[1.0])
        pred = predict.predict_limit(g, Algo.OGDA, 0.1,
                                     IterateState.at([1.0], [1.0]))
        assert not pred.valid and pred.reason == "nash_set_empty"

    def test_empty_general_sum_nash_invalid(self):
        # A y + b = 0 asks 0 = 1 of the second row
        g = BilinearGame(np.diag([1.0, 0.0]), np.diag([-2.0, 0.0]), [0.0, 1.0],
                         np.zeros(2), np.zeros(2), np.zeros(2))
        assert spectral.rate_report(g, 0.1).eta_regime is spectral.Regime.PART2
        pred = predict.predict_limit(g, Algo.OGDA, 0.1, IterateState.at([1.0, 1.0], [1.0, 1.0]))
        assert not pred.valid and pred.reason == "nash_set_empty"
        assert pred.geometry is Geometry.OBLIQUE_ALONG_IMAGES

    def test_defective_example_invalid_with_reason(self):
        a = np.ones((2, 2))
        b = np.array([[1.0, 1.0], [-1.0, -1.0]])
        g = BilinearGame.from_matrices(a, b)
        pred = predict.predict_limit(g, Algo.OGDA, 0.1,
                                     IterateState.at([1.0, 0.0], [1.0, 0.0]))
        assert not pred.valid
        assert "diagonalizable" in pred.reason

    def test_divergent_regime_invalid(self):
        pred = predict.predict_limit(PENNIES, Algo.OGDA, 0.6,
                                     IterateState.at([1.0], [1.0]))
        assert not pred.valid

    def test_prediction_is_fixed_point(self):
        rng = np.random.default_rng(1)
        g = verify.random_zero_sum_game(rng)
        init = IterateState.at(rng.normal(size=g.n), rng.normal(size=g.p))
        pred = predict.predict_limit(g, Algo.OGDA, 0.05, init)
        assert pred.valid
        s = IterateState.at(pred.x_inf, pred.y_inf)
        stepped = dynamics.run(g, Algo.OGDA, 0.05, s, max_steps=1).final
        assert np.linalg.norm(stepped.stacked() - s.stacked()) < 1e-10

    @pytest.mark.parametrize("algo, make, valid", [
        (Algo.OGDA, lambda rng: verify.random_zero_sum_game(rng), 4),
        (Algo.DOGDA, lambda rng: verify.random_spd_coupled_game(rng, 3, 2), 4),
        (Algo.GDA, lambda rng: verify.random_zero_sum_game(rng), 0),
        (Algo.OGDA, lambda rng: verify.random_spd_coupled_game(rng, 3, 2), 4)],
        ids=["zero-sum", "dogda", "gda", "general-sum"])
    def test_limits_equal_one_limit_per_step(self, algo, make, valid):
        # step sizes on both sides of the divergence threshold: the valid
        # ones share one projection
        rng = np.random.default_rng(6)
        game = make(rng)
        init = IterateState(*(rng.normal(size=k) for k in (game.n, game.p, game.n, game.p)))
        spec = spectral.CouplingSpectrum(game, algo)
        scale = spectral.CouplingSpectrum(game, Algo.OGDA if algo is Algo.GDA else algo).mu_max
        etas = [s / math.sqrt(scale) for s in (0.1, 0.3, 0.55, 0.7, 0.2)]
        preds = predict.limits(spec, spectral.rate_curve(spec, etas), init)
        for eta, pred in zip(etas, preds):
            alone = spectral.CouplingSpectrum(dataclasses.replace(game), algo)
            one = predict.limit(alone, spectral.rate_curve(alone, [eta])[0], init)
            assert pred.to_json() == one.to_json()
        shared = [pred for pred in preds if pred.valid]
        assert len(shared) == valid and all(pred is shared[0] for pred in shared)


class TestDistance:
    def test_zero_at_embedded_nash(self):
        d = predict.distance_to_nash(PENNIES, IterateState.at([0.0], [0.0]))
        assert d.value == 0.0

    def test_unit_coupling_from_ones(self):
        d = predict.distance_to_nash(PENNIES, IterateState([1.0], [1.0],
                                                           [1.0], [1.0]))
        assert d.value == pytest.approx(2.0)

    def test_lower_bounds_sampled_nash_points(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 4))
        a[:, 3] = 0.0
        y_star, x_star = np.zeros(4), rng.normal(size=3)
        g = BilinearGame.zero_sum_game(a, b=-a @ y_star, c=-a.T @ x_star)
        init = IterateState(rng.normal(size=3), rng.normal(size=4),
                            rng.normal(size=3), rng.normal(size=4))
        d = predict.distance_to_nash(g, init)
        ns = games.nash_set(g)
        for _ in range(100):
            x_n = ns.x_star + ns.x_part.directions @ rng.normal(
                size=ns.x_part.directions.shape[1])
            y_n = ns.y_star + ns.y_part.directions @ rng.normal(
                size=ns.y_part.directions.shape[1])
            z_n = np.concatenate([x_n, y_n, x_n, y_n])
            assert d.value <= np.linalg.norm(init.stacked() - z_n) + 1e-12

    def test_empty_nash_raises(self):
        g = BilinearGame.zero_sum_game([[0.0]], b=[1.0])
        with pytest.raises(predict.EmptyNashSetError):
            predict.distance_to_nash(g, IterateState.at([1.0], [1.0]))

    def test_dogda_distance_is_the_doubled_one(self):
        # from the spectrum, DOGDA's distance is the doubled state's to the
        # doubled game's Nash set; every other algo's is the game's own
        rng = np.random.default_rng(4)
        for _ in range(30):
            n, p = (int(k) for k in rng.integers(1, 4, size=2))
            a = verify.random_matrix(rng, n, p, int(rng.integers(0, min(n, p) + 1)))
            b = verify.random_matrix(rng, n, p, int(rng.integers(0, min(n, p) + 1)))
            # each right-hand side in its image, so every constraint is solvable
            g = BilinearGame(a, b, a @ rng.normal(size=p), a.T @ rng.normal(size=n),
                             b @ rng.normal(size=p), b.T @ rng.normal(size=n))
            init = IterateState.of(rng.normal(size=2 * (n + p)), n)
            doubled = predict.distance_to_nash(games.doubled(g), doubled_start(init)).value
            d = predict.distance(spectral.CouplingSpectrum(g, Algo.DOGDA), init).value
            assert d == pytest.approx(doubled, rel=1e-12, abs=1e-14)
            for algo in (Algo.OGDA, Algo.GDA):
                spec = spectral.CouplingSpectrum(g, algo)
                assert predict.distance(spec, init) == predict.distance_to_nash(g, init)


class TestWitnesses:
    def fit(self, game, eta, witness, steps=2000):
        traj = dynamics.run(game, Algo.OGDA, eta, witness, max_steps=steps)
        pred = predict.predict_limit(game, Algo.OGDA, eta, witness)
        return verify.estimate_rate(traj, pred).fitted_ratio

    def test_unit_coupling_rate(self):
        w = predict.tight_witness(PENNIES, 0.3)
        assert self.fit(PENNIES, 0.3, w, steps=500) == pytest.approx(
            3 / math.sqrt(10), rel=5e-3)

    def test_two_scale_witness_tracks_slow_branch(self):
        g = BilinearGame.zero_sum_game(np.diag([1.0, 2.0]))
        w = predict.tight_witness(g, 0.2)
        target = math.sqrt(0.5 * (1 + math.sqrt(1 - 0.16)))
        assert self.fit(g, 0.2, w) == pytest.approx(target, rel=5e-3)

    def test_orthogonal_coupling_rate(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        g = BilinearGame.zero_sum_game(q)
        w = predict.tight_witness(g, 0.4)
        target = math.sqrt(0.5 * (1 + math.sqrt(1 - 4 * 0.16)))
        assert self.fit(g, 0.4, w) == pytest.approx(target, rel=5e-3)

    def test_fast_branch_witness(self):
        # eta large enough that the increasing branch dominates
        rep = spectral.rate_report(PENNIES, 0.55)
        assert rep.lambda_dstar > rep.lambda_star
        w = predict.tight_witness(PENNIES, 0.55)
        assert self.fit(PENNIES, 0.55, w, steps=1000) == pytest.approx(
            rep.lambda_max, rel=5e-3)

    def test_zero_sum_coupling_has_a_witness_and_a_limit(self):
        """Only B = -A decides: f = 1 with c = 0 is the dynamics of the
        zero-sum game with c = -1, whose limit is (1, 0)."""
        game = BilinearGame([[1.0]], [[-1.0]], [0.0], [0.0], [0.0], [1.0])
        init = IterateState.at(np.zeros(1), np.zeros(1))
        pred = predict.predict_limit(game, Algo.OGDA, 0.55, init)
        assert pred.valid and pred.geometry is Geometry.ORTHOGONAL_ONTO_KERNELS
        assert np.allclose(np.concatenate(pred.pair()), [1.0, 0.0], atol=1e-12)
        traj = dynamics.run(game, Algo.OGDA, 0.55, init, max_steps=3000)
        assert traj.stop_reason is StopReason.CONVERGED
        assert np.allclose(traj.states[-1, :2], [1.0, 0.0], atol=1e-6)
        w = predict.tight_witness(game, 0.55)
        rep = spectral.rate_report(game, 0.55)
        assert self.fit(game, 0.55, w, steps=1000) == pytest.approx(rep.lambda_max, rel=5e-3)

    def test_general_sum_has_no_witness(self):
        g = BilinearGame.from_matrices([[1.0]], [[-2.0]])
        with pytest.raises(ValueError, match="a witness needs a zero-sum game"):
            predict.tight_witness(g, 0.1)

    def test_zero_matrix_rejected(self):
        g = BilinearGame.zero_sum_game(np.zeros((2, 2)))
        with pytest.raises(predict.ZeroMatrixError):
            predict.tight_witness(g, 0.3)

    def test_divergent_regime_rejected(self):
        with pytest.raises(predict.DivergentRegimeError):
            predict.tight_witness(PENNIES, 0.6)

    def test_divergence_witness_blows_up(self):
        w = predict.divergence_witness(PENNIES, 0.6)
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.6, w, max_steps=10000,
                            blow_cap=1e6)
        assert traj.stop_reason is StopReason.DIVERGED

    def test_tight_witness_decomposes_once(self, monkeypatch):
        calls = []
        svd_rank = linalg.svd_rank

        def counted(a):
            calls.append(np.shape(a))
            return svd_rank(a)

        monkeypatch.setattr(linalg, "svd_rank", counted)
        g = BilinearGame.zero_sum_game(np.diag([1.0, 2.0]))
        predict.tight_witness(g, 0.2)
        assert calls == [(2, 2)]  # one SVD of A gives A^T A and A A^T

    @staticmethod
    def count_decompositions(monkeypatch, algo):
        """A 4x4 game for `algo` (zero-sum for OGDA, general-sum for DOGDA),
        a start, and the list every np.linalg.svd and eigh call appends its
        name to."""
        rng = np.random.default_rng(5)
        a = verify.random_matrix(rng, 4, 4)
        game = (BilinearGame.zero_sum_game(a) if algo is Algo.OGDA
                else BilinearGame.from_matrices(a, -verify.random_matrix(rng, 4, 4)))
        calls = []

        def counting(name):
            real = getattr(np.linalg, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        for name in ("svd", "eigh"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        return game, IterateState.at(np.ones(4), np.ones(4)), calls

    @pytest.mark.parametrize("algo, decompositions", [(Algo.OGDA, 1), (Algo.DOGDA, 2)])
    def test_analysis_op_decompositions(self, monkeypatch, algo, decompositions):
        # one SVD per matrix of the game for all the public functions:
        # rate_report, predict_limit, distance_to_nash and tight_witness read
        # them from the memo of the last game analysed; a zero-sum B = -A
        # reuses the SVD of A
        game, init, calls = self.count_decompositions(monkeypatch, algo)
        spectral.rate_report(game, 0.1, algo)
        assert predict.predict_limit(game, algo, 0.1, init).valid
        predict.distance_to_nash(game, init)
        if algo is Algo.OGDA:
            predict.tight_witness(game, 0.1)
        assert calls == ["svd"] * decompositions

    @pytest.mark.parametrize("algo, decompositions", [(Algo.OGDA, 1), (Algo.DOGDA, 2)])
    def test_shared_analysis_decompositions(self, monkeypatch, algo, decompositions):
        # the spectrum's SVDs of A and of the general-sum B: its Nash set, the
        # DOGDA aux solves, the report, limit, distance and witness add none
        game, init, calls = self.count_decompositions(monkeypatch, algo)
        spec = spectral.CouplingSpectrum(game, algo)
        report = spectral.rate_curve(spec, [0.1])[0]
        pred = predict.limit(spec, report, init)
        dist = predict.distance(spec, init)
        w = predict.witness(spec, report) if algo is Algo.OGDA else None
        assert pred.valid and calls == ["svd"] * decompositions
        # the same results as the public functions
        public = predict.predict_limit(game, algo, 0.1, init)
        assert np.array_equal(pred.x_inf, public.x_inf)
        assert np.array_equal(pred.y_inf, public.y_inf)
        if algo is Algo.DOGDA:  # the doubled state's distance
            assert dist.value == pytest.approx(predict.distance_to_nash(
                games.doubled(game), doubled_start(init)).value, rel=1e-12)
        else:
            assert dist == predict.distance_to_nash(game, init)
        if w is not None:
            assert np.array_equal(w.z, predict.tight_witness(game, 0.1).z)

    def test_general_sum_spectrum_decomposes_each_matrix_once(self, monkeypatch):
        # the rank facts and the Nash set of a square general-sum game read
        # one SVD of A and one of B
        game, _, calls = self.count_decompositions(monkeypatch, Algo.DOGDA)
        spec = spectral.CouplingSpectrum(game)
        assert spec.general_sum and game.n == game.p
        assert all(svd.rank == game.n for svd in spec.svds)
        assert spec.nash.nonempty and spec.aux.nonempty
        assert calls == ["svd"] * 2

    def test_divergence_witness_at_the_threshold(self):
        # eta sqrt(mu_max) = 1/sqrt(3) is divergent, but its dominant root
        # has modulus 1: there is no expanding direction to align with
        eta = 1.0 / math.sqrt(3.0)
        assert predict.predict_limit(PENNIES, Algo.OGDA, eta,
                                     IterateState.at([1.0], [1.0])).reason == (
            "eta_in_divergent_regime")
        assert abs(spectral.rate_root(eta, 1.0)) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError, match="inside the convergence range"):
            predict.divergence_witness(PENNIES, eta)
        w = predict.divergence_witness(PENNIES, math.nextafter(eta, 1.0))
        assert np.linalg.norm(w.stacked()) == pytest.approx(1.0)

    def test_divergence_witness_needs_large_eta(self):
        with pytest.raises(ValueError):
            predict.divergence_witness(PENNIES, 0.3)


# the four game kinds of the analysis scan benchmark
ANALYSIS_KINDS = {
    "zero-sum": verify.random_zero_sum_game,
    "scaled": lambda rng, n, p: games.scale_opponent(verify.random_zero_sum_game(rng, n, p), 1.5),
    "accelerated": lambda rng, n, p: games.accelerate(verify.random_zero_sum_game(rng, n, p)),
    "spd": verify.random_spd_coupled_game,
}


def analysis_op(game, eta, init):
    """The public calls of one analysis of `game`, each result as arrays."""
    report = spectral.rate_report(game, eta)
    spectrum = spectral.lambda_spectrum(game, eta)
    pred = predict.predict_limit(game, Algo.OGDA, eta, init)
    out = {"report": report.to_json(), "spectrum": (spectrum.values, spectrum.multiplicities),
           "limit": (pred.x_inf, pred.y_inf)}
    assert pred.valid and report.applicable
    out["distance"] = (np.array(predict.distance_to_nash(game, init).value),)
    if game.zero_sum:
        out["witness"] = (predict.tight_witness(game, eta).z,)
    return out


class TestMemo:
    @pytest.mark.parametrize("kind", sorted(ANALYSIS_KINDS))
    @pytest.mark.parametrize("n, p", [(4, 4), (5, 3)])
    def test_warm_equals_cold(self, monkeypatch, kind, n, p):
        rng = np.random.default_rng(21)
        game = ANALYSIS_KINDS[kind](rng, n, p)
        init = IterateState(*(rng.uniform(-1.0, 1.0, k) for k in (n, p, n, p)))
        mu_max = float(np.max(np.abs(np.linalg.eigvals(game.B.T @ game.A))))
        eta = 0.2 / math.sqrt(mu_max)
        analysis_op(game, eta, init)
        counts = {"svd_rank": 0, "eig_complex": 0}
        for name in counts:
            def counted(m, _real=getattr(linalg, name), _name=name):
                counts[_name] += 1
                return _real(m)
            monkeypatch.setattr(linalg, name, counted)
        warm = analysis_op(game, eta, init)
        assert counts == {"svd_rank": 0, "eig_complex": 0}
        cold = analysis_op(dataclasses.replace(game), eta, init)
        assert counts["svd_rank"] > 0
        assert warm.keys() == cold.keys() and warm["report"] == cold["report"]
        for key in warm.keys() - {"report"}:
            assert all(np.array_equal(w, c) for w, c in zip(warm[key], cold[key], strict=True))
