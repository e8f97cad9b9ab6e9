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


class TestPredictLimit:
    def test_unit_coupling_limits_at_origin(self):
        pred = predict.predict_limit(PENNIES, Algo.OGDA, 0.3,
                                     IterateState.at([2.5], [-1.0]))
        assert pred.valid and pred.geometry is Geometry.ORTHOGONAL_ONTO_KERNELS
        assert np.allclose(pred.x_inf, 0.0) and np.allclose(pred.y_inf, 0.0)

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

    def test_gda_invalid(self):
        pred = predict.predict_limit(PENNIES, Algo.GDA, 0.1,
                                     IterateState.at([1.0], [1.0]))
        assert not pred.valid

    def test_empty_nash_invalid(self):
        g = BilinearGame.zero_sum_game([[0.0]], b=[1.0])
        pred = predict.predict_limit(g, Algo.OGDA, 0.1,
                                     IterateState.at([1.0], [1.0]))
        assert not pred.valid and pred.reason == "nash_set_empty"

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
            x_n = ns.x_star + ns.x_part.directions.vectors @ rng.normal(
                size=ns.x_part.directions.dim)
            y_n = ns.y_star + ns.y_part.directions.vectors @ rng.normal(
                size=ns.y_part.directions.dim)
            z_n = np.concatenate([x_n, y_n, x_n, y_n])
            assert d.value <= np.linalg.norm(init.stacked() - z_n) + 1e-12

    def test_empty_nash_raises(self):
        g = BilinearGame.zero_sum_game([[0.0]], b=[1.0])
        with pytest.raises(predict.EmptyNashSetError):
            predict.distance_to_nash(g, IterateState.at([1.0], [1.0]))


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

    def test_divergence_witness_needs_large_eta(self):
        with pytest.raises(ValueError):
            predict.divergence_witness(PENNIES, 0.3)
