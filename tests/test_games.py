import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from saddle_lab import games, linalg, spectral
from saddle_lab.games import BilinearGame


def test_payoff_examples():
    g = BilinearGame.zero_sum_game([[1.0]])
    assert games.payoffs(g, [1.0], [1.0]) == (1.0, -1.0)

    g2 = BilinearGame([[2.0]], [[3.0]], [0.5], [0.5], [0.5], [0.5], d=7.0, g=-2.0)
    assert games.payoffs(g2, [0.0], [0.0]) == (7.0, -2.0)

    g3 = BilinearGame.from_matrices([[1.0]], [[1.0]])
    assert games.payoffs(g3, [2.0], [2.0]) == (4.0, 4.0)


def test_payoff_dimension_mismatch():
    g = BilinearGame.zero_sum_game([[1.0]])
    with pytest.raises(games.DimensionMismatchError):
        games.payoffs(g, [1.0, 2.0], [1.0])


@pytest.mark.parametrize("x, y", [
    ([[1.0], [np.inf], [2.0]], [[1.0], [1.0], [1.0]]),   # one non-finite row
    ([[1.0], [2.0]], [[1.0], [1.0], [1.0]]),              # row counts differ
    ([[1.0, 2.0]], [[1.0]]),                              # wrong width
    ([[1.0]], [1.0])])                                    # stacked x, point y
def test_stacked_payoff_dimension_mismatch(x, y):
    g = BilinearGame.zero_sum_game([[1.0]])
    with pytest.raises(games.DimensionMismatchError):
        games.payoffs(g, x, y)


def payoff_scales(g, x, y):
    """Sums of the absolute terms of g1 and g2 at (x, y): what rounding scales with."""
    ax, ay = np.abs(x), np.abs(y)
    s1 = ax @ np.abs(g.A) @ ay + np.abs(g.b) @ ax + np.abs(g.c) @ ay + abs(g.d)
    s2 = ax @ np.abs(g.B) @ ay + np.abs(g.e) @ ax + np.abs(g.f) @ ay + abs(g.g)
    return max(1.0, s1), max(1.0, s2)


def test_stacked_payoffs_match_points():
    rng = np.random.default_rng(3)
    n, p, k = 3, 5, 40
    g = BilinearGame(rng.normal(size=(n, p)), rng.normal(size=(n, p)),
                     rng.normal(size=n), rng.normal(size=p), rng.normal(size=n),
                     rng.normal(size=p), d=rng.normal(), g=rng.normal())
    mags = 10.0 ** rng.uniform(-3, 6, size=(k, 1))
    xs, ys = rng.normal(size=(k, n)) * mags, rng.normal(size=(k, p)) * mags
    g1, g2 = games.payoffs(g, xs, ys)
    assert g1.shape == g2.shape == (k,)
    for i in range(k):
        p1, p2 = games.payoffs(g, xs[i], ys[i])
        assert type(p1) is float and type(p2) is float
        s1, s2 = payoff_scales(g, xs[i], ys[i])
        assert abs(g1[i] - p1) <= 1e-14 * s1
        assert abs(g2[i] - p2) <= 1e-14 * s2


def test_zero_sum_payoffs_cancel():
    rng = np.random.default_rng(5)
    g = BilinearGame.zero_sum_game(rng.normal(size=(3, 2)),
                                   b=rng.normal(size=3), c=rng.normal(size=2),
                                   d=rng.normal())
    for _ in range(20):
        g1, g2 = games.payoffs(g, rng.normal(size=3), rng.normal(size=2))
        assert g1 + g2 == 0.0


class TestNashSet:
    def test_matching_pennies_origin(self):
        ns = games.nash_set(BilinearGame.zero_sum_game([[1.0]]))
        assert ns.nonempty
        assert np.allclose(ns.x_star, [0.0]) and np.allclose(ns.y_star, [0.0])
        assert ns.x_part.directions.shape[1] == 0

    def test_mean_fitting_equilibrium(self):
        # identity coupling with target shift (3, 4): generator must hit the mean
        v = np.array([3.0, 4.0])
        g = BilinearGame.zero_sum_game(-np.eye(2), b=v)
        ns = games.nash_set(g)
        assert ns.nonempty
        assert np.allclose(ns.y_star, v)
        assert np.allclose(ns.x_star, [0.0, 0.0])

    def test_infeasible_shift_is_empty(self):
        ns = games.nash_set(BilinearGame.zero_sum_game([[0.0]], b=[1.0]))
        assert not ns.nonempty

    def test_residual_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            y_star = rng.normal(size=3)
            x_star = rng.normal(size=3)
            g = BilinearGame.zero_sum_game(a, b=-a @ y_star, c=-a.T @ x_star)
            ns = games.nash_set(g)
            assert ns.nonempty
            rx, ry = ns.residuals(g)
            assert rx < 1e-10 and ry < 1e-10


class TestMemo:
    """The memo of the last game analysed (games.memo)."""

    def test_game_is_frozen(self):
        g = BilinearGame.zero_sum_game([[1.0, 2.0]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.A = np.zeros((1, 2))
        assert np.array_equal(g.A, [[1.0, 2.0]])

    def test_nash_set_arrays_are_read_only(self):
        g = BilinearGame.zero_sum_game(np.diag([1.0, 0.0]), b=[1.0, 0.0], c=[2.0, 0.0])
        ns = games.nash_set(g)
        x_star = ns.x_star.copy()
        with pytest.raises(ValueError):
            ns.x_star[0] = 7.0
        assert np.array_equal(games.nash_set(g).x_star, x_star)
        arrays = [part.point for part in (ns.x_part, ns.y_part)]
        arrays += [part.directions for part in (ns.x_part, ns.y_part)]
        arrays += [part.image for part in (ns.x_part, ns.y_part)]
        arrays += [factor for svd in games.coupling_svds(g) for factor in svd[:3]]
        eig = spectral._coupling_eigenvalues(g)
        arrays += [eig.values, eig.multiplicities, spectral.CouplingSpectrum.of(g).positives]
        assert not any(arr.flags.writeable for arr in arrays)

    def test_holds_one_game(self):
        first = BilinearGame.zero_sum_game(np.diag([1.0, 2.0]))
        spectral.rate_report(first, 0.1)
        gone = weakref.ref(first)
        del first
        gc.collect()
        assert gone() is not None  # the memo holds the last game analysed
        second = BilinearGame.zero_sum_game(np.diag([3.0, 4.0]))
        games.nash_set(second)
        gc.collect()
        assert gone() is None

    def test_keyed_by_identity_not_equality(self):
        a = np.diag([1.0, 2.0])
        first, second = BilinearGame.zero_sum_game(a), BilinearGame.zero_sum_game(a)
        assert games.nash_set(first) is games.nash_set(first)
        assert games.nash_set(second) is not games.nash_set(first)


class TestAccelerate:
    def test_diagonal(self):
        g = games.accelerate(BilinearGame.zero_sum_game(np.diag([1.0, 2.0])))
        assert np.allclose(g.B, np.diag([-1.0, -0.5]))

    def test_tall(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        g = games.accelerate(BilinearGame.zero_sum_game(a))
        assert np.allclose(g.B, [[-1.0, 0.0], [0.0, -0.5], [0.0, 0.0]])

    def test_orthogonal_matrix_gives_minus_a(self):
        q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 3)))
        g = games.accelerate(BilinearGame.zero_sum_game(q))
        assert np.allclose(g.B, -q, atol=1e-12)

    def test_spectrum_collapses(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            g = games.accelerate(BilinearGame.zero_sum_game(a))
            spec = linalg.eig_complex(g.A @ g.B.T)
            for mu in spec.values:
                assert min(abs(mu), abs(mu + 1.0)) < 1e-8

    def test_default_f_keeps_zero_sum_x_limit(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 2))
        x_star = rng.normal(size=3)
        zs = BilinearGame.zero_sum_game(a, c=-a.T @ x_star)
        acc = games.accelerate(zs)
        # B^T x + f = 0 must be solved by the zero-sum equilibria
        sols = games.solve_affine(linalg.svd_rank(acc.B.T), acc.f)
        assert sols.feasible
        assert np.linalg.norm(a.T @ sols.point + zs.c) < 1e-8

    def test_default_f_zero_when_c_zero(self):
        a = np.random.default_rng(6).normal(size=(2, 3))
        acc = games.accelerate(BilinearGame.zero_sum_game(a))
        assert np.allclose(acc.f, 0.0)

    def test_player_one_data_untouched(self):
        rng = np.random.default_rng(7)
        g = BilinearGame.zero_sum_game(rng.normal(size=(3, 2)),
                                       b=rng.normal(size=3),
                                       c=rng.normal(size=2))
        acc = games.accelerate(g)
        assert np.array_equal(acc.A, g.A)
        assert np.array_equal(acc.b, g.b)
        assert np.array_equal(acc.c, g.c)


class TestScaleOpponent:
    def test_unit_scale_is_zero_sum(self):
        g = BilinearGame.zero_sum_game([[1.0]], b=[2.0], c=[3.0], d=4.0)
        assert games.scale_opponent(g, 1.0).zero_sum

    def test_scalar_example(self):
        g = games.scale_opponent(BilinearGame.zero_sum_game([[1.0]]), 4.0)
        assert np.allclose(g.B, [[-4.0]])
        assert np.allclose(g.B.T @ g.A, [[-4.0]])

    def test_nash_set_preserved(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 4))
        y_star, x_star = rng.normal(size=4), rng.normal(size=3)
        g = BilinearGame.zero_sum_game(a, b=-a @ y_star, c=-a.T @ x_star)
        scaled = games.scale_opponent(g, 2.0)
        ns0, ns1 = games.nash_set(g), games.nash_set(scaled)
        assert ns0.nonempty and ns1.nonempty
        for b0, b1 in ((ns0.x_part.directions, ns1.x_part.directions),
                       (ns0.y_part.directions, ns1.y_part.directions)):
            assert b0.shape[1] == b1.shape[1]
            assert linalg.principal_angles(b0, b1).max(initial=0.0) < 1e-8
        assert max(ns1.residuals(g)) < 1e-10

    def test_rejects_nonpositive_scale(self):
        g = BilinearGame.zero_sum_game([[1.0]])
        with pytest.raises(games.NonPositiveScaleError):
            games.scale_opponent(g, 0.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    @pytest.mark.filterwarnings("error")
    def test_rejects_non_finite_scale(self, scale):
        g = BilinearGame.zero_sum_game([[1.0]])
        with pytest.raises(games.NonPositiveScaleError, match="scale l must be finite"):
            games.scale_opponent(g, scale)

    def test_rejects_general_sum_game(self):
        g = BilinearGame.from_matrices([[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="expects a zero-sum game"):
            games.scale_opponent(g, 2.0)


class TestJson:
    def test_round_trip_general(self):
        rng = np.random.default_rng(9)
        g = BilinearGame(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)),
                         rng.normal(size=2), rng.normal(size=3),
                         rng.normal(size=2), rng.normal(size=3), 1.5, -0.5)
        back = games.game_from_json(games.game_to_json(g))
        for name in ("A", "B", "b", "c", "e", "f"):
            assert np.array_equal(getattr(back, name), getattr(g, name))
        assert back.d == g.d and back.g == g.g

    def test_zero_sum_implied_b(self):
        obj = {"A": {"rows": 1, "cols": 1, "data": [2.0]}, "B": None,
               "b": [1.0], "c": [0.0], "zero_sum": True}
        g = games.game_from_json(obj)
        assert g.zero_sum and np.allclose(g.B, [[-2.0]])
        assert games.game_to_json(g)["B"] is None

    def test_inconsistent_flag_rejected(self):
        obj = {"A": {"rows": 1, "cols": 1, "data": [1.0]},
               "B": {"rows": 1, "cols": 1, "data": [1.0]},
               "b": [0.0], "c": [0.0], "zero_sum": True}
        with pytest.raises(ValueError):
            games.game_from_json(obj)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(games.DimensionMismatchError):
            BilinearGame.from_matrices(np.eye(2), np.zeros((3, 2)))
