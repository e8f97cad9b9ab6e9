import math

import numpy as np
import pytest

from saddle_lab import dynamics, games
from saddle_lab.dynamics import DEFAULT_BLOW_CAP, Algo, IterateState, StopReason
from saddle_lab.games import BilinearGame

PENNIES = BilinearGame.zero_sum_game([[1.0]])


def one_step(game, algo, eta, s):
    return dynamics.run(game, algo, eta, s, max_steps=1).final


def exact_steps(game, algo, eta, s, steps):
    """Every state of a run that stops neither early nor by convergence."""
    traj = dynamics.run(game, algo, eta, s, max_steps=steps, stop_tol=0.0,
                        record_stride=1)
    assert traj.times == list(range(steps + 1))
    return traj.states


class TestOgdaStep:
    def test_nash_is_fixed(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 2))
        y_star, x_star = rng.normal(size=2), rng.normal(size=3)
        g = BilinearGame.zero_sum_game(a, b=-a @ y_star, c=-a.T @ x_star)
        s = IterateState.at(x_star + 0 * x_star, y_star)
        out = one_step(g, Algo.OGDA, 0.2, s)
        assert np.allclose(out.stacked(), s.stacked(), atol=1e-12)

    def test_single_step_values(self):
        s = IterateState([1.0], [0.0], [1.0], [0.0])
        out = one_step(PENNIES, Algo.OGDA, 0.1, s)
        assert out.x[0] == pytest.approx(1.0)
        assert out.y[0] == pytest.approx(-0.1)
        assert out.x_prev[0] == 1.0 and out.y_prev[0] == 0.0

    def test_matches_companion_product(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3))
        g = BilinearGame.zero_sum_game(a)
        lam = dynamics.companion_matrix(g, 0.07)
        s = IterateState(rng.normal(size=2), rng.normal(size=3),
                         rng.normal(size=2), rng.normal(size=3))
        z = s.stacked()
        for row in exact_steps(g, Algo.OGDA, 0.07, s, 50)[1:]:
            z = lam @ z
            assert np.allclose(row, z, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(games.DimensionMismatchError):
            one_step(PENNIES, Algo.OGDA, 0.1, IterateState([1.0, 2.0], [0.0],
                                                           [0.0, 0.0], [0.0]))


class TestGdaStep:
    def test_single_step(self):
        out = one_step(PENNIES, Algo.GDA, 0.1, IterateState.at([1.0], [0.0]))
        assert np.allclose([out.x[0], out.y[0]], [1.0, -0.1])

    def test_norm_grows_exactly(self):
        eta = 0.3
        states = exact_steps(PENNIES, Algo.GDA, eta, IterateState.at([1.0], [1.0]), 200)
        for s, nxt in zip(states[:-1], states[1:]):
            num = nxt[0] ** 2 + nxt[1] ** 2
            den = s[0] ** 2 + s[1] ** 2
            assert num / den == pytest.approx(1 + eta ** 2, rel=1e-12)

    def test_nash_fixed(self):
        out = one_step(PENNIES, Algo.GDA, 0.1, IterateState.at([0.0], [0.0]))
        assert np.allclose(out.stacked(), 0.0)


class TestDogdaStep:
    def test_zero_state_fixed(self):
        g = BilinearGame.from_matrices([[1.0]], [[1.0]])
        out = one_step(g, Algo.DOGDA, 0.2, IterateState.at([0.0], [0.0]))
        assert np.allclose(out.stacked(), 0.0)

    def test_decouples_into_two_zero_sum_systems(self):
        rng = np.random.default_rng(2)
        g = BilinearGame.from_matrices(rng.normal(size=(2, 2)),
                                       rng.normal(size=(2, 2)))
        init = IterateState(rng.normal(size=2), rng.normal(size=2),
                            rng.normal(size=2), rng.normal(size=2))
        half1 = BilinearGame.zero_sum_game(-g.B)
        half2 = BilinearGame.zero_sum_game(g.A)
        # OGDA on the doubled game from (x, x_aux) = (x, x), (y_aux, y) = (y, y)
        lifted = IterateState(np.tile(init.x, 2), np.tile(init.y, 2),
                              np.tile(init.x_prev, 2), np.tile(init.y_prev, 2))
        full = exact_steps(games.doubled(g), Algo.OGDA, 0.11, lifted, 30)
        s1 = exact_steps(half1, Algo.OGDA, 0.11, init, 30)
        s2 = exact_steps(half2, Algo.OGDA, 0.11, init, 30)
        x, x_aux, y_aux, y = full[:, 0:2], full[:, 2:4], full[:, 4:6], full[:, 6:8]
        assert np.allclose(np.hstack([x, y_aux]), s1[:, :4], atol=1e-12)
        assert np.allclose(np.hstack([x_aux, y]), s2[:, :4], atol=1e-12)
        played = exact_steps(g, Algo.DOGDA, 0.11, init, 30)
        assert np.array_equal(played[:, :4], np.hstack([x, y]))

    def test_nash_with_matching_primes_fixed(self):
        g = BilinearGame.from_matrices([[1.0, 0.0]], [[0.0, 1.0]])
        s = IterateState.at([0.0], [0.0, 0.0])
        out = one_step(g, Algo.DOGDA, 0.15, s)
        assert np.allclose(out.stacked(), s.stacked())


def reference_states(game, eta, s, steps, optimistic):
    """The per-step arithmetic the engine must reproduce bit for bit: both
    gradients recomputed from the current and the previous pair."""
    x, y, x_prev, y_prev = s.x, s.y, s.x_prev, s.y_prev
    rows = [np.concatenate([x, y, x_prev, y_prev])]
    for _ in range(steps):
        if optimistic:
            gx_now = game.A @ y + game.b
            gx_old = game.A @ y_prev + game.b
            gy_now = game.B.T @ x + game.f
            gy_old = game.B.T @ x_prev + game.f
            x, y, x_prev, y_prev = (x + eta * (2.0 * gx_now - gx_old),
                                    y + eta * (2.0 * gy_now - gy_old), x, y)
        else:
            x, y, x_prev, y_prev = (x + eta * (game.A @ y + game.b),
                                    y + eta * (game.B.T @ x + game.f), x, y)
        rows.append(np.concatenate([x, y, x_prev, y_prev]))
    return np.array(rows)


def test_engine_matches_reference_arithmetic():
    rng = np.random.default_rng(7)
    n, p = 3, 5
    g = BilinearGame(rng.normal(size=(n, p)), rng.normal(size=(n, p)),
                     rng.normal(size=n), rng.normal(size=p),
                     rng.normal(size=n), rng.normal(size=p))
    init = IterateState(rng.normal(size=n), rng.normal(size=p),
                        rng.normal(size=n), rng.normal(size=p))
    eta = 0.05
    for algo in (Algo.OGDA, Algo.GDA):
        expected = reference_states(g, eta, init, 200, algo is Algo.OGDA)
        assert np.array_equal(exact_steps(g, algo, eta, init, 200), expected)
    # DOGDA: x follows the zero-sum half on player 2's payoff, y the half on
    # player 1's, each started from the initial state.
    half1 = BilinearGame.zero_sum_game(-g.B, b=-g.e, c=-g.f)
    half2 = BilinearGame.zero_sum_game(g.A, b=g.b, c=g.c)
    ref1 = reference_states(half1, eta, init, 200, True)
    ref2 = reference_states(half2, eta, init, 200, True)
    played = exact_steps(g, Algo.DOGDA, eta, init, 200)
    np.testing.assert_allclose(played[:, :n], ref1[:, :n], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(played[:, n:n + p], ref2[:, n:n + p],
                               rtol=1e-12, atol=1e-12)


class TestIterateState:
    def test_blocks_are_views_of_one_vector(self):
        s = IterateState([1.0], [2.0, 3.0], [4.0], [5.0, 6.0])
        assert s.z.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] and s.n == 1
        assert (s.x.tolist(), s.y.tolist()) == ([1.0], [2.0, 3.0])
        assert (s.x_prev.tolist(), s.y_prev.tolist()) == ([4.0], [5.0, 6.0])
        assert all(np.shares_memory(v, s.z) for v in (s.x, s.y, s.x_prev, s.y_prev))
        assert s.stacked() is s.z

    def test_of_wraps_without_copying(self):
        z = np.arange(6.0)
        s = IterateState.of(z, 1)
        assert s.z is z and s.y_prev.tolist() == [4.0, 5.0]

    @pytest.mark.parametrize("blocks", [
        ([1.0], [2.0], [3.0, 4.0], [5.0]), ([1.0], [2.0], [3.0], []),
        ([math.nan], [2.0], [3.0], [4.0]), ([1.0], [2.0], [3.0], [math.inf])])
    def test_constructor_checks_blocks(self, blocks):
        with pytest.raises(ValueError):
            IterateState(*blocks)


class TestCompanionMatrix:
    def test_layout_for_unit_coupling(self):
        eta = 0.37
        lam = dynamics.companion_matrix(PENNIES, eta)
        expected = np.array([
            [1, 2 * eta, 0, -eta],
            [-2 * eta, 1, eta, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ])
        assert np.array_equal(lam, expected)

    def test_characteristic_polynomial_samples(self):
        eta = 0.23
        lam = dynamics.companion_matrix(PENNIES, eta)
        for z in (0.0, 0.5, -1.3, 2.0, 0.9):
            det = np.linalg.det(lam - z * np.eye(4))
            quartic = z ** 2 * (1 - z) ** 2 + eta ** 2 * (1 - 2 * z) ** 2
            assert det == pytest.approx(quartic, rel=1e-10, abs=1e-12)

    def test_zero_coupling_spectrum(self):
        g = BilinearGame.zero_sum_game(np.zeros((2, 2)))
        vals = np.linalg.eigvals(dynamics.companion_matrix(g, 0.3))
        assert np.allclose(np.sort(vals.real), [0, 0, 0, 0, 1, 1, 1, 1], atol=1e-12)
        assert np.allclose(vals.imag, 0.0, atol=1e-12)


class TestRun:
    def test_ogda_converges_on_matching_pennies(self):
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.3,
                            IterateState.at([1.0], [1.0]), max_steps=2000)
        assert traj.stop_reason is StopReason.CONVERGED
        assert np.linalg.norm(traj.final.stacked()) < 1e-10

    def test_gda_diverges_on_matching_pennies(self):
        traj = dynamics.run(PENNIES, Algo.GDA, 0.3,
                            IterateState.at([1.0], [1.0]), max_steps=2000)
        assert traj.stop_reason is StopReason.DIVERGED
        s = traj.final
        norms = [np.linalg.norm(v) for v in (s.x, s.y, s.x_prev, s.y_prev)]
        assert max(norms) > DEFAULT_BLOW_CAP

    def test_final_of_overflowed_run(self):
        # one GDA step from x0 = y0 = 10 at eta 1e308 overflows to infinity
        traj = dynamics.run(PENNIES, Algo.GDA, 1e308, IterateState.at([10.0], [10.0]))
        assert traj.stop_reason is StopReason.DIVERGED and traj.times == [0, 1]
        assert traj.final.x.tolist() == [math.inf]
        assert traj.final.y.tolist() == [-math.inf]

    @pytest.mark.parametrize("algo", list(Algo))
    def test_leaves_init_unchanged(self, algo):
        g = BilinearGame.from_matrices([[1.0, 0.5]], [[0.3, -1.0]])
        init = IterateState([1.0], [1.0, -1.0], [0.5], [0.0, 2.0])
        before = init.z.copy()
        dynamics.run(g, algo, 0.2, init, max_steps=9)
        assert np.array_equal(init.z, before)

    def test_huge_step_budget(self):
        # the record starts at RECORD_ROWS_CAP rows, not max_steps + 2
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.3, IterateState.at([1.0], [1.0]),
                            max_steps=10**300)
        assert traj.stop_reason is StopReason.CONVERGED and traj.times[-1] == 564

    @pytest.mark.parametrize("stride", [1, 3])
    def test_record_grows(self, monkeypatch, stride):
        g = BilinearGame.zero_sum_game([[1.0, 0.5], [0.0, 2.0]])
        init = IterateState([1.0, -1.0], [0.5, 2.0], [0.0, 0.0], [1.0, 1.0])
        whole = dynamics.run(g, Algo.OGDA, 0.1, init, max_steps=50, stop_tol=0.0,
                             record_stride=stride)
        monkeypatch.setattr(dynamics, "RECORD_ROWS_CAP", 4)
        grown = dynamics.run(g, Algo.OGDA, 0.1, init, max_steps=50, stop_tol=0.0,
                             record_stride=stride)
        assert grown.times == whole.times and len(whole.times) > 4
        assert np.array_equal(grown.states, whole.states)

    def test_common_payoff_growth(self):
        g = BilinearGame.from_matrices([[1.0]], [[1.0]])
        eta = 0.1
        traj = dynamics.run(g, Algo.OGDA, eta,
                            IterateState([1.0], [1.0], [0.0], [0.0]),
                            max_steps=100000)
        assert traj.stop_reason is StopReason.DIVERGED
        xs = traj.states[:, 0]
        for prev, cur in zip(xs[1:-2], xs[2:-1]):
            assert cur > prev * (1 + eta)

    def test_record_stride_default(self):
        assert dynamics.default_record_stride(2, 2, 10000) == 1
        assert dynamics.default_record_stride(10, 10, 100000) == 25

    def test_recorded_spacing(self):
        g = BilinearGame.zero_sum_game(np.eye(10))
        traj = dynamics.run(g, Algo.OGDA, 0.2,
                            IterateState.at(np.ones(10), np.ones(10)),
                            max_steps=5000, record_stride=7)
        gaps = np.diff(traj.times)
        assert np.all(gaps[:-1] == 7)
        assert traj.times[0] == 0

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            dynamics.run(PENNIES, Algo.OGDA, 0.0, IterateState.at([1.0], [1.0]))

    @pytest.mark.parametrize("settings", [
        {"max_steps": 0}, {"max_steps": -5}, {"record_stride": 0},
        {"record_stride": 2.5}, {"blow_cap": math.inf}, {"blow_cap": 0.0},
        {"blow_cap": math.nan}, {"stop_tol": -1e-3}, {"stop_tol": math.inf}])
    def test_rejects_bad_step_settings(self, settings):
        with pytest.raises(ValueError):
            dynamics.run(PENNIES, Algo.OGDA, 0.3, IterateState.at([1.0], [1.0]),
                         **settings)

    def test_dogda_records_the_played_pair(self):
        g = BilinearGame.from_matrices([[1.0, 0.5]], [[0.3, -1.0]])
        traj = dynamics.run(g, Algo.DOGDA, 0.2,
                            IterateState([1.0], [1.0, -1.0], [0.0], [0.0, 0.0]),
                            max_steps=7, record_stride=3)
        assert traj.times == [0, 3, 6, 7]
        assert traj.states.shape == (4, 6)
        assert np.array_equal(traj.states[0], [1.0, 1.0, -1.0, 0.0, 0.0, 0.0])


class TestCsv:
    def test_header_and_precision(self):
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.3,
                            IterateState.at([1.0], [1.0]), max_steps=5)
        text = dynamics.trajectory_to_csv(traj, PENNIES, comments=("demo",))
        lines = text.strip().split("\n")
        assert lines[0] == "# demo"
        assert lines[1] == "t,x_0,y_0,dist_limit,g1,g2"
        row = lines[3].split(",")
        assert row[3] == ""  # no limit supplied
        assert float(row[1]) == traj.states[1, 0]  # 17 digits round-trip

    def test_distance_column(self):
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.3,
                            IterateState.at([1.0], [1.0]), max_steps=5)
        text = dynamics.trajectory_to_csv(
            traj, PENNIES, limit=(np.zeros(1), np.zeros(1)))
        first = text.strip().split("\n")[1].split(",")
        assert float(first[3]) == pytest.approx(np.sqrt(2.0))

    def test_blocks_match_per_row_reference(self):
        """Block rendering against the per-row arithmetic: point payoffs,
        math.hypot and one format() per cell."""
        rng = np.random.default_rng(9)
        n, p = 3, 5
        g = BilinearGame(rng.normal(size=(n, p)), rng.normal(size=(n, p)),
                         rng.normal(size=n), rng.normal(size=p),
                         rng.normal(size=n), rng.normal(size=p), d=1.5, g=-0.5)
        abs_game = BilinearGame(*(np.abs(v) for v in (g.A, g.B, g.b, g.c, g.e, g.f)),
                                d=1.5, g=0.5)
        init = IterateState(rng.normal(size=n), rng.normal(size=p),
                            rng.normal(size=n), rng.normal(size=p))
        traj = dynamics.run(g, Algo.DOGDA, 0.05, init, max_steps=2999, stop_tol=0.0,
                            record_stride=1)
        assert len(traj.times) == 3000 > 3 * dynamics.CSV_BLOCK_CELLS // (n + p + 3)
        for limit in ((rng.normal(size=n), rng.normal(size=p)), None):
            text = dynamics.trajectory_to_csv(traj, g, limit=limit, comments=("c",))
            lines = text.split("\n")
            assert lines[:2] == ["# c", "t," + ",".join(
                [f"x_{i}" for i in range(n)] + [f"y_{j}" for j in range(p)]
                + ["dist_limit", "g1", "g2"])]
            assert lines[-1] == "" and len(lines) == 2 + 3000 + 1
            for line, t, row in zip(lines[2:], traj.times, traj.states):
                xy = row[:n + p]
                cells = line.split(",")
                assert cells[:1 + n + p] == [str(t)] + [format(v, ".17g")
                                                        for v in xy.tolist()]
                g1, g2 = games.payoffs(g, xy[:n], xy[n:])
                # rounding scales with the sum of the absolute payoff terms
                s1, s2 = games.payoffs(abs_game, np.abs(xy[:n]), np.abs(xy[n:]))
                assert abs(float(cells[-2]) - g1) <= 1e-14 * max(1.0, s1)
                assert abs(float(cells[-1]) - g2) <= 1e-14 * max(1.0, s2)
                if limit is None:
                    assert cells[-3] == ""
                else:
                    dist = math.hypot(*(xy - np.concatenate(limit)))
                    assert abs(float(cells[-3]) - dist) <= 1e-14 * max(1.0, dist)
