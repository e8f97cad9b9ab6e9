import itertools
import math
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert traj.times.tolist() == list(range(steps + 1))
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


def reference_stop(rows, n, max_steps, stop_tol=dynamics.DEFAULT_STOP_TOL,
                   blow_cap=DEFAULT_BLOW_CAP):
    """The step at which a run of the reference rows stops, and why, decided
    with np.linalg.norm: x_t or y_t past the cap or not finite (x_0 and y_0
    are tested with step 1), else a whole-state move under stop_tol."""
    m = rows.shape[1] // 2
    for t in range(1, max_steps + 1):
        blocks = (rows[t, :n], rows[t, n:m]) + ((rows[0, :n], rows[0, n:m]) if t == 1 else ())
        if not all(np.linalg.norm(v) <= blow_cap for v in blocks):
            return t, StopReason.DIVERGED
        if np.linalg.norm(rows[t] - rows[t - 1]) < stop_tol:
            return t, StopReason.CONVERGED
    return max_steps, StopReason.MAX_STEPS


def assert_run_matches_reference(game, algo, eta, init, max_steps, stride, **settings):
    """`run`'s rows, times and stop reason against the reference, bit for bit;
    returns the stop reason."""
    with np.errstate(over="ignore", invalid="ignore"):  # rows past a divergence
        rows = reference_states(game, eta, init, max_steps, algo is Algo.OGDA)
    stop, reason = reference_stop(rows, game.n, max_steps, **settings)
    times = list(range(0, stop + 1, stride))
    times += [] if times[-1] == stop else [stop]
    traj = dynamics.run(game, algo, eta, init, max_steps=max_steps, record_stride=stride,
                        **settings)
    assert traj.times.tolist() == times and traj.stop_reason is reason
    assert traj.states.tobytes() == rows[times].tobytes()
    return reason


def test_engine_matches_reference_arithmetic():
    rng = np.random.default_rng(7)
    for n, p in [(1, 1), (2, 2), (3, 5), (5, 3), (4, 4)]:
        g = BilinearGame(rng.normal(size=(n, p)), rng.normal(size=(n, p)),
                         rng.normal(size=n), rng.normal(size=p),
                         rng.normal(size=n), rng.normal(size=p))
        init = IterateState(rng.normal(size=n), rng.normal(size=p),
                            rng.normal(size=n), rng.normal(size=p))
        for algo, eta, stride in itertools.product([Algo.GDA, Algo.OGDA], [0.05, 0.9], [1, 3]):
            assert_run_matches_reference(g, algo, eta, init, 200, stride)
    # DOGDA: x follows the zero-sum half on player 2's payoff, y the half on
    # player 1's, each started from the initial state.
    n, p = 3, 5
    g = BilinearGame(rng.normal(size=(n, p)), rng.normal(size=(n, p)),
                     rng.normal(size=n), rng.normal(size=p),
                     rng.normal(size=n), rng.normal(size=p))
    init = IterateState(rng.normal(size=n), rng.normal(size=p),
                        rng.normal(size=n), rng.normal(size=p))
    half1 = BilinearGame.zero_sum_game(-g.B, b=-g.e, c=-g.f)
    half2 = BilinearGame.zero_sum_game(g.A, b=g.b, c=g.c)
    ref1 = reference_states(half1, 0.05, init, 200, True)
    ref2 = reference_states(half2, 0.05, init, 200, True)
    played = exact_steps(g, Algo.DOGDA, 0.05, init, 200)
    np.testing.assert_allclose(played[:, :n], ref1[:, :n], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(played[:, n:n + p], ref2[:, n:n + p],
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("game, algo, eta, init, settings, reason", [
    (PENNIES, Algo.OGDA, 0.3, IterateState.at([1.0], [1.0]), {}, StopReason.CONVERGED),
    (BilinearGame.zero_sum_game([[1.0, 0.5], [0.0, 2.0]], b=[1.0, -1.0], c=[0.5, 0.0]),
     Algo.OGDA, 0.2, IterateState([1.0, -1.0], [0.5, 2.0], [0.0, 0.0], [1.0, 1.0]),
     {"stop_tol": 1e-9}, StopReason.CONVERGED),
    (BilinearGame.zero_sum_game([[1.0, 0.5], [0.0, 2.0]]), Algo.GDA, 0.9,
     IterateState.at([1.0, -1.0], [0.5, 2.0]), {}, StopReason.DIVERGED),
    (PENNIES, Algo.OGDA, 0.7, IterateState.at([1.0], [1.0]), {"blow_cap": 1e3},
     StopReason.DIVERGED),
    (PENNIES, Algo.OGDA, 1.0, IterateState([25.0], [-10.0], [50.0], [0.0]),
     {"blow_cap": 20.0}, StopReason.DIVERGED)])
def test_stop_step_matches_reference_norms(game, algo, eta, init, settings, reason, stride):
    assert assert_run_matches_reference(game, algo, eta, init, 3000, stride,
                                        **settings) is reason


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
        assert traj.stop_reason is StopReason.DIVERGED and traj.times.tolist() == [0, 1]
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
        # the record grows a chunk at a time: nothing is reserved for max_steps
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.3, IterateState.at([1.0], [1.0]),
                            max_steps=10**300)
        assert traj.stop_reason is StopReason.CONVERGED and traj.times[-1] == 564

    @pytest.mark.parametrize("stride", [1, 3])
    def test_record_grows(self, stride):
        # a record of many chunks' pieces, joined into one array at the stop
        g = BilinearGame.zero_sum_game([[1.0, 0.5], [0.0, 2.0]])
        init = IterateState([1.0, -1.0], [0.5, 2.0], [0.0, 0.0], [1.0, 1.0])
        steps = 10 * CHUNK + 5
        grown = dynamics.run(g, Algo.OGDA, 0.1, init, max_steps=steps, stop_tol=0.0,
                             record_stride=stride)
        rows, times, reason = reference_run(g, Algo.OGDA, 0.1, init, steps, stride, stop_tol=0.0)
        assert grown.times.tolist() == times and len(times) > 3 * CHUNK
        assert grown.stop_reason is reason is StopReason.MAX_STEPS
        assert grown.states.tobytes() == rows.tobytes()
        assert grown.states.flags.c_contiguous and grown.states.base is None

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
        {"blow_cap": math.nan}, {"stop_tol": -1e-3}, {"stop_tol": math.inf},
        {"max_steps": True}, {"max_steps": "10"}, {"record_stride": np.bool_(True)},
        {"max_steps": 10**400}, {"stop_tol": None}])
    def test_rejects_bad_step_settings(self, settings):
        # the message of linalg.json_number, naming the setting
        with pytest.raises(ValueError, match=f"^{next(iter(settings))} must be "):
            dynamics.run(PENNIES, Algo.OGDA, 0.3, IterateState.at([1.0], [1.0]),
                         **settings)

    def test_settings_pass_the_config_rule(self):
        # numpy scalars and integral floats pass, as a config's numbers do
        init = IterateState.at([1.0], [1.0])
        ref = dynamics.run(PENNIES, Algo.OGDA, 0.3, init, max_steps=10)
        for eta, settings in ((np.float64(0.3), {"max_steps": np.int64(10)}),
                              (0.3, {"max_steps": 10.0, "record_stride": np.int32(1)}),
                              (0.3, {"max_steps": 10, "stop_tol": np.float32(0.0),
                                     "blow_cap": np.float64(DEFAULT_BLOW_CAP)})):
            traj = dynamics.run(PENNIES, Algo.OGDA, eta, init, **settings)
            assert type(traj.eta) is float and traj.times.tolist() == ref.times.tolist()
            assert np.array_equal(traj.states, ref.states)
        # integers beyond the float range's precision stay exact
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.3, init, max_steps=10**300)
        assert traj.stop_reason is StopReason.CONVERGED

    def test_dogda_records_the_played_pair(self):
        g = BilinearGame.from_matrices([[1.0, 0.5]], [[0.3, -1.0]])
        traj = dynamics.run(g, Algo.DOGDA, 0.2,
                            IterateState([1.0], [1.0, -1.0], [0.0], [0.0, 0.0]),
                            max_steps=7, record_stride=3)
        assert traj.times.tolist() == [0, 3, 6, 7]
        assert traj.states.shape == (4, 6)
        assert np.array_equal(traj.states[0], [1.0, 1.0, -1.0, 0.0, 0.0, 0.0])

    def test_thresholds_decide_as_given(self):
        def stop(game, init, **settings):
            traj = dynamics.run(game, Algo.OGDA, 1.0, init, max_steps=10, **settings)
            return traj.stop_reason, int(traj.times[-1])

        # nothing moves, and |x_0| = 5
        still = BilinearGame.zero_sum_game(np.zeros((2, 1)))
        init = IterateState.at([3.0, 4.0], [0.0])
        assert stop(still, init, blow_cap=5.0) == (StopReason.CONVERGED, 1)
        assert stop(still, init, blow_cap=math.nextafter(5.0, 0.0)) == (StopReason.DIVERGED, 1)
        # y moves by (-3, -4) a step: |Z_1 - Z_0| = 5 and |y_2| = 10
        moving = BilinearGame.zero_sum_game(np.zeros((1, 2)), c=[3.0, 4.0])
        init = IterateState.at([0.0], [0.0, 0.0])
        assert stop(moving, init, stop_tol=5.0) == (StopReason.MAX_STEPS, 10)
        assert stop(moving, init, stop_tol=math.nextafter(5.0, math.inf)) == (
            StopReason.CONVERGED, 1)
        assert stop(moving, init, blow_cap=10.0) == (StopReason.DIVERGED, 3)
        assert stop(moving, init, blow_cap=math.nextafter(10.0, 0.0)) == (
            StopReason.DIVERGED, 2)


def dense_game(zero_sum, seed=11):
    rng = np.random.default_rng(seed)
    n, p = 3, 5
    a = rng.normal(size=(n, p))
    if zero_sum:
        return BilinearGame.zero_sum_game(a, b=rng.normal(size=n), c=rng.normal(size=p))
    return BilinearGame(a, rng.normal(size=(n, p)), rng.normal(size=n), rng.normal(size=p),
                        rng.normal(size=n), rng.normal(size=p))


def dense_init(seed=12):
    rng = np.random.default_rng(seed)
    return IterateState(rng.normal(size=3), rng.normal(size=5),
                        rng.normal(size=3), rng.normal(size=5))


def batch_matches_run(game, algo, etas, init, **settings):
    """Run the batch, check every trajectory against `run` bit for bit, and
    return the trajectories in the order of `etas`."""
    by_index = dict(dynamics.run_batch(game, algo, etas, init, **settings))
    assert sorted(by_index) == list(range(len(etas)))
    trajs = [by_index[i] for i in range(len(etas))]
    for eta, traj in zip(etas, trajs):
        ref = dynamics.run(game, algo, eta, init, **settings)
        assert traj.eta == ref.eta and traj.n == ref.n
        assert traj.times.tolist() == ref.times.tolist() and traj.stop_reason is ref.stop_reason
        assert traj.states.shape == ref.states.shape
        assert traj.states.tobytes() == ref.states.tobytes()  # NaN and -0.0 alike
    return trajs


class TestRunBatch:
    ETAS = [0.02, 0.05, 0.08, 0.11, 0.14, 0.2]

    @pytest.mark.parametrize("zero_sum, algo", [
        (True, Algo.OGDA), (False, Algo.OGDA), (True, Algo.GDA), (False, Algo.GDA),
        (False, Algo.DOGDA)])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_rows_equal_run(self, zero_sum, algo, stride):
        batch_matches_run(dense_game(zero_sum), algo, self.ETAS, dense_init(),
                          max_steps=400, record_stride=stride)

    @pytest.mark.parametrize("zero_sum", [True, False])
    def test_matrices_without_a_unit_stride(self, zero_sum):
        # views that BLAS cannot read in place: the game holds their C copies,
        # so a run on the views gets the bits of a run on the copies
        rng = np.random.default_rng(5)
        a, b = (rng.normal(size=(9, 10))[::3, ::2] for _ in range(2))
        vectors = [rng.normal(size=k) for k in (3, 5, 3, 5)]

        def make(a, b):
            return (BilinearGame.zero_sum_game(a, *vectors[:2]) if zero_sum
                    else BilinearGame(a, b, *vectors))

        assert not (a.flags.c_contiguous or a.flags.f_contiguous)
        game = make(a, b)
        copy = make(np.ascontiguousarray(a), np.ascontiguousarray(b))
        assert game.A.flags.c_contiguous and game.B.T.flags.f_contiguous
        init = dense_init()
        for eta in self.ETAS:
            got = dynamics.run(game, Algo.OGDA, eta, init, max_steps=400)
            ref = dynamics.run(copy, Algo.OGDA, eta, init, max_steps=400)
            rows, times, reason = reference_run(game, Algo.OGDA, eta, init, 400, 1)
            assert got.times.tolist() == ref.times.tolist() == times
            assert got.stop_reason is ref.stop_reason is reason
            assert got.states.tobytes() == ref.states.tobytes() == rows.tobytes()
        batch_matches_run(game, Algo.OGDA, self.ETAS, init, max_steps=400)

    @pytest.mark.parametrize("stride", [1, 3])
    def test_mixed_stop_reasons(self, stride):
        # 0.28 and 0.25 converge, 0.01 and 0.02 run out of steps, 0.3 passes the
        # cap, the squared norm at 1e300 and the state at 1e308 overflow to inf
        # in one step, without a numpy warning
        g = BilinearGame.zero_sum_game([[1.0, 0.0], [0.0, 2.0]])
        init = IterateState([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        etas = [0.01, 1e300, 0.28, 0.3, 1e308, 0.25, 0.02]
        trajs = batch_matches_run(g, Algo.OGDA, etas, init, max_steps=1000,
                                  record_stride=stride)
        assert [t.stop_reason for t in trajs] == [
            StopReason.MAX_STEPS, StopReason.DIVERGED, StopReason.CONVERGED,
            StopReason.DIVERGED, StopReason.DIVERGED, StopReason.CONVERGED,
            StopReason.MAX_STEPS]
        assert trajs[1].times.tolist() == trajs[4].times.tolist() == [0, 1]
        assert np.isinf(trajs[4].final.x).any()

    def test_start_past_the_cap_diverges_every_row(self):
        # x_0 = 25 is past the cap of 20, and both steps land inside it
        init = IterateState([25.0], [-10.0], [50.0], [0.0])
        trajs = batch_matches_run(PENNIES, Algo.OGDA, [1.0, 1.25], init, blow_cap=20.0)
        assert [abs(t.final.x[0]) for t in trajs] == [5.0, 0.0]
        assert all(t.stop_reason is StopReason.DIVERGED and t.times.tolist() == [0, 1]
                   for t in trajs)

    def test_blocks_follow_the_record_budget(self, monkeypatch):
        # 401 recorded rows of 16 cells: a budget of two rows and a half makes
        # blocks of 2, 2, 2 and 1 rows, the last one on 1-d operands
        monkeypatch.setattr(dynamics, "BATCH_RECORD_CELLS", 401 * 16 * 5 // 2)
        etas = self.ETAS + [0.17]
        batch_matches_run(dense_game(True), Algo.OGDA, etas, dense_init(), max_steps=399)
        blocks, simulate = [], dynamics._simulate

        def counted(plan, rows, *args):
            blocks.append(len(rows))
            return simulate(plan, rows, *args)

        monkeypatch.setattr(dynamics, "_simulate", counted)
        list(dynamics.run_batch(dense_game(True), Algo.OGDA, etas, dense_init(), max_steps=399))
        assert blocks == [2, 2, 2, 1]

    @pytest.mark.parametrize("stride", [1, 3])
    def test_record_grows(self, stride):
        # every row's record spans many chunks
        g = BilinearGame.zero_sum_game([[1.0, 0.0], [0.0, 2.0]])
        init = IterateState([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        trajs = batch_matches_run(g, Algo.OGDA, [0.3, 0.28, 0.01], init, max_steps=700,
                                  record_stride=stride)
        assert all(t.times[-1] > 4 * CHUNK and len(t.times) > 4 * CHUNK // stride
                   for t in trajs)

    def test_pairs_come_in_stop_order(self):
        # two rows overflow at step 1, three converge at their own steps, and
        # two run out of steps at 1000; ties come in index order
        g = BilinearGame.zero_sum_game([[1.0, 0.0], [0.0, 2.0]])
        init = IterateState([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        etas = [0.01, 1e300, 0.28, 0.3, 1e308, 0.25, 0.02]
        order = [(traj.times[-1], i)
                 for i, traj in dynamics.run_batch(g, Algo.OGDA, etas, init, max_steps=1000)]
        assert order == sorted(order) and sorted(i for _, i in order) == list(range(7))
        assert [i for _, i in order][:2] == [1, 4] and [i for _, i in order][-2:] == [0, 6]
        # the three large steps pass the cap at steps 4, 3 and 2 of one chunk
        pairs = dynamics.run_batch(PENNIES, Algo.OGDA, [0.3, 3e3, 1e5, 1e10, 0.01],
                                   IterateState.at([1.0], [1.0]), max_steps=600)
        assert [(i, traj.times[-1]) for i, traj in pairs] == [
            (3, 2), (2, 3), (1, 4), (0, 564), (4, 600)]

    def test_a_dropped_row_is_freed_while_the_batch_goes_on(self):
        # 0.3 converges at step 564, the others run to 3000
        stream = dynamics.run_batch(PENNIES, Algo.OGDA, [0.01, 0.3, 0.02],
                                    IterateState.at([1.0], [1.0]), max_steps=3000)
        index, traj = next(stream)
        assert index == 1 and traj.times[-1] == 564
        states = weakref.ref(traj.states)
        del traj
        assert states() is None
        assert [i for i, _ in stream] == [0, 2]

    @pytest.mark.filterwarnings("error")
    def test_caller_error_state_holds_between_rows(self):
        # rows whose steps overflow, handed to a caller that raises on overflow
        init = IterateState.at([10.0], [10.0])
        with np.errstate(over="raise", invalid="raise"):
            caller = np.geterr()
            reasons = {}
            for i, traj in dynamics.run_batch(PENNIES, Algo.OGDA, [1e308, 0.3, 1e300], init):
                assert np.geterr() == caller
                with pytest.raises(FloatingPointError):
                    np.multiply(np.float64(1e308), 10.0)
                reasons[i] = traj.stop_reason
        assert np.geterr() != caller
        assert reasons == {0: StopReason.DIVERGED, 1: StopReason.CONVERGED,
                           2: StopReason.DIVERGED}

    def test_checks_before_the_first_step(self):
        with pytest.raises(ValueError, match="eta must be a finite number > 0"):
            dynamics.run_batch(PENNIES, Algo.OGDA, [0.3, 0.0], IterateState.at([1.0], [1.0]))
        with pytest.raises(ValueError, match="max_steps"):
            dynamics.run_batch(PENNIES, Algo.OGDA, [0.3], IterateState.at([1.0], [1.0]),
                               max_steps=0)
        assert list(dynamics.run_batch(PENNIES, Algo.OGDA, [],
                                       IterateState.at([1.0], [1.0]))) == []

    @pytest.mark.parametrize("algo", list(Algo))
    def test_leaves_init_unchanged(self, algo):
        init = dense_init()
        before = init.z.copy()
        list(dynamics.run_batch(dense_game(False), algo, self.ETAS, init, max_steps=9))
        assert np.array_equal(init.z, before)


def reference_run(game, algo, eta, init, max_steps, stride,
                  stop_tol=dynamics.DEFAULT_STOP_TOL, blow_cap=DEFAULT_BLOW_CAP):
    """A run taken one step at a time, with the engine's operations in its
    order but through its own calls (`@`, 2.0 * g - g_old, a scalar eta; the
    engine's equal forms are pinned by TestStepIdentities), and the stop
    rules applied after every step, on np.linalg.norm (x_0 and y_0 are
    tested with step 1). Returns the recorded rows, times and stop reason."""
    z, played = init.z, slice(None)
    if algo is Algo.DOGDA:  # OGDA on the doubled game, player 1 on (x, x_aux), 2 on (y_aux, y)
        n, p = game.n, game.p
        game, m = games.doubled(game), 2 * (n + p)
        z = np.concatenate([np.tile(v, 2) for v in (init.x, init.y, init.x_prev, init.y_prev)])
        played = np.r_[0:n, 2 * n + p:m, m:m + n, m + 2 * n + p:2 * m]
    n, m = game.n, z.size // 2
    g_old = np.concatenate([game.A @ z[m + n:] + game.b, game.B.T @ z[m:m + n] + game.f])
    rows, times, reason = [z[played]], [0], StopReason.MAX_STEPS
    for t in range(1, max_steps + 1):
        g = np.concatenate([game.A @ z[n:m] + game.b, game.B.T @ z[:n] + game.f])
        update = (2.0 * g - g_old) * eta if algo is not Algo.GDA else g * eta
        g_old, last, z = g, z, np.concatenate([z[:m] + update, z[:m]])
        blocks = (z[:n], z[n:m]) + ((last[:n], last[n:m]) if t == 1 else ())
        if not all(np.linalg.norm(v) <= blow_cap for v in blocks):
            reason = StopReason.DIVERGED
        elif np.linalg.norm(z - last) < stop_tol:
            reason = StopReason.CONVERGED
        if t % stride == 0 or t == max_steps or reason is not StopReason.MAX_STEPS:
            rows.append(z[played])
            times.append(t)
        if reason is not StopReason.MAX_STEPS:
            break
    return np.array(rows), times, reason


def assert_engine_matches_reference(game, algo, etas, init, max_steps, stride, **settings):
    """`run` at each step size and `run_batch` over all of them against
    `reference_run`, bit for bit; returns the reference stop reasons."""
    with np.errstate(over="ignore", invalid="ignore"):  # the reference steps into an overflow
        refs = [reference_run(game, algo, eta, init, max_steps, stride, **settings)
                for eta in etas]
    common = {"max_steps": max_steps, "record_stride": stride, **settings}
    batch = dict(dynamics.run_batch(game, algo, etas, init, **common))
    assert sorted(batch) == list(range(len(etas)))
    for eta, i, (rows, times, reason) in zip(etas, range(len(etas)), refs):
        traj = batch[i]
        for got in (dynamics.run(game, algo, eta, init, **common), traj):
            assert got.times.tolist() == times and got.stop_reason is reason
            assert got.states.tobytes() == rows.tobytes()  # NaN and -0.0 alike
    return [reason for _, _, reason in refs]


# every gemv size class of the engine's games: each shape up to 9x9, then
# squares past the BLAS kernels' unrolled widths
IDENTITY_SHAPES = ([(n, p) for n in range(1, 10) for p in range(1, 10)]
                   + [(s, s) for s in (16, 33, 64, 128, 256)])


class TestStepIdentities:
    """The calls of the step body give the bits of the reference's
    arithmetic: a dot into `out` is the gemv of np.matvec and of `@`, and
    g + g is 2.0 * g."""

    def test_dot_is_matvec(self):
        rng = np.random.default_rng(20)
        for n, p in IDENTITY_SHAPES:
            # magnitudes over 16 decades, so that another order of the sum shows
            a, b = (rng.normal(size=(n, p)) * 10.0 ** rng.integers(-8, 8, (n, p))
                    for _ in range(2))
            game = BilinearGame(a, b, np.zeros(n), np.zeros(p), np.zeros(n), np.zeros(p))
            coupling = games.doubled(game).A
            assert game.A.flags.c_contiguous and game.B.T.flags.f_contiguous
            for matrix in (game.A, game.B.T, coupling):
                v = rng.normal(size=matrix.shape[1]) * 10.0 ** rng.integers(-8, 8,
                                                                            matrix.shape[1])
                out = np.empty(matrix.shape[0])
                matrix.dot(v, out)
                assert out.tobytes() == np.matvec(matrix, v).tobytes(), (n, p)
                assert out.tobytes() == (matrix @ v).tobytes(), (n, p)

    def test_doubling_is_exact(self):
        big = sys.float_info.max
        g = np.array([0.0, -0.0, 5e-324, -5e-324, big, -big, math.inf, -math.inf, math.nan,
                      0.1, -3.0])
        with np.errstate(over="ignore"):
            assert np.add(g, g).tobytes() == (2.0 * g).tobytes()


CHUNK = dynamics.STOP_TEST_STEPS

# pennies runs that stop before 3000 steps: OGDA converges at step 564 and GDA
# diverges at step 634; GDA at eta 1e10 passes a cap of 1e150 at step 15 and
# overflows to inf some 15 steps on, inside the same chunk
STOP_CASES = {
    "converges": (Algo.OGDA, 0.3, {}),
    "diverges": (Algo.GDA, 0.3, {}),
    "overflows": (Algo.GDA, 1e10, {"blow_cap": 1e150})}


class TestChunks:
    """The stop rules tested once per chunk of STOP_TEST_STEPS steps give the
    run that tests them after every step."""

    ETAS = [0.02, 0.11, 0.2]

    @pytest.mark.parametrize("max_steps", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("stride", [1, 3, 7])
    @pytest.mark.parametrize("algo", list(Algo))
    def test_budget_at_chunk_edges(self, max_steps, stride, algo):
        assert_engine_matches_reference(dense_game(False), algo, self.ETAS, dense_init(),
                                        max_steps, stride)

    @pytest.mark.parametrize("size", [1, 2, 16, 128])
    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("algo", list(Algo))
    def test_blas_kernel_sizes(self, size, stride, algo):
        # DOGDA at 64x64 in place of 128x128: its doubled coupling is 128x128
        n = size // 2 if algo is Algo.DOGDA and size > 16 else size
        rng = np.random.default_rng(size)
        a, b = (rng.normal(size=(n, n)) / np.sqrt(n) for _ in range(2))
        game = BilinearGame(a, b, *(rng.normal(size=n) for _ in range(4)))
        init = IterateState(*(rng.normal(size=n) for _ in range(4)))
        assert_engine_matches_reference(game, algo, self.ETAS, init, 130, stride)

    @pytest.mark.parametrize("case", list(STOP_CASES))
    @pytest.mark.parametrize("chunk", [1, 2, 5, 64, "stop", "stop - 1"])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_stop_at_chunk_edges(self, monkeypatch, case, chunk, stride):
        # "stop" makes the stop step the last of the first chunk, "stop - 1"
        # the first of the second
        algo, eta, settings = STOP_CASES[case]
        init = IterateState.at([1.0], [1.0])
        _, times, reason = reference_run(PENNIES, algo, eta, init, 3000, stride, **settings)
        assert reason is not StopReason.MAX_STEPS
        chunk = {"stop": times[-1], "stop - 1": times[-1] - 1}.get(chunk, chunk)
        monkeypatch.setattr(dynamics, "STOP_TEST_STEPS", chunk)
        assert_engine_matches_reference(PENNIES, algo, [eta, 0.9 * eta], init, 3000, stride,
                                        **settings)

    def test_overflow_after_a_stop_inside_the_chunk(self):
        algo, eta, settings = STOP_CASES["overflows"]
        init = IterateState.at([1.0], [1.0])
        _, times, _ = reference_run(PENNIES, algo, eta, init, 3000, 1, **settings)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = reference_states(PENNIES, eta, init, CHUNK, False)
        assert times[-1] < CHUNK // 2 and not np.isfinite(rows[CHUNK]).all()
        assert assert_engine_matches_reference(PENNIES, algo, [eta], init, 3000, 1,
                                               **settings) == [StopReason.DIVERGED]

    @pytest.mark.parametrize("chunk", [5, 64])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_record_grows_across_chunks(self, monkeypatch, chunk, stride):
        monkeypatch.setattr(dynamics, "STOP_TEST_STEPS", chunk)
        assert_engine_matches_reference(dense_game(True), Algo.OGDA, self.ETAS, dense_init(),
                                        200, stride)
        assert_engine_matches_reference(PENNIES, Algo.OGDA, [0.3, 0.7],
                                        IterateState.at([1.0], [1.0]), 3000, stride,
                                        blow_cap=1e3)

    @pytest.mark.parametrize("stride", [1, 3])
    def test_mixed_stop_reasons_in_chunks_of_five(self, monkeypatch, stride):
        # the draw of TestRunBatch.test_mixed_stop_reasons
        monkeypatch.setattr(dynamics, "STOP_TEST_STEPS", 5)
        g = BilinearGame.zero_sum_game([[1.0, 0.0], [0.0, 2.0]])
        init = IterateState([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        etas = [0.01, 1e300, 0.28, 0.3, 1e308, 0.25, 0.02]
        assert assert_engine_matches_reference(g, Algo.OGDA, etas, init, 1000, stride) == [
            StopReason.MAX_STEPS, StopReason.DIVERGED, StopReason.CONVERGED,
            StopReason.DIVERGED, StopReason.DIVERGED, StopReason.CONVERGED,
            StopReason.MAX_STEPS]

    @pytest.mark.parametrize("stride", [1, 3])
    def test_rows_stop_at_different_steps_of_one_chunk(self, monkeypatch, stride):
        # the three large steps pass the cap at steps 2, 3 and 4, all in the
        # first chunk of five; 0.3 converges at step 564 and 0.01 runs out
        monkeypatch.setattr(dynamics, "STOP_TEST_STEPS", 5)
        init = IterateState.at([1.0], [1.0])
        etas = [0.3, 1e10, 1e5, 3e3, 0.01]
        pairs = list(dynamics.run_batch(PENNIES, Algo.OGDA, etas, init, max_steps=600))
        assert [i for i, _ in pairs] == [1, 2, 3, 0, 4]
        trajs = dict(pairs)
        assert [trajs[i].times[-1] for i in range(len(etas))] == [564, 2, 3, 4, 600]
        assert_engine_matches_reference(PENNIES, Algo.OGDA, etas, init, 600, stride)


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


def kernel_cells(values):
    """The CSV cells that the kernel of trajectory_to_csv writes for `values`,
    and the values it declined (and left to "%.17g")."""
    values = np.asarray(values, dtype=float).reshape(1, -1)
    cells = np.empty(values.shape, dynamics._CELL)  # the kernel writes every byte
    declined = dynamics._format_cells(values, cells)
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    return text.split(",")[1:], values.ravel()[declined].tolist()


def near_tie(x):
    """Whether |x| 10**(16 - e), e the decimal exponent of x, lies within the
    kernel's margin of a rounding tie, in exact rationals."""
    exact = abs(Fraction(x))
    e = math.floor(math.log10(abs(x)))
    while Fraction(10) ** e > exact:
        e -= 1
    while Fraction(10) ** (e + 1) <= exact:
        e += 1
    scaled = exact * Fraction(10) ** (16 - e)
    return abs(scaled - math.floor(scaled) - Fraction(1, 2)) < dynamics._TIE_MARGIN + 1e-12


class TestCellKernel:
    """The vectorized "%.17g" of trajectory_to_csv against Python's, byte for
    byte. A cell is declined only when it is non-finite, ±0, outside
    [1e-240, 1e240] or near a rounding tie."""

    def check(self, values):
        cells, declined = kernel_cells(values)
        assert cells == ["%.17g" % x for x in np.asarray(values, dtype=float).tolist()]
        for x in declined:
            assert (not math.isfinite(x) or x == 0.0
                    or not dynamics._KERNEL_MIN <= abs(x) <= dynamics._KERNEL_MAX
                    or near_tie(x)), x
        return declined

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=16))
    def test_any_float(self, values):
        self.check(values)

    def test_edges(self):
        def around(x):
            return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
        tens = [v for k in range(-30, 31) for v in around(10.0 ** k)]
        twos = [2.0 ** k for k in range(-80, 81)]  # 2**-25 and others end in an exact tie
        guards = around(dynamics._KERNEL_MIN) + around(dynamics._KERNEL_MAX)
        special = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                   sys.float_info.max, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
                   *around(1e16), *around(1e17), 99999999999999999.0, 0.1, 1e-5, 123.0]
        values = [s * v for v in tens + twos + guards + special for s in (1.0, -1.0)]
        declined = self.check(values)
        assert 2.0 ** -25 in declined and 2.0 ** -24 not in declined
        assert not {10.0 ** k for k in range(-30, 31)} & set(declined)
        assert guards[0] in declined and guards[-1] in declined
        assert not set(guards[1:-1]) & set(declined)

    def test_integers_are_written_as_str(self):
        """The t column goes through the kernel: an integer t below 1e17 reads
        as str(t), t = 0 included (the kernel declines it)."""
        ints = np.unique(np.concatenate([
            np.arange(0, 10 ** 4), np.random.default_rng(5).integers(0, 10 ** 6 + 1, 20000),
            [10 ** 6], [10 ** k for k in range(17)], [2 ** 53 - 1]]))
        cells, declined = kernel_cells(ints)
        assert cells == [str(t) for t in ints.tolist()] and declined == [0.0]

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(12).integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64)
        for chunk in np.split(bits.view(np.float64), 16):
            self.check(chunk)
