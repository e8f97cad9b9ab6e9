import json
import math
import os
import time
from dataclasses import astuple, replace

import numpy as np
import pytest

from saddle_lab import dynamics, games, linalg, predict, spectral, verify
from saddle_lab.dynamics import Algo, IterateState
from saddle_lab.games import BilinearGame
from saddle_lab.verify import OutcomeKind

PENNIES = BilinearGame.zero_sum_game([[1.0]])


def wgan_setup(eta=0.3):
    game = BilinearGame.zero_sum_game(-np.eye(2), b=[3.0, 4.0])
    init = IterateState.at([0.0, 0.0], [0.0, 0.0])
    traj = dynamics.run(game, Algo.OGDA, eta, init, max_steps=20000)
    report = spectral.rate_report(game, eta)
    pred = predict.predict_limit(game, Algo.OGDA, eta, init)
    return game, init, traj, report, pred


class TestEstimateRate:
    def test_wgan_rate(self):
        _, _, traj, _, pred = wgan_setup()
        fit = verify.estimate_rate(traj, pred)
        assert fit.fitted_ratio == pytest.approx(3 / math.sqrt(10), rel=0.02)
        assert 0.0 <= fit.r_squared <= 1.0

    def test_witness_rate_within_half_percent(self):
        w = predict.tight_witness(PENNIES, 0.3)
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.3, w, max_steps=500)
        pred = predict.predict_limit(PENNIES, Algo.OGDA, 0.3, w)
        fit = verify.estimate_rate(traj, pred)
        assert fit.fitted_ratio == pytest.approx(math.sqrt(0.9), rel=5e-3)

    def test_constant_trajectory_insufficient(self):
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.3,
                            IterateState.at([0.0], [0.0]), max_steps=100)
        pred = predict.predict_limit(PENNIES, Algo.OGDA, 0.3,
                                     IterateState.at([0.0], [0.0]))
        with pytest.raises(verify.InsufficientDataError):
            verify.estimate_rate(traj, pred)

    def test_diverged_rejected(self):
        traj = dynamics.run(PENNIES, Algo.GDA, 0.3,
                            IterateState.at([1.0], [1.0]), max_steps=3000)
        pred = predict.predict_limit(PENNIES, Algo.OGDA, 0.3,
                                     IterateState.at([1.0], [1.0]))
        with pytest.raises(verify.NotConvergedError):
            verify.estimate_rate(traj, pred)


class TestClassify:
    def test_common_payoff_cooperation(self):
        g = BilinearGame.from_matrices([[1.0]], [[1.0]])
        eta = 0.1
        traj = dynamics.run(g, Algo.OGDA, eta,
                            IterateState([1.0], [1.0], [0.0], [0.0]),
                            max_steps=100000)
        out = verify.classify(traj, spectral.CouplingSpectrum(g))
        assert out.kind is OutcomeKind.COOPERATING
        assert out.growth_ratio >= (1 + eta) ** 2 - 0.01
        # the expected growth is the squared spectral radius of the dynamics
        radius = np.abs(np.linalg.eigvals(dynamics.companion_matrix(g, eta))).max()
        assert out.evidence["expected_growth_ratio"] == pytest.approx(radius ** 2, abs=1e-9)

    def test_reads_the_spectrum_without_decomposing(self, monkeypatch):
        g = BilinearGame.from_matrices([[1.0]], [[1.0]])
        traj = dynamics.run(g, Algo.OGDA, 0.1, IterateState([1.0], [1.0], [0.0], [0.0]),
                            max_steps=2000)
        spec = spectral.CouplingSpectrum(g)

        def refuse(*args, **kwargs):
            raise AssertionError("classify decomposed a matrix")

        for name in ("svd", "eig", "eigvals", "eigh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        out = verify.classify(traj, spec)
        assert out.evidence["expected_growth_ratio"] > 1.0

    def test_zero_sum_convergence(self):
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.3,
                            IterateState.at([1.0], [1.0]), max_steps=2000)
        out = verify.classify(traj, spectral.CouplingSpectrum(PENNIES))
        assert out.kind is OutcomeKind.CONVERGED
        assert np.allclose(out.limit[0], 0.0, atol=1e-9)

    def test_budget_cut_is_unfinished_not_divergence(self):
        # 20 OGDA steps at eta 0.1 end on matching pennies far inside the cap
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.1, IterateState.at([1.0], [1.0]),
                            max_steps=20)
        out = verify.classify(traj, spectral.CouplingSpectrum(PENNIES))
        assert traj.stop_reason is dynamics.StopReason.MAX_STEPS
        assert out.kind is OutcomeKind.UNFINISHED
        assert out.evidence["final_norm"] == pytest.approx(1.2158, abs=1e-4)

    def test_zero_sum_blowup_is_divergence_not_cooperation(self):
        w = predict.divergence_witness(PENNIES, 0.6)
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.6, w, max_steps=10000)
        out = verify.classify(traj, spectral.CouplingSpectrum(PENNIES))
        assert out.kind is OutcomeKind.DIVERGED


class TestCheckBound:
    def test_wgan_envelope_holds(self):
        game, init, traj, report, pred = wgan_setup()
        bound = verify.check_bound(traj, report,
                                   predict.distance_to_nash(game, init), pred)
        assert bound.ok and not bound.fitted_constant
        assert bound.worst_ratio <= 1.0 + 1e-9

    def test_tight_witness_envelope_is_snug(self):
        w = predict.tight_witness(PENNIES, 0.3)
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.3, w, max_steps=500)
        report = spectral.rate_report(PENNIES, 0.3)
        pred = predict.predict_limit(PENNIES, Algo.OGDA, 0.3, w)
        bound = verify.check_bound(traj, report,
                                   predict.distance_to_nash(PENNIES, w), pred)
        assert bound.ok
        # tight initialization: envelope within a constant factor of the data
        assert bound.worst_ratio > 1.0 / (report.C * 3.0)

    def test_tiny_constant_fails(self):
        game, init, traj, report, pred = wgan_setup()
        broken = replace(report, C=1e-8)
        bound = verify.check_bound(traj, broken,
                                   predict.distance_to_nash(game, init), pred)
        assert not bound.ok
        assert bound.max_violation > 0

    def test_zero_distance_constant_fails(self):
        # D = 0 from a start on the Nash set: the envelope is 0 at every step
        game, init, traj, report, pred = wgan_setup()
        bound = verify.check_bound(traj, report, predict.DistanceD(0.0), pred)
        assert not bound.ok and bound.worst_ratio == math.inf
        assert bound.max_violation == verify._distances(traj, *pred.pair()).max()

    def test_start_at_the_limit_has_no_point_to_check(self):
        # from the Nash point every distance is 0, under the floor
        init = IterateState.at([0.0], [0.0])
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.3, init)
        report = spectral.rate_report(PENNIES, 0.3)
        pred = predict.predict_limit(PENNIES, Algo.OGDA, 0.3, init)
        bound = verify.check_bound(traj, report, predict.distance_to_nash(PENNIES, init), pred)
        assert bound.ok and bound.worst_ratio == 0.0 and bound.max_violation == 0.0

    def test_part3b_fitted_envelope(self):
        w = predict.tight_witness(PENNIES, 0.5)
        traj = dynamics.run(PENNIES, Algo.OGDA, 0.5, w, max_steps=2000)
        report = spectral.rate_report(PENNIES, 0.5)
        pred = predict.predict_limit(PENNIES, Algo.OGDA, 0.5, w)
        bound = verify.check_bound(traj, report,
                                   predict.distance_to_nash(PENNIES, w), pred)
        assert bound.fitted_constant
        assert bound.lambda_used == pytest.approx(report.lambda_max + 0.01)
        assert bound.ok

    def test_long_fitted_run_does_not_underflow(self):
        # a Nash point far from the origin keeps the distance above the floor
        # for all 20000 steps, where lambda^t underflows to 0
        g = games.game_from_json({
            "A": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 0.5]},
            "B": {"rows": 2, "cols": 2, "data": [-1.0, 0.0, 0.0, -2.0]},
            "b": [-20508366217.229233, -0.5], "c": [0.0, 0.0],
            "e": [0.0, 0.0], "f": [0.0, 0.0], "zero_sum": False})
        init = IterateState.at([1.0, 1.0], [0.0, 0.0])
        traj = dynamics.run(g, Algo.OGDA, 0.49, init, max_steps=20000)
        report = spectral.rate_report(g, 0.49)
        pred = predict.predict_limit(g, Algo.OGDA, 0.49, init)
        bound = verify.check_bound(traj, report, predict.distance_to_nash(g, init), pred)
        assert traj.times[-1] == 20000 and report.lambda_max ** 20000 == 0.0
        assert bound.fitted_constant and not bound.ok
        assert math.isfinite(bound.max_violation) and bound.max_violation > 0


class TestDogdaBound:
    def test_envelope_holds_for_doubled_runs(self):
        # C bounds the doubled state, so D is its distance to the doubled
        # Nash set; nonzero c and e put the aux half of that set off the origin
        rng = np.random.default_rng(77)
        left = {spectral.Regime.PART2: 15, spectral.Regime.PART3A: 10}
        for draw in range(400):
            if not any(left.values()):
                break
            n, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a, b = verify.random_matrix(rng, n, p), verify.random_matrix(rng, n, p)
            # each right-hand side in its image, so every constraint is solvable
            g = games.BilinearGame(a, b, a @ rng.normal(size=p), a.T @ rng.normal(size=n),
                                   b @ rng.normal(size=p), b.T @ rng.normal(size=n))
            mu_max = max(np.linalg.norm(g.A, 2) ** 2,
                         np.linalg.norm(g.B, 2) ** 2)
            # Part2 steps, and steps between 0.51 and 0.98 of the divergence threshold
            eta = (float(rng.uniform(0.4, 0.9)) * 0.5 if draw % 2 == 0
                   else float(rng.uniform(0.51, 0.98)) / math.sqrt(3.0)) / math.sqrt(mu_max)
            rep = spectral.rate_report(g, eta, Algo.DOGDA)
            if not left.get(rep.eta_regime) or rep.lambda_max > 0.99:
                continue
            init = verify._random_iterate(rng, n, p)
            spec = spectral.CouplingSpectrum(g, Algo.DOGDA)
            pred = predict.limit(spec, rep, init)
            traj = dynamics.run(g, Algo.DOGDA, eta, init, max_steps=20000)
            bound = verify.check_bound(traj, rep, predict.distance(spec, init), pred)
            assert bound.ok
            left[rep.eta_regime] -= 1
        assert not any(left.values()), left


class TestOracleReconcile:
    def test_unit_coupling(self):
        rep = verify.oracle_reconcile(PENNIES, 0.3)
        assert rep.counts_match and rep.max_distance < 1e-8

    def test_zero_matrix(self):
        g = BilinearGame.zero_sum_game(np.zeros((1, 1)))
        rep = verify.oracle_reconcile(g, 0.3)
        assert rep.counts_match and rep.max_distance < 1e-12

    def test_rectangular_sweep(self):
        g = BilinearGame.zero_sum_game(
            np.random.default_rng(12).normal(size=(3, 2)))
        for eta in (0.02, 0.05, 0.1, 0.15, 0.2):
            rep = verify.oracle_reconcile(g, eta)
            assert rep.counts_match and rep.max_distance < 1e-7

    def test_decomposes_the_companion_on_a_warm_game(self, monkeypatch):
        # the oracle solves the companion matrix itself, never from the memo
        # of the last game analysed
        g = BilinearGame.zero_sum_game(np.random.default_rng(3).normal(size=(3, 2)))
        spectral.lambda_spectrum(g, 0.1)
        shapes, eigvals = [], np.linalg.eigvals

        def counted(m):
            shapes.append(np.shape(m))
            return eigvals(m)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        for _ in range(2):
            assert verify.oracle_reconcile(g, 0.1).max_distance < 1e-7
        assert shapes == [(10, 10)] * 2

    def test_dimension_cap(self):
        # 2(n + p) = 66 is above the oracle's cap of 64
        g = BilinearGame.zero_sum_game(np.eye(17, 16))
        with pytest.raises(linalg.DimensionTooLargeError):
            verify.oracle_reconcile(g, 0.1)


class TestSuites:
    def test_all_suites_pass(self, verify_command):
        _, out = verify_command
        results = json.loads((out / "verification.json").read_text())["checks"]
        failed = [r["name"] for r in results if not r["passed"]]
        assert failed == []

    def test_deterministic(self, monkeypatch):
        # the suites shared with a child per further CPU, then all in this
        # process: the same checks, field for field
        shared = verify.run_all_suites(seed=7)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = verify.run_all_suites(seed=7)
        assert [astuple(r) for r in shared] == [astuple(r) for r in alone]

    def test_mutation_is_detected(self, monkeypatch):
        # corrupt the closed-form ratio; the spectrum-based checks must notice
        real = spectral.rate_lambda_star
        monkeypatch.setattr(spectral, "rate_lambda_star",
                            lambda eta, mu: real(eta, mu) * 1.01)
        result = verify.suite_rate_realized_by_spectrum(
            np.random.default_rng(123))
        assert not result.passed

    @pytest.mark.xfail(strict=True, reason=(
        "check_bound's fitted constant is too small for the second half of a "
        "general-sum Part3a run just above eta sqrt(mu_max) = 1/2, where the "
        "companion is nearly defective and the distance follows t lambda^t"))
    @pytest.mark.parametrize("seed", [1104, 1368])
    def test_general_sum_part3a_near_the_half_threshold(self, seed):
        assert verify.suite_general_sum_part3a(np.random.default_rng(seed)).passed


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSuiteWorkers:
    """A failure in a forked child reaches the caller, and no child outlives
    the call. The process claims two CPUs, so the call forks one child
    whatever the machine has."""

    @staticmethod
    def run(monkeypatch, in_child, in_caller=lambda: time.sleep(0.05)):
        # the caller's suites sleep, so the child takes some of the four
        caller = os.getpid()

        def suite(rng):
            (in_caller if os.getpid() == caller else in_child)()
            return verify.CheckResult("verify.probe", True, 0.0, 0.0)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(verify, "suites", lambda: [suite] * 4)
        try:
            return verify.run_all_suites()
        finally:
            assert_no_child_left()

    def test_each_suite_runs_once_with_more_workers_than_cpus(self, monkeypatch, tmp_path):
        # eight processes on this machine's CPUs take 40 suites from one pipe;
        # each suite appends its index to a shared log
        log = tmp_path / "ran"

        def numbered(i):
            def suite(rng):
                with open(log, "a") as fh:
                    fh.write(f"{i}\n")
                return verify.CheckResult(f"verify.s{i}", True, float(rng.random()), 0.0)
            return suite

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        monkeypatch.setattr(verify, "suites", lambda: [numbered(i) for i in range(40)])
        try:
            results = verify.run_all_suites(seed=5)
        finally:
            assert_no_child_left()
        assert sorted(map(int, log.read_text().split())) == list(range(40))
        assert results == [verify.CheckResult(f"verify.s{i}", True,
                                              float(np.random.default_rng(5 + i).random()), 0.0)
                           for i in range(40)]

    def test_exception_reaches_the_caller(self, monkeypatch):
        def bad():
            raise ValueError("bad suite")

        with pytest.raises(ValueError, match="bad suite") as info:
            self.run(monkeypatch, bad)
        assert "in verify worker" in str(info.value.__cause__)

    def test_child_exit_raises(self, monkeypatch):
        with pytest.raises(RuntimeError, match="exited with status 1"):
            self.run(monkeypatch, lambda: os._exit(1))

    def test_numpy_warning_fails_the_call(self, monkeypatch):
        # pyproject.toml turns warnings into errors, in the child as here
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            self.run(monkeypatch, lambda: np.log(np.zeros(1)))

    def test_caller_exception_kills_the_child(self, monkeypatch):
        def bad():
            raise ValueError("bad suite")

        start = time.perf_counter()
        with pytest.raises(ValueError, match="bad suite"):
            self.run(monkeypatch, lambda: time.sleep(60), in_caller=bad)
        assert time.perf_counter() - start < 30
