import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from saddle_lab import cli


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def zero_sum_config(eta, **extra):
    cfg = {
        "name": "pennies",
        "game": {"A": {"rows": 1, "cols": 1, "data": [1.0]}, "B": None,
                 "b": [0.0], "c": [0.0], "zero_sum": True},
        "algo": "OGDA",
        "eta": eta,
        "init": {"x0": [1.0], "y0": [1.0]},
        "max_steps": 2000,
    }
    cfg.update(extra)
    return cfg


@pytest.mark.parametrize("argv, message", [
    (["run", "--nope"], "unrecognized arguments: --nope"),
    (["analyze", "--format", "json"], "unrecognized arguments: --format json"),
    (["sweep", "--format", "csv"], "unrecognized arguments: --format csv"),
    ([], "required: command"), (["run", "--seed", "x"], "--seed: invalid int value")])
def test_usage_error_exit_one(capsys, argv, message):
    assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and message in err


class TestAnalyze:
    def test_applicable_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, zero_sum_config(0.3))
        assert cli.main(["analyze", "--config", cfg]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["eta_regime"] == "Part2"
        assert payload["limit"]["valid"]

    def test_divergent_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, zero_sum_config(0.6))
        assert cli.main(["analyze", "--config", cfg]) == cli.EXIT_INAPPLICABLE

    def test_zero_matrix_convention(self, tmp_path, capsys):
        obj = zero_sum_config(0.3)
        obj["game"]["A"]["data"] = [0.0]
        cfg = write_config(tmp_path, obj)
        assert cli.main(["analyze", "--config", cfg]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["lambda_max"] == 0.0

    def test_malformed_config_exit_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["analyze", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR

    def test_missing_eta_exit_one(self, tmp_path):
        obj = zero_sum_config(0.3)
        del obj["eta"]
        cfg = write_config(tmp_path, obj)
        assert cli.main(["analyze", "--config", cfg]) == cli.EXIT_CONFIG_ERROR

    def test_creates_missing_out_dir(self, tmp_path):
        cfg = write_config(tmp_path, zero_sum_config(0.3))
        out = tmp_path / "missing" / "dir"
        assert cli.main(["analyze", "--config", cfg, "--out-dir", str(out)]) == cli.EXIT_OK
        payload = json.loads((out / "pennies.analysis.json").read_text())
        assert payload["report"]["eta_regime"] == "Part2"


class TestRun:
    def test_matching_pennies_preset(self, tmp_path):
        code = cli.main(["run", "--preset", "matching-pennies-ogda",
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        csv_text = (tmp_path / "matching-pennies-ogda.csv").read_text()
        assert csv_text.splitlines()[0].startswith("# preset:")
        verdict = json.loads((tmp_path / "matching-pennies-ogda.verify.json")
                             .read_text())
        assert verdict["stop_reason"] == "Converged"
        assert verdict["classification"]["kind"] == "Converged"
        assert verdict["bound"]["ok"]

    def test_gda_preset_diverges_at_fixed_ratio(self, tmp_path):
        cli.main(["run", "--preset", "matching-pennies-gda",
                  "--out-dir", str(tmp_path)])
        rows = [line.split(",") for line in
                (tmp_path / "matching-pennies-gda.csv").read_text().splitlines()
                if line and not line.startswith(("#", "t,"))]
        norms = np.array([float(r[1]) ** 2 + float(r[2]) ** 2 for r in rows])
        ratios = norms[1:] / norms[:-1]
        assert np.allclose(ratios, 1 + 0.3 ** 2, rtol=1e-12)
        verdict = json.loads((tmp_path / "matching-pennies-gda.verify.json")
                             .read_text())
        assert verdict["stop_reason"] == "Diverged"

    def test_verify_json_is_strict(self, tmp_path):
        cli.main(["run", "--preset", "matching-pennies-gda",
                  "--out-dir", str(tmp_path)])
        text = (tmp_path / "matching-pennies-gda.verify.json").read_text()
        verdict = json.loads(text, parse_constant=reject_constant)
        assert verdict["report"]["lambda_max"] is None

    @pytest.mark.parametrize("settings, key", [
        ({"record_stride": 0}, "record_stride"),
        ({"record_stride": 2.5}, "record_stride"),
        ({"max_steps": -5}, "max_steps"),
        ({"max_steps": 0}, "max_steps"),
        ({"blow_cap": 0.0}, "blow_cap"),
        ({"blow_cap": "big"}, "blow_cap"),
        ({"stop_tol": -1e-3}, "stop_tol"),
        ({"stop_tol": None}, "stop_tol")])
    def test_bad_step_settings_exit_one(self, tmp_path, capsys, settings, key):
        cfg = write_config(tmp_path, zero_sum_config(0.3, **settings))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg,
                         "--out-dir", str(out)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert not out.exists() or not any(out.iterdir())

    def test_infinite_blow_cap_exit_one(self, tmp_path, capsys):
        # 1e309 parses as infinity; GDA on matching pennies at eta 0.9 would
        # then run until its state overflows.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(zero_sum_config(0.9, algo="GDA", blow_cap=7.0))
                       .replace('"blow_cap": 7.0', '"blow_cap": 1e309'))
        assert cli.main(["run", "--config", str(cfg), "--out-dir",
                         str(tmp_path / "out")]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "blow_cap" in err and "Traceback" not in err

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda c: c.update(eta=None), id="eta-null"),
        pytest.param(lambda c: c.update(eta="fast"), id="eta-string"),
        pytest.param(lambda c: c.update(eta=[0.3]), id="eta-list"),
        pytest.param(lambda c: c.update(eta={"start": None, "stop": 0.4, "step": 0.1}),
                     id="eta-start-null"),
        pytest.param(lambda c: c.update(init={"x0": [1.0, 2.0], "y0": [1.0]}),
                     id="init-wrong-length"),
        pytest.param(lambda c: c.update(init={"x0": "abc", "y0": [1.0]}), id="init-string"),
        pytest.param(lambda c: c.update(init={"x0": [1.0], "y0": [1.0], "y_prev": [None]}),
                     id="init-prev-null"),
        pytest.param(lambda c: c.update(init=[1, 2]), id="init-list"),
        pytest.param(lambda c: c.update(init={"random": True, "seed": "x"}),
                     id="init-seed-string"),
        pytest.param(lambda c: c.update(init={"random": True, "seed": math.inf}),
                     id="init-seed-infinite"),
        pytest.param(lambda c: c.update(name="a\0b"), id="name-nul"),
        pytest.param(lambda c: c.update(game=None), id="game-null"),
        pytest.param(lambda c: c["game"]["A"].update(rows=None), id="rows-null")])
    def test_malformed_fields_exit_one(self, tmp_path, capsys, mutate):
        obj = zero_sum_config(0.3)
        mutate(obj)
        cfg = write_config(tmp_path, obj)
        assert cli.main(["run", "--config", cfg, "--out-dir",
                         str(tmp_path / "out")]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")

    def test_list_of_non_objects_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [zero_sum_config(0.3), 1, "x"])
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out-dir", str(out)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert not out.exists() or not any(out.iterdir())

    def test_overflowing_step_is_divergence(self, tmp_path):
        # one GDA step from x0 = y0 = 10 at eta 1e308 overflows to infinity
        cfg = write_config(tmp_path, zero_sum_config(
            1e308, algo="GDA", init={"x0": [10.0], "y0": [10.0]}))
        assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        verdict = json.loads((tmp_path / "pennies.verify.json").read_text(),
                             parse_constant=reject_constant)
        assert verdict["stop_reason"] == "Diverged" and verdict["steps"] == 1
        assert verdict["classification"]["kind"] == "Diverged"
        assert verdict["classification"]["evidence"]["final_g1"] is None
        rows = (tmp_path / "pennies.csv").read_text().splitlines()
        assert rows[-1].startswith("1,inf,")

    @pytest.mark.parametrize("command", ["run", "analyze"])
    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda c: c["game"]["A"].update(data=[-1e200]), id="A-1e200"),
        pytest.param(lambda c: c["game"]["A"].update(data=[1e160]), id="A-1e160"),
        pytest.param(lambda c: c["game"].update(
            B={"rows": 1, "cols": 1, "data": [-1e300]}, zero_sum=False), id="B-1e300")])
    def test_overflowing_game_exit_one(self, tmp_path, capsys, command, mutate):
        obj = zero_sum_config(0.3)
        mutate(obj)
        cfg = write_config(tmp_path, obj)
        assert cli.main([command, "--config", cfg, "--out-dir",
                         str(tmp_path / "out")]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda c: c.update(eta=1e300), id="eta-1e300"),
        pytest.param(lambda c: c["init"].update(x0=[1e300]), id="x0-1e300"),
        pytest.param(lambda c: c["game"].update(b=[1e300]), id="b-1e300")])
    def test_overflowing_run_is_silent_divergence(self, tmp_path, capsys, mutate):
        # any numpy warning fails the test (filterwarnings = error)
        obj = zero_sum_config(0.3)
        mutate(obj)
        cfg = write_config(tmp_path, obj)
        assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        verdict = json.loads((tmp_path / "pennies.verify.json").read_text(),
                             parse_constant=reject_constant)
        assert verdict["stop_reason"] == "Diverged" and verdict["steps"] == 1
        assert verdict["classification"]["evidence"]["final_g1"] is None
        last = (tmp_path / "pennies.csv").read_text().splitlines()[-1].split(",")
        assert last[0] == "1" and {last[-2], last[-1]} == {"inf", "-inf"}

    def test_huge_step_budget(self, tmp_path):
        cfg = write_config(tmp_path, zero_sum_config(0.3, max_steps=1e300))
        assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        verdict = json.loads((tmp_path / "pennies.verify.json").read_text())
        assert verdict["stop_reason"] == "Converged" and verdict["steps"] == 564

    def test_long_fitted_envelope_is_silent(self, tmp_path, capsys):
        # distances stay above the floor for 20000 steps, so lambda^t
        # underflows; any numpy warning fails the test (filterwarnings = error)
        obj = cli.PRESETS["wgan-dagger"]()[1]
        obj["game"]["b"] = [-20508366217.229233, -0.5]
        cfg = write_config(tmp_path, obj)
        assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        verdict = json.loads((tmp_path / f"{obj['name']}.verify.json").read_text(),
                             parse_constant=reject_constant)
        assert verdict["steps"] == 20000 and verdict["bound"]["fitted_constant"]
        assert verdict["bound"]["max_violation"] > 0 and not verdict["bound"]["ok"]

    @pytest.mark.parametrize("zero_sum", [True, False])
    def test_zero_rate_envelope_is_silent(self, tmp_path, capsys, zero_sum):
        # A^T A underflows to 0, so lambda_max is 0 and the envelope is 0 after
        # t = 0, while the state stays at distance sqrt(2) from the Nash point
        obj = zero_sum_config(0.3)
        obj["game"]["A"]["data"] = [1e-170]
        if not zero_sum:
            obj["game"].update({"B": {"rows": 1, "cols": 1, "data": [2e-170]},
                                "e": [0.0], "f": [0.0], "zero_sum": False})
        cfg = write_config(tmp_path, obj)
        assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        bound = json.loads((tmp_path / "pennies.verify.json").read_text(),
                           parse_constant=reject_constant)["bound"]
        assert bound["lambda_used"] == 0.0 and bound["fitted_constant"] is not zero_sum
        assert not bound["ok"] and math.isfinite(bound["constant_used"])
        assert bound["max_violation"] == pytest.approx(math.sqrt(2.0))
        assert bound["worst_ratio"] is None  # a ratio to a zero envelope is inf

    def test_wgan_basic_preset_tracks_the_rate(self, tmp_path):
        cli.main(["run", "--preset", "wgan-basic", "--out-dir", str(tmp_path)])
        for eta in (0.3, 0.03):
            verdict = json.loads(
                (tmp_path / f"wgan-basic-eta{eta}.verify.json").read_text())
            lam = verdict["report"]["lambda_max"]
            lines = [line for line in
                     (tmp_path / f"wgan-basic-eta{eta}.csv").read_text()
                     .splitlines() if line and not line.startswith("#")]
            col = lines[0].split(",").index("dist_limit")
            rows = [line.split(",") for line in lines[1:]]
            pts = [(int(r[0]), float(r[col])) for r in rows
                   if r[col] and float(r[col]) > 1e-12]
            # log-distance series runs parallel to the envelope slope
            cut = len(pts) // 3
            ts = np.array([t for t, _ in pts[cut:]])
            ds = np.array([d for _, d in pts[cut:]])
            slope = np.polyfit(ts, np.log(ds), 1)[0]
            assert np.exp(slope) == pytest.approx(lam, rel=0.02)

    def test_wgan_dagger_preset_accelerates(self, tmp_path):
        cli.main(["run", "--preset", "wgan-dagger", "--out-dir", str(tmp_path)])
        zs = json.loads((tmp_path / "wgan-dagger-zerosum.verify.json").read_text())
        acc = json.loads((tmp_path / "wgan-dagger-accelerated.verify.json")
                         .read_text())
        assert acc["rate_fit"]["fitted_ratio"] < zs["rate_fit"]["fitted_ratio"]
        assert np.allclose(zs["limit"]["y_inf"], acc["limit"]["y_inf"], atol=1e-10)
        # the generator lands on the target mean in both formulations
        assert np.allclose(zs["limit"]["y_inf"], [1.0, 1.0], atol=1e-12)

    def test_json_format(self, tmp_path):
        cli.main(["run", "--preset", "matching-pennies-ogda",
                  "--out-dir", str(tmp_path), "--format", "json"])
        traj = json.loads((tmp_path / "matching-pennies-ogda.trajectory.json")
                          .read_text())
        assert traj["times"][0] == 0
        assert len(traj["x"]) == len(traj["times"])

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path, zero_sum_config(
            0.3, init={"random": True, "seed": 42}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", cfg, "--out-dir", str(out_a)])
        cli.main(["run", "--config", cfg, "--out-dir", str(out_b)])
        assert ((out_a / "pennies.csv").read_bytes()
                == (out_b / "pennies.csv").read_bytes())
        assert ((out_a / "pennies.verify.json").read_bytes()
                == (out_b / "pennies.verify.json").read_bytes())

    def test_dogda_run(self, tmp_path):
        cfg = write_config(tmp_path, {
            "name": "doubled",
            "game": {"A": {"rows": 1, "cols": 1, "data": [1.0]},
                     "B": {"rows": 1, "cols": 1, "data": [1.0]},
                     "b": [0.0], "c": [0.0], "e": [0.0], "f": [0.0],
                     "zero_sum": False},
            "algo": "DOGDA",
            "eta": 0.2,
            "init": {"x0": [1.0], "y0": [1.0],
                     "x_prev": [0.0], "y_prev": [0.0]},
            "max_steps": 4000,
        })
        assert cli.main(["run", "--config", cfg,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        verdict = json.loads((tmp_path / "doubled.verify.json").read_text())
        assert verdict["stop_reason"] == "Converged"
        assert verdict["report"]["algo"] == "DOGDA"
        assert np.allclose(verdict["limit"]["x_inf"], 0.0)
        assert verdict["rate_fit"]["fitted_ratio"] < 1.0

    def test_random_init_without_seed_fails(self, tmp_path):
        cfg = write_config(tmp_path, zero_sum_config(0.3, init={"random": True}))
        assert cli.main(["run", "--config", cfg,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG_ERROR


class TestSweep:
    def test_small_sweep(self, tmp_path):
        cfg = write_config(tmp_path, zero_sum_config(
            {"start": 0.1, "stop": 0.45, "step": 0.05}, max_steps=1500))
        assert cli.main(["sweep", "--config", cfg,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        lines = (tmp_path / "pennies.sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# empirical_argmin_eta=")
        data = [line.split(",") for line in lines[2:]]
        # monotone decreasing fitted ratio on the small-step branch
        fitted = [float(r[1]) for r in data if float(r[0]) < 0.25]
        assert all(b < a for a, b in zip(fitted, fitted[1:]))

    def test_empty_applicable_range_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, zero_sum_config(
            {"start": 0.59, "stop": 0.65, "step": 0.02}))
        assert cli.main(["sweep", "--config", cfg,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG_ERROR


class TestVerifyCommand:
    def test_full_suite_passes(self, verify_command):
        code, out = verify_command
        assert code == cli.EXIT_OK
        payload = json.loads((out / "verification.json").read_text(),
                             parse_constant=reject_constant)
        assert payload["all_passed"]
        assert len(payload["checks"]) >= 20


def json_paths(obj, prefix=()):
    """Every path to a value inside a JSON tree, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


BAD_VALUES = st.one_of(
    st.none(), st.text(max_size=4), st.integers(-10**6, -1),
    st.floats(-1e300, 1e300), st.just(math.nan), st.just(math.inf),
    st.lists(st.floats(-2.0, 2.0), max_size=3))
# fast presets: matching pennies (OGDA and GDA) and the two 2x2 dagger runs
MUTABLE = [cfg for name in ("matching-pennies-ogda", "matching-pennies-gda",
                            "wgan-dagger") for cfg in cli.PRESETS[name]()]


class TestMutatedConfigs:
    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_runs_or_exits_one(self, tmp_path, capsys, data):
        obj = json.loads(json.dumps(data.draw(st.sampled_from(MUTABLE))))
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(json_paths(obj))))
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(BAD_VALUES)
            if not list(json_paths(obj)):
                break
        cfg = tmp_path / "mutated.json"
        cfg.write_text(json.dumps(obj))
        out = tmp_path / "out"
        capsys.readouterr()
        code = cli.main(["run", "--config", str(cfg), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR)
        if code == cli.EXIT_CONFIG_ERROR:
            assert err.count("\n") == 1 and err.startswith("config error:")
        else:
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=reject_constant)
