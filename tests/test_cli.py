import json
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from saddle_lab import cli, dynamics, games, predict, spectral, verify


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def count_analyses(monkeypatch) -> dict:
    """Count the CouplingSpectrum objects and the games.NashSet objects built."""
    counts = {"spectra": 0, "nash_sets": 0}
    init_spectrum, init_nash = spectral.CouplingSpectrum.__init__, games.NashSet.__post_init__

    def counted_init(self, *args):
        counts["spectra"] += 1
        init_spectrum(self, *args)

    def counted_nash(self):
        counts["nash_sets"] += 1
        init_nash(self)

    monkeypatch.setattr(spectral.CouplingSpectrum, "__init__", counted_init)
    monkeypatch.setattr(games.NashSet, "__post_init__", counted_nash)
    return counts


# a zero-sum game on R^0 x R^0
EMPTY_GAME = {"A": {"rows": 0, "cols": 0, "data": []}, "B": None, "zero_sum": True}


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
    ([], "required: command"), (["run", "--seed", "x"], "--seed: invalid int value"),
    (["verify", "--seed", "-5"], "--seed: must be >= 0"),
    (["run", "--config", "absent.json", "--seed", "-1"], "--seed: must be >= 0"),
    (["sweep", "--seed", "-2"], "--seed: must be >= 0"),
    (["run", "--preset", "nope"], "invalid choice")])
def test_usage_error_exit_one(capsys, argv, message):
    assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and message in err


def test_parser_is_built_once(monkeypatch):
    parser = cli._parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("the parser was rebuilt"))
    assert cli.main(["verify", "--seed", "-1"]) == cli.EXIT_CONFIG_ERROR
    assert cli.main(["sweep", "--seed", "1"]) == cli.EXIT_CONFIG_ERROR
    assert cli._parser() is parser


def dogda_config(eta):
    """DOGDA on A = B = [[1]] with e = [5], from the origin: the aux half of
    the doubled game's Nash set lies away from the start."""
    return {"name": "doubled",
            "game": {"A": {"rows": 1, "cols": 1, "data": [1.0]},
                     "B": {"rows": 1, "cols": 1, "data": [1.0]}, "e": [5.0]},
            "algo": "DOGDA", "eta": eta, "init": {"x0": [0.0], "y0": [0.0]}}


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

    def test_dogda_part3a_exit_zero(self, tmp_path, capsys):
        # DOGDA is zero-sum OGDA on the doubled game, so eta sqrt(mu_max) = 0.55,
        # between 1/2 and 1/sqrt(3), is its Part3a regime
        cfg = write_config(tmp_path, dogda_config(0.55))
        assert cli.main(["analyze", "--config", cfg]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["eta_regime"] == "Part3a"
        assert payload["report"]["lambda_max"] == pytest.approx(0.9257654, abs=1e-7)
        assert payload["limit"]["valid"]

    def test_zero_matrix_convention(self, tmp_path, capsys):
        obj = zero_sum_config(0.3)
        obj["game"]["A"]["data"] = [0.0]
        cfg = write_config(tmp_path, obj)
        assert cli.main(["analyze", "--config", cfg]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["lambda_max"] == 0.0

    def test_malformed_config_exit_one(self, tmp_path, capsys):
        # not JSON, not UTF-8, and nested deeper than the decoder recurses
        for i, text in enumerate([b"{not json", b'{"name": "\xff"}',
                                  b"[" * 200000 + b"]" * 200000]):
            path = tmp_path / f"bad{i}.json"
            path.write_bytes(text)
            assert cli.main(["analyze", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, err

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

    @pytest.mark.parametrize("data, b_data, algo, eta, regime", [
        ([1.0], None, "OGDA", 0.3, "Part2"),
        ([1.0, 0.0, 0.0, 2.0], None, "OGDA", 0.27, "Part3a"),
        ([1.0], None, "OGDA", 0.5, "Part3b"),
        ([1.0], None, "OGDA", 0.6, "Divergent"),
        ([1.0], [1.0], "OGDA", 0.1, "Inapplicable"),
        ([1.0], None, "GDA", 0.1, "Inapplicable")])
    def test_exit_code_follows_applicable(self, tmp_path, capsys, data, b_data, algo,
                                          eta, regime):
        n = int(math.isqrt(len(data)))
        shape = {"rows": n, "cols": n}
        obj = zero_sum_config(eta, algo=algo, init={"x0": [1.0] * n, "y0": [1.0] * n})
        obj["game"] = {"A": {**shape, "data": data},
                       "B": None if b_data is None else {**shape, "data": b_data},
                       "b": [0.0] * n, "c": [0.0] * n, "zero_sum": b_data is None}
        code = cli.main(["analyze", "--config", write_config(tmp_path, obj)])
        assert json.loads(capsys.readouterr().out)["report"]["eta_regime"] == regime
        report = spectral.rate_report(games.game_from_json(obj["game"]), eta, algo)
        assert code == (cli.EXIT_OK if report.applicable else cli.EXIT_INAPPLICABLE)

    def test_jordan_coupling_exit_two(self, tmp_path, capsys):
        # B^T A is a size-3 Jordan block under a similarity: its eigenvalues
        # look simple, and the run's envelope check failed where it read Part2
        obj = zero_sum_config(0.1, init={"x0": [1.0, -0.5, 0.3], "y0": [0.2, 0.7, -1.0]})
        obj["game"] = {"A": {"rows": 3, "cols": 3, "data": [0, 1, -1, -1, 2, 0, 1, -1, 0]},
                       "B": {"rows": 3, "cols": 3, "data": [-1, -1, 1, 2, 1, -1, -1, 0, -1]},
                       "zero_sum": False}
        assert cli.main(["analyze", "--config", write_config(tmp_path, obj)]) == (
            cli.EXIT_INAPPLICABLE)
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["violated"] == "companion_diagonalizable"
        assert report["diagonalizable"] in ("No", "Borderline")

    def test_large_general_sum_exit_zero(self, tmp_path, capsys):
        # an 80x48 game B = -A S, S SPD: above the oracle cap, yet applicable
        game = verify.random_spd_coupled_game(np.random.default_rng(3), 80, 48)
        eta = 0.25 / math.sqrt(spectral.CouplingSpectrum(game).mu_max)
        obj = zero_sum_config(eta, init={"x0": [1.0] * 80, "y0": [1.0] * 48})
        obj["game"] = games.game_to_json(game)
        assert cli.main(["analyze", "--config", write_config(tmp_path, obj)]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["eta_regime"] == "Part2"
        assert payload["limit"]["valid"]


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

    def test_tiny_singular_value_sets_the_ratio(self, tmp_path):
        # 1e-9 is inside the rank of A, so Ker(A) = {0} and mu_min = 1e-18
        obj = zero_sum_config(0.3, init={"x0": [1.0, 1.0], "y0": [1.0, 1.0]})
        obj["game"] = {"A": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1e-9]},
                       "B": None, "b": [0.0, 0.0], "c": [0.0, 0.0], "zero_sum": True}
        cli.main(["run", "--config", write_config(tmp_path, obj),
                  "--out-dir", str(tmp_path)])
        verdict = json.loads((tmp_path / "pennies.verify.json").read_text())
        assert verdict["report"]["mu_min"] == pytest.approx(1e-18, rel=1e-12)
        assert verdict["report"]["lambda_max"] == 1.0
        assert verdict["bound"]["ok"]

    def test_tiny_coupling_eigenvalue_sets_the_general_sum_ratio(self, tmp_path):
        # A and B are square and of full rank, so B^T A = diag(-2, -2e-18) is
        # invertible and no magnitude of its spectrum is a kernel direction
        obj = zero_sum_config(0.3, init={"x0": [1.0, 1.0], "y0": [1.0, 1.0]})
        obj["game"] = {"A": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1e-9]},
                       "B": {"rows": 2, "cols": 2, "data": [-2.0, 0.0, 0.0, -2e-9]},
                       "b": [0.0, 0.0], "c": [0.0, 0.0], "e": [0.0, 0.0], "f": [0.0, 0.0],
                       "zero_sum": False}
        cli.main(["run", "--config", write_config(tmp_path, obj),
                  "--out-dir", str(tmp_path)])
        verdict = json.loads((tmp_path / "pennies.verify.json").read_text())
        assert verdict["report"]["mu_min"] == pytest.approx(2e-18, rel=1e-12)
        assert verdict["report"]["lambda_max"] == 1.0
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
        pytest.param(lambda c: c.update(init={"random": True, "seed": 1.5}),
                     id="init-seed-fraction"),
        pytest.param(lambda c: c.update(init={"random": True, "seed": True}),
                     id="init-seed-bool"),
        pytest.param(lambda c: c.update(init={"random": True, "seed": "7"}),
                     id="init-seed-numeric-string"),
        pytest.param(lambda c: c.update(init={"random": True, "seed": -3}),
                     id="init-seed-negative"),
        pytest.param(lambda c: c.update(name="a\0b"), id="name-nul"),
        pytest.param(lambda c: c.update(name="a\nb"), id="name-newline"),
        pytest.param(lambda c: c.update(description="line one\nline two"),
                     id="description-newline"),
        pytest.param(lambda c: c.update(description="line one\rline two"),
                     id="description-return"),
        pytest.param(lambda c: c.update(game=None), id="game-null"),
        pytest.param(lambda c: c["game"]["A"].update(rows=None), id="rows-null"),
        pytest.param(lambda c: c.update(game=EMPTY_GAME, init={"x0": [], "y0": []}),
                     id="rows-cols-zero"),
        pytest.param(lambda c: c.update(game=dict(c["game"], A={"rows": 1, "cols": 0, "data": []},
                                                  c=[]), init={"x0": [1.0], "y0": []}),
                     id="cols-zero"),
        pytest.param(lambda c: c["game"]["A"].update(rows=1.7), id="rows-fraction"),
        pytest.param(lambda c: c["game"]["A"].update(rows=True), id="rows-bool"),
        pytest.param(lambda c: c["game"]["A"].update(cols=True), id="cols-bool"),
        pytest.param(lambda c: c["game"]["A"].update(rows="1"), id="rows-string"),
        pytest.param(lambda c: c["game"].update(zero_sum="false"), id="zero_sum-string"),
        pytest.param(lambda c: c["game"].update(zero_sum=1), id="zero_sum-number"),
        pytest.param(lambda c: c["game"].update(
            B={"rows": 1, "cols": 1, "data": [-1.0]}, zero_sum=None), id="zero_sum-null"),
        pytest.param(lambda c: c["game"].update(d=True), id="d-bool"),
        pytest.param(lambda c: c["game"].update(d="1.5"), id="d-string"),
        pytest.param(lambda c: c["game"].update(
            B={"rows": 1, "cols": 1, "data": [-1.0]}, g="0"), id="g-string"),
        pytest.param(lambda c: c.update(eta=True), id="eta-bool"),
        pytest.param(lambda c: c.update(eta="0.3"), id="eta-numeric-string"),
        pytest.param(lambda c: c.update(eta=int("1" + "0" * 400)), id="eta-int-overflow"),
        pytest.param(lambda c: c.update(stop_tol=True), id="stop_tol-bool"),
        pytest.param(lambda c: c.update(blow_cap="1e6"), id="blow_cap-string"),
        pytest.param(lambda c: c["game"]["A"].update(data=["2"]), id="data-numeric-string"),
        pytest.param(lambda c: c["game"].update(b=[True]), id="b-bool"),
        pytest.param(lambda c: c["init"].update(x0=["1"]), id="x0-numeric-string"),
        pytest.param(lambda c: c["init"].update(y0=[True]), id="y0-bool"),
        pytest.param(lambda c: c["init"].update(x0=[[1.0]]), id="x0-nested"),
        pytest.param(lambda c: c["init"].update(y0=1.0), id="y0-scalar"),
        pytest.param(lambda c: c["init"].update(y_prev=[2 ** 1024]), id="y_prev-int-overflow"),
        # with NaN, B = -A and g = -d would not make the game zero-sum
        pytest.param(lambda c: c["game"].update(d=math.nan), id="d-nan"),
        pytest.param(lambda c: c["game"].update(
            B={"rows": 1, "cols": 1, "data": [-1.0]}, zero_sum=False, g=math.inf),
            id="g-infinite"),
        pytest.param(lambda c: c.update(init={"random": "no", "seed": 1}),
                     id="init-random-string"),
        pytest.param(lambda c: c.update(name=7), id="name-number"),
        pytest.param(lambda c: c.update(description=["a"]), id="description-list"),
        pytest.param(lambda c: c.update(max_steps=10 ** 400), id="max_steps-int-overflow")])
    def test_malformed_fields_exit_one(self, tmp_path, capsys, mutate):
        obj = zero_sum_config(0.3)
        mutate(obj)
        cfg = write_config(tmp_path, obj)
        assert cli.main(["run", "--config", cfg, "--out-dir",
                         str(tmp_path / "out")]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")

    @pytest.mark.parametrize("command, eta", [
        ("run", 0.3), ("sweep", {"start": 0.1, "stop": 0.3, "step": 0.1})])
    def test_empty_name_exits_one(self, tmp_path, capsys, command, eta):
        cfg = write_config(tmp_path, zero_sum_config(eta, name=""))
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out-dir", str(out)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "config error: name must be a nonempty file name\n"
        assert not out.exists()

    @pytest.mark.parametrize("mutate, field", [
        pytest.param(lambda c: c.update(game=None), "game", id="game-null"),
        pytest.param(lambda c: c.update(game=[1]), "game", id="game-list"),
        pytest.param(lambda c: c["game"].update(A=None), "A", id="A-null"),
        pytest.param(lambda c: c["game"].update(B=5), "B", id="B-number")])
    def test_non_object_names_its_field(self, tmp_path, capsys, mutate, field):
        obj = zero_sum_config(0.3)
        mutate(obj)
        cfg = write_config(tmp_path, obj)
        assert cli.main(["run", "--config", cfg, "--out-dir",
                         str(tmp_path / "out")]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: bad config: {field} must be an object, got ")

    @pytest.mark.parametrize("fields", [
        pytest.param({"b": [0.5], "e": [7.0]}, id="e"),
        pytest.param({"d": 1, "g": 9}, id="g")])
    def test_zero_sum_without_b_rejects_a_contradiction(self, tmp_path, capsys, fields):
        # an omitted B is -A, so e, f and g must match as they must when B is given
        obj = zero_sum_config(0.3)
        obj["game"].update(fields)
        cfg = write_config(tmp_path, obj)
        assert cli.main(["run", "--config", cfg, "--out-dir",
                         str(tmp_path / "out")]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "zero_sum flag set but (B, e, f, g) do not match" in err

    def test_zero_sum_without_b_accepts_matching_fields(self, tmp_path):
        obj = zero_sum_config(0.3)
        obj["game"].update(b=[0.5], e=[-0.5], d=1, g=-1)
        cfg = write_config(tmp_path, obj)
        assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK

    def test_integral_float_dimensions(self, tmp_path):
        obj = zero_sum_config(0.3)
        obj["game"]["A"].update(rows=1.0, cols=1.0)
        cfg = write_config(tmp_path, obj)
        assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        assert cli.parse_config(obj).game.A.shape == (1, 1)

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
        pytest.param(lambda c: c["game"]["A"].update(data=[2e154]), id="A-2e154"),
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

    def test_largest_game_is_analyzed(self, tmp_path, capsys):
        # ||A||_F^2 = 1e300 is finite, and bounds the norm of every product
        # the analysis reads; any numpy warning fails the test
        obj = zero_sum_config(1e-151)
        obj["game"]["A"]["data"] = [1e150]
        cfg = write_config(tmp_path, obj)
        assert cli.main(["analyze", "--config", cfg]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert payload["report"]["mu_max"] == pytest.approx(1e300, rel=1e-15)

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

    def test_wgan_basic_budget_cut_is_unfinished(self, tmp_path):
        # at eta 0.03 the 20000-step budget ends while the run is still
        # inside its envelope: neither converged nor diverged
        cli.main(["run", "--preset", "wgan-basic", "--out-dir", str(tmp_path)])
        kinds = {}
        for eta in (0.3, 0.03):
            verdict = json.loads((tmp_path / f"wgan-basic-eta{eta}.verify.json").read_text())
            kinds[eta] = (verdict["stop_reason"], verdict["classification"]["kind"])
            assert verdict["bound"]["ok"]
        assert kinds == {0.3: ("Converged", "Converged"), 0.03: ("MaxSteps", "Unfinished")}

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

    @pytest.mark.parametrize("eta", [0.3, 0.55])
    def test_dogda_envelope_bounds_the_doubled_state(self, tmp_path, eta):
        # C bounds the doubled state, so D is its distance to the doubled
        # Nash set, whose aux half B z + e = 0 lies at z = -5
        cfg = write_config(tmp_path, dogda_config(eta))
        assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        verdict = json.loads((tmp_path / "doubled.verify.json").read_text(),
                             parse_constant=reject_constant)
        assert verdict["classification"]["kind"] == "Converged"
        assert verdict["bound"]["ok"] and 0.0 < verdict["bound"]["worst_ratio"] <= 1.0

    def test_random_init_without_seed_fails(self, tmp_path):
        cfg = write_config(tmp_path, zero_sum_config(0.3, init={"random": True}))
        assert cli.main(["run", "--config", cfg,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG_ERROR

    def test_one_spectrum_and_nash_set_per_config(self, tmp_path, monkeypatch):
        # the zero-sum and the general-sum run of wgan-dagger, each with a bound
        counts = count_analyses(monkeypatch)
        assert cli.main(["run", "--preset", "wgan-dagger", "--out-dir", str(tmp_path)]) == 0
        for name in ("wgan-dagger-zerosum", "wgan-dagger-accelerated"):
            verdict = json.loads((tmp_path / f"{name}.verify.json").read_text())
            assert verdict["bound"]["ok"]
        assert counts == {"spectra": 2, "nash_sets": 2}

    def test_zero_sum_run_writes_no_growth_ratio(self, tmp_path):
        # Sp(B^T A) = -Sp(A^T A) of a zero-sum game is non-positive: rounding
        # noise above zero in a rank-deficient A drives no payoff growth
        a = verify.random_matrix(np.random.default_rng(1), 3, 3, rank=2) * 1e3
        cfg = write_config(tmp_path, {
            "name": "noise", "game": games.game_to_json(games.BilinearGame.zero_sum_game(a)),
            "eta": 1e-4, "max_steps": 50, "init": {"x0": [1.0] * 3, "y0": [1.0] * 3}})
        assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        verdict = json.loads((tmp_path / "noise.verify.json").read_text())
        assert verdict["stop_reason"] == "MaxSteps"
        assert verdict["classification"]["kind"] == "Unfinished"
        assert "expected_growth_ratio" not in verdict["classification"]["evidence"]

    def test_integral_float_seed_is_that_integer(self):
        game = cli.parse_config(zero_sum_config(0.3)).game
        inits = [cli._build_init(game, {"random": True, "seed": seed}, None).z
                 for seed in (7, 7.0)]
        assert inits[0].tolist() == inits[1].tolist()


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

    @pytest.mark.parametrize("algo", ["OGDA", "DOGDA"])
    def test_one_spectrum_and_nash_set(self, tmp_path, monkeypatch, algo):
        cfg = write_config(tmp_path, zero_sum_config(
            {"start": 0.1, "stop": 0.45, "step": 0.05}, algo=algo, max_steps=1500))
        counts = count_analyses(monkeypatch)
        assert cli.main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        rows = (tmp_path / "pennies.sweep.csv").read_text().splitlines()[2:]
        assert len(rows) == 8  # every step size is applicable and fitted
        # DOGDA's second Nash set is the aux half of its doubled game's, read
        # from the same spectrum
        assert counts == {"spectra": 1, "nash_sets": 2 if algo == "DOGDA" else 1}

    def test_dogda_solves_aux_constraints_once(self, tmp_path, monkeypatch):
        # two solves for the Nash set and two for the aux constraints, at any
        # number of step sizes, all from one SVD: the zero-sum B = -A of
        # matching pennies reuses the factors of A
        calls, svds = [], []
        solve_affine, svd = games.solve_affine, np.linalg.svd

        def counted(ranked, rhs):
            calls.append(ranked.u.shape)
            return solve_affine(ranked, rhs)

        def counted_svd(*args, **kwargs):
            svds.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(games, "solve_affine", counted)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        cfg = write_config(tmp_path, zero_sum_config(
            {"start": 0.1, "stop": 0.45, "step": 0.05}, algo="DOGDA", max_steps=1500))
        assert cli.main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        assert len((tmp_path / "pennies.sweep.csv").read_text().splitlines()[2:]) == 8
        assert len(calls) == 4
        assert svds == [(1, 1)]

    def test_general_sum_limit_projected_once(self, tmp_path, monkeypatch):
        # the SVDs of A and B, then one of each oblique projection's stack,
        # at any number of step sizes; every step size is applicable
        game = verify.random_spd_coupled_game(np.random.default_rng(3), 3, 3)
        obj = {"name": "spd", "game": games.game_to_json(game), "algo": "OGDA",
               "eta": {"start": 0.03, "stop": 0.27, "step": 0.03},
               "init": {"random": True, "seed": 4}, "max_steps": 2000}
        assert len(cli.parse_config(obj).etas()) == 9
        svds, svd = [], np.linalg.svd

        def counted_svd(*args, **kwargs):
            svds.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        cfg = write_config(tmp_path, obj)
        assert cli.main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        assert len((tmp_path / "spd.sweep.csv").read_text().splitlines()[2:]) == 9
        assert svds == [(3, 3)] * 4

    def test_multiline_description_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, zero_sum_config(
            {"start": 0.1, "stop": 0.45, "step": 0.05}, description="line one\nline two"))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out-dir", str(out)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert not out.exists()

    def test_csv_matches_serial_reference(self, tmp_path, monkeypatch):
        # blocks of two rows; the range ends past the divergence threshold
        monkeypatch.setattr(dynamics, "BATCH_RECORD_CELLS", 2 * 1502 * 12)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 4))
        obj = {"name": "dense", "description": "2x4 zero-sum",
               "game": {"A": {"rows": 2, "cols": 4, "data": a.ravel().tolist()},
                        "B": None, "b": [0.5, -1.0], "c": [0.0] * 4,
                        "zero_sum": True},
               "algo": "OGDA", "eta": {"start": 0.02, "stop": 0.4, "step": 0.02},
               "init": {"random": True, "seed": 9}, "max_steps": 1500}
        assert cli.main(["sweep", "--config", write_config(tmp_path, obj),
                         "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        cfg = cli.parse_config(obj)
        rows = []
        for eta in cfg.etas():
            if not spectral.rate_report(cfg.game, eta, cfg.algo).applicable:
                continue
            traj = dynamics.run(cfg.game, cfg.algo, eta, cfg.init, max_steps=1500)
            pred = predict.predict_limit(cfg.game, cfg.algo, eta, cfg.init)
            if not pred.valid or traj.stop_reason is dynamics.StopReason.DIVERGED:
                continue
            try:
                ratio = verify.estimate_rate(traj, pred).fitted_ratio
            except verify.InsufficientDataError:
                continue
            lam = spectral.rate_report(cfg.game, eta, cfg.algo).lambda_max
            rows.append((eta, ratio, lam))
        assert 5 < len(rows) < len(cfg.etas())
        best = min(rows, key=lambda r: r[1])[0]
        expected = ["# 2x4 zero-sum", f"# empirical_argmin_eta={best!r}",
                    "eta,fitted_ratio,lambda_max_closed_form"]
        expected += [",".join(format(v, ".17g") for v in r) for r in rows]
        assert (tmp_path / "dense.sweep.csv").read_text() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("game, eta", [
        (EMPTY_GAME, {}), (None, {"start": True, "stop": 1.2}), (None, {"stop": "0.45"}),
        (None, {"step": True})], ids=["empty-matrix", "start-bool", "stop-string", "step-bool"])
    def test_malformed_sweep_exit_one(self, tmp_path, capsys, game, eta):
        obj = zero_sum_config(dict({"start": 0.1, "stop": 0.45, "step": 0.05}, **eta))
        if game is not None:
            obj.update(game=game, init={"x0": [], "y0": []})
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", write_config(tmp_path, obj),
                         "--out-dir", str(out)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert not out.exists()

    def test_empty_applicable_range_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, zero_sum_config(
            {"start": 0.59, "stop": 0.65, "step": 0.02}))
        assert cli.main(["sweep", "--config", cfg,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("eta", [
        {"start": 0.1, "stop": 0.2, "step": 1e-300},      # about 1e299 points
        {"start": 1e-300, "stop": 1e300, "step": 1e-300},  # a count of inf
        {"start": 0.1, "stop": 0.2, "step": 1e-7}])
    def test_too_many_points_exit_one(self, tmp_path, capsys, eta):
        cfg = write_config(tmp_path, zero_sum_config(eta))
        start = time.perf_counter()
        assert cli.main(["sweep", "--config", cfg,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG_ERROR
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert f"more than {cli.MAX_SWEEP_POINTS} points" in err

    def test_point_cap(self):
        def count(stop):
            eta = {"start": 1.0, "stop": stop, "step": 1.0}
            return len(cli.parse_config(zero_sum_config(eta)).etas())

        assert cli.MAX_SWEEP_POINTS == 1000
        assert count(1000.0) == 1000
        # (stop - start) / step + 1e-9 is 999.9999999999999, then exactly 1000.0
        assert count(math.nextafter(1000.999999999, 0.0)) == 1000
        for stop in (1000.999999999, 1001.0):
            with pytest.raises(cli.ConfigError, match="more than 1000 points"):
                count(stop)


class TestVerifyCommand:
    def test_full_suite_passes(self, verify_command):
        code, out = verify_command
        assert code == cli.EXIT_OK
        payload = json.loads((out / "verification.json").read_text(),
                             parse_constant=reject_constant)
        assert payload["all_passed"]
        assert len(payload["checks"]) >= 20

    def test_piped_document_is_all_of_stdout(self, monkeypatch, capsys):
        # without --out-dir and with stdout not a terminal, the JSON document
        # goes to stdout and the per-suite lines to stderr
        results = [verify.CheckResult("first", True, 1e-15, 1e-10),
                   verify.CheckResult("second", False, 0.5, 1e-3)]
        monkeypatch.setattr(verify, "run_all_suites", lambda seed: results)
        assert cli.main(["verify", "--seed", "3"]) == cli.EXIT_VERIFY_FAILED
        out, err = capsys.readouterr()
        payload = json.loads(out, parse_constant=reject_constant)
        assert payload["seed"] == 3 and not payload["all_passed"]
        assert [check["name"] for check in payload["checks"]] == ["first", "second"]
        assert err.splitlines() == ["PASS first (measured=1.000e-15, tol=1e-10)",
                                    "FAIL second (measured=5.000e-01, tol=1e-03)"]


ETA_RANGE = {"start": 0.1, "stop": 0.3, "step": 0.1}


@pytest.mark.parametrize("command, obj, message", [
    ("analyze", [zero_sum_config(0.3), zero_sum_config(0.2)],
     "analyze expects exactly one config"),
    ("sweep", [zero_sum_config(ETA_RANGE), zero_sum_config(ETA_RANGE)],
     "sweep expects exactly one config"),
    ("analyze", zero_sum_config(ETA_RANGE), "analyze needs a scalar eta"),
    ("run", zero_sum_config(ETA_RANGE), "run needs a scalar eta"),
    ("sweep", zero_sum_config(0.3), "sweep needs an eta range")])
def test_input_of_another_command_exit_one(tmp_path, capsys, command, obj, message):
    cfg = write_config(tmp_path, obj)
    out_dir = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out-dir", str(out_dir)]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and message in err


def json_paths(obj, prefix=()):
    """Every path to a value inside a JSON tree, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


MISSING = object()


def lookup(obj, path):
    """The value at `path` in a JSON tree, or MISSING where the path is gone."""
    for key in path:
        if not isinstance(obj, (dict, list)):
            return MISSING
        try:
            obj = obj[key]
        except (KeyError, IndexError, TypeError):
            return MISSING
    return obj


def is_json_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


# read only with a B matrix; with "B": null they are ignored
IGNORED_WITHOUT_B = {("game", "e"), ("game", "f"), ("game", "g")}
BAD_VALUES = st.one_of(
    st.none(), st.text(max_size=4), st.integers(-10**6, -1),
    st.floats(-1e300, 1e300), st.just(math.nan), st.just(math.inf), st.just(0),
    st.booleans(), st.lists(st.floats(-2.0, 2.0), max_size=3))
# fast presets: matching pennies (OGDA and GDA) and the two 2x2 dagger runs
MUTABLE = [cfg for name in ("matching-pennies-ogda", "matching-pennies-gda",
                            "wgan-dagger") for cfg in cli.PRESETS[name]()]


def sweep_base(cfg):
    """The preset as a five-point sweep up to its step size, short runs."""
    eta = cfg["eta"]
    return dict(cfg, eta={"start": eta / 2, "stop": eta, "step": eta / 8}, max_steps=200)


SWEEPABLE = [sweep_base(cfg) for cfg in MUTABLE]
# start > stop, and zero, tiny, huge and too fine steps
RANGE_MUTATIONS = st.sampled_from([
    {"start": 0.5, "stop": 0.1}, {"step": 0.0}, {"step": 1e-300}, {"step": 1e300},
    {"step": 1e-7}, {"start": 1e-300, "stop": 1e300, "step": 1e-300}])
EXIT_CODES = {"run": (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR),
              "analyze": (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR, cli.EXIT_INAPPLICABLE),
              "sweep": (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR)}
MUTATION_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestMutatedConfigs:
    def run_mutated(self, tmp_path, capsys, data, command, base):
        """Mutate a draw from `base` one to three times, run `command` on it,
        and check the exit code and the stderr of an exit 1. A number of the
        draw that a mutation turns into anything else must exit 1."""
        obj = json.loads(json.dumps(data.draw(st.sampled_from(base))))
        if command == "sweep" and data.draw(st.booleans()):
            obj["eta"].update(data.draw(RANGE_MUTATIONS))
        numbers = [path for path in json_paths(obj) if is_json_number(lookup(obj, path))]
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
        code = cli.main([command, "--config", str(cfg), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code in EXIT_CODES[command]
        # a number the config reads that is now a bool, a str, null, a list,
        # NaN or an infinity is never coerced
        values = [lookup(obj, path) for path in numbers if not (
            path[:2] in IGNORED_WITHOUT_B and lookup(obj, ("game", "B")) in (None, MISSING))]
        if any(value is not MISSING and not is_json_number(value) for value in values):
            assert code == cli.EXIT_CONFIG_ERROR
        if code == cli.EXIT_CONFIG_ERROR:
            assert err.count("\n") == 1
            assert err.startswith("config error:") or (
                command == "sweep" and err == "no eta in the requested range is applicable\n")
        else:
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=reject_constant)

    @MUTATION_SETTINGS
    @given(st.data())
    def test_runs_or_exits_one(self, tmp_path, capsys, data):
        self.run_mutated(tmp_path, capsys, data, "run", MUTABLE)

    @MUTATION_SETTINGS
    @given(st.data())
    def test_analyze_exits_zero_one_or_two(self, tmp_path, capsys, data):
        self.run_mutated(tmp_path, capsys, data, "analyze", MUTABLE)

    @MUTATION_SETTINGS
    @given(st.data())
    def test_sweep_runs_or_exits_one(self, tmp_path, capsys, data):
        self.run_mutated(tmp_path, capsys, data, "sweep", SWEEPABLE)
