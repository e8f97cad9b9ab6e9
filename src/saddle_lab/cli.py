"""Command-line front end: analyze games, run trajectories, sweep step sizes,
and run the full verification suite.

Exit codes: 0 ok, 1 config or usage error, 2 inapplicable regime, 3 verification
failure. Identical config + seed gives byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import games as games_mod
from . import fits, predict, spectral
from .dynamics import (DEFAULT_BLOW_CAP, DEFAULT_STOP_TOL, Algo, IterateState, StopReason,
                       Trajectory, run, run_batch, write_csv, write_table)
from .games import BilinearGame
from .linalg import json_number, json_vector, jsonable
from .predict import LimitPrediction
from .fits import InsufficientDataError, RateFit

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_INAPPLICABLE = 2
EXIT_VERIFY_FAILED = 3
MAX_SWEEP_POINTS = 1000  # each step size of a sweep is a full run


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    name: str
    game: BilinearGame
    algo: Algo
    eta: float | None                  # scalar run
    eta_range: tuple[float, float, int] | None  # (start, step, count) sweep
    init: IterateState
    max_steps: int = 5000
    stop_tol: float = DEFAULT_STOP_TOL
    blow_cap: float = DEFAULT_BLOW_CAP
    record_stride: int | None = None
    description: str = ""

    def etas(self) -> list[float]:
        """The step sizes of the sweep range."""
        start, step, count = self.eta_range
        return [start + i * step for i in range(count)]

    def step_settings(self) -> dict:
        """The keyword arguments of `dynamics.run` and `dynamics.run_batch`."""
        return {"max_steps": self.max_steps, "stop_tol": self.stop_tol,
                "blow_cap": self.blow_cap, "record_stride": self.record_stride}


def _build_init(game: BilinearGame, spec: dict | None,
                seed: int | None) -> IterateState:
    n, p = game.n, game.p
    if spec is None:
        # generic deterministic default; prevs differ from the current pair
        return IterateState(np.ones(n), np.ones(p), np.zeros(n), np.zeros(p))
    if not isinstance(spec, dict):
        raise ConfigError(f"init must be an object, got {spec!r}")
    random = spec.get("random", False)
    if not isinstance(random, bool):
        raise ConfigError(f"init.random must be true or false, got {reprlib.repr(random)}")
    if random:
        seed = spec.get("seed", seed)
        if seed is None:
            raise ConfigError("random init requires a seed")
        rng = np.random.default_rng(json_number(seed, "init.seed", 0, integer=True))
        return IterateState.of(rng.uniform(-1.0, 1.0, 2 * (n + p)), n)
    x0, y0 = json_vector(spec.get("x0"), "init.x0", n), json_vector(spec.get("y0"), "init.y0", p)
    x_prev = json_vector(spec["x_prev"], "init.x_prev", n) if "x_prev" in spec else x0
    y_prev = json_vector(spec["y_prev"], "init.y_prev", p) if "y_prev" in spec else y0
    return IterateState(x0, y0, x_prev, y_prev)


def _check_magnitudes(game: BilinearGame) -> None:
    """The analysis squares the coupling: its Gram and coupling products, and
    their norms, must stay finite. max(||A||_F, ||B||_F)^2 bounds all six."""
    with np.errstate(over="ignore"):
        top = float(max(np.linalg.norm(game.A), np.linalg.norm(game.B)))
    if not math.isfinite(top * top):
        raise ConfigError("game entries are too large: their products overflow")


def parse_config(obj: dict, seed: int | None = None) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"a config must be a JSON object, got {obj!r}")
    try:
        game = games_mod.game_from_json(obj["game"])
        algo = Algo(obj.get("algo", "OGDA"))
        eta_obj = obj["eta"]
        if isinstance(eta_obj, dict):  # a sweep range
            eta, span = None, [json_number(eta_obj.get(key), f"eta.{key}", 0, strict=True)
                               for key in ("start", "stop", "step")]
        else:
            eta, span = json_number(eta_obj, "eta", 0, strict=True), None
        init = _build_init(game, obj.get("init"), obj.get("seed", seed))
        record_stride = obj.get("record_stride")
        settings = {
            "max_steps": json_number(obj.get("max_steps", 5000), "max_steps", 1, integer=True),
            "stop_tol": json_number(obj.get("stop_tol", DEFAULT_STOP_TOL), "stop_tol", 0),
            "blow_cap": json_number(obj.get("blow_cap", DEFAULT_BLOW_CAP), "blow_cap", 0,
                                    strict=True),
            "record_stride": None if record_stride is None else json_number(
                record_stride, "record_stride", 1, integer=True)}
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    _check_magnitudes(game)
    name, description = obj.get("name", "experiment"), obj.get("description", "")
    # both go into "#" comment lines of the CSV header, one line each
    for key, text in (("name", name), ("description", description)):
        if not isinstance(text, str):
            raise ConfigError(f"{key} must be a string, got {reprlib.repr(text)}")
        if "\n" in text or "\r" in text:
            raise ConfigError(f"{key} must be one line, got {text!r}")
    if not name:  # the output files would be hidden ones, ".csv" and ".verify.json"
        raise ConfigError("name must be a nonempty file name")
    if "/" in name or "\0" in name:
        raise ConfigError(f"name must be a file name, got {name!r}")
    eta_range = None
    if span is not None:
        start, stop, step = span
        if stop < start:
            raise ConfigError("eta range needs stop >= start")
        last = (stop - start) / step + 1e-9  # inf for a step tiny against the span
        if not last < MAX_SWEEP_POINTS:
            raise ConfigError(f"eta range has more than {MAX_SWEEP_POINTS} points (step {step!r})")
        eta_range = (start, step, int(math.floor(last)) + 1)
    return ExperimentConfig(name=name, game=game, algo=algo, eta=eta, eta_range=eta_range,
                            init=init, description=description, **settings)


# ---------------------------------------------------------------------------
# Presets reproducing the headline experiments
# ---------------------------------------------------------------------------


def _preset_matching_pennies(algo: str) -> list[dict]:
    return [{
        "name": f"matching-pennies-{algo.lower()}",
        "description": (f"matching pennies (1x1 coupling, saddle at the origin), "
                        f"{algo} with eta=0.3 from (1, 1)"),
        "game": {"A": {"rows": 1, "cols": 1, "data": [1.0]}, "B": None,
                 "b": [0.0], "c": [0.0], "zero_sum": True},
        "algo": algo,
        "eta": 0.3,
        "init": {"x0": [1.0], "y0": [1.0], "x_prev": [1.0], "y_prev": [1.0]},
        "max_steps": 2000,
    }]


def _preset_wgan_basic() -> list[dict]:
    game = {"A": {"rows": 2, "cols": 2, "data": [-1.0, 0.0, 0.0, -1.0]},
            "B": None, "b": [3.0, 4.0], "c": [0.0, 0.0], "zero_sum": True}
    init = {"x0": [0.0, 0.0], "y0": [0.0, 0.0]}
    runs = []
    for eta in (0.3, 0.03):
        runs.append({
            "name": f"wgan-basic-eta{eta}",
            "description": ("linear generator fitting a mean shift (3, 4): "
                            f"identity coupling zero-sum run at eta={eta}"),
            "game": game, "algo": "OGDA", "eta": eta, "init": init,
            "max_steps": 20000,
        })
    return runs


def _preset_wgan_dagger() -> list[dict]:
    eta_star, _ = spectral.optimal_eta(0.25, 1.0)
    zs_game = {"A": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 0.5]},
               "B": None, "b": [-1.0, -0.5], "c": [0.0, 0.0], "zero_sum": True}
    dag_game = {"A": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 0.5]},
                "B": {"rows": 2, "cols": 2, "data": [-1.0, 0.0, 0.0, -2.0]},
                "b": [-1.0, -0.5], "c": [0.0, 0.0],
                "e": [0.0, 0.0], "f": [0.0, 0.0], "zero_sum": False}
    init = {"x0": [1.0, 1.0], "y0": [0.0, 0.0]}
    return [
        {"name": "wgan-dagger-zerosum",
         "description": ("diag(1, 1/2) coupling, zero-sum baseline at its "
                         f"optimal step eta={eta_star:.6f}"),
         "game": zs_game, "algo": "OGDA", "eta": eta_star, "init": init,
         "max_steps": 20000},
        {"name": "wgan-dagger-accelerated",
         "description": ("same objective with the opponent coupling replaced by "
                         "minus the transposed pseudoinverse, eta=0.49"),
         "game": dag_game, "algo": "OGDA", "eta": 0.49, "init": init,
         "max_steps": 20000},
    ]


PRESETS = {
    "matching-pennies-ogda": lambda: _preset_matching_pennies("OGDA"),
    "matching-pennies-gda": lambda: _preset_matching_pennies("GDA"),
    "wgan-basic": _preset_wgan_basic,
    "wgan-dagger": _preset_wgan_dagger,
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _json_dump(obj, path: Path | None) -> str:
    """`obj` as strict JSON, through the one converter `linalg.jsonable`:
    dataclasses, enums and numpy values go in as they are, and non-finite
    floats are written as null."""
    text = json.dumps(jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path is not None:
        path.write_text(text)
    return text


def cmd_analyze(cfg: ExperimentConfig, out_dir: Path | None) -> int:
    if cfg.eta is None:
        raise ConfigError("analyze needs a scalar eta")
    spec = spectral.CouplingSpectrum.of(cfg.game, cfg.algo)
    report = spectral.rate_curve(spec, [cfg.eta])[0]
    pred = predict.limit(spec, report, cfg.init)
    payload = {"report": report, "limit": pred}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / f"{cfg.name}.analysis.json" if out_dir else None
    text = _json_dump(payload, target)
    if target is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {target}")
    return EXIT_OK if report.applicable else EXIT_INAPPLICABLE


def _fit(pred: LimitPrediction, traj: Trajectory) -> RateFit | None:
    """The rate of a run toward its predicted limit (None without a valid
    prediction, after divergence or on too few points)."""
    if pred.valid and traj.stop_reason is not StopReason.DIVERGED:
        try:
            return fits.estimate_rate(traj, pred)
        except InsufficientDataError:
            pass
    return None


def _run_one(cfg: ExperimentConfig, eta: float) -> dict:
    spec = spectral.CouplingSpectrum.of(cfg.game, cfg.algo)
    report = spectral.rate_curve(spec, [eta])[0]
    traj = run(cfg.game, cfg.algo, eta, cfg.init, **cfg.step_settings())
    pred = predict.limit(spec, report, cfg.init)
    fit = _fit(pred, traj)
    result = {
        "trajectory": traj,
        "report": report,
        "prediction": pred,
        "outcome": fits.classify(traj, spec),
        "rate_fit": fit,
        "bound": None,
    }
    if pred.valid and traj.stop_reason is not StopReason.DIVERGED and report.applicable:
        dist = predict.distance(spec, cfg.init)
        result["bound"] = fits.check_bound(traj, report, dist, pred)
    return result


def _verification_json(result: dict) -> dict:
    traj, outcome = result["trajectory"], result["outcome"]
    return {
        "report": result["report"],
        "limit": result["prediction"],
        "stop_reason": traj.stop_reason,
        "steps": traj.times[-1],
        "classification": {
            "kind": outcome.kind,
            "growth_ratio": outcome.growth_ratio,
            "evidence": outcome.evidence,
        },
        "rate_fit": result["rate_fit"],
        "bound": result["bound"],
    }


def cmd_run(configs: list[ExperimentConfig], out_dir: Path, fmt: str) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for cfg in configs:
        if cfg.eta is None:
            raise ConfigError("run needs a scalar eta (use sweep for ranges)")
        result = _run_one(cfg, cfg.eta)
        pred = result["prediction"]
        limit_pair = pred.pair() if pred.valid else None
        comments = []
        if cfg.description:
            comments.append(f"preset: {cfg.name} — {cfg.description}")
        comments.append(f"algo={cfg.algo.value} eta={cfg.eta!r} "
                        f"stop={result['trajectory'].stop_reason.value}")
        if fmt == "csv":
            traj_path = out_dir / f"{cfg.name}.csv"
            with traj_path.open("wb") as file:
                write_csv(file, result["trajectory"], cfg.game, limit=limit_pair,
                          comments=tuple(comments))
        else:
            traj_path = out_dir / f"{cfg.name}.trajectory.json"
            traj = result["trajectory"]
            n, p = cfg.game.n, cfg.game.p
            _json_dump({"comments": comments, "times": traj.times,
                        "x": traj.states[:, :n], "y": traj.states[:, n:n + p]}, traj_path)
        _json_dump(_verification_json(result), out_dir / f"{cfg.name}.verify.json")
        print(f"wrote {traj_path}")
    return EXIT_OK


def sweep_fits(cfg: ExperimentConfig) -> list[tuple[spectral.SpectralReport, RateFit | None]]:
    """Each applicable step size of the sweep `cfg`, in eta order, as its
    report and the rate fit of its run (None where `_fit` has none).

    The runs are one `run_batch`, whose rows come as they stop; each is
    fitted and dropped before the batch goes on, so its record is freed.
    The limit is projected once for every step size (`predict.limits`)."""
    spec = spectral.CouplingSpectrum.of(cfg.game, cfg.algo)
    curve = spectral.rate_curve(spec, cfg.etas())
    reports = [curve[i] for i in np.flatnonzero(curve.applicable)]
    preds = predict.limits(spec, reports, cfg.init)
    fitted = {}
    for i, traj in run_batch(cfg.game, cfg.algo, [r.eta for r in reports], cfg.init,
                             **cfg.step_settings()):
        fitted[i] = _fit(preds[i], traj)
        del traj
    return [(report, fitted[i]) for i, report in enumerate(reports)]


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.eta_range is None:
        raise ConfigError("sweep needs an eta range {start, stop, step}")
    usable = [{"eta": report.eta, "fitted_ratio": fit.fitted_ratio,
               "lambda_max": report.lambda_max}
              for report, fit in sweep_fits(cfg)
              if fit is not None and np.isfinite(fit.fitted_ratio)]
    if not usable:
        print("no eta in the requested range is applicable", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    best = min(usable, key=lambda r: r["fitted_ratio"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{cfg.name}.sweep.csv"
    lines = []
    if cfg.description:
        lines.append(f"# {cfg.description}")
    lines.append(f"# empirical_argmin_eta={best['eta']!r}")
    lines.append("eta,fitted_ratio,lambda_max_closed_form")
    values = np.array([[r["eta"], r["fitted_ratio"], r["lambda_max"]] for r in usable])
    with path.open("wb") as file:
        write_table(file, lines, [values])
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(seed: int, out_dir: Path | None) -> int:
    from . import verify  # the suites load only for this command
    results = verify.run_all_suites(seed)
    payload = {"seed": seed,
               "all_passed": all(r.passed for r in results),
               "checks": results}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "verification.json" if out_dir else None
    text = _json_dump(payload, target)
    # a document piped to stdout is all that goes there: the lines go to stderr
    piped = target is None and not sys.stdout.isatty()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} (measured={r.measured:.3e}, tol={r.tolerance:.0e})",
              file=sys.stderr if piped else sys.stdout)
    if target is not None:
        print(f"wrote {target}")
    elif piped:
        sys.stdout.write(text)
    return EXIT_OK if payload["all_passed"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _load_configs(args) -> list[ExperimentConfig]:
    if getattr(args, "preset", None):  # argparse's choices admit only PRESETS
        return [parse_config(obj, seed=args.seed) for obj in PRESETS[args.preset]()]
    if not getattr(args, "config", None):
        raise ConfigError("either --config or --preset is required")
    try:
        with open(args.config, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
        raise ConfigError(f"{args.config}: {exc}") from None
    items = obj if isinstance(obj, list) else [obj]
    if not items:
        raise ConfigError(f"{args.config}: the config list is empty")
    return [parse_config(item, seed=args.seed) for item in items]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error: exit 1, one line
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="saddle-lab",
        description="Optimistic gradient dynamics on bilinear games: "
                    "exact rates, limits, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run=False):
        source = p.add_mutually_exclusive_group() if run else p
        source.add_argument("--config", help="JSON experiment config")
        if run:
            source.add_argument("--preset", choices=sorted(PRESETS),
                                help="named built-in experiment")
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="trajectory output format")
        p.add_argument("--out-dir", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for random initializations")

    common(sub.add_parser("analyze", help="spectral report + limit prediction"))
    common(sub.add_parser("run", help="simulate and verify a trajectory"), run=True)
    common(sub.add_parser("sweep", help="rate fits across a step-size range"))
    verify_p = sub.add_parser("verify", help="run every property suite")
    verify_p.add_argument("--seed", type=int, default=20240)
    verify_p.add_argument("--out-dir", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process: a parse leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.seed is not None and args.seed < 0:  # numpy seeds are >= 0
            raise ConfigError(f"argument --seed: must be >= 0, got {args.seed}")
        out_dir = Path(args.out_dir) if args.out_dir else None
        if args.command == "verify":  # no outside input: a numpy warning is a defect
            return cmd_verify(args.seed, out_dir)
        # Huge but finite inputs may overflow states, payoffs or norms: these are
        # written as inf/nan in CSV and null in JSON, without numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            configs = _load_configs(args)
            if args.command == "run":
                return cmd_run(configs, out_dir or Path("."), args.format)
            if len(configs) != 1:
                raise ConfigError(f"{args.command} expects exactly one config")
            if args.command == "analyze":
                return cmd_analyze(configs[0], out_dir)
            return cmd_sweep(configs[0], out_dir or Path("."))
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
