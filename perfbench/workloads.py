"""Seeded inputs, timed operations and correctness checks for each workload.

Every workload is a fixed list of operations per pass. An operation is one
call into a public entry point: `saddle_lab.cli.main` in-process, or the
public functions of `spectral` and `predict` for `analyze-scan`. Seeded games
get fixed singular values (or a fixed coupling spectrum) and random
rotations, so the seed changes the inputs but not the work a pass does.

Checks run after the timed call and never go through the library's closed
forms when an independent computation is available.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from saddle_lab import cli, games, linalg, predict, spectral
from saddle_lab.dynamics import Algo, IterateState
from saddle_lab.games import BilinearGame

# Distinct input sets generated at set-up; passes cycle through them.
POOL = {"verify": 1, "sweep": 3, "analyze-scan": 8, "trajectories": 3}

# Workloads timed in plain wall seconds instead of with the probe clock of
# speed.py. analyze-scan spends its time in LAPACK calls on matrices up to 64
# wide, where OpenBLAS runs a second thread. That thread slows the probe (its
# fastest time goes from about 40 to 60 us) while the LAPACK work slows by a
# different amount, so scaling by the probe added noise: five-run spreads of
# 0.21 against 0.07 unscaled.
UNSCALED = {"analyze-scan"}

# The diag(1, 2) sweep of scripts/step_size_sweep.py, copied so that the
# benchmark's input does not change when the script does.
DIAG12_SWEEP = {
    "name": "diag12-sweep",
    "description": "two-scale coupling diag(1,2): fitted ratio vs closed form",
    "game": {"A": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 2.0]},
             "B": None, "b": [0.0, 0.0], "c": [0.0, 0.0], "zero_sum": True},
    "algo": "OGDA",
    "eta": {"start": 0.05, "stop": 0.30, "step": 0.005},
    "init": {"x0": [1.0, 1.0], "y0": [1.0, 1.0],
             "x_prev": [0.0, 0.0], "y_prev": [0.0, 0.0]},
    "max_steps": 3000,
}
SWEEP_FIT_TOL = 0.02
EIG_REL_TOL = 1e-6
FIXED_POINT_TOL = 1e-8


@dataclass
class Outcome:
    """What one operation produced, judged by its check."""

    ok: bool
    detail: str = ""
    digest: str = ""
    output_bytes: int = 0
    nonstrict_json: int = 0      # JSON files with bare NaN / Infinity
    cap_error: bool = False      # raised DimensionTooLargeError


@dataclass
class Op:
    key: str                     # names the input; equal keys must give equal digests
    call: Callable[[Path], object]
    check: Callable[[object, Path], Outcome]


# ---------------------------------------------------------------------------
# Seeded games
# ---------------------------------------------------------------------------


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _with_singular_values(rng, n: int, p: int, sigmas) -> np.ndarray:
    k = min(n, p)
    u, v = _orthogonal(rng, n)[:, :k], _orthogonal(rng, p)[:, :k]
    return (u * np.asarray(sigmas, dtype=float)) @ v.T


def _spread(lo: float, hi: float, k: int) -> np.ndarray:
    return np.linspace(lo, hi, k) if k > 1 else np.array([hi])


def _spd(rng, p: int, lo: float, hi: float) -> np.ndarray:
    q = _orthogonal(rng, p)
    return (q * _spread(lo, hi, p)) @ q.T


def zero_sum_game(rng, n: int, p: int, lo=0.5, hi=2.0) -> BilinearGame:
    """Zero-sum game with singular values spread over [lo, hi] and a nonempty
    Nash set (b in Im A, c in Im A^T)."""
    a = _with_singular_values(rng, n, p, _spread(lo, hi, min(n, p)))
    b = a @ rng.uniform(-1, 1, p)
    c = a.T @ rng.uniform(-1, 1, n)
    return BilinearGame.zero_sum_game(a, b, c)


def spd_coupled_game(rng, n: int, p: int, lo=0.5, hi=2.0) -> BilinearGame:
    """General-sum game B = -A P with P symmetric positive definite, so
    Sp(B^T A) = -Sp(P A^T A) is real and non-positive."""
    a = _with_singular_values(rng, n, p, _spread(lo, hi, min(n, p)))
    bmat = -a @ _spd(rng, p, 0.5, 1.5)
    return BilinearGame(a, bmat, a @ rng.uniform(-1, 1, p), rng.uniform(-1, 1, p),
                        np.zeros(n), bmat.T @ rng.uniform(-1, 1, n))


def coupling_mu_max(game: BilinearGame) -> float:
    """Largest |mu| over Sp(B^T A), computed with numpy directly."""
    vals = np.linalg.eigvals(game.B.T @ game.A)
    return float(np.max(np.abs(vals), initial=0.0))


def _matrix_json(m: np.ndarray) -> dict:
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": [float(v) for v in m.reshape(-1)]}


def game_json(game: BilinearGame) -> dict:
    if game.zero_sum:
        return {"A": _matrix_json(game.A), "B": None, "b": game.b.tolist(),
                "c": game.c.tolist(), "zero_sum": True}
    return {"A": _matrix_json(game.A), "B": _matrix_json(game.B),
            "b": game.b.tolist(), "c": game.c.tolist(), "e": game.e.tolist(),
            "f": game.f.tolist(), "zero_sum": False}


# ---------------------------------------------------------------------------
# Output checks shared by the CLI workloads
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def load_json(path: Path) -> tuple[object, bool]:
    """Parse a JSON file; returns (value, strict). Raises if it is not JSON
    even under Python's lenient parser."""
    text = path.read_text()
    try:
        return json.loads(text, parse_constant=_reject_constant), True
    except ValueError:
        return json.loads(text), False


def digest_dir(out_dir: Path, stdout: str) -> tuple[str, int]:
    """sha256 over the file names and bytes of an op's outputs, plus stdout
    with the temp directory name removed."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            total += len(data)
            h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
    text = stdout.replace(str(out_dir), "<out>")
    h.update(text.encode())
    return h.hexdigest(), total + len(stdout.encode())


def cli_call(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_outcome(result, out_dir: Path) -> Outcome:
    """Digest an op's outputs; exit 2 (inapplicable regime) is a result."""
    code, stdout = result
    digest, nbytes = digest_dir(out_dir, stdout)
    ok = code in (cli.EXIT_OK, cli.EXIT_INAPPLICABLE)
    return Outcome(ok, "" if ok else f"exit code {code}", digest, nbytes)


def failed(outcome: Outcome, detail: str) -> Outcome:
    outcome.ok, outcome.detail = False, detail
    return outcome


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_call(out_dir: Path):
    return cli_call(["verify", "--out-dir", str(out_dir)])


def _verify_check(result, out_dir: Path) -> Outcome:
    outcome = cli_outcome(result, out_dir)
    if not outcome.ok:
        return outcome
    payload, strict = load_json(out_dir / "verification.json")
    outcome.nonstrict_json = int(not strict)
    if not payload.get("all_passed") or not payload.get("checks"):
        names = [c["name"] for c in payload.get("checks", []) if not c["passed"]]
        return failed(outcome, f"suites failed: {names}")
    return outcome


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_call(config_path: Path):
    def call(out_dir: Path):
        return cli_call(["sweep", "--config", str(config_path), "--out-dir", str(out_dir)])
    return call


def _sweep_check(name: str, argmin_target: tuple[float, float] | None):
    def check(result, out_dir: Path) -> Outcome:
        outcome = cli_outcome(result, out_dir)
        if not outcome.ok:
            return outcome
        lines = (out_dir / f"{name}.sweep.csv").read_text().splitlines()
        argmin = float(next(l for l in lines if l.startswith("# empirical_argmin_eta="))
                       .split("=", 1)[1])
        rows = [[float(v) for v in l.split(",")] for l in lines
                if l and not l.startswith("#") and not l.startswith("eta,")]
        if not rows:
            return failed(outcome, "no usable sweep rows")
        worst = max(abs(fit - closed) for _, fit, closed in rows)
        if not worst <= SWEEP_FIT_TOL:
            return failed(outcome, f"fitted ratio off closed form by {worst:.3g}")
        if argmin_target is not None:
            eta_star, step = argmin_target
            if abs(argmin - eta_star) > step * (1 + 1e-9):
                return failed(outcome, f"argmin {argmin} vs optimal eta {eta_star}")
        return outcome
    return check


SWEEP_SHAPES = [(2, 2, 0.5, 1.0), (4, 4, 0.8, 1.6), (3, 5, 1.0, 1.5)]


def _sweep_config(rng, idx: int, n: int, p: int, lo: float, hi: float) -> dict:
    game = zero_sum_game(rng, n, p, lo, hi)
    half = 0.5 / hi            # 1 / (2 sqrt(mu_max))
    return {"name": f"seeded-{idx}-{n}x{p}", "game": game_json(game), "algo": "OGDA",
            "eta": {"start": 0.4 * half, "stop": 1.1 * half, "step": 0.1 * half},
            "init": {"random": True, "seed": int(rng.integers(2**31))},
            "max_steps": 1500}


# ---------------------------------------------------------------------------
# analyze-scan
# ---------------------------------------------------------------------------

# (kind, n, p) of one pass: each kind at five square sizes, so the median op
# is one of the four 32-dimensional analyses, plus four rectangular games
# (general-sum ones reach is_diagonalizable). Probes are square full-rank
# games just above the oracle cap of 64.
SCAN_GAMES = [(kind, n, n) for n in (8, 16, 32, 48, 64)
              for kind in ("zero-sum", "scaled", "accelerated", "spd")] + [
    ("zero-sum", 12, 8), ("zero-sum", 32, 64), ("scaled", 40, 24), ("accelerated", 24, 16)]
SCAN_PROBES = [("zero-sum", 72, 72), ("spd", 72, 72)]


def scan_game(rng, kind: str, n: int, p: int) -> tuple[BilinearGame, float]:
    """A game of the given kind and an eta inside its applicable range."""
    if kind == "zero-sum":
        game = zero_sum_game(rng, n, p)
        return game, float(rng.uniform(0.15, 0.55)) / 2.0
    if kind == "scaled":
        game = games.scale_opponent(zero_sum_game(rng, n, p), float(rng.uniform(0.5, 2.0)))
    elif kind == "accelerated":
        game = games.accelerate(zero_sum_game(rng, n, p))
    else:
        game = spd_coupled_game(rng, n, p)
    return game, float(rng.uniform(0.15, 0.45)) / math.sqrt(coupling_mu_max(game))


def _iterate(rng, n: int, p: int) -> IterateState:
    return IterateState(rng.uniform(-1, 1, n), rng.uniform(-1, 1, p),
                        rng.uniform(-1, 1, n), rng.uniform(-1, 1, p))


def analyze(game: BilinearGame, eta: float, init) -> dict:
    """One analysis op: every closed form that applies to the game."""
    report = spectral.rate_report(game, eta, Algo.OGDA)
    spec = spectral.lambda_spectrum(game, eta)
    pred = predict.predict_limit(game, Algo.OGDA, eta, init)
    out = {"report": report, "spectrum": spec, "limit": pred,
           "distance": None, "witness": None, "optimal_eta": None}
    if pred.valid:
        out["distance"] = predict.distance_to_nash(game, init).value
    if game.zero_sum and report.mu_min is not None:
        if report.applicable:
            out["witness"] = predict.tight_witness(game, eta)
        out["optimal_eta"] = spectral.optimal_eta(report.mu_min, report.mu_max)
    return out


def companion(game: BilinearGame, eta: float) -> np.ndarray:
    """The optimistic dynamics' companion matrix, built here from the game."""
    n, p = game.n, game.p
    a, bt = game.A, game.B.T
    return np.block([
        [np.eye(n), 2 * eta * a, np.zeros((n, n)), -eta * a],
        [2 * eta * bt, np.eye(p), -eta * bt, np.zeros((p, p))],
        [np.eye(n), np.zeros((n, p)), np.zeros((n, n)), np.zeros((n, p))],
        [np.zeros((p, n)), np.eye(p), np.zeros((p, n)), np.zeros((p, p))],
    ])


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _analysis_digest(out: dict) -> str:
    spec = out["spectrum"]
    witness = out["witness"]
    doc = {
        "report": out["report"].to_json(),
        "spectrum": [[_fmt(v.real), _fmt(v.imag), int(m)]
                     for v, m in zip(spec.values, spec.multiplicities)],
        "limit": out["limit"].to_json(),
        "distance": out["distance"],
        "witness": None if witness is None else [_fmt(v) for v in witness.stacked()],
        "optimal_eta": out["optimal_eta"],
    }
    text = json.dumps(doc, sort_keys=True, default=_fmt)
    return hashlib.sha256(text.encode()).hexdigest()


def _analyze_check(game: BilinearGame, eta: float):
    def check(out, _out_dir: Path) -> Outcome:
        if isinstance(out, linalg.DimensionTooLargeError):
            return Outcome(True, str(out), cap_error=True)
        digest = _analysis_digest(out)
        report, spec, pred = out["report"], out["spectrum"], out["limit"]
        dim = 2 * (game.n + game.p)
        if spec.total != dim:
            return Outcome(False, f"spectrum has {spec.total} values, want {dim}", digest)
        if report.applicable:
            vals = np.linalg.eigvals(companion(game, eta))
            moduli = np.abs(vals[np.abs(vals - 1.0) > EIG_REL_TOL])
            rho = float(moduli.max(initial=0.0))
            if abs(rho - report.lambda_max) > EIG_REL_TOL * max(1.0, rho):
                return Outcome(False, f"lambda_max {report.lambda_max!r} vs "
                               f"eigvals {rho!r}", digest)
        if pred.valid:
            x, y = pred.x_inf, pred.y_inf
            gx = game.A @ y + game.b
            gy = game.B.T @ x + game.f
            # one OGDA step from (x, y, x, y): x + eta (2 gx - gx), likewise y
            moved = np.linalg.norm(np.concatenate([eta * gx, eta * gy]))
            scale = 1.0 + float(np.linalg.norm(np.concatenate([x, y])))
            if not moved <= FIXED_POINT_TOL * scale:
                return Outcome(False, f"prediction moves by {moved:.3g}", digest)
        if out["distance"] is not None and not out["distance"] >= 0.0:
            return Outcome(False, "negative distance to Nash", digest)
        return Outcome(True, "", digest)
    return check


def _analyze_call(game: BilinearGame, eta: float, init, probe: bool):
    def call(_out_dir: Path):
        if not probe:
            return analyze(game, eta, init)
        try:
            return analyze(game, eta, init)
        except linalg.DimensionTooLargeError as exc:
            return exc
    return call


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

PRESETS = ["matching-pennies-ogda", "matching-pennies-gda", "wgan-basic", "wgan-dagger"]
# (n, p, max_steps): n + p in {2, 32, 256}
TRAJ_SIZES = [(1, 1, 4000), (16, 16, 3000), (128, 128, 1500)]
TRAJ_ALGOS = ["OGDA-zero-sum", "OGDA-general-sum", "DOGDA", "GDA"]
CAP = 64


def trajectory_config(rng, idx: int, algo: str, n: int, p: int, steps: int) -> dict:
    if algo in ("OGDA-zero-sum", "GDA"):
        game = zero_sum_game(rng, n, p, 0.5, 1.5)
        eta = (0.25 if algo == "OGDA-zero-sum" else 0.2) / 1.5
    else:
        game = spd_coupled_game(rng, n, p, 0.5, 1.5)
        if algo == "DOGDA":
            top = max(np.linalg.norm(game.A, 2), np.linalg.norm(game.B, 2))
            eta = 0.3 / float(top)
        else:
            eta = 0.3 / math.sqrt(coupling_mu_max(game))
    return {"name": f"seeded-{idx}-{algo.lower()}-{n + p}", "game": game_json(game),
            "algo": algo.split("-")[0], "eta": eta,
            "init": {"random": True, "seed": int(rng.integers(2**31))},
            "max_steps": steps}


def _run_call(argv_tail: list[str], probe: bool):
    def call(out_dir: Path):
        argv = ["run", *argv_tail, "--out-dir", str(out_dir)]
        if not probe:
            return cli_call(argv)
        try:
            return cli_call(argv)
        except linalg.DimensionTooLargeError as exc:
            return exc
    return call


def _run_check(result, out_dir: Path) -> Outcome:
    if isinstance(result, linalg.DimensionTooLargeError):
        return Outcome(True, str(result), cap_error=True)
    outcome = cli_outcome(result, out_dir)
    if not outcome.ok:
        return outcome
    reports = sorted(out_dir.glob("*.verify.json"))
    if not reports:
        return failed(outcome, "no verify.json written")
    for path in reports:
        doc, strict = load_json(path)
        outcome.nonstrict_json += not strict
        csv_path = path.with_name(path.name[:-len(".verify.json")] + ".csv")
        problem = _csv_problem(csv_path, doc["steps"])
        if problem is None and doc["bound"] is not None and not doc["bound"]["ok"]:
            problem = f"{path.name}: envelope violated"
        fit, lam = doc["rate_fit"], doc["report"]["lambda_max"]
        if (problem is None and fit is not None and doc["report"]["eta_regime"] != "Inapplicable"
                and abs(fit["fitted_ratio"] - lam) > SWEEP_FIT_TOL):
            problem = f"{path.name}: fitted {fit['fitted_ratio']} vs {lam}"
        if problem:
            return failed(outcome, problem)
    return outcome


def _csv_problem(path: Path, steps: int) -> str | None:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header, rows = lines[0].split(","), lines[1:]
    if header[0] != "t" or header[-3:] != ["dist_limit", "g1", "g2"]:
        return f"{path.name}: bad header"
    width = len(header) - 1
    if any(r.count(",") != width for r in rows):
        return f"{path.name}: ragged rows"
    last = rows[-1].split(",")
    if int(last[0]) != steps:
        return f"{path.name}: last row t={last[0]}, steps={steps}"
    values = [float(v) for v in last[1:] if v != ""]
    if not all(math.isfinite(v) for v in values):
        return f"{path.name}: non-finite final row"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Input pool and per-pass op lists for one workload."""

    def __init__(self, name: str, seed: int, input_dir: Path):
        self.name = name
        self.seed = seed
        self.scaled = name not in UNSCALED     # timed with the probe clock
        self.input_dir = input_dir
        input_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, sorted(POOL).index(name)])
        build = {"verify": self._build_verify, "sweep": self._build_sweep,
                 "analyze-scan": self._build_scan,
                 "trajectories": self._build_trajectories}[name]
        # pool[i] = (ops, probes) for passes i, i + len(pool), ...
        self.pool = [build(rng, i) for i in range(POOL[name])]

    def pass_ops(self, index: int) -> tuple[list[Op], list[Op]]:
        return self.pool[index % len(self.pool)]

    def _write_config(self, name: str, config: dict) -> Path:
        path = self.input_dir / f"{name}.json"
        path.write_text(json.dumps(config))
        return path

    def _build_verify(self, rng, i):
        # verify runs the default seed: its cost varies by about 25% from one
        # seed to another, far more than a regression bound can tolerate.
        return [Op("verify:default-seed", _verify_call, _verify_check)], []

    def _build_sweep(self, rng, i):
        eta_star, _ = spectral.optimal_eta(1.0, 4.0)
        diag = self._write_config("diag12-sweep", DIAG12_SWEEP)
        ops = [Op("sweep:diag12", _sweep_call(diag),
                  _sweep_check("diag12-sweep", (eta_star, DIAG12_SWEEP["eta"]["step"])))]
        for j, shape in enumerate(SWEEP_SHAPES):
            cfg = _sweep_config(rng, j, *shape)
            path = self._write_config(f"sweep-{i}-{j}", cfg)
            ops.append(Op(f"sweep:{self.seed}:{i}:{j}", _sweep_call(path),
                          _sweep_check(cfg["name"], None)))
        return ops, []

    def _build_scan(self, rng, i):
        def make(j, kind, n, p, probe):
            game, eta = scan_game(rng, kind, n, p)
            init = _iterate(rng, n, p)
            return Op(f"scan:{self.seed}:{i}:{j}:{kind}:{n}x{p}",
                      _analyze_call(game, eta, init, probe), _analyze_check(game, eta))
        ops = [make(j, *g, False) for j, g in enumerate(SCAN_GAMES)]
        probes = [make(j, *g, True) for j, g in enumerate(SCAN_PROBES)]
        return ops, probes

    def _build_trajectories(self, rng, i):
        ops = [Op(f"preset:{name}", _run_call(["--preset", name], False), _run_check)
               for name in PRESETS]
        probes = []
        for n, p, steps in TRAJ_SIZES:
            for algo in TRAJ_ALGOS:
                # general-sum OGDA above the oracle cap raises today: a probe
                probe = algo == "OGDA-general-sum" and max(n, p) > CAP
                cfg = trajectory_config(rng, i, algo, n, p, 200 if probe else steps)
                path = self._write_config(f"traj-{i}-{cfg['name']}", cfg)
                op = Op(f"traj:{self.seed}:{i}:{cfg['name']}",
                        _run_call(["--config", str(path)], probe), _run_check)
                (probes if probe else ops).append(op)
        return ops, probes

    def warm_up(self, out_dir: Path):
        """One untimed small op that loads every layer the workload uses."""
        if self.name == "analyze-scan":
            rng = np.random.default_rng(self.seed)
            game, eta = scan_game(rng, "zero-sum", 3, 3)
            analyze(game, eta, _iterate(rng, 3, 3))
            return
        if self.name == "sweep":
            cfg = dict(DIAG12_SWEEP, name="warm-up",
                       eta={"start": 0.2, "stop": 0.25, "step": 0.025}, max_steps=500)
            argv = ["sweep", "--config", str(self._write_config("warm-up", cfg))]
        else:
            argv = ["run", "--preset", "matching-pennies-ogda"]
        code, _ = cli_call(argv + ["--out-dir", str(out_dir)])
        shutil.rmtree(out_dir, ignore_errors=True)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"warm-up op exited {code}")
