#!/usr/bin/env python3
"""Time the step kernel and print one JSON line.

Every time is taken with perfbench's `speed.SpeedClock`, which scales wall
time by the speed of a fixed probe run every 5 ms, so that a host busy with
other tenants does not show; figures read roughly as seconds on a quiet
2-vCPU x86-64 machine at its fastest. The clock runs on SIGALRM, so run the
script in the main thread.

`run`: microseconds per step of OGDA at n+p in {4, 32, 128, 256}, and of
GDA and DOGDA at n+p = 4, the median of five runs of 4000 steps, each step
recorded, with the stop rules off.
`run_converging`: microseconds per run of OGDA at eta 1.0 on the n+p = 4
game with the default stop rules, which converges in the step count printed
beside it, the median of five. `run_batch`: row-steps per
second at k = 8 step sizes, n+p in {4, 32}, the median of five batches.
`trajectory_to_csv`: microseconds per row of the CSV of a 4000-step OGDA
record at n+p in {4, 32, 256}, with its distance column, the median of five
renderings. `run_json`: milliseconds per `cli.cmd_run` with `--format json`
of the config of the 4000-step OGDA run at n+p in {4, 32}, each step
recorded, into a temporary directory: the run, its analysis and fit, and
the two JSON documents, the median of five. Every analysis below is timed
on fresh copies of its game, made before the clock starts, so that no call
finds the game in the memo of the last game analysed (`games.memo`).
`rate_report` and `predict_limit`: microseconds per call of the public
function at one step size, n+p in {4, 128}, the median of five batches of
50 calls. `analysis`: microseconds per shared analysis of one game, at n+p
in {4, 128}, timed the same way: a `CouplingSpectrum`, then `rate_curve`
at one step size, `predict.limit`, `predict.distance` and
`predict.witness` from that spectrum and report.
`analysis_op`: microseconds per analysis op of the analysis-scan benchmark,
at n+p in {4, 64}, timed the same way: `rate_report`, `lambda_spectrum`,
`predict_limit`, `distance_to_nash` and `tight_witness` on one game.
`dogda_analysis`: microseconds per DOGDA analysis, the same as `analysis`
without the witness, of a seeded general-sum game at n+p = 256 with nonzero
b, c, e, f, the median of five.
`parse_config`: microseconds per call of
`cli.parse_config` on the config of the n+p = 256 game, read back from its
JSON text, the median of five batches of 50 calls. The games are seeded zero-sum games with A
scaled by 1/sqrt(n), and eta is small enough that no run stops early.
`general_sum_curve`: microseconds per general-sum analysis over a sweep, a
`CouplingSpectrum` and its `rate_curve` at 50 steps up to
0.99 / (2 sqrt(mu_max)), timed together on the 40x24 game B = -A S of
`verify.random_spd_coupled_game` (rng seed 3), the median of five.
`sweep_diag12`: milliseconds per sweep of the diag(1, 2) config of
scripts/step_size_sweep.py as `saddle-lab sweep` runs it (`cli.sweep_fits`):
its 48 applicable step sizes as one `run_batch` of up to 3000 steps, each
run fitted as it stops, the median of five. `fit`: microseconds per fit of
one run of that config, at eta 0.05, which runs to its 3000 steps:
`verify.estimate_rate`, `check_bound` and `classify` on its 3001 recorded
states, the median of five.

    PYTHONPATH=src python3 scripts/kernel_timing.py
"""

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
from speed import SpeedClock  # noqa: E402
from step_size_sweep import CONFIG as DIAG12_SWEEP  # noqa: E402

from saddle_lab import cli, dynamics, predict, spectral, verify  # noqa: E402
from saddle_lab.games import BilinearGame, game_to_json  # noqa: E402

STEPS = 4000
REPEATS = 5
CALLS = 50  # calls per timed batch of an analysis function
CLOCK = SpeedClock()  # started and stopped by main


def game(size: int):
    rng = np.random.default_rng(0)
    n = size // 2
    a = rng.normal(size=(n, n)) / np.sqrt(n)
    return (BilinearGame.zero_sum_game(a),
            dynamics.IterateState.at(rng.normal(size=n), rng.normal(size=n)))


def analysis(g, init):
    """One shared analysis at eta = 0.01: the spectrum, its report, the
    limit, the distance to the Nash set and the rate witness."""
    spec = spectral.CouplingSpectrum(g)
    report = spectral.rate_curve(spec, [0.01])[0]
    return (predict.limit(spec, report, init), predict.distance(spec, init),
            predict.witness(spec, report))


def analysis_op(g, init):
    """The five public calls of one analysis-scan op at eta = 0.01."""
    report = spectral.rate_report(g, 0.01)
    return (report, spectral.lambda_spectrum(g, 0.01),
            predict.predict_limit(g, "OGDA", 0.01, init),
            predict.distance_to_nash(g, init), predict.tight_witness(g, 0.01))


def dogda_game(size: int):
    rng = np.random.default_rng(1)
    n = size // 2
    a, b = (rng.normal(size=(n, n)) / np.sqrt(n) for _ in range(2))
    return (BilinearGame(a, b, *(rng.normal(size=n) for _ in range(4))),
            dynamics.IterateState.at(rng.normal(size=n), rng.normal(size=n)))


def dogda_analysis(g, init):
    """One DOGDA analysis at eta = 0.01: the spectrum, its report, the limit
    and the distance of the doubled state to the doubled Nash set."""
    spec = spectral.CouplingSpectrum(g, "DOGDA")
    report = spectral.rate_curve(spec, [0.01])[0]
    return predict.limit(spec, report, init), predict.distance(spec, init)


def general_sum_curve(g):
    """One general-sum spectrum and its curve at 50 steps below the half
    threshold."""
    spec = spectral.CouplingSpectrum(g)
    half = 0.5 / np.sqrt(spec.mu_max)
    return spectral.rate_curve(spec, half * np.linspace(0.02, 0.99, 50))


def run_config(g, init) -> dict:
    """The config of the 4000-step OGDA run of `g` from `init`, read back
    from its JSON text."""
    return json.loads(json.dumps({
        "game": game_to_json(g), "algo": "OGDA", "eta": 0.01, "max_steps": STEPS,
        "init": {"x0": init.x.tolist(), "y0": init.y.tolist()}}))


def clocked(call) -> float:
    """Seconds of CLOCK that one call takes. The call starts just after a
    probe: a reading between two probes runs at the last probe's speed, and
    the next probe counts that stretch again at the mean of both speeds, so
    a short call read across a probe could take less than no time."""
    count = CLOCK.count
    while CLOCK.count == count:
        pass
    start = CLOCK.read()
    call()
    return CLOCK.seconds(CLOCK.read() - start)


def median_time(call) -> float:
    return sorted(clocked(call) for _ in range(REPEATS))[REPEATS // 2]


def fresh_us(function, g, *args, calls: int | None = None) -> float:
    """Microseconds per call of function(copy, *args): the median of REPEATS
    batches of `calls` (default CALLS) calls, each on its own copy of the
    game g, the copies made before the batch is timed."""
    calls = CALLS if calls is None else calls
    times = []
    for _ in range(REPEATS):
        copies = [dataclasses.replace(g) for _ in range(calls)]

        def batch():
            for copy in copies:
                function(copy, *args)

        times.append(clocked(batch))
    return sorted(times)[REPEATS // 2] / calls * 1e6


def main() -> None:
    CLOCK.start()
    try:
        out = layers()
    finally:
        CLOCK.stop()
    print(json.dumps(out))


def layers() -> dict:
    settings = {"max_steps": STEPS, "stop_tol": 0.0, "record_stride": 1}
    out = {}
    for size in (4, 32, 128, 256):
        g, init = game(size)
        seconds = median_time(lambda: dynamics.run(g, "OGDA", 0.01, init, **settings))
        out[f"run_us_per_step_np{size}"] = seconds / STEPS * 1e6
    g, init = game(4)
    for algo in ("GDA", "DOGDA"):
        seconds = median_time(lambda: dynamics.run(g, algo, 0.01, init, **settings))
        out[f"run_us_per_step_{algo.lower()}_np4"] = seconds / STEPS * 1e6

    def converging():
        return dynamics.run(g, "OGDA", 1.0, init, max_steps=10 ** 6)

    out["run_converging_us_np4"] = median_time(converging) * 1e6
    out["run_converging_steps_np4"] = int(converging().times[-1])
    etas = [0.01 + 0.001 * i for i in range(8)]
    for size in (4, 32):
        g, init = game(size)
        seconds = median_time(lambda: list(dynamics.run_batch(g, "OGDA", etas, init, **settings)))
        out[f"run_batch_row_steps_per_s_k8_np{size}"] = len(etas) * STEPS / seconds
    for size in (4, 32, 256):
        g, init = game(size)
        traj = dynamics.run(g, "OGDA", 0.01, init, **settings)
        origin = (np.zeros(g.n), np.zeros(g.p))  # the Nash point of these games
        seconds = median_time(lambda: dynamics.trajectory_to_csv(traj, g, limit=origin))
        out[f"csv_us_per_row_np{size}"] = seconds / len(traj.times) * 1e6
    for size in (4, 32):
        cfg = cli.parse_config(run_config(*game(size)))
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            seconds = median_time(lambda: cli.cmd_run([cfg], Path(tmp), "json"))
        out[f"run_json_ms_np{size}"] = seconds * 1e3
    for size in (4, 128):
        g, init = game(size)
        out[f"rate_report_us_np{size}"] = fresh_us(spectral.rate_report, g, 0.01)
        out[f"predict_limit_us_np{size}"] = fresh_us(predict.predict_limit, g, "OGDA",
                                                     0.01, init)
        out[f"analysis_us_np{size}"] = fresh_us(analysis, g, init)
    for size in (4, 64):
        g, init = game(size)
        out[f"analysis_op_us_np{size}"] = fresh_us(analysis_op, g, init)
    g, init = dogda_game(256)
    out["dogda_analysis_us_np256"] = fresh_us(dogda_analysis, g, init, calls=1)
    config = run_config(*game(256))
    seconds = median_time(lambda: [cli.parse_config(config) for _ in range(CALLS)])
    out["parse_config_us_np256"] = seconds / CALLS * 1e6
    g = verify.random_spd_coupled_game(np.random.default_rng(3), 40, 24)
    out["general_sum_curve_us_np64"] = fresh_us(general_sum_curve, g, calls=1)
    cfg = cli.parse_config(DIAG12_SWEEP)
    out["sweep_diag12_ms"] = median_time(lambda: cli.sweep_fits(cfg)) * 1e3
    spec = spectral.CouplingSpectrum.of(cfg.game, cfg.algo)
    report = spectral.rate_curve(spec, [0.05])[0]
    traj = dynamics.run(cfg.game, cfg.algo, 0.05, cfg.init, **cfg.step_settings())
    pred, dist = predict.limit(spec, report, cfg.init), predict.distance(spec, cfg.init)

    def fit():
        return (verify.estimate_rate(traj, pred), verify.check_bound(traj, report, dist, pred),
                verify.classify(traj, spec))

    out["fit_us_diag12"] = median_time(fit) * 1e6
    return out


if __name__ == "__main__":
    main()
