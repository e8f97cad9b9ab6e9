#!/usr/bin/env python3
"""Time the step kernel and print one JSON line.

`run`: microseconds per step of OGDA at n+p in {4, 32, 128, 256}, the median
of five runs of 4000 steps, each step recorded. `run_batch`: row-steps per
second at k = 8 step sizes, n+p in {4, 32}, the median of five batches.
`trajectory_to_csv`: microseconds per row of the CSV of a 4000-step OGDA
record at n+p in {4, 32, 256}, with its distance column, the median of five
renderings. `rate_report` and `predict_limit`: microseconds per call of the
public function at one step size, n+p in {4, 128}, the median of five
batches of 50 calls. `analysis`: microseconds per shared analysis of one
game, at n+p in {4, 128}, timed the same way: a `CouplingSpectrum`, then
`rate_curve` at one step size, `predict.limit`, `predict.distance` and
`predict.witness` from that spectrum and report. `parse_config`: microseconds per call of
`cli.parse_config` on the config of the n+p = 256 game, read back from its
JSON text, timed the same way. The games are seeded zero-sum games with A
scaled by 1/sqrt(n), and eta is small enough that no run stops early.

    PYTHONPATH=src python3 scripts/kernel_timing.py
"""

import json
import time

import numpy as np

from saddle_lab import cli, dynamics, predict, spectral
from saddle_lab.games import BilinearGame, game_to_json

STEPS = 4000
REPEATS = 5
CALLS = 50  # calls per timed batch of an analysis function


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
    return (predict.limit(spec, report, init), predict.distance(spec.nash, init),
            predict.witness(spec, report))


def median_time(call) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return sorted(times)[REPEATS // 2]


def main() -> None:
    settings = {"max_steps": STEPS, "stop_tol": 0.0, "record_stride": 1}
    out = {}
    for size in (4, 32, 128, 256):
        g, init = game(size)
        seconds = median_time(lambda: dynamics.run(g, "OGDA", 0.01, init, **settings))
        out[f"run_us_per_step_np{size}"] = seconds / STEPS * 1e6
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
    for size in (4, 128):
        g, init = game(size)
        seconds = median_time(lambda: [spectral.rate_report(g, 0.01) for _ in range(CALLS)])
        out[f"rate_report_us_np{size}"] = seconds / CALLS * 1e6
        seconds = median_time(
            lambda: [predict.predict_limit(g, "OGDA", 0.01, init) for _ in range(CALLS)])
        out[f"predict_limit_us_np{size}"] = seconds / CALLS * 1e6
        seconds = median_time(lambda: [analysis(g, init) for _ in range(CALLS)])
        out[f"analysis_us_np{size}"] = seconds / CALLS * 1e6
    g, init = game(256)
    config = json.loads(json.dumps({
        "game": game_to_json(g), "algo": "OGDA", "eta": 0.01, "max_steps": STEPS,
        "init": {"x0": init.x.tolist(), "y0": init.y.tolist()}}))
    seconds = median_time(lambda: [cli.parse_config(config) for _ in range(CALLS)])
    out["parse_config_us_np256"] = seconds / CALLS * 1e6
    print(json.dumps(out))


if __name__ == "__main__":
    main()
