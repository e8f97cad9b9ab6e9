#!/usr/bin/env python3
"""saddle-lab benchmark: one seeded workload per run, in a fresh process.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Workloads: verify, sweep, analyze-scan, trajectories (see workloads.py).
Each is one closed-loop client that issues its operations back to back; a
pass is the workload's fixed list of operations, and passes repeat until
`--seconds` have gone by (at least three). The benchmark sets no thread knobs:
SADDLE_LAB_THREADS and the BLAS settings stay as the environment has them.

Times are taken with speed.SpeedClock, which scales wall time by the speed
a fixed probe measures every 5 ms, so that a host busy with other tenants
(on a shared 2-vCPU VM they slowed a process by up to 2x for minutes at a
time) does not show; see speed.py. They read roughly as seconds at the machine's fastest.

With `--trace 0` the run reports the end-to-end metrics, measured with no
instrumentation in the program:
  setup_s      median over five fresh processes of importing saddle_lab,
               generating the inputs and running one warm-up op (numpy is
               imported before, with the clock);
  wall_s       median over the run's passes of the time to complete a pass,
               in plain wall seconds for analyze-scan, whose BLAS threads
               slow the probe (workloads.UNSCALED);
  peak_rss_mb  the run's maximum resident set size.
The unscaled wall times are printed and kept in the results file.
With `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics of spans.py, derived from spans recorded around every
public function of each module. Self times there are wall time and include
the probes, about 1%.

Correctness checks run outside the timed region. An op that raises, exits 1
or 3, fails its check, or writes outputs whose sha256 differs from an earlier
run of the same input (in this run, or in an earlier run of the same code and
seed in this checkout) counts as failed. Two known defects of the seed are
counted apart from failures, so that the workloads themselves do not fail:
JSON outputs with bare NaN (`cli.nonstrict_json_files`) and games above the
oracle's cap of 64 that raise DimensionTooLargeError (probes, counted in
`linalg.eig_complex.cap_errors`). Probes run once per pass, untimed.

Stdout ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
The lines before it print each metric with its unit, the failed and
known-failure fractions, and, where a run has 20 ops or more, the median and
tail op latency. A run also writes everything it measured (machine info,
per-pass times, digests) to .perfbench/results/ in the checkout, and traced
runs write their spans to .perfbench/spans/. The sources must be under
src/saddle_lab.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from speed import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
WORKLOADS = ["verify", "sweep", "analyze-scan", "trajectories"]
SETUP_SAMPLES = 4          # fresh processes that only set up, besides the run's own
MIN_PASSES = 3
TAIL_LADDER = [99.9, 99.0, 95.0, 90.0, 75.0]
MIN_OPS_FOR_LATENCY = 20
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up in DIR, print the set-up time and exit (used for setup_s samples)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, run_dir: Path, clock):
    """Import saddle_lab, generate the inputs and run one warm-up op.

    Returns (probe units, seconds, Workload)."""
    u0, t0 = clock.read(), time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (imports numpy and saddle_lab)
    import saddle_lab
    if Path(saddle_lab.__file__).resolve().parent != ROOT / "src" / "saddle_lab":
        raise RuntimeError(f"imported saddle_lab from {saddle_lab.__file__}")
    wl = workloads.Workload(workload, seed, run_dir / "inputs")
    wl.warm_up(run_dir / "warm-up")
    return clock.read() - u0, time.perf_counter() - t0, wl


def setup_samples(args, run_dir: Path) -> list[dict]:
    samples = []
    for i in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             str(run_dir / f"setup-{i}"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "saddle_lab").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": blas_threads(),
            "SADDLE_LAB_THREADS": os.environ.get("SADDLE_LAB_THREADS")}


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """Latency at the highest ladder percentile with >= 10 samples beyond it."""
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    for pct in TAIL_LADDER:
        value = cuts[int(pct * 10) - 1]
        if sum(v > value for v in samples) >= 10:
            return pct, value
    return 50.0, cuts[499]


class Runner:
    def __init__(self, wl, run_dir: Path, clock, tracer=None):
        self.wl = wl
        self.clock = clock
        self.run_dir = run_dir
        self.tracer = tracer
        self.op_seq = 0
        # (probe units, seconds) of every untraced op that passed
        self.op_times: list[tuple[float, float]] = []
        self.pass_units = {False: [], True: []}
        self.pass_walls = {False: [], True: []}
        self.attempted = 0
        self.failures: list[str] = []
        self.nonstrict = {False: 0, True: 0}
        self.cap_errors = 0
        self.probes = 0
        self.output_bytes = {False: 0, True: 0}
        self.digests: dict[str, str] = {}

    def _execute(self, op, traced: bool) -> tuple[float, float, bool]:
        """Run, time and check one op; returns (probe units, seconds, passed)."""
        out_dir = self.run_dir / f"op-{self.op_seq}"
        out_dir.mkdir(parents=True)
        if traced:
            self.tracer.begin_op(self.op_seq)
        self.op_seq += 1
        u0, t0 = self.clock.read(), time.perf_counter()
        try:
            result = op.call(out_dir)
            problem = None
        except Exception as exc:  # an op that raises is a failed op
            result, problem = None, f"raised {type(exc).__name__}: {exc}"
        units, elapsed = self.clock.read() - u0, time.perf_counter() - t0
        if traced:
            self.tracer.end_op()
        self.attempted += 1
        try:
            if problem is None:
                outcome = op.check(result, out_dir)
                self.nonstrict[traced] += outcome.nonstrict_json
                self.output_bytes[traced] += outcome.output_bytes
                self.cap_errors += outcome.cap_error
                if not outcome.ok:
                    problem = outcome.detail
                elif self.digests.setdefault(op.key, outcome.digest) != outcome.digest:
                    problem = "output differs between passes"
        except Exception as exc:  # malformed output fails its check
            problem = f"check raised {type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problem is not None:
            self.failures.append(f"{op.key}: {problem}")
        return units, elapsed, problem is None

    def run_pass(self, index: int, traced: bool):
        ops, probes = self.wl.pass_ops(index)
        if traced:
            self.tracer.install()
        try:
            total_units = wall = 0.0
            for op in ops:
                units, elapsed, passed = self._execute(op, traced)
                total_units += units
                wall += elapsed
                if passed and not traced:
                    self.op_times.append((units, elapsed))
            for probe in probes:
                self.probes += 1
                self._execute(probe, traced)
        finally:
            if traced:
                self.tracer.uninstall()
        self.pass_units[traced].append(total_units)
        self.pass_walls[traced].append(wall)


def check_stored_digests(digests: dict[str, str], path: Path) -> list[str]:
    """Compare with earlier runs of the same code in this checkout, then merge."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    problems = [f"{key}: output differs from an earlier run"
                for key, value in digests.items() if stored.get(key, value) != value]
    stored.update(digests)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stored, indent=0, sort_keys=True))
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "saddle_lab" / "__init__.py").is_file():
        print(f"perfbench: no saddle_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    clock = SpeedClock()
    clock.start()
    try:
        if args.setup_only:
            run_dir = Path(args.setup_only)
            units, seconds, _ = set_up(args.workload, args.seed, run_dir, clock)
            shutil.rmtree(run_dir, ignore_errors=True)
            print(json.dumps({"units": units, "seconds": seconds}))
            return 0
        run_dir = WORK / f"run-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            return measure(args, run_dir, clock)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    finally:
        clock.stop()


def measure(args, run_dir: Path, clock: SpeedClock) -> int:
    setups = [] if args.trace else setup_samples(args, run_dir)
    own_units, own_seconds, wl = set_up(args.workload, args.seed, run_dir, clock)
    setups.append({"units": own_units, "seconds": own_seconds})
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    runner = Runner(wl, run_dir / "ops", clock, tracer)

    start = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() - start < args.seconds:
        runner.run_pass(index, traced=bool(args.trace) and index % 2 == 1)
        index += 1

    key = f"{args.workload}-seed{args.seed}"
    runner.failures += check_stored_digests(
        runner.digests, WORK / "digests" / code_digest() / f"{key}.json")
    untraced = runner.pass_units[False]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info(),
              "passes": len(untraced) + len(runner.pass_units[True]),
              "speed_probe": {"fastest_s": clock.fastest, "count": clock.count,
                        "interval_s": speed.INTERVAL, "reference_s": speed.REFERENCE_S},
              "attempted": runner.attempted, "failures": runner.failures,
              "failed_frac": len(runner.failures) / runner.attempted,
              "probes": runner.probes, "cap_errors": runner.cap_errors,
              "nonstrict_json_files": sum(runner.nonstrict.values()),
              "known_failure_frac": (runner.cap_errors + sum(runner.nonstrict.values()))
              / runner.attempted,
              "op_count": len(runner.op_times), "digests": runner.digests}
    if args.trace:
        traced = len(runner.pass_units[True])
        extra = {"cli.output_bytes": runner.output_bytes[True] / traced,
                 "cli.nonstrict_json_files": runner.nonstrict[True] / traced,
                 "trace.overhead_frac": statistics.median(runner.pass_units[True])
                 / statistics.median(untraced) - 1.0}
        metrics = spans.layer_metrics(tracer, traced, extra)
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        tracer.write(WORK / "spans" / f"{args.workload}.json")
    else:
        if wl.scaled:
            wall_s = clock.seconds(statistics.median(untraced))
            latencies = [clock.seconds(units) for units, _ in runner.op_times]
        else:
            wall_s = statistics.median(runner.pass_walls[False])
            latencies = [seconds for _, seconds in runner.op_times]
        metrics = {
            "setup_s": clock.seconds(statistics.median(s["units"] for s in setups)),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        record.update({"setup_samples": setups, "pass_units": untraced,
                       "raw_setup_s": statistics.median(s["seconds"] for s in setups),
                       "raw_wall_s": statistics.median(runner.pass_walls[False]),
                       "raw_pass_walls_s": runner.pass_walls[False]})
        # op latency percentiles only where a run has enough ops to rank
        if len(latencies) >= MIN_OPS_FOR_LATENCY:
            pct, tail = tail_latency(latencies)
            record.update({"op_p50_ms": statistics.median(latencies) * 1e3,
                           "op_tail_pct": pct, "op_tail_ms": tail * 1e3})
    record["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{key}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if "raw_wall_s" in record:
        print(f"raw_wall_s {record['raw_wall_s']:.6g} s, raw_setup_s "
              f"{record['raw_setup_s']:.6g} s (not scaled; fastest speed probe "
              f"{clock.fastest * 1e6:.4g} us of {clock.count})")
    if "op_p50_ms" in record:
        print(f"op_p50_ms {record['op_p50_ms']:.6g} ms")
        print(f"op_tail_ms {record['op_tail_ms']:.6g} ms "
              f"(p{record['op_tail_pct']:g} of {record['op_count']} ops)")
    print(f"failed_frac {record['failed_frac']:.6g} ratio "
          f"({len(runner.failures)} of {runner.attempted} ops)")
    print(f"known_failure_frac {record['known_failure_frac']:.6g} ratio "
          f"({runner.cap_errors} cap errors in {runner.probes} probes, "
          f"{record['nonstrict_json_files']} JSON files with bare NaN)")
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
