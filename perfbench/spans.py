"""In-memory spans around the public functions of each saddle_lab module.

`Tracer.install` wraps every function named in `TARGETS` and rebinds the
wrapper at every import site inside the package (for example
`spectral.cluster_scalars` as well as `linalg.cluster_scalars`), so each call
records one span: name, start, end, parent span, op id and thread id, plus a
small `info` value taken from the arguments or the result. Nothing is
written while spans are recorded; `write` dumps them when the run ends and
`layer_metrics` derives the per-layer numbers from them.

Per-step functions (`ogda_step`, `gda_step`, `dogda_step`, `IterateState`,
`as_vector`) are deliberately not wrapped: a span per step would dominate the
trace. Their cost shows up in `dynamics.run.self_s`.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import sys
import threading
import time
import warnings
from collections import defaultdict
from pathlib import Path

# A span is a list: [name, start, end, parent span or None, op id, thread id, info].
NAME, START, END, PARENT, OP, TID, INFO = range(7)


def _game_key(game) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (game.A, game.B, game.b, game.c, game.e, game.f):
        h.update(arr.tobytes())
    return h.hexdigest()


def _run_info(args, kwargs, result, exc):
    if exc is not None:
        return None
    return (result.times[-1], len(result.states),
            result.stop_reason.value == "Diverged")


def _csv_info(args, kwargs, result, exc):
    return None if exc is not None else (len(args[0].states), len(result))


def _cluster_info(args, kwargs, result, exc):
    values = args[0] if args else kwargs["values"]
    return len(values)


def _eig_info(args, kwargs, result, exc):
    return type(exc).__name__ == "DimensionTooLargeError"


def _rate_report_info(args, kwargs, result, exc):
    game = args[0]
    eta = args[1] if len(args) > 1 else kwargs.get("eta")
    algo = args[2] if len(args) > 2 else kwargs.get("algo", "OGDA")
    key = (_game_key(game), float(eta), str(getattr(algo, "value", algo)))
    return (key, exc is None and result.applicable)


def _diag_info(args, kwargs, result, exc):
    return exc is None and result.value == "Borderline"


def _predict_info(args, kwargs, result, exc):
    return exc is None and result.valid


def _points_info(args, kwargs, result, exc):
    return len(args[0].states)


# (module, function, info hook). Suites are added from the verify module.
TARGETS = [
    ("dynamics", "run", _run_info),
    ("dynamics", "companion_matrix", None),
    ("dynamics", "trajectory_to_csv", _csv_info),
    ("games", "payoffs", None),
    ("games", "nash_set", None),
    ("games", "solve_affine", None),
    ("linalg", "cluster_scalars", _cluster_info),
    ("linalg", "eig_complex", _eig_info),
    ("linalg", "sym_eig", None),
    ("linalg", "pinv", None),
    ("linalg", "project", None),
    ("linalg", "kernel_basis", None),
    ("linalg", "image_basis", None),
    ("spectral", "rate_report", _rate_report_info),
    ("spectral", "lambda_spectrum", None),
    ("spectral", "coupling_spectrum", None),
    ("spectral", "is_diagonalizable", _diag_info),
    ("spectral", "optimal_eta", None),
    ("predict", "predict_limit", _predict_info),
    ("predict", "distance_to_nash", None),
    ("predict", "tight_witness", None),
    ("verify", "estimate_rate", _points_info),
    ("verify", "check_bound", None),
    ("verify", "classify", None),
    ("verify", "oracle_reconcile", None),
    ("cli", "main", None),
]

# The 23 property suites `saddle-lab verify` runs, by function name.
SUITES = [
    "penrose", "pinv_kernel", "projection_idempotent", "eig_determinant",
    "sym_eig_reconstruction", "nash_scale_invariance", "accelerate_spectrum",
    "fixed_points", "linear_system_equivalence", "affine_shift_equivalence",
    "dogda_decoupling", "spectrum_oracle", "root_residuals",
    "rate_realized_by_spectrum", "optimal_eta_argmin", "part2_monotonicity",
    "limit_predictions", "init_independence", "prediction_is_fixed_point",
    "witness_rates", "cooperation_never_diverges", "part2_bounds",
    "part3a_bounds",
]

_CALLS_SELF = [
    "dynamics.companion_matrix", "games.payoffs", "games.nash_set",
    "games.solve_affine", "linalg.sym_eig", "linalg.project",
    "linalg.kernel_basis", "linalg.image_basis", "spectral.lambda_spectrum",
    "spectral.coupling_spectrum", "predict.distance_to_nash",
    "predict.tight_witness", "verify.check_bound", "verify.classify",
    "verify.oracle_reconcile", "cli.main",
]

# name -> (unit, better); the order is the order metrics are printed in.
PER_LAYER: dict[str, tuple[str, str]] = {}


def _metric(name: str, unit: str, better: str = "lower"):
    PER_LAYER[name] = (unit, better)


for _fn in ("dynamics.run", "dynamics.trajectory_to_csv", "linalg.cluster_scalars",
            "linalg.eig_complex", "linalg.pinv", "spectral.rate_report",
            "spectral.is_diagonalizable", "predict.predict_limit",
            "verify.estimate_rate", *_CALLS_SELF):
    _metric(f"{_fn}.calls", "count")
    _metric(f"{_fn}.self_s", "s")
_metric("dynamics.run.steps", "count")
_metric("dynamics.run.us_per_step", "us")
_metric("dynamics.run.recorded_frac", "ratio")
_metric("dynamics.run.diverged_frac", "ratio")
_metric("dynamics.trajectory_to_csv.rows", "count")
_metric("dynamics.trajectory_to_csv.bytes", "B")
_metric("dynamics.trajectory_to_csv.us_per_row", "us")
_metric("linalg.cluster_scalars.max_k", "count")
_metric("linalg.eig_complex.cap_errors", "count")
_metric("linalg.pinv.warnings", "count")
_metric("spectral.rate_report.p50_us", "us")
_metric("spectral.rate_report.applicable_frac", "ratio", "higher")
_metric("spectral.rate_report.repeat_frac", "ratio")
_metric("spectral.is_diagonalizable.borderline_frac", "ratio")
_metric("spectral.optimal_eta.calls", "count")
_metric("predict.predict_limit.valid_frac", "ratio", "higher")
_metric("verify.estimate_rate.points", "count")
for _suite in SUITES:
    _metric(f"verify.suite.{_suite}.wall_s", "s")
_metric("cli.output_bytes", "B")
_metric("cli.nonstrict_json_files", "count")
_metric("trace.overhead_frac", "ratio")


class Tracer:
    """Records spans while installed; `op` marks the benchmark operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.warning_counts: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self._root: list | None = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._warnings_ctx = None
        self.t0 = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, info_hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span = [name, 0.0, 0.0, parent, tracer.op_id, threading.get_ident(), None]
            tracer.spans.append(span)
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                stack.pop()
                if info_hook is not None:
                    span[INFO] = info_hook(args, kwargs, None, exc)
                raise
            span[END] = time.perf_counter()
            stack.pop()
            if info_hook is not None:
                span[INFO] = info_hook(args, kwargs, result, None)
            return result

        return wrapper

    def install(self):
        """Wrap every target and rebind it at each import site in saddle_lab."""
        replace: dict[int, tuple[object, object]] = {}
        targets = list(TARGETS) + [("verify", f"suite_{s}", None) for s in SUITES]
        for mod_name, attr, hook in targets:
            # a function the program no longer has simply reports zero calls
            fn = getattr(importlib.import_module(f"saddle_lab.{mod_name}"), attr, None)
            if fn is not None:
                replace[id(fn)] = (fn, self._wrap(f"{mod_name}.{attr}", fn, hook))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "saddle_lab"
                                   or mod_name.startswith("saddle_lab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))
        # Count warnings by the innermost open span; "always" so repeats count.
        self._warnings_ctx = warnings.catch_warnings()
        self._warnings_ctx.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._count_warning

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()
        if self._warnings_ctx is not None:
            self._warnings_ctx.__exit__(None, None, None)
            self._warnings_ctx = None

    def _count_warning(self, message, category, filename, lineno, file=None, line=None):
        stack = self._stack()
        self.warning_counts[stack[-1][NAME] if stack else "<none>"] += 1

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._root = ["op", time.perf_counter(), 0.0, None, op_id,
                      threading.get_ident(), None]
        self.spans.append(self._root)

    def end_op(self):
        self._root[END] = time.perf_counter()
        self._root = None
        self.op_id = None

    def write(self, path: Path):
        """Dump every span as [id, name, start_s, end_s, parent_id, op, thread]."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[i, s[NAME], round(s[START] - self.t0, 9), round(s[END] - self.t0, 9),
                 None if s[PARENT] is None else ids[id(s[PARENT])], s[OP], s[TID]]
                for i, s in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent",
                                  "op", "thread"], "spans": rows}, fh)
            fh.write("\n")

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part covered by child spans on its thread.

        Children on one thread run one after another inside their parent, so
        the covered part is the sum of their durations.
        """
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            parent = s[PARENT]
            if parent is not None and parent[TID] == s[TID]:
                covered[id(parent)] += s[END] - s[START]
        return {id(s): s[END] - s[START] - covered[id(s)] for s in self.spans}


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric; counts and times are per traced pass."""
    self_t = tracer.self_times()
    by_name: dict[str, list[list]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s[NAME]].append(s)
    out: dict[str, float] = {}

    def calls_self(fn: str):
        spans = by_name.get(fn, [])
        out[f"{fn}.calls"] = len(spans) / passes
        out[f"{fn}.self_s"] = sum(self_t[id(s)] for s in spans) / passes
        return spans

    runs = calls_self("dynamics.run")
    done = [s[INFO] for s in runs if s[INFO] is not None]
    steps = sum(i[0] for i in done)
    out["dynamics.run.steps"] = steps / passes
    out["dynamics.run.us_per_step"] = _frac(
        sum(self_t[id(s)] for s in runs) * 1e6, steps)
    out["dynamics.run.recorded_frac"] = _frac(sum(i[1] for i in done), steps)
    out["dynamics.run.diverged_frac"] = _frac(sum(i[2] for i in done), len(done))

    csv = calls_self("dynamics.trajectory_to_csv")
    rows = sum(s[INFO][0] for s in csv if s[INFO] is not None)
    out["dynamics.trajectory_to_csv.rows"] = rows / passes
    out["dynamics.trajectory_to_csv.bytes"] = sum(
        s[INFO][1] for s in csv if s[INFO] is not None) / passes
    out["dynamics.trajectory_to_csv.us_per_row"] = _frac(
        sum(s[END] - s[START] for s in csv) * 1e6, rows)

    clusters = calls_self("linalg.cluster_scalars")
    out["linalg.cluster_scalars.max_k"] = max((s[INFO] for s in clusters), default=0)
    eigs = calls_self("linalg.eig_complex")
    out["linalg.eig_complex.cap_errors"] = sum(bool(s[INFO]) for s in eigs) / passes
    calls_self("linalg.pinv")
    out["linalg.pinv.warnings"] = tracer.warning_counts.get("linalg.pinv", 0) / passes

    reports = calls_self("spectral.rate_report")
    durations = [(s[END] - s[START]) * 1e6 for s in reports]
    out["spectral.rate_report.p50_us"] = statistics.median(durations) if durations else 0.0
    out["spectral.rate_report.applicable_frac"] = _frac(
        sum(bool(s[INFO][1]) for s in reports), len(reports))
    seen, repeats = set(), 0
    for s in reports:
        key = (s[OP], s[INFO][0])
        repeats += key in seen
        seen.add(key)
    out["spectral.rate_report.repeat_frac"] = _frac(repeats, len(reports))
    diag = calls_self("spectral.is_diagonalizable")
    out["spectral.is_diagonalizable.borderline_frac"] = _frac(
        sum(bool(s[INFO]) for s in diag), len(diag))
    out["spectral.optimal_eta.calls"] = len(by_name.get("spectral.optimal_eta", [])) / passes

    preds = calls_self("predict.predict_limit")
    out["predict.predict_limit.valid_frac"] = _frac(
        sum(bool(s[INFO]) for s in preds), len(preds))

    fits = calls_self("verify.estimate_rate")
    out["verify.estimate_rate.points"] = sum(s[INFO] for s in fits) / passes
    for suite in SUITES:
        out[f"verify.suite.{suite}.wall_s"] = sum(
            s[END] - s[START] for s in by_name.get(f"verify.suite_{suite}", [])) / passes

    for fn in _CALLS_SELF:
        calls_self(fn)
    out.update(extra)
    return {name: float(out[name]) for name in PER_LAYER}
