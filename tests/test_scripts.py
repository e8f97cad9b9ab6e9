"""The end-to-end scripts, run in process into a temporary directory."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from saddle_lab import cli, spectral

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, out, monkeypatch):
    module = load_script(name)
    monkeypatch.setattr(sys, "argv", [name, str(out)])
    return module.main()


def test_reproduce_experiments(tmp_path, monkeypatch):
    assert run_script("reproduce_experiments", tmp_path, monkeypatch) == 0
    for preset in cli.PRESETS.values():
        for cfg in preset():
            assert (tmp_path / f"{cfg['name']}.csv").stat().st_size > 0
            json.loads((tmp_path / f"{cfg['name']}.verify.json").read_text())


def test_step_size_sweep_finds_the_optimum(tmp_path, monkeypatch):
    assert run_script("step_size_sweep", tmp_path, monkeypatch) == 0
    text = (tmp_path / "diag12-sweep.sweep.csv").read_text()
    prefix = "# empirical_argmin_eta="
    [argmin] = [line[len(prefix):] for line in text.splitlines() if line.startswith(prefix)]
    # within one grid step of the closed form
    assert float(argmin) == pytest.approx(spectral.optimal_eta(1.0, 4.0)[0], abs=0.005)


def test_kernel_timing_prints_every_layer(monkeypatch, capsys):
    module = load_script("kernel_timing")
    monkeypatch.setattr(module, "STEPS", 20)
    monkeypatch.setattr(module, "REPEATS", 1)
    monkeypatch.setattr(module, "CALLS", 1)
    module.main()
    out = json.loads(capsys.readouterr().out)
    keys = ([f"run_us_per_step_np{size}" for size in (4, 32, 128, 256)]
            + ["run_us_per_step_gda_np4", "run_us_per_step_dogda_np4"]
            + ["run_converging_us_np4", "run_converging_steps_np4"]
            + [f"run_batch_row_steps_per_s_k8_np{size}" for size in (4, 32)]
            + [f"csv_us_per_row_np{size}" for size in (4, 32, 256)]
            + [f"run_json_ms_np{size}" for size in (4, 32)]
            + [f"{name}_us_np{size}" for name in ("rate_report", "predict_limit", "analysis")
               for size in (4, 128)]
            + [f"analysis_op_us_np{size}" for size in (4, 64)]
            + ["dogda_analysis_us_np256", "parse_config_us_np256",
               "general_sum_curve_us_np64", "sweep_diag12_ms", "fit_us_diag12"])
    assert sorted(out) == sorted(keys)
    assert all(out[key] > 0 for key in keys)
    assert type(out["run_converging_steps_np4"]) is int
