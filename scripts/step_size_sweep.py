#!/usr/bin/env python3
"""Sweep the step size for the diag(1, 2) coupling and compare the fitted
convergence ratio against the closed form, marking the empirical optimum.

Writes <out>/diag12-sweep.sweep.csv; the closed-form optimum is eta ~ 0.2804
(ratio ~ 0.956), and the sweep argmin should land within the grid of it.
"""

import json
import sys
import tempfile
from pathlib import Path

from saddle_lab import cli, spectral

CONFIG = {
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


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    eta_star, lam_star = spectral.optimal_eta(1.0, 4.0)
    print(f"closed-form optimum: eta*={eta_star:.6f}, ratio*={lam_star:.6f}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / f"{CONFIG['name']}.json"
        cfg_path.write_text(json.dumps(CONFIG))
        return cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)])


if __name__ == "__main__":
    sys.exit(main())
