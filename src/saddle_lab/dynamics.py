"""The iteration engine for bilinear games and the companion form of the linear system.

GDA and OGDA advance the flat stacked state (x_t, y_t, x_{t-1}, y_{t-1});
DOGDA is OGDA on the doubled game (`games.doubled`). `run` iterates until a
step budget, a convergence floor, or a divergence cap is hit.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .games import BilinearGame, DimensionMismatchError, doubled, payoffs
from .linalg import as_vector, row_norms


class Algo(str, enum.Enum):
    GDA = "GDA"
    OGDA = "OGDA"
    DOGDA = "DOGDA"


class StopReason(str, enum.Enum):
    MAX_STEPS = "MaxSteps"
    CONVERGED = "Converged"
    DIVERGED = "Diverged"


DEFAULT_STOP_TOL = 1e-13   # just above the double-precision floor of log-distance plots
DEFAULT_BLOW_CAP = 1e12
# The record of a run starts with at most this many rows and doubles when full;
# every run of the verify suites (60000 steps at most) and of perfbench fits.
RECORD_ROWS_CAP = 1 << 16


class IterateState:
    """The stacked state (x_t, y_t, x_{t-1}, y_{t-1}) as one flat float64 vector
    `z`, with n = len(x); `x`, `y`, `x_prev` and `y_prev` are views of its blocks."""

    __slots__ = ("z", "n")

    def __init__(self, x, y, x_prev, y_prev):
        x, y = as_vector(x), as_vector(y)
        self.z = np.concatenate([x, y, as_vector(x_prev, x.size), as_vector(y_prev, y.size)])
        self.n = x.size

    @classmethod
    def of(cls, z: np.ndarray, n: int) -> "IterateState":
        """View an existing stacked vector as a state, without copying or checking it."""
        state = cls.__new__(cls)
        state.z, state.n = z, n
        return state

    @classmethod
    def at(cls, x, y) -> "IterateState":
        """The state resting at (x, y): the previous pair equals the current one."""
        return cls(x, y, x, y)

    x = property(lambda self: self.z[:self.n])
    y = property(lambda self: self.z[self.n:self.z.size // 2])
    x_prev = property(lambda self: self.z[self.z.size // 2:][:self.n])
    y_prev = property(lambda self: self.z[self.z.size // 2 + self.n:])

    def stacked(self) -> np.ndarray:
        """The stored vector (x_t, y_t, x_{t-1}, y_{t-1}) itself, not a copy."""
        return self.z


def companion_matrix(game: BilinearGame, eta: float) -> np.ndarray:
    """The 2(n+p)-square matrix driving Z_{t+1} = M Z_t for the homogeneous
    optimistic dynamics, Z_t = (x_t, y_t, x_{t-1}, y_{t-1})."""
    n, p = game.n, game.p
    i_n, i_p = np.eye(n), np.eye(p)
    z_np, z_pn = np.zeros((n, p)), np.zeros((p, n))
    z_nn, z_pp = np.zeros((n, n)), np.zeros((p, p))
    return np.block([
        [i_n, 2 * eta * game.A, z_nn, -eta * game.A],
        [2 * eta * game.B.T, i_p, -eta * game.B.T, z_pp],
        [i_n, z_np, z_nn, z_np],
        [z_pn, i_p, z_pn, z_pp],
    ])


@dataclass
class Trajectory:
    """Recorded states of one run: row k of `states` is the stacked state
    (x_t, y_t, x_{t-1}, y_{t-1}) at t = times[k]. A DOGDA run records the
    played pair only."""

    eta: float
    n: int
    states: np.ndarray
    times: list[int]
    stop_reason: StopReason = StopReason.MAX_STEPS

    @property
    def final(self) -> IterateState:
        """The last recorded state, a view of the last row of `states`."""
        return IterateState.of(self.states[-1], self.n)


def default_record_stride(n: int, p: int, max_steps: int) -> int:
    if n + p <= 16:
        return 1
    return max(1, math.ceil(max_steps / 4096))


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _norm(v: np.ndarray) -> float:
    # the arithmetic of np.linalg.norm on a 1-d float vector, without its overhead
    return math.sqrt(v.dot(v))


def run(game: BilinearGame, algo: Algo, eta: float, init: IterateState,
        max_steps: int = 10000, stop_tol: float = DEFAULT_STOP_TOL,
        blow_cap: float = DEFAULT_BLOW_CAP, record_stride: int | None = None) -> Trajectory:
    """Iterate until the step budget, the convergence floor, or the blow-up cap.

    Convergence means the full state moved by less than stop_tol in one step;
    divergence means the norm of x_t or of y_t exceeds blow_cap or is not
    finite (a single coordinate block is enough, blow-ups live in one
    eigendirection). Every record_stride-th state is kept, plus the final one.
    DOGDA runs OGDA on `games.doubled(game)`, starting each aux copy at the
    played one (previous pairs alike); both stop rules see the doubled state,
    and only the played pair is recorded.
    """
    algo = Algo(algo)
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    _check_count("max_steps", max_steps)
    if record_stride is None:
        record_stride = default_record_stride(game.n, game.p, max_steps)
    _check_count("record_stride", record_stride)
    if not (math.isfinite(blow_cap) and blow_cap > 0):
        raise ValueError(f"blow_cap must be finite and > 0, got {blow_cap}")
    if not (math.isfinite(stop_tol) and stop_tol >= 0):
        raise ValueError(f"stop_tol must be finite and >= 0, got {stop_tol}")
    n, p = game.n, game.p
    if init.n != n or init.z.size != 2 * (n + p):
        raise DimensionMismatchError(
            f"state is ({init.x.size}, {init.y.size}), game is ({n}, {p})")

    z = init.z.copy()  # the step loop writes into z
    played = slice(None)
    if algo is Algo.DOGDA:
        game = doubled(game)
        z = np.concatenate([np.tile(v, 2) for v in (init.x, init.y, init.x_prev, init.y_prev)])
        m = 2 * (n + p)
        played = np.r_[0:n, 2 * n + p:m, m:m + n, m + 2 * n + p:2 * m]
    states = np.empty((min(max_steps // record_stride + 2, RECORD_ROWS_CAP), 2 * (n + p)))
    # a step may overflow; the divergence test stops the run on that state
    with np.errstate(over="ignore", invalid="ignore"):
        states, times, stop = _simulate(game, algo is not Algo.GDA, eta, z, played, states,
                                        max_steps, stop_tol, blow_cap, record_stride)
    return Trajectory(float(eta), n, states[:len(times)], times, stop)


def _simulate(game: BilinearGame, optimistic: bool, eta: float, z: np.ndarray,
              played, states: np.ndarray, max_steps: int, stop_tol: float,
              blow_cap: float, record_stride: int) -> tuple[np.ndarray, list[int], StopReason]:
    """The step loop of `run`. z alternates with one scratch buffer, and
    z[played] is written into the next row of states at each recorded time;
    a full states array is replaced by one twice as long."""
    n, p = game.n, game.p
    A, BT, b, f = game.A, game.B.T, game.b, game.f
    x, y = z[:n], z[n:n + p]
    if optimistic:
        gx_old = A @ z[2 * n + p:] + b
        gy_old = BT @ z[n + p:2 * n + p] + f
    # x_{t-1}, y_{t-1} passed the divergence test one step before x_t, y_t;
    # only x_0, y_0 are tested here.
    prev_ok = _norm(x) <= blow_cap and _norm(y) <= blow_cap
    states[0] = z[played]
    times = [0]
    stop = StopReason.MAX_STEPS
    nxt = np.empty_like(z)
    for t in range(1, max_steps + 1):
        gx = A @ y + b
        gy = BT @ x + f
        if optimistic:
            np.add(x, eta * (2.0 * gx - gx_old), out=nxt[:n])
            np.add(y, eta * (2.0 * gy - gy_old), out=nxt[n:n + p])
            gx_old, gy_old = gx, gy
        else:
            np.add(x, eta * gx, out=nxt[:n])
            np.add(y, eta * gy, out=nxt[n:n + p])
        nxt[n + p:] = z[:n + p]
        z, nxt = nxt, z
        x, y = z[:n], z[n:n + p]
        if not (prev_ok and _norm(x) <= blow_cap and _norm(y) <= blow_cap):
            stop = StopReason.DIVERGED
        elif _norm(z - nxt) < stop_tol:
            stop = StopReason.CONVERGED
        if stop is not StopReason.MAX_STEPS or t % record_stride == 0 or t == max_steps:
            if len(times) == len(states):
                grown = np.empty((2 * len(states), states.shape[1]))
                grown[:len(states)] = states
                states = grown
            states[len(times)] = z[played]
            times.append(t)
            if stop is not StopReason.MAX_STEPS:
                break
    return states, times, stop


def recorded_payoffs(traj: Trajectory, game: BilinearGame) -> tuple[np.ndarray, np.ndarray]:
    """Payoffs (g1, g2) at each recorded state. A run stops at the first state
    that is not finite, so only the last row can be one; its payoffs are NaN."""
    n, p = game.n, game.p
    g1, g2 = np.full(len(traj.times), np.nan), np.full(len(traj.times), np.nan)
    k = len(g1) if np.isfinite(traj.states[-1]).all() else len(g1) - 1
    g1[:k], g2[:k] = payoffs(game, traj.states[:k, :n], traj.states[:k, n:n + p])
    return g1, g2


# Cells formatted per block of rows. This bounds the Python floats alive at
# once: at n+p=256 and 1501 rows, one tolist() of the whole table added about
# 17 MB to peak memory, and blocks of 256 rows about 5 MB.
CSV_BLOCK_CELLS = 8192


def trajectory_to_csv(traj: Trajectory, game: BilinearGame,
                      limit: tuple[np.ndarray, np.ndarray] | None = None,
                      comments: tuple[str, ...] = ()) -> str:
    """Render the recorded states as CSV.

    Header: t,x_0..x_{n-1},y_0..y_{p-1},dist_limit,g1,g2, with 17 significant
    digits per value. The dist_limit column is left empty when no limit
    prediction is supplied.
    """
    n, p = game.n, game.p
    xy = traj.states[:, :n + p]
    g1, g2 = recorded_payoffs(traj, game)
    target = None if limit is None else np.concatenate(limit)
    lines = [f"# {text}" for text in comments]
    cols = (["t"] + [f"x_{i}" for i in range(n)] + [f"y_{j}" for j in range(p)]
            + ["dist_limit", "g1", "g2"])
    lines.append(",".join(cols))
    # "%.17g" % v is format(v, ".17g") for a Python float
    row_format = ("%d" + ",%.17g" * (n + p) + ("," if target is None else ",%.17g")
                  + ",%.17g,%.17g")
    block_rows = max(1, CSV_BLOCK_CELLS // (n + p + 3))
    for start in range(0, len(traj.times), block_rows):
        block = slice(start, start + block_rows)
        columns = [xy[block]]
        if target is not None:
            columns.append(row_norms(xy[block] - target)[:, None])
        columns += [g1[block, None], g2[block, None]]
        table = np.hstack(columns).tolist()
        lines.extend(row_format % (t, *row) for t, row in zip(traj.times[block], table))
    return "\n".join(lines) + "\n"
