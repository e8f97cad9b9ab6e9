"""The iteration engine for bilinear games and the companion form of the linear system.

GDA and OGDA advance the flat stacked state (x_t, y_t, x_{t-1}, y_{t-1});
DOGDA is OGDA on the doubled game (`games.doubled`). `run_batch` iterates
many step sizes at once, as the rows of one state block, until a step
budget, a convergence floor, or a divergence cap is hit, and hands out each
row as it stops; `run` is `run_batch` at one step size. The step body,
`_simulate`, runs on 1-d operands for one step size and on a (k, 2(n+p))
block for k of them. It
advances STOP_TEST_STEPS steps at a time and tests the stop rules once per
chunk, on every step of it, so a run stops at the same step, with the same
bits, as one tested after every step.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .games import BilinearGame, DimensionMismatchError, doubled, payoffs
from .linalg import as_vector, json_number, row_norms


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
# Steps advanced between two tests of the stop rules. A block holds the states
# of one chunk, (T+1) x rows x 2(n+p) float64 cells with T this many steps
# (4(n+p) for DOGDA's doubled state), and their differences, T x rows x 2(n+p)
# more.
STOP_TEST_STEPS = 64


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
    eta = json_number(eta, "eta", 0, strict=True)
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
    (x_t, y_t, x_{t-1}, y_{t-1}) at t = times[k]. `times` is an int64 array
    derived from the stop step and the stride: 0, stride, 2 stride, ...
    below the stop step, then the stop step. A DOGDA run records the played
    pair only."""

    eta: float
    n: int
    states: np.ndarray
    times: np.ndarray
    stop_reason: StopReason = StopReason.MAX_STEPS

    @property
    def final(self) -> IterateState:
        """The last recorded state, a view of the last row of `states`."""
        return IterateState.of(self.states[-1], self.n)


def default_record_stride(n: int, p: int, max_steps: int) -> int:
    if n + p <= 16:
        return 1
    return max(1, math.ceil(max_steps / 4096))


@dataclass
class _Plan:
    """What `run` and `run_batch` share once the settings are checked: the
    game the loop iterates (doubled for DOGDA), the initial state in it (never
    written), the indices of the recorded pair and its width 2(n+p)."""

    game: BilinearGame
    n: int
    optimistic: bool
    z0: np.ndarray
    played: slice | np.ndarray
    max_steps: int
    stop_tol: float
    blow_cap: float
    record_stride: int
    width: int


def _plan(game: BilinearGame, algo: Algo, init: IterateState, max_steps: int,
          stop_tol: float, blow_cap: float, record_stride: int | None) -> _Plan:
    algo = Algo(algo)
    max_steps = json_number(max_steps, "max_steps", 1, integer=True)
    if record_stride is None:
        record_stride = default_record_stride(game.n, game.p, max_steps)
    record_stride = json_number(record_stride, "record_stride", 1, integer=True)
    stop_tol = json_number(stop_tol, "stop_tol", 0)
    blow_cap = json_number(blow_cap, "blow_cap", 0, strict=True)
    n, p = game.n, game.p
    if init.n != n or init.z.size != 2 * (n + p):
        raise DimensionMismatchError(
            f"state is ({init.x.size}, {init.y.size}), game is ({n}, {p})")
    z0, played = init.z, slice(None)
    if algo is Algo.DOGDA:
        game = doubled(game)
        z0 = np.concatenate([np.tile(v, 2) for v in (init.x, init.y, init.x_prev, init.y_prev)])
        m = 2 * (n + p)
        played = np.r_[0:n, 2 * n + p:m, m:m + n, m + 2 * n + p:2 * m]
    return _Plan(game, n, algo is not Algo.GDA, z0, played, max_steps, stop_tol, blow_cap,
                 record_stride, 2 * (n + p))


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
    and only the played pair is recorded. The one row of `run_batch` at eta.
    """
    [(_, traj)] = run_batch(game, algo, [eta], init, max_steps, stop_tol, blow_cap,
                            record_stride)
    return traj


# A batch advances in blocks of rows whose longest record (rows x (max_steps //
# record_stride + 2) x 2(n+p)) holds at most this many float64 cells, 16 MB,
# or of one row when a row's record alone is larger. The chunk of states and
# differences that `_simulate` keeps is held to the same budget; it is the
# smaller unless a row records fewer than about 2 STOP_TEST_STEPS states. A
# row's record grows a chunk at a time and is handed out when the row stops,
# so a block holds the worst case only while every row runs to max_steps.
# 2**21 makes the 48 step sizes of the diag(1, 2) sweep one block (48 x 3002 x
# 8 cells), whose 18 rows at eta 0.05-0.135 run to max_steps together (3.46 MB
# of records). On the sweep benchmark workload (2-vCPU x86-64, numpy 2.4.6,
# ten pairs) a pass took 0.69x as long as at 2**18, with its blocks of 10
# rows, and the peak resident size rose by 2.0%, against a 10% bound.
# Per step on the same machine (scripts/kernel_timing.py, Python 3.11.7, median
# of twenty runs): one row, ndarray.dot per product, costs 3.0, 3.7, 5.6 and
# 10.1 us at n+p = 4, 32, 128 and 256, and a block of 8 rows, np.matvec per
# product, 0.81 us per row at n+p = 4.
BATCH_RECORD_CELLS = 1 << 21


def run_batch(game: BilinearGame, algo: Algo, etas, init: IterateState,
              max_steps: int = 10000, stop_tol: float = DEFAULT_STOP_TOL,
              blow_cap: float = DEFAULT_BLOW_CAP,
              record_stride: int | None = None) -> Iterator[tuple[int, Trajectory]]:
    """`run` at every step size in `etas`: an iterator of (index, trajectory)
    pairs, one per step size, the trajectory equal to the one `run` returns
    at etas[index].

    The step sizes advance together as the rows of one (k, 2(n+p)) state
    block, in blocks of at most BATCH_RECORD_CELLS cells of worst-case record
    (or of the chunk `_simulate` keeps, where that is larger). A row that
    converges, diverges or runs out of steps leaves the block and comes out
    at once, so the pairs of a block come in stop order, rows that stop at
    the same step in index order. Each trajectory owns its states: a caller
    that drops it frees its record while the batch goes on.
    """
    etas = [json_number(eta, "eta", 0, strict=True) for eta in etas]
    plan = _plan(game, algo, init, max_steps, stop_tol, blow_cap, record_stride)
    chunk = min(STOP_TEST_STEPS, plan.max_steps)
    record_rows = plan.max_steps // plan.record_stride + 2
    cells = max(record_rows * plan.width, (2 * chunk + 1) * plan.z0.size)
    rows = max(1, BATCH_RECORD_CELLS // cells)
    return _blocks(plan, etas, rows)


def _blocks(plan: _Plan, etas: list, rows: int) -> Iterator[tuple[int, Trajectory]]:
    for start in range(0, len(etas), rows):
        # the block numbers its pairs itself: a loop here would hold each
        # trajectory in a name until the next one comes
        yield from _simulate(plan, etas[start:start + rows], start)


def _quiet() -> np.errstate:
    """A step may overflow; the divergence test stops the row on that state.
    A new context each time: an np.errstate cannot be entered twice."""
    return np.errstate(over="ignore", invalid="ignore")


def _joined(pieces: list, length: int) -> np.ndarray:
    """The first `length` rows of all pieces but the last, in order, then the
    last piece, the stop row, as one array. Each piece is dropped as soon as
    it is copied, so the record is never held twice over."""
    states = np.empty((length + 1, pieces[0].shape[-1]))
    states[length] = pieces.pop()
    pieces.reverse()  # so that pop takes them in order
    at = 0
    while at < length:
        piece = pieces.pop()[:length - at]
        states[at:at + len(piece)] = piece
        at += len(piece)
    pieces.clear()
    return states


def _simulate(plan: _Plan, etas: list, offset: int) -> Iterator[tuple[int, Trajectory]]:
    """The step loop of one row per step size. OGDA adds (2 g_t - g_{t-1}) eta
    to (x_t, y_t), GDA adds g_t eta, with g_t = (A y_t + b, B^T x_t + f).
    Yields (offset + row, trajectory) as each row stops.

    The state advances STOP_TEST_STEPS steps at a time through a history
    buffer: row j of it is the state j steps into the chunk, and row 0 the
    last state of the chunk before. The step body is written once for two
    forms of the state, picked once per block. One row keeps 1-d operands
    and runs each product as ndarray.dot into its output; k > 1 rows form a
    (k, 2(n+p)) block, on which np.matvec runs one gemv per row. Both make
    the same gemv on a row (a gemm over the block would sum in another
    order). Every operand is an array, eta too, and 2 g is g + g,
    so that no step converts a scalar. A step writes only (x_{t+1},
    y_{t+1}); the previous pairs of a chunk are copied in once, after it.

    Then the stop rules are tested on every step of the chunk at once: the
    norms of x_t, of y_t and of Z_t - Z_{t-1}, the square root of one
    np.vecdot each (the bits of np.linalg.norm on a row), against blow_cap
    and stop_tol as given. A row stops at its first failing step, as
    divergence if x_t or y_t fails there, else as convergence; the last step
    of the budget stops every row as MaxSteps. Each row's record is a list
    of pieces, a copy of the chunk's recorded steps each. A row that stops
    leaves the block: its recorded rows before the stop step, then the stop
    step, are joined into its trajectory, and its times derived from the
    stop step and the stride; the trajectory is yielded at once, rows in the
    order of their stop steps. The steps a chunk computes past a row's
    stop are dropped; they may overflow. The error state is set around the
    arithmetic only, never around a yield, so the caller's holds between
    the rows it is handed.
    """
    game, played, optimistic = plan.game, plan.played, plan.optimistic
    max_steps, stride = plan.max_steps, plan.record_stride
    n, m = game.n, game.n + game.p
    A, BT, z0 = game.A, game.B.T, plan.z0
    k = len(etas)
    cap, tol = plan.blow_cap, plan.stop_tol
    x0, y0 = z0[:n], z0[n:m]
    with _quiet():
        if not (math.sqrt(x0.dot(x0)) <= cap and math.sqrt(y0.dot(y0)) <= cap):
            cap = -math.inf  # x_0 or y_0 past the cap: every row diverges at step 1
        g_old = np.concatenate([A @ z0[m + n:] + game.b, BT @ z0[m:m + n] + game.f])  # unused by GDA
    bias = np.concatenate([game.b, game.f])
    z = z0  # copied into each chunk's history, never written
    if k > 1:  # the per-row operands at full size, so that no step broadcasts
        z, bias, g_old = np.tile(z0, (k, 1)), np.tile(bias, (k, 1)), np.tile(g_old, (k, 1))
    # the step size of each cell, so that no step converts a scalar
    eta = np.repeat(np.array(etas, dtype=float), m).reshape(bias.shape)
    # ndarray.dot makes the gemv that np.matvec makes on one row, at about
    # half the call cost
    product = np.ndarray.dot if k == 1 else np.matvec
    add, subtract, multiply = np.add, np.subtract, np.multiply
    chunk = min(STOP_TEST_STEPS, max_steps)
    start = np.array(z0[played], ndmin=2)  # a copy: z0 may be the caller's
    fancy = not isinstance(played, slice)  # DOGDA's index array copies what it picks
    records = [[start] for _ in range(k)]  # the pieces of each live row's record
    live = np.arange(k)
    t = 0
    while live.size:  # once per shape of the block
        hist = np.empty((chunk + 1,) + z.shape)
        hist[0] = z
        flat = hist.reshape(chunk + 1, -1, z.shape[-1])  # (step, row, state), a view
        diff = np.empty((chunk,) + z.shape)
        norms = np.empty((3, chunk) + z.shape[:-1])
        within = np.empty(norms.shape, dtype=bool)
        pairs = list(hist[..., :m])
        steps = list(zip(hist[..., :n], hist[..., n:m], pairs, pairs[1:]))
        g = np.empty_like(bias)
        gv, ov = (g, g[..., :n], g[..., n:]), (g_old, g_old[..., :n], g_old[..., n:])
        update = np.empty_like(bias)
        with _quiet():  # around the arithmetic only: never around a yield
            while True:  # once per chunk
                size = min(chunk, max_steps - t)
                if optimistic:
                    for x, y, xy, new_xy in steps[:size]:
                        g, gx, gy = gv
                        product(A, y, gx)
                        product(BT, x, gy)
                        add(g, bias, g)
                        add(g, g, update)  # 2 g, exactly
                        subtract(update, ov[0], update)
                        multiply(update, eta, update)
                        add(xy, update, new_xy)
                        gv, ov = ov, gv
                else:
                    g, gx, gy = gv
                    for x, y, xy, new_xy in steps[:size]:
                        product(A, y, gx)
                        product(BT, x, gy)
                        add(g, bias, g)
                        multiply(g, eta, update)
                        add(xy, update, new_xy)
                new, old = hist[1:size + 1], hist[:size]
                new[..., m:] = old[..., :m]
                np.subtract(new, old, out=diff[:size])
                np.vecdot(new[..., :n], new[..., :n], out=norms[0, :size])
                np.vecdot(new[..., n:m], new[..., n:m], out=norms[1, :size])
                np.vecdot(diff[:size], diff[:size], out=norms[2, :size])
                np.sqrt(norms[:, :size], out=norms[:, :size])
                # |x_t| <= blow_cap, |y_t| <= blow_cap and |Z_t - Z_{t-1}| >= stop_tol
                # while a row goes on
                np.less_equal(norms[:2, :size], cap, out=within[:2, :size])
                np.greater_equal(norms[2, :size], tol, out=within[2, :size])
                # the chunk's recorded steps: t + first, t + first + stride, ...
                first, end = stride - t % stride, t + size
                if first <= size:
                    block = flat[first:size + 1:stride]
                    for i, pieces in enumerate(records):
                        piece = block[:, i, played]
                        pieces.append(piece if fancy else piece.copy())
                if end == max_steps or not within[:, :size].all():
                    break
                hist[0], t = hist[size], end
        # some row stops in this chunk, or every row at the end of the budget
        ok = within[:, :size].reshape(3, size, -1)  # (rule, step, row)
        stop = ~ok.all(axis=0)
        stop[-1] |= end == max_steps
        at = stop.argmax(axis=0)  # the hist row of each row's first stop step, less one
        failed = ~ok[:, at, np.arange(at.size)]
        going = ~stop.any(axis=0)
        stopped = np.flatnonzero(~going)
        for i in stopped[np.argsort(at[stopped], kind="stable")].tolist():
            step = t + int(at[i]) + 1
            # the recorded steps below the stop step, then the stop step
            times = np.append(np.arange(0, step, min(stride, step), dtype=np.int64), step)
            records[i].append(flat[at[i] + 1, i, played])
            reason = (StopReason.DIVERGED if failed[0, i] or failed[1, i] else
                      StopReason.CONVERGED if failed[2, i] else StopReason.MAX_STEPS)
            # no name keeps the trajectory, so a caller that drops it frees it
            yield offset + int(live[i]), Trajectory(
                float(etas[live[i]]), plan.n, _joined(records[i], len(times) - 1), times,
                reason)
        live, t = live[going], end
        records = [pieces for pieces, go in zip(records, going.tolist()) if go]
        if live.size:
            z, eta, bias, g_old = flat[size, going], eta[going], bias[going], ov[0][going]


def recorded_payoffs(traj: Trajectory, game: BilinearGame) -> tuple[np.ndarray, np.ndarray]:
    """Payoffs (g1, g2) at each recorded state. A run stops at the first state
    that is not finite, so only the last row can be one; its payoffs are NaN."""
    n, p = game.n, game.p
    g1, g2 = np.full(len(traj.times), np.nan), np.full(len(traj.times), np.nan)
    k = len(g1) if np.isfinite(traj.states[-1]).all() else len(g1) - 1
    g1[:k], g2[:k] = payoffs(game, traj.states[:k, :n], traj.states[:k, n:n + p])
    return g1, g2


# Cells rendered per block of rows. The kernel (`_format_cells`) writes a
# block's cells as "%.17g" would, with no Python call per cell: the 17 digits
# of each value come from an exact product with a double-double power of ten
# and go through a 4-digit lookup table into fixed byte slots, which one
# bytes.translate compacts. Non-finite values, ±0, |v| outside [1e-240,
# 1e240] and values within 1e-9 of a rounding tie go through "%.17g" itself.
# A block holds its slots (50 bytes a cell, 400 kB) and about 2 MB of
# temporaries, beside the text returned. On a 4000-step OGDA record
# (scripts/kernel_timing.py, 2-vCPU x86-64, numpy 2.4.6, median of ten runs)
# a row costs 2.4, 10.5 and 77 us at n+p = 4, 32 and 256 (one "%.17g" per
# cell: 8.4, 38 and 279 us).
CSV_BLOCK_CELLS = 8192


def trajectory_to_csv(traj: Trajectory, game: BilinearGame,
                      limit: tuple[np.ndarray, np.ndarray] | None = None,
                      comments: tuple[str, ...] = ()) -> str:
    """Render the recorded states as CSV.

    Header: t,x_0..x_{n-1},y_0..y_{p-1},dist_limit,g1,g2, each value written
    as "%.17g" writes it (an integer t below 1e17 as str(t)). The dist_limit
    column is left empty when no limit prediction is supplied. A block of
    rows is one (rows, n+p+4) array of _CELL that the kernel fills, t too;
    each row's first "," becomes the line break before it.
    """
    n, p = game.n, game.p
    xy = traj.states[:, :n + p]
    g1, g2 = recorded_payoffs(traj, game)
    target = None if limit is None else np.concatenate(limit)
    lines = [f"# {text}" for text in comments]
    cols = (["t"] + [f"x_{i}" for i in range(n)] + [f"y_{j}" for j in range(p)]
            + ["dist_limit", "g1", "g2"])
    lines.append(",".join(cols))
    parts = ["\n".join(lines)]
    width = n + p + 4
    block_rows = max(1, CSV_BLOCK_CELLS // width)
    # one grid for every block: each block writes every byte of its rows
    grid = np.empty((min(block_rows, len(traj.times)), width), _CELL)
    for start in range(0, len(traj.times), block_rows):
        block = slice(start, start + block_rows)
        rows = grid[:len(traj.times[block])]
        dist = (np.ones((len(rows), 1)) if target is None  # a placeholder, blanked below
                else row_norms(xy[block] - target)[:, None])
        _format_cells(np.hstack([traj.times[block, None], xy[block], dist,
                                 g1[block, None], g2[block, None]]), rows)
        rows["head"][:, 0] -= np.uint64(ord(",") - ord("\n"))  # the low byte: "," -> "\n"
        if target is None:
            rows.view(f"S{_CELL.itemsize}")[:, 1 + n + p] = b","
        parts.append(rows.tobytes().translate(None, b"\0").decode("ascii"))
    parts.append("\n")
    return "".join(parts)


# A CSV cell as fixed slots, each unused one NUL: "head" holds the separator,
# the sign and the "0.000" of a fixed-point value below 1; "lead" the first
# digit and the slot for a point after it; "body" the other 16 digits, each
# followed by a point slot, in four words of four; "exp" the "e+dd" or
# "e-ddd" of a value written with an exponent.
_CELL = np.dtype([("head", "<u8"), ("lead", "<u2"), ("body", "<u8", (4,)), ("exp", "<u8")])
# The kernel renders |v| in this range; ±0, non-finite values and the rest
# go through "%.17g". Inside it every partial product of the digit stage is
# a normal double.
_KERNEL_MIN, _KERNEL_MAX = 1e-240, 1e240
# A cell whose scaled value is within this of a rounding tie goes through
# "%.17g" too. The scaled value (below 1e17) is accurate to about 1e-14.
_TIE_MARGIN = 1e-9
_POW_MIN, _POW_MAX = -230, 260  # 10**k for k = 16 - e, e an exponent in the kernel's range
_EXP_MIN = -250
_E16, _E17 = 10 ** 16, 10 ** 17
_QUAD = 10 ** 4
_BODY = np.arange(4)[:, None]  # the index of each body word, down a (4, cells) block


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each with at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _packed(texts: list[bytes]) -> np.ndarray:
    """Each text, at most 8 bytes, NUL-padded into one little-endian word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8").copy()


class _CsvTables:
    """The kernel's lookup tables, each indexed by a small integer. Built on
    the first CSV rendered (`_csv_tables`), so that no other command pays."""

    def __init__(self):
        hi, lo = [], []
        for k in range(_POW_MIN, _POW_MAX + 1):  # 10**k = num / den exactly
            num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
            hi.append(num / den)  # int / int rounds correctly
            n, d = hi[-1].as_integer_ratio()
            lo.append((num * d - n * den) / (den * d))
        # by k - _POW_MIN: 10**k rounded to a double, that double split into
        # two 26-bit halves, and 10**k minus it, rounded
        self.pow_hi = np.array(hi)
        self.pow_hi_h, self.pow_hi_l = _split(self.pow_hi)
        self.pow_lo = np.array(lo)
        q = np.arange(_QUAD)
        digits = q[:, None] // np.array([1000, 100, 10, 1]) % 10
        pairs = (digits + ord("0")).astype(np.uint64) << np.arange(0, 64, 16, dtype=np.uint64)
        masks = np.array([(1 << 16 * k) - 1 for k in range(5)], dtype=np.uint64)
        # by keep * 10**4 + q: the first `keep` of the four digits of q, each
        # as a (digit, NUL) pair
        self.words = (pairs.sum(axis=1, dtype=np.uint64) & masks[:, None]).ravel()
        # by word * 10**4 + q: 4 word + the digits of q up to its last nonzero
        # one, 0 for q = 0
        last = np.where(digits != 0, np.arange(1, 5), 0).max(axis=1)
        self.sig = np.concatenate([np.where(q > 0, 4 * i + last, 0)
                                   for i in range(4)]).astype(np.int8)
        # by 4 digits-kept + word: 10**4 times the digits kept in that body word
        self.keep = np.array([_QUAD * min(max(kept - 1 - 4 * i, 0), 4)
                              for kept in range(18) for i in range(4)])
        # by exponent - _EXP_MIN: the "e+dd" word, if any, and the digits
        # before the point in the digit slots; by twice that + negative, the
        # head: "," and the sign, then "0." and zeros below 1
        exps = range(_EXP_MIN, -_EXP_MIN + 1)
        fixed = [-4 <= x < 17 for x in exps]
        self.exp = _packed([b"" if f else b"e%+03d" % x for x, f in zip(exps, fixed)])
        self.whole = np.array([max(x + 1, 0) if f else 1 for x, f in zip(exps, fixed)])
        self.head = _packed([b"," + sign + (b"0." + b"0" * (-x - 1) if f and x < 0 else b"")
                             for x, f in zip(exps, fixed) for sign in (b"\0", b"-")])
        # by digits before the point, w: the point after digit w sits in pair
        # w - 1, in the lead (word 0) or in body word (w + 2) // 4
        self.point_word = np.array([(w + 2) // 4 if w > 1 else 0 for w in range(18)])
        self.point = np.array([ord(".") << 8 + 16 * ((w - 2) % 4 if w > 1 else 0)
                               for w in range(18)], dtype=np.uint64)
        for table in vars(self).values():
            table.flags.writeable = False


_csv_tables = functools.cache(_CsvTables)


def _scaled(mag: np.ndarray, e: np.ndarray, tables: _CsvTables) -> tuple[np.ndarray, np.ndarray]:
    """floor(mag * 10**(16 - e)) as int64, and the fraction above it, from the
    exact (Dekker) product of mag and the double-double 10**(16 - e). Below
    2**53 the floor is approximate, but still below 10**16."""
    k = (16 - _POW_MIN) - e
    p_hi = tables.pow_hi.take(k)
    prod = mag * p_hi
    m_hi, m_lo = _split(mag)
    p_hi_h, p_hi_l = tables.pow_hi_h.take(k), tables.pow_hi_l.take(k)
    rest = ((m_hi * p_hi_h - prod) + m_hi * p_hi_l + m_lo * p_hi_h) + m_lo * p_hi_l
    rest += mag * tables.pow_lo.take(k)
    # a fraction within the margin of 1 counts as the next integer. It rounds
    # up either way, and an exact power of ten such as 1e20, times the
    # inexact 10**-4, does not read as just below 10**16. No double of the
    # kernel's range lies that close below a power of ten: scaled to 10**16,
    # the nearest (below 1e153) is 0.0027 below.
    floor = np.floor(rest + _TIE_MARGIN)
    return prod.astype(np.int64) + floor.astype(np.int64), rest - floor


def _format_cells(values: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Write "," and "%.17g" % v for each value v into the _CELL slots of the
    same shape: 17 correctly rounded digits, their exponent, then the bytes.
    Returns the flat indices of the values it declined and formatted with
    "%.17g" itself."""
    tables = _csv_tables()
    v = values.ravel()
    mag = np.abs(v)
    ok = (mag >= _KERNEL_MIN) & (mag <= _KERNEL_MAX)  # false for nan
    mag[~ok] = 1.0
    e = np.floor(np.log10(mag)).astype(np.int64)
    digits, frac = _scaled(mag, e, tables)
    # log10 may miss by one next to a power of ten: move e so that the
    # 17-digit floor lies in [10**16, 10**17)
    off = np.flatnonzero((digits < _E16) | (digits >= _E17))
    if off.size:
        e[off] += np.where(digits[off] < _E16, -1, 1)
        digits[off], frac[off] = _scaled(mag[off], e[off], tables)
        ok[off] &= (digits[off] >= _E16) & (digits[off] < _E17)
    ok &= np.abs(frac - 0.5) >= _TIE_MARGIN
    digits += frac > 0.5
    carry = digits == _E17
    digits[carry] = _E16
    e += carry  # the exponent of the rounded value
    # the digits: the lead, then four words of four (floor division by a
    # constant is the fast integer division in numpy)
    lead = digits // _E16
    quads = np.empty((4, v.size), np.int64)
    rest = digits - lead * _E16
    top = rest // 10 ** 8
    for i, part in ((0, top), (2, rest - top * 10 ** 8)):
        np.floor_divide(part, _QUAD, out=quads[i])
        np.subtract(part, quads[i] * _QUAD, out=quads[i + 1])
    sig = 1 + tables.sig.take(quads + _BODY * _QUAD).max(axis=0)
    at = e - _EXP_MIN
    whole = tables.whole.take(at)  # digits before the point in the digit slots
    words = np.empty((5, v.size), np.uint64)  # the lead, then the body words
    words[0] = lead + ord("0")
    kept = 4 * np.maximum(sig, whole) + _BODY
    tables.words.take(tables.keep.take(kept) + quads, out=words[1:])
    # a point after the whole digits where a fraction follows them; below 1
    # (no whole digits) the head holds it
    pointed = np.flatnonzero((whole < sig) & (whole > 0))
    w = whole[pointed]
    words.reshape(-1)[tables.point_word.take(w) * v.size + pointed] |= tables.point.take(w)
    shape = cells.shape
    cells["head"] = tables.head.take(2 * at + (v < 0)).reshape(shape)
    cells["lead"] = words[0].reshape(shape)
    cells["body"] = words[1:].T.reshape(*shape, 4)
    cells["exp"] = tables.exp.take(at).reshape(shape)
    declined = np.flatnonzero(~ok)
    if declined.size:
        texts = cells.view(f"S{_CELL.itemsize}")
        texts[np.unravel_index(declined, shape)] = [b",%.17g" % x for x in v[declined].tolist()]
    return declined
