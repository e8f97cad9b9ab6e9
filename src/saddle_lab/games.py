"""Affine-bilinear two-player games and the game transformations used for speed-ups.

Player 1 picks x in R^n, player 2 picks y in R^p. Payoffs:

    g1(x, y) = x.A y + b.x + c.y + d      (player 1)
    g2(x, y) = x.B y + e.x + f.y + g      (player 2)

The zero-sum case is B = -A, e = -b, f = -c, g = -d. Nash equilibria are
exactly {(x, y) : B^T x + f = 0, A y + b = 0}; the constants d, g only shift
reported payoffs and never enter the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import (RankedSVD, as_matrix, as_vector, json_number, json_object,
                     json_vector)

# solve_affine calls M z + r = 0 feasible when the part of r outside Im(M) has
# at most this norm times 1 + ||r||
FEASIBILITY_REL_TOL = 1e-10


class DimensionMismatchError(ValueError):
    pass


class NonPositiveScaleError(ValueError):
    pass


@dataclass(frozen=True)
class BilinearGame:
    """A game: frozen, with read-only arrays, so that its identity fixes its
    data (see `memo`)."""

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    c: np.ndarray
    e: np.ndarray
    f: np.ndarray
    d: float = 0.0
    g: float = 0.0

    def __post_init__(self):
        A, B = as_matrix(self.A), as_matrix(self.B)
        if A.shape != B.shape:
            raise DimensionMismatchError(f"A is {A.shape}, B is {B.shape}; they must match")
        n, p = A.shape
        arrays = {"A": A, "B": B, "b": as_vector(self.b, n), "e": as_vector(self.e, n),
                  "c": as_vector(self.c, p), "f": as_vector(self.f, p)}
        linalg.read_only(*arrays.values())
        for name, value in [*arrays.items(), ("d", float(self.d)), ("g", float(self.g))]:
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.A.shape[1]

    @property
    def zero_sum_coupling(self) -> bool:
        """B = -A. The dynamics read only A, B, b and f, so they are those
        of a zero-sum game; the analysis of the game rests on this test."""
        return np.array_equal(self.B, -self.A)

    @property
    def zero_sum(self) -> bool:
        """The payoffs too: B = -A, e = -b, f = -c and g = -d."""
        return (self.zero_sum_coupling and np.array_equal(self.e, -self.b)
                and np.array_equal(self.f, -self.c) and self.g == -self.d)

    @classmethod
    def from_matrices(cls, A, B) -> "BilinearGame":
        A = as_matrix(A)
        n, p = A.shape
        return cls(A, B, np.zeros(n), np.zeros(p), np.zeros(n), np.zeros(p))

    @classmethod
    def zero_sum_game(cls, A, b=None, c=None, d: float = 0.0) -> "BilinearGame":
        A = as_matrix(A)
        n, p = A.shape
        b = np.zeros(n) if b is None else as_vector(b, n)
        c = np.zeros(p) if c is None else as_vector(c, p)
        return cls(A, -A, b, c, -b, -c, d, -d)


def payoffs(game: BilinearGame, x, y):
    """Evaluate both payoff forms at one point or at k stacked points.

    Stacked rows, x of shape (k, n) and y of shape (k, p), give a pair of
    length-k arrays, the payoffs at (x[i], y[i]); one point (x of length n,
    y of length p) is one such row and gives a pair of floats. Shapes and
    finiteness are checked once per call.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    point = xv.ndim <= 1 and yv.ndim <= 1
    if point:
        xv, yv = xv.reshape(1, -1), yv.reshape(1, -1)
    if xv.ndim != 2 or xv.shape[1] != game.n or yv.shape != (len(xv), game.p):
        raise DimensionMismatchError(
            f"points are {xv.shape} and {yv.shape}, game is ({game.n}, {game.p})")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise DimensionMismatchError("vector entries must be finite")
    g1 = np.einsum("ij,ij->i", xv @ game.A, yv) + xv @ game.b + yv @ game.c + game.d
    g2 = np.einsum("ij,ij->i", xv @ game.B, yv) + xv @ game.e + yv @ game.f + game.g
    return (float(g1[0]), float(g2[0])) if point else (g1, g2)


@dataclass
class AffineSet:
    """Solution set {z : M z + r = 0} as particular point + kernel directions,
    with the image Im(M) of the same SVD. `directions` and `image` are the
    orthonormal column arrays RankedSVD.kernel and RankedSVD.image."""

    point: np.ndarray
    directions: np.ndarray
    feasible: bool
    image: np.ndarray


def solve_affine(svd: RankedSVD, rhs: np.ndarray) -> AffineSet:
    """Least-squares particular solution of M z = -rhs, plus Ker(M) and Im(M),
    all from the ranked SVD of M. Feasibility reads the part of rhs outside
    Im(M) from the same left singular vectors. The arrays are read-only."""
    point = -svd.pinv() @ rhs
    outside = float(np.linalg.norm(svd.u[:, svd.rank:].T @ rhs))
    feasible = outside <= FEASIBILITY_REL_TOL * (1.0 + float(np.linalg.norm(rhs)))
    affine = AffineSet(point, svd.kernel(), feasible, svd.image())
    linalg.read_only(affine.point, affine.directions, affine.image)
    return affine


@dataclass
class NashSet:
    """Nash equilibria {(x, y) : B^T x + f = 0, A y + b = 0}."""

    x_part: AffineSet
    y_part: AffineSet
    nonempty: bool = field(init=False)

    def __post_init__(self):
        self.nonempty = self.x_part.feasible and self.y_part.feasible

    @property
    def x_star(self) -> np.ndarray:
        return self.x_part.point

    @property
    def y_star(self) -> np.ndarray:
        return self.y_part.point

    def residuals(self, game: BilinearGame) -> tuple[float, float]:
        rx = float(np.linalg.norm(game.B.T @ self.x_star + game.f))
        ry = float(np.linalg.norm(game.A @ self.y_star + game.b))
        return rx, ry


# The last game analysed and what has been derived from it, by key (see memo).
_memo: tuple[BilinearGame | None, dict] = (None, {})


def memo(game: BilinearGame, key, build):
    """`build()` for `game`, taken once per key while `game` stays the last
    game analysed.

    The memo holds one game, matched by identity (`is`, never equality); a
    game is frozen, so its identity fixes its data. Analysing another game
    drops everything held for the last one. It holds no more than one game:
    a memo on each game for the game's whole life raised the peak RSS of the
    benchmark's analysis scan, which keeps 8 pools of games up to n = 64
    alive, from 51.8 to 68.6 MB, where the one slot reads 51.9 MB. What it
    holds (the ranked SVDs, the Nash set, the coupling eigenvalues, the
    CouplingSpectrum of each algo) keeps its arrays read-only, so no caller
    can change a later call's result. A thread that analyses another game
    in between costs a rebuild, never a wrong result: each game's values go
    to the dict paired with it.
    """
    global _memo
    held, values = _memo
    if held is not game:
        values = {}
        _memo = (game, values)
    value = values.get(key)
    if value is None:
        value = values[key] = build()
    return value


def coupling_svds(game: BilinearGame) -> tuple[RankedSVD, RankedSVD]:
    """The ranked SVDs of A and B, one decomposition each per game (see
    memo). A zero-sum B = -A reuses the factors of A with u negated, so A
    and B share a rank."""
    def decompose() -> tuple[RankedSVD, RankedSVD]:
        svd_a = linalg.svd_rank(game.A)
        if game.zero_sum_coupling:
            neg_u = -svd_a.u
            linalg.read_only(neg_u)
            return svd_a, svd_a._replace(u=neg_u)
        return svd_a, linalg.svd_rank(game.B)
    return memo(game, "svds", decompose)


def nash_from_svds(game: BilinearGame, svd_a: RankedSVD, svd_b: RankedSVD) -> NashSet:
    """The Nash set from the ranked SVDs of A and B (see coupling_svds)."""
    return NashSet(x_part=solve_affine(svd_b.T, game.f), y_part=solve_affine(svd_a, game.b))


def nash_set(game: BilinearGame) -> NashSet:
    """The Nash set from coupling_svds, solved once per game (see memo);
    emptiness is reported, never raised. Its points, kernels and images are
    read-only arrays."""
    return memo(game, "nash", lambda: nash_from_svds(game, *coupling_svds(game)))


def accelerate(game: BilinearGame) -> BilinearGame:
    """Replace player 2's coupling with minus the transposed pseudoinverse of A.

    The point of the construction: Sp(A B^T) collapses into {0, -1}, so the
    general-sum dynamics converge at the best possible ratio while keeping
    player 1's payoff (A, b, c) untouched. f is pinv(A) @ x* when the
    zero-sum x-equilibrium x* (A^T x* + c = 0) exists, which keeps the
    x-limit of the original zero-sum game; otherwise f = 0.
    """
    svd = linalg.svd_rank(game.A)
    a_pinv = svd.pinv()
    x_zs = solve_affine(svd.T, game.c)
    f_new = a_pinv @ x_zs.point if x_zs.feasible else np.zeros(game.p)
    return BilinearGame(A=game.A, B=-a_pinv.T, b=game.b, c=game.c,
                        e=np.zeros(game.n), f=f_new, d=game.d, g=0.0)


def scale_opponent(game: BilinearGame, l: float) -> BilinearGame:
    """Turn the zero-sum game g1 into the general-sum pair (g1, -l*g1), l > 0.

    The Nash set is unchanged while the coupling spectrum is scaled by l,
    which trades off against the usable step-size range.
    """
    if not 0 < l < np.inf:
        raise NonPositiveScaleError(f"scale l must be finite and > 0, got {l}")
    if not game.zero_sum:
        raise ValueError("scale_opponent expects a zero-sum game")
    return BilinearGame(
        A=game.A, B=-l * game.A, b=game.b, c=game.c,
        e=-l * game.b, f=-l * game.c, d=game.d, g=-l * game.d)


def doubled(game: BilinearGame) -> BilinearGame:
    """The zero-sum game on which OGDA is the doubled scheme DOGDA for `game`.

    Player 1 plays (x, x_aux), player 2 plays (y_aux, y), and the coupling is
    blockdiag(-B, A): (x, y_aux) runs the zero-sum dynamics of player 2's
    payoff (x descends it), (x_aux, y) those of player 1's (y descends it).
    """
    zero = np.zeros_like(game.A)
    return BilinearGame.zero_sum_game(
        np.block([[-game.B, zero], [zero, game.A]]),
        b=np.concatenate([-game.e, game.b]), c=np.concatenate([-game.f, game.c]))


def game_to_json(game: BilinearGame) -> dict:
    return {
        "A": linalg.matrix_to_json(game.A),
        "B": None if game.zero_sum else linalg.matrix_to_json(game.B),
        "b": [float(v) for v in game.b],
        "c": [float(v) for v in game.c],
        "e": [float(v) for v in game.e],
        "f": [float(v) for v in game.f],
        "d": game.d,
        "g": game.g,
        "zero_sum": game.zero_sum,
    }


def game_from_json(obj: dict) -> BilinearGame:
    obj = json_object(obj, "game")
    A = linalg.matrix_from_json(obj["A"], "A")
    n, p = A.shape
    zero_sum = obj.get("zero_sum", False)
    if not isinstance(zero_sum, bool):
        raise ValueError(f"zero_sum must be true or false, got {zero_sum!r}")
    b = json_vector(obj["b"], "b", n) if "b" in obj else np.zeros(n)
    c = json_vector(obj["c"], "c", p) if "c" in obj else np.zeros(p)
    d = json_number(obj.get("d", 0.0), "d")
    if obj.get("B") is None and not zero_sum:
        raise ValueError("B may be omitted only for zero_sum games")
    B = -A if obj.get("B") is None else linalg.matrix_from_json(obj["B"], "B")
    e = json_vector(obj["e"], "e", n) if "e" in obj else (-b if zero_sum else np.zeros(n))
    f = json_vector(obj["f"], "f", p) if "f" in obj else (-c if zero_sum else np.zeros(p))
    g = json_number(obj.get("g", -d if zero_sum else 0.0), "g")
    game = BilinearGame(A, B, b, c, e, f, d, g)
    if zero_sum and not game.zero_sum:
        raise ValueError("zero_sum flag set but (B, e, f, g) do not match")
    return game
