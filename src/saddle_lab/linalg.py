"""Dense linear-algebra kernels: spectra, pseudoinverse, subspace bases, projections.

Everything operates on plain float64 numpy arrays. A subspace of R^m is an
(m, k) array whose k columns are an orthonormal basis of it, the columns
that RankedSVD.kernel and RankedSVD.image slice from one SVD. Matrices
serialize to/from JSON as {"rows": n, "cols": p, "data": [row-major reals]}.

Every number a config or a caller supplies passes one rule, `json_number`: a
finite real number (an int or a float as `json.load` returns it, or a numpy
scalar, never a bool or a str), at or above a lower bound, and integral
where the field is an integer (2.0 counts). The library's step sizes and run
settings go through it as a config's do. `json_vector` applies the same
rule to each entry of a JSON list of a given length, with one type scan of
the list, and `json_object` names a field that must be an object;
`matrix_from_json` reads a matrix through all three. Every document written
goes through one converter the other way, `jsonable`, which writes a
non-finite float as null.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
import reprlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# verify.oracle_reconcile runs the brute-force eigensolver on the 2(n+p)
# companion matrix only up to this dimension; the analysis has no cap.
MAX_ORACLE_DIM = 64
# eig_complex clusters eigenvalues within this times max(1, largest modulus)
EIG_CLUSTER_REL_TOL = 1e-8
# an oblique projection needs sigma_min of [onto | along] (orthonormal) above this
COMPLEMENT_SIGMA_MIN = 1e-8


class NoConvergenceError(RuntimeError):
    pass


class DimensionTooLargeError(ValueError):
    pass


class NotComplementaryError(ValueError):
    pass


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array that BLAS reads in place and reject
    non-finite entries. A C- or F-contiguous input is not moved; any other
    view is copied to C order, so that a product with it sums in the order
    of a product with its contiguous copy."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1) if m.size else m.reshape(0, 0)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not (m.flags.c_contiguous or m.flags.f_contiguous):
        m = np.ascontiguousarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(v, length: int | None = None) -> np.ndarray:
    out = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(out)):
        raise ValueError("vector entries must be finite")
    if length is not None and out.size != length:
        raise ValueError(f"expected vector of length {length}, got {out.size}")
    return out


def read_only(*arrays: np.ndarray) -> None:
    """Clear the write flag of each array: a shared result cannot be
    changed under a later caller."""
    for arr in arrays:
        arr.setflags(write=False)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array.

    Each row is scaled by the power of two at its largest absolute entry
    before squaring. The scaling is exact, and no square overflows, so a
    row's norm is infinite only where math.hypot of that row is too.
    """
    rows = np.asarray(rows, dtype=float)
    _, exp = np.frexp(np.abs(rows).max(axis=1, initial=0.0))
    scaled = np.ldexp(rows, -exp[:, None])
    return np.ldexp(np.sqrt(np.einsum("ij,ij->i", scaled, scaled)), exp)


def matrix_to_json(a: np.ndarray) -> dict:
    m = as_matrix(a)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": [float(x) for x in m.reshape(-1)]}


def jsonable(obj):
    """`obj` as the plain values that strict JSON writes: a dataclass as the
    dict of its fields, an enum as its value, a numpy array or scalar as
    Python values, a tuple as a list and a non-finite float as None, all the
    way down. Anything else comes back as it is."""
    if isinstance(obj, float):  # numpy's float64 too
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, enum.Enum):  # before str: the enums are str enums
        return obj.value
    if isinstance(obj, np.ndarray):  # a walk over the values only to null one
        return obj.tolist() if np.isfinite(obj).all() else jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        return jsonable(obj.item())
    if isinstance(obj, dict):
        return {key: jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(value) for value in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def json_number(value, name: str, low: float | None = None, strict: bool = False,
                integer: bool = False):
    """A number from a config or a caller: a real number other than a bool
    (a JSON int or float, or a numpy scalar) that is finite as a float, at
    least `low` (above it where `strict`). Where `integer`, it must be
    integral and comes back as an int; otherwise as a float. Anything else
    raises a ValueError that names the field and the value."""
    try:
        # the exact types first: an isinstance test on an ABC costs about 0.7 us
        number = (float(value) if type(value) in (int, float) or isinstance(value, numbers.Real)
                  and not isinstance(value, bool) else math.nan)
    except OverflowError:  # an integer beyond the float range
        number = math.nan
    if not (math.isfinite(number) and (not integer or number.is_integer())
            and (low is None or (number > low if strict else number >= low))):
        kind = "an integer" if integer else "a finite number"
        bound = "" if low is None else f" {'>' if strict else '>='} {low}"
        raise ValueError(f"{name} must be {kind}{bound}, got {reprlib.repr(value)}")
    return int(value) if integer else number


def json_vector(value, name: str, length: int) -> np.ndarray:
    """A config vector: a JSON list of `length` finite JSON numbers. The
    entries' types are checked by one scan of the list, not one call each."""
    if type(value) is list and len(value) == length and set(map(type, value)) <= {int, float}:
        try:
            out = np.array(value, dtype=float)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if np.isfinite(out).all():
                return out
    raise ValueError(f"{name} must be a list of {length} finite numbers, "
                     f"got {reprlib.repr(value)}")


def json_object(value, name: str) -> dict:
    """A config object: a JSON object, else a ValueError that names the field."""
    if type(value) is not dict:
        raise ValueError(f"{name} must be an object, got {reprlib.repr(value)}")
    return value


def matrix_from_json(obj: dict, name: str) -> np.ndarray:
    obj = json_object(obj, name)
    rows = json_number(obj["rows"], f"{name}.rows", 1, integer=True)
    cols = json_number(obj["cols"], f"{name}.cols", 1, integer=True)
    return json_vector(obj["data"], f"{name}.data", rows * cols).reshape(rows, cols)


def default_rank_tol(a: np.ndarray) -> float:
    """Relative singular-value cutoff: max(rows, cols) * machine epsilon."""
    return max(a.shape) * np.finfo(float).eps if a.size else np.finfo(float).eps


def span(vectors) -> np.ndarray:
    """Orthonormal basis, as columns, of the span of the row-listed vectors."""
    return svd_rank(np.atleast_2d(np.asarray(vectors, dtype=float)).T).image()


@dataclass
class ComplexScalarSet:
    """Distinct complex scalars with algebraic multiplicities."""

    values: np.ndarray        # complex, pairwise distinct up to the clustering tol
    multiplicities: np.ndarray  # positive ints, aligned with values

    @property
    def total(self) -> int:
        return int(self.multiplicities.sum())

    def as_multiset(self) -> np.ndarray:
        """Values repeated according to multiplicity, sorted by (re, im)."""
        out = np.repeat(self.values, self.multiplicities)
        order = np.lexsort((out.imag, out.real))
        return out[order]


def cluster_scalars(values, tol: float) -> ComplexScalarSet:
    """Group near-equal scalars, with no cluster wider than 2 tol.

    In order of real part, each value not yet taken takes every untaken value
    within tol of it. A cluster's center is the mean of its members in input
    order (a singleton's is the value itself), its multiplicity their count.
    """
    vals = np.asarray(values, dtype=complex).reshape(-1)
    pts = vals.tolist()
    order = sorted(range(len(pts)), key=lambda i: pts[i].real)
    taken = [False] * len(pts)
    centers, mults = [], []
    for pos, i in enumerate(order):
        if taken[i]:
            continue
        seed = pts[i]
        members = [i]
        for j in order[pos + 1:]:
            if pts[j].real - seed.real > tol:
                break
            if not taken[j] and abs(pts[j] - seed) <= tol:
                taken[j] = True
                members.append(j)
        centers.append(seed if len(members) == 1 else vals[sorted(members)].mean())
        mults.append(len(members))
    centers = np.asarray(centers, dtype=complex)
    mults = np.asarray(mults, dtype=int)
    order = np.lexsort((centers.imag, centers.real))
    return ComplexScalarSet(centers[order], mults[order])


def eig_complex(m) -> ComplexScalarSet:
    """All complex eigenvalues of a real matrix, with multiplicities.

    Conjugate-closed by construction: values within the clustering tolerance
    of the real axis are clustered as reals, and the upper half-plane is
    clustered once and mirrored.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("eig_complex needs a square matrix")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    tol = EIG_CLUSTER_REL_TOL * max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    real = cluster_scalars(vals.real[np.abs(vals.imag) <= tol], tol)
    upper = cluster_scalars(vals[vals.imag > tol], tol)
    values = np.concatenate([real.values, upper.values, upper.values.conj()])
    mults = np.concatenate([real.multiplicities, upper.multiplicities,
                            upper.multiplicities])
    order = np.lexsort((values.imag, values.real))
    return ComplexScalarSet(values[order], mults[order])


class RankedSVD(NamedTuple):
    """Full SVD a = u diag(s) vh, of which the leading `rank` singular values
    count as nonzero. The factors are read-only."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    rank: int

    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse: the singular values past the rank drop to 0."""
        r = self.rank
        return (self.vh[:r].T * (1.0 / self.s[:r])) @ self.u[:, :r].T

    def kernel(self) -> np.ndarray:
        """Orthonormal basis, as columns, of the null space (may have none)."""
        return self.vh[self.rank:].T.copy()

    def image(self) -> np.ndarray:
        """Orthonormal basis, as columns, of the column space."""
        return self.u[:, :self.rank].copy()

    @property
    def T(self) -> "RankedSVD":
        """The same decomposition read as one of the transpose, at the same rank."""
        return RankedSVD(self.vh.T, self.s, self.u.T, self.rank)


def svd_rank(a) -> RankedSVD:
    """Full SVD of `a` and its numerical rank, the count of singular values
    above default_rank_tol(a) times the largest. Every rank decision on a
    matrix (pseudoinverse, kernel, image, span, Gram spectra, Nash set)
    reads it."""
    m = as_matrix(a)
    u, s, vh = np.linalg.svd(m)
    read_only(u, s, vh)
    rank = int(np.count_nonzero(s > default_rank_tol(m) * s.max(initial=0.0)))
    return RankedSVD(u, s, vh, rank)


def pinv(a) -> np.ndarray:
    """Moore-Penrose inverse of `a` (see RankedSVD.pinv)."""
    return svd_rank(a).pinv()


def kernel_basis(a) -> np.ndarray:
    """Orthonormal basis of the numerical null space of `a` (see RankedSVD.kernel)."""
    return svd_rank(a).kernel()


def project(v, onto: np.ndarray, along: np.ndarray | None = None) -> np.ndarray:
    """Project `v` onto a subspace, orthogonally or along a complement.

    `onto` and `along` are orthonormal bases as the columns of
    (ambient, k) arrays. With `along` absent this is the orthogonal
    projection. With `along` present, the two must be complementary
    subspaces; the result is the component of v in `onto` when v is split as
    onto-part + along-part.
    """
    vec = as_vector(v, onto.shape[0])
    if along is None:
        return onto @ (onto.T @ vec)
    (ambient, k), (along_ambient, along_k) = onto.shape, along.shape
    if along_ambient != ambient:
        raise ValueError("onto/along live in different ambient spaces")
    if k + along_k != ambient:
        raise NotComplementaryError(f"dim(onto)={k} + dim(along)={along_k} != {ambient}")
    stacked = np.hstack([onto, along])
    smin = np.linalg.svd(stacked, compute_uv=False)[-1] if stacked.size else 0.0
    if smin <= COMPLEMENT_SIGMA_MIN:
        raise NotComplementaryError(
            f"subspaces are numerically degenerate (sigma_min={smin:.3e})")
    coeffs = np.linalg.solve(stacked, vec)
    return onto @ coeffs[:k]


def principal_angles(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Principal angles between the subspaces with orthonormal bases `b1`
    and `b2` as columns (radians, ascending).

    Cosines alone lose accuracy below sqrt(eps); pairing them with the sines
    of the residual keeps tiny angles tiny.
    """
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return np.zeros(0)
    gram = b1.T @ b2
    cosines = np.sort(np.clip(np.linalg.svd(gram, compute_uv=False), 0.0, 1.0))
    resid = b2 - b1 @ gram
    sines = np.sort(np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0))[::-1]
    k = min(len(sines), len(cosines))
    return np.sort(np.arctan2(sines[:k], cosines[:k]))
