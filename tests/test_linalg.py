import ast
import dataclasses
import enum
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddle_lab import linalg


def rand_matrix(seed, n, p):
    return np.random.default_rng(seed).normal(size=(n, p))


class TestRowNorms:
    def test_matches_hypot_without_overflow(self):
        rng = np.random.default_rng(4)
        rows = np.vstack([rng.normal(size=(20, 6)) * 1e200,
                          rng.normal(size=(5, 6)) * 1e-200,
                          [[1e308, -1e308, 0.0, 0.0, 0.0, 0.0]], np.zeros((1, 6))])
        norms = linalg.row_norms(rows)
        assert np.all(np.isfinite(norms))
        for row, norm in zip(rows, norms):
            assert abs(norm - math.hypot(*row)) <= 1e-15 * math.hypot(*row)


class TestEigComplex:
    def test_identity(self):
        s = linalg.eig_complex(np.eye(3))
        assert len(s.values) == 1
        assert s.values[0] == pytest.approx(1.0)
        assert s.multiplicities[0] == 3

    def test_rotation_quarter_turn(self):
        s = linalg.eig_complex([[0.0, -1.0], [1.0, 0.0]])
        assert sorted(s.values, key=lambda z: z.imag) == [
            pytest.approx(-1j), pytest.approx(1j)]

    def test_quartic_roots_of_unit_coupling(self):
        # companion of the 1x1 saddle at eta=0.3: roots of
        # z^2 (1-z)^2 + 0.09 (1-2z)^2
        eta = 0.3
        lam = np.array([
            [1, 2 * eta, 0, -eta],
            [-2 * eta, 1, eta, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ])
        s = linalg.eig_complex(lam)
        expected = {0.9 + 0.3j, 0.9 - 0.3j, 0.1 + 0.3j, 0.1 - 0.3j}
        assert len(s.values) == 4
        for z in s.values:
            assert min(abs(z - w) for w in expected) < 1e-12
            resid = z ** 2 * (1 - z) ** 2 + eta ** 2 * (1 - 2 * z) ** 2
            assert abs(resid) < 1e-12
        assert max(abs(z) for z in s.values) == pytest.approx(3 / np.sqrt(10))

    def test_conjugate_closed_and_det(self):
        m = rand_matrix(11, 6, 6)
        s = linalg.eig_complex(m)
        multiset = s.as_multiset()
        assert len(multiset) == 6
        conj = np.sort_complex(np.conj(multiset))
        assert np.allclose(np.sort_complex(multiset), conj, atol=1e-9)
        assert np.prod(multiset) == pytest.approx(np.linalg.det(m), rel=1e-8)


def union_find_clusters(values, tol):
    """Reference: connected components of the pairs within tol."""
    vals = np.asarray(values, dtype=complex)
    parent = list(range(len(vals)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(vals[i] - vals[j]) <= tol:
                parent[find(j)] = find(i)
    groups = {}
    for i in range(len(vals)):
        groups.setdefault(find(i), []).append(i)
    centers = np.array([vals[g].mean() for g in groups.values()])
    mults = np.array([len(g) for g in groups.values()])
    order = np.lexsort((centers.imag, centers.real))
    return centers[order], mults[order]


class TestClusterScalars:
    def test_no_chaining(self):
        # twelve points 9e-9 apart span about 1e-7; union-find made them one
        values = 9e-9 * np.arange(12)
        tol = 1e-8
        s = linalg.cluster_scalars(values, tol)
        assert s.total == 12 and len(s.values) > 1
        start = 0
        for center, mult in zip(s.values, s.multiplicities):
            members = values[start:start + mult]
            assert members.max() - members.min() <= 2 * tol
            assert abs(center - members.mean()) < 1e-22
            start += mult

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_union_find_when_separated(self, seed):
        rng = np.random.default_rng(seed)
        tol = 1e-8
        base = rng.normal(size=12) + 1j * rng.normal(size=12) * (seed % 2)
        copies = rng.integers(1, 4, size=12)
        values = np.repeat(base, copies)
        values = values + tol / 4 * (rng.uniform(-1, 1, values.size)
                                     + 1j * rng.uniform(-1, 1, values.size))
        values = values[rng.permutation(values.size)]
        s = linalg.cluster_scalars(values, tol)
        centers, mults = union_find_clusters(values, tol)
        assert np.array_equal(s.values, centers)
        assert np.array_equal(s.multiplicities, mults)


class TestPinv:
    def test_diagonal(self):
        assert np.allclose(linalg.pinv(np.diag([1.0, 2.0])), np.diag([1.0, 0.5]))

    def test_tall_rank_deficient(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
        assert np.allclose(linalg.pinv(a), expected)

    def test_zero_matrix(self):
        assert np.array_equal(linalg.pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_penrose_conditions(self, n, p, seed):
        a = rand_matrix(seed, n, p)
        ap = linalg.pinv(a)
        scale = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(a @ ap @ a - a) < 1e-10 * scale
        assert np.linalg.norm(ap @ a @ ap - ap) < 1e-10 * max(1, np.linalg.norm(ap))
        assert np.linalg.norm((a @ ap).T - a @ ap) < 1e-10
        assert np.linalg.norm((ap @ a).T - ap @ a) < 1e-10


class TestSvdRank:
    def test_one_rank_feeds_every_subspace(self):
        svd = linalg.svd_rank(np.diag([1.0, 1e-9, 0.0]))
        assert svd.rank == 2
        assert svd.kernel().shape[1] == 1 and svd.image().shape[1] == 2
        assert np.allclose(svd.pinv(), np.diag([1.0, 1e9, 0.0]))
        assert linalg.svd_rank(np.diag([1.0, 1e-9, 0.0])).rank == 2

    def test_rank_cutoff_is_applied_in_one_function(self):
        package = Path(linalg.__file__).parent
        callers = set()
        for path in sorted(package.glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if isinstance(fn, ast.FunctionDef) and any(
                        isinstance(node, ast.Name) and node.id == "default_rank_tol"
                        or isinstance(node, ast.Attribute) and node.attr == "default_rank_tol"
                        for node in ast.walk(fn)):
                    callers.add(f"{path.stem}.{fn.name}")
        assert callers == {"linalg.svd_rank"}


class TestKernels:
    def test_kernel_of_column_deficient(self):
        ker = linalg.kernel_basis(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert ker.shape[1] == 1
        assert np.allclose(np.abs(ker[:, 0]), [0.0, 1.0])

    def test_full_rank_has_empty_kernel(self):
        assert linalg.kernel_basis(np.eye(3)).shape[1] == 0

    def test_left_kernel(self):
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        ker = linalg.kernel_basis(a.T)
        assert ker.shape[1] == 1
        v = ker[:, 0]
        assert np.linalg.norm(a.T @ v) < 1e-12
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.allclose(np.abs(v), np.array([2.0, 1.0]) / np.sqrt(5))

    def test_kernel_basis_is_orthonormal(self):
        a = rand_matrix(21, 5, 4)
        a[:, 3] = a[:, 0] - 2 * a[:, 1]
        ker = linalg.kernel_basis(a)
        gram = ker.T @ ker
        assert np.linalg.norm(gram - np.eye(ker.shape[1])) < 1e-10
        assert np.linalg.norm(a @ ker) < 1e-12

    def test_pinv_kernel_matches_transpose_kernel(self):
        a = rand_matrix(7, 4, 3)
        a[:, 2] = a[:, 0] + a[:, 1]
        ang = linalg.principal_angles(linalg.kernel_basis(linalg.pinv(a)),
                                      linalg.kernel_basis(a.T))
        assert ang.size == 0 or ang.max() < 1e-8


class TestProject:
    def test_span_is_orthonormal(self):
        vectors = rand_matrix(11, 3, 5) * [1.0, 1e3, 1e-3, 2.0, 1.0]
        basis = linalg.span(vectors)
        gram = basis.T @ basis
        assert basis.shape[1] == 3 and np.linalg.norm(gram - np.eye(3)) < 1e-12
        for v in vectors:
            assert np.linalg.norm(linalg.project(v, basis) - v) < 1e-12 * np.linalg.norm(v)

    def test_span_of_dependent_vectors(self):
        # an unpivoted QR keeps e1 and e3 here, which miss (0, 1, 1)
        vectors = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 1.0]]
        basis = linalg.span(vectors)
        assert basis.shape[1] == 2
        assert np.linalg.norm(basis.T @ basis - np.eye(2)) < 1e-12
        for v in vectors:
            assert np.linalg.norm(linalg.project(v, basis) - v) < 1e-12 * np.linalg.norm(v)
        # the reference: the residual against numpy's least squares fit
        v = np.array([0.0, 1.0, 1.0])
        coeffs = np.linalg.lstsq(basis, v, rcond=None)[0]
        assert np.linalg.norm(basis @ coeffs - v) < 1e-12

    def test_orthogonal_axis(self):
        onto = linalg.span([[1.0, 0.0]])
        assert np.allclose(linalg.project([3.0, 4.0], onto), [3.0, 0.0])

    def test_oblique_example(self):
        onto = linalg.span([[0.0, 1.0]])
        along = linalg.span([[2.0, 1.0]])
        assert np.allclose(linalg.project([1.0, 1.0], onto, along=along),
                           [0.0, 0.5])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
    def test_idempotent(self, dim, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, dim))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        onto = linalg.span(q[:, :k].T)
        along = linalg.span(q[:, k:].T)
        v = rng.normal(size=dim)
        p1 = linalg.project(v, onto)
        assert np.linalg.norm(linalg.project(p1, onto) - p1) < 1e-12
        assert abs(np.dot(v - p1, p1)) < 1e-10
        q1 = linalg.project(v, onto, along=along)
        assert np.linalg.norm(linalg.project(q1, onto, along=along) - q1) < 1e-12

    def test_degenerate_pair_rejected(self):
        onto = linalg.span([[1.0, 0.0]])
        along = linalg.span([[1.0, 1e-12]])
        with pytest.raises(linalg.NotComplementaryError):
            linalg.project([1.0, 2.0], onto, along=along)

    def test_dimension_mismatch_rejected(self):
        onto = linalg.span([[1.0, 0.0, 0.0]])
        along = linalg.span([[0.0, 1.0, 0.0]])
        with pytest.raises(linalg.NotComplementaryError):
            linalg.project([1.0, 1.0, 1.0], onto, along=along)


class TestJson:
    def test_round_trip(self):
        a = rand_matrix(13, 3, 2)
        obj = linalg.matrix_to_json(a)
        assert obj["rows"] == 3 and obj["cols"] == 2
        assert np.array_equal(linalg.matrix_from_json(obj, "A"), a)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            linalg.matrix_from_json({"rows": 2, "cols": 2, "data": [1.0]}, "A")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            linalg.as_matrix([[np.nan, 0.0]])


class Shade(str, enum.Enum):
    DARK = "Dark"


@dataclasses.dataclass
class Inner:
    shade: Shade
    pair: tuple


@dataclasses.dataclass
class Outer:
    inner: Inner
    values: np.ndarray
    extra: dict


class TestJsonable:
    def test_nested_values(self):
        obj = Outer(Inner(Shade.DARK, (np.int64(3), math.inf)),
                    np.array([[1.5, -math.inf], [math.nan, 2.0]]),
                    {"flags": np.array([True, False]), "counts": np.arange(3),
                     "scalars": [np.float64(0.25), np.bool_(True), np.float64(math.nan)],
                     "plain": (1, "Dark", None, -0.0)})
        out = linalg.jsonable(obj)
        assert out == {"inner": {"shade": "Dark", "pair": [3, None]},
                       "values": [[1.5, None], [None, 2.0]],
                       "extra": {"flags": [True, False], "counts": [0, 1, 2],
                                 "scalars": [0.25, True, None],
                                 "plain": [1, "Dark", None, -0.0]}}
        assert type(out["inner"]["shade"]) is str and type(out["inner"]["pair"][0]) is int
        assert [type(v) for v in out["extra"]["scalars"][:2]] == [float, bool]
        assert [type(v) for v in out["extra"]["flags"] + out["extra"]["counts"]] == (
            [bool] * 2 + [int] * 3)
        assert json.dumps(out, allow_nan=False)

    def test_plain_values_pass_through(self):
        for value in (0, 1.0, "x", None, True, [], {}):
            assert linalg.jsonable(value) == value
        assert linalg.jsonable(np.float64(-math.inf)) is None
