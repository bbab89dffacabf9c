"""Modular linear algebra: echelon forms, Smith normal form, span tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtoric.linalg import row_echelon_mod_p, row_group, smith_normal_form


class TestEchelon:
    def test_rank_identity(self):
        assert row_group(np.eye(4, dtype=np.int64), 2).rank == 4

    def test_rank_dependent_rows(self):
        mat = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
        assert row_group(mat, 2).rank == 2  # rows sum to zero mod 2
        assert row_group(mat, 3).rank == 3

    def test_transform_consistency(self):
        rng = np.random.default_rng(0)
        for p in (2, 3, 5):
            mat = rng.integers(0, p, (6, 4)).astype(np.int64)
            ech, pivots, t = row_echelon_mod_p(mat, p)
            assert np.array_equal((t @ mat) % p, ech)
            assert len(pivots) == row_group(mat, p).rank

    def test_nullspace(self):
        # the column kernel of mat is the row relations of its transpose
        rng = np.random.default_rng(1)
        for p in (2, 3):
            mat = rng.integers(0, p, (5, 7)).astype(np.int64)
            ns = row_group(mat.T, p).relations
            assert ns.shape[0] == 7 - row_group(mat, p).rank
            if ns.size:
                assert not np.any((mat @ ns.T) % p)

    def test_solve_left(self):
        mat = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)
        group = row_group(mat, 2)
        assert group.contains(np.array([1, 1, 0], dtype=np.int64))
        assert not group.contains(np.array([0, 0, 1], dtype=np.int64))


class TestSmith:
    def test_diagonalization(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mat = rng.integers(-4, 5, (4, 5)).astype(object)
            d, u, v = smith_normal_form(np.array(mat, dtype=object))
            prod = np.array(u, dtype=object) @ np.array(mat, dtype=object) @ np.array(v, dtype=object)
            for i in range(4):
                for j in range(5):
                    expect = d[i] if i == j and i < len(d) else 0
                    assert prod[i][j] == expect

    def test_divisibility(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mat = rng.integers(-6, 7, (3, 3)).astype(object)
            d, _, _ = smith_normal_form(mat)
            nz = [abs(x) for x in d if x != 0]
            for a, b in zip(nz, nz[1:]):
                assert b % a == 0


class TestModularGroups:
    def test_image_order_prime(self):
        mat = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
        assert row_group(mat, 3).order == 9

    def test_image_order_composite(self):
        # single generator (2, 0) over Z_4 has order 2
        mat = np.array([[2, 0]], dtype=np.int64)
        assert row_group(mat, 4).order == 2
        mat2 = np.array([[1, 0], [0, 2]], dtype=np.int64)
        assert row_group(mat2, 4).order == 8

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_kernel_generators(self, n):
        rng = np.random.default_rng(4)
        mat = rng.integers(0, n, (4, 5)).astype(np.int64)
        gens = row_group(mat, n).relations
        assert gens.shape == (len(gens), mat.shape[0])
        for g in gens:
            assert not np.any((np.array(g) @ mat) % n)
        # the kernel subgroup order times the image order is n^rows
        assert row_group(mat, n).order * row_group(np.array(gens), n).order == n ** mat.shape[0]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rowspan_membership(self, n):
        rng = np.random.default_rng(5)
        mat = rng.integers(0, n, (3, 6)).astype(np.int64)
        combo = rng.integers(0, n, 3)
        vec = (combo @ mat) % n
        assert row_group(mat, n).contains(vec)

    def test_rowspan_rejects(self):
        mat = np.array([[2, 0]], dtype=np.int64)  # spans {(0,0),(2,0)} mod 4
        assert not row_group(mat, 4).contains(np.array([1, 0]))
        assert row_group(mat, 4).contains(np.array([2, 0]))


MODULI = (2, 3, 4, 6, 8, 9, 12)


@st.composite
def modular_matrices(draw):
    n = draw(st.sampled_from(MODULI))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(0, n - 1), min_size=rows * cols, max_size=rows * cols))
    return n, np.array(entries, dtype=np.int64).reshape(rows, cols)


def span(mat, n):
    """Every Z_n-combination of the rows of mat, as a set of tuples."""
    rows = len(mat)
    combos = np.indices((n,) * rows).reshape(rows, n**rows).T
    return {tuple(v) for v in ((combos @ mat) % n).tolist()}


def integer_det(mat):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [[int(x) for x in row] for row in mat]
    size, sign, prev = len(a), 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


class TestRowGroupBruteForce:
    """``row_group`` against enumerating every combination of the rows."""

    @settings(max_examples=80, deadline=None)
    @given(modular_matrices(), st.integers(0, 2**32 - 1))
    def test_against_enumeration(self, data, seed):
        n, mat = data
        group = row_group(mat, n)
        members = span(mat, n)
        assert group.order == len(members)
        rng = np.random.default_rng(seed)
        probes = [np.array(v) for v in members]
        probes += list(rng.integers(0, n, (20, mat.shape[1])))
        for vec in probes:
            assert group.contains(vec) == (tuple(vec.tolist()) in members)
        rel = group.relations
        assert rel.shape[1] == mat.shape[0]
        assert not np.any((rel @ mat) % n)
        spanned = span(rel, n) if len(rel) else {(0,) * mat.shape[0]}
        assert len(spanned) * group.order == n ** mat.shape[0]

    @settings(max_examples=80, deadline=None)
    @given(modular_matrices())
    def test_smith_form(self, data):
        n, mat = data
        mat = mat - n // 2  # signed entries
        d, u, v = smith_normal_form(mat)
        diag = np.zeros(mat.shape, dtype=object)
        for i, di in enumerate(d):
            diag[i, i] = di
        assert np.array_equal(u @ np.array(mat, dtype=object) @ v, diag)
        assert abs(integer_det(u)) == 1
        assert abs(integer_det(v)) == 1
        for a, b in zip(d, d[1:]):
            assert (b % a == 0) if a else b == 0
