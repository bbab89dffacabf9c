"""Modular linear algebra: echelon forms, Smith normal form, span tests."""

import numpy as np
import pytest

from gtoric.linalg import (
    nullspace_mod_p,
    rank_mod_p,
    row_echelon_mod_p,
    row_group,
    smith_normal_form,
)


class TestEchelon:
    def test_rank_identity(self):
        assert rank_mod_p(np.eye(4, dtype=np.int64), 2) == 4

    def test_rank_dependent_rows(self):
        mat = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
        assert rank_mod_p(mat, 2) == 2  # rows sum to zero mod 2
        assert rank_mod_p(mat, 3) == 3

    def test_transform_consistency(self):
        rng = np.random.default_rng(0)
        for p in (2, 3, 5):
            mat = rng.integers(0, p, (6, 4)).astype(np.int64)
            ech, pivots, t = row_echelon_mod_p(mat, p)
            assert np.array_equal((t @ mat) % p, ech)
            assert len(pivots) == rank_mod_p(mat, p)

    def test_nullspace(self):
        rng = np.random.default_rng(1)
        for p in (2, 3):
            mat = rng.integers(0, p, (5, 7)).astype(np.int64)
            ns = nullspace_mod_p(mat, p)
            assert ns.shape[0] == 7 - rank_mod_p(mat, p)
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
