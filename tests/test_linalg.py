"""Modular linear algebra: echelon forms, Smith forms, span tests."""

import warnings
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gtoric.catalog import build_hamiltonian
from gtoric.lattice import Lattice
from gtoric.linalg import (
    Entries,
    RowGroup,
    _echelon,
    _prime_powers,
    elimination_path,
    is_prime,
    row_echelon_mod_p,
    row_group,
    row_order,
    smith_normal_form,
)
from gtoric.stabilizer import StabilizerModel


def reference_smith(mat):
    """Integer Smith normal form with transforms: returns (d, u, v) with
    ``u @ mat @ v == diag(d)``, u and v unimodular.

    The object-dtype loop ``smith_normal_form`` replaced: Python integers, so
    no entry overflows, and a pivot of least magnitude at each step.
    """
    a = np.array(mat, dtype=object)
    rows, cols = a.shape
    u = np.eye(rows, dtype=object)
    v = np.eye(cols, dtype=object)
    k = 0
    while k < min(rows, cols):
        # find the nonzero entry of smallest magnitude in the remaining block
        sub = a[k:, k:]
        nz = np.nonzero(sub)
        if len(nz[0]) == 0:
            break
        mags = np.abs(sub[nz].astype(object))
        best = int(np.argmin([int(m) for m in mags]))
        pi, pj = int(nz[0][best]) + k, int(nz[1][best]) + k
        if pi != k:
            a[[k, pi]] = a[[pi, k]]
            u[[k, pi]] = u[[pi, k]]
        if pj != k:
            a[:, [k, pj]] = a[:, [pj, k]]
            v[:, [k, pj]] = v[:, [pj, k]]
        # clear column and row below/right of the pivot
        clean = True
        for i in range(k + 1, rows):
            if a[i, k] != 0:
                q = a[i, k] // a[k, k]
                a[i] = a[i] - q * a[k]
                u[i] = u[i] - q * u[k]
                if a[i, k] != 0:
                    clean = False
        for j in range(k + 1, cols):
            if a[k, j] != 0:
                q = a[k, j] // a[k, k]
                a[:, j] = a[:, j] - q * a[:, k]
                v[:, j] = v[:, j] - q * v[:, k]
                if a[k, j] != 0:
                    clean = False
        if not clean:
            continue  # remainders left; pick a new pivot
        if np.any(a[k + 1 :, k] != 0) or np.any(a[k, k + 1 :] != 0):
            continue
        # divisibility: pivot must divide every remaining entry
        rest = a[k + 1 :, k + 1 :]
        bad = None
        nz = np.nonzero(rest % a[k, k] != 0) if rest.size else (np.array([]),)
        if rest.size and len(nz[0]):
            bad = (int(nz[0][0]) + k + 1, int(nz[1][0]) + k + 1)
        if bad is not None:
            # fold the offending row into the pivot row and redo
            a[k] = a[k] + a[bad[0]]
            u[k] = u[k] + u[bad[0]]
            continue
        if a[k, k] < 0:
            a[k] = -a[k]
            u[k] = -u[k]
        k += 1
    d = [int(a[i, i]) for i in range(min(rows, cols))]
    return d, u, v


def reference_row_group(mat, n):
    """The group generated by the rows of mat over Z_n, read off the integer
    Smith form the way ``row_group`` read it for composite n."""
    mat = np.array(mat, dtype=np.int64)
    rows, cols = mat.shape
    d, u, v = reference_smith(mat)
    d = d + [0] * (max(rows, cols) - len(d))
    g = [gcd(di, n) for di in d]
    relations = [(n // g[i]) * u[i] % n for i in range(rows) if g[i] != 1]
    v_mod = (v % n).astype(np.int64)
    g_cols = np.array(g[:cols], dtype=np.int64)

    def contains(vec):
        return not np.any((np.asarray(vec, dtype=np.int64) @ v_mod) % n % g_cols)

    return RowGroup(
        n,
        tuple(n // gi for gi in g if gi != n),
        np.array(relations, dtype=np.int64).reshape(len(relations), rows),
        contains,
    )


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
            d, u, v = reference_smith(np.array(mat, dtype=object))
            prod = np.array(u, dtype=object) @ np.array(mat, dtype=object) @ np.array(v, dtype=object)
            for i in range(4):
                for j in range(5):
                    expect = d[i] if i == j and i < len(d) else 0
                    assert prod[i][j] == expect

    def test_divisibility(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mat = rng.integers(-6, 7, (3, 3)).astype(object)
            d, _, _ = reference_smith(mat)
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
    if size == 0:
        return 1
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
        d, u, v = reference_smith(mat)
        diag = np.zeros(mat.shape, dtype=object)
        for i, di in enumerate(d):
            diag[i, i] = di
        assert np.array_equal(u @ np.array(mat, dtype=object) @ v, diag)
        assert abs(integer_det(u)) == 1
        assert abs(integer_det(v)) == 1
        for a, b in zip(d, d[1:]):
            assert (b % a == 0) if a else b == 0


def reference_echelon(mat, p):
    """The plain column loop: one pivot column at a time, one row at a time."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    t = np.eye(rows, dtype=np.int64)
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
            t[[r, pr]] = t[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        t[r] = (t[r] * inv) % p
        for o in np.nonzero(a[:, c])[0]:
            if o == r:
                continue
            f = a[o, c]
            a[o] = (a[o] - f * a[r]) % p
            t[o] = (t[o] - f * t[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots, t


def reference_rank(mat, p):
    return len(reference_echelon(mat, p)[1])


# 67, 257, 65537 and 2^28 - 57 need packed fields of 2, 2, 4 and 4 bytes
ECHELON_PRIMES = (2, 2, 3, 5, 7, 67, 257, 65537, 2**28 - 57)


@st.composite
def echelon_inputs(draw):
    """Signed matrices with zero-row and zero-column cases, all-zero and
    duplicate rows, widths across the 8- and 64-bit packing boundaries, and
    primes that draw every packed field width."""
    p = draw(st.sampled_from(ECHELON_PRIMES))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 130))
    mat = draw(arrays(np.int64, (rows, cols), elements=st.integers(-9, 9) | st.integers(-2 * p, 2 * p)))
    for i in range(rows):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "duplicate")))
        if kind == "zero":
            mat[i] = 0
        elif kind == "duplicate" and i:
            mat[i] = mat[draw(st.integers(0, i - 1))]
    return p, mat


class TestEchelonAgainstReference:
    """``row_echelon_mod_p`` against the column loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(echelon_inputs())
    def test_same_echelon(self, data):
        p, mat = data
        rows = mat.shape[0]
        ech, pivots, t = row_echelon_mod_p(mat, p)
        want_ech, want_pivots, want_t = reference_echelon(mat, p)
        for got in (ech, t):
            assert got.dtype == np.int64 and got.flags.c_contiguous
        assert ech.shape == want_ech.shape and ech.tobytes() == want_ech.tobytes()
        assert pivots == want_pivots
        # the transform is not unique when rows are dependent: check what defines one
        assert t.shape == (rows, rows)
        assert np.array_equal((t @ mat) % p, ech)
        assert reference_rank(t, p) == rows
        r = len(pivots)
        kernel = rows - r
        assert reference_rank(t[r:], p) == kernel
        assert reference_rank(np.vstack((t[r:], want_t[r:])), p) == kernel


class TestModulusChecked:
    """A modulus the decompositions cannot use raises ``ValueError``."""

    @pytest.mark.parametrize("p", [4, 6, 9, 1, 0, -3])
    def test_echelon_needs_a_prime(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="prime"):
                row_echelon_mod_p(np.eye(2, dtype=np.int64), p)

    @pytest.mark.parametrize("n", [1, 0, -4])
    @pytest.mark.parametrize("decompose", [smith_normal_form, row_group])
    def test_smith_needs_n_at_least_2(self, decompose, n):
        with pytest.raises(ValueError, match="n >= 2"):
            decompose(np.eye(2, dtype=np.int64), n)

    @pytest.mark.parametrize(
        "n, path",
        [(2, "GF(2) bitset"), (3, "GF(3) packed"), (65537, "GF(65537) packed"),
         (4, "CRT Smith form: Z_4 packed"), (6, "CRT Smith form: GF(2) bitset + GF(3) packed"),
         (12, "CRT Smith form: Z_4 packed + GF(3) packed")],
    )
    def test_elimination_path(self, n, path):
        assert elimination_path(n, relations=True) == path

    @pytest.mark.parametrize(
        "n, path",
        [(2, "GF(2) bitset"), (3, "GF(3) packed"), (4, "Z_4 packed"), (6, "GF(2) bitset + GF(3) packed"),
         (12, "Z_4 packed + GF(3) packed"), (59049, "Z_59049 packed")],
    )
    def test_elimination_path_without_relations(self, n, path):
        # row_order forms no Smith form: it names the kernel of each part
        assert elimination_path(n, relations=False) == path


COMPOSITE = (4, 6, 8, 9, 12)


@st.composite
def composite_inputs(draw, max_rows=12, max_cols=30, moduli=COMPOSITE):
    """Signed matrices over n, by default composite, with zero, duplicate
    and scaled rows; a row scaled by a divisor of n generates a summand
    smaller than Z_n, and a prime n has no such divisor."""
    n = draw(st.sampled_from(moduli))
    rows, cols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    mat = draw(arrays(np.int64, (rows, cols), elements=st.integers(-2 * n, 2 * n)))
    divisors = [a for a in range(2, n) if n % a == 0]
    for i in range(rows):
        kind = draw(st.sampled_from(("keep", "zero", "duplicate", "scaled", "scaled")))
        if kind == "zero":
            mat[i] = 0
        elif kind == "duplicate" and i:
            mat[i] = mat[draw(st.integers(0, i - 1))]
        elif kind == "scaled" and divisors:
            mat[i] *= draw(st.sampled_from(divisors))
    return n, mat


# Echelon forms whose pivot rows have entries on later pivot columns of a
# higher level, the block C that ``_column_transform`` back-substitutes over
# and that no catalog block has: over Z_4 row 0 meets the level-1 pivot
# columns of rows 1 and 2; over Z_8, and in the Z_8 part of Z_24, row 0 meets
# row 1's and row 1 meets row 2's, so X's row 0 takes row 1's entries after
# row 1 was itself replaced.
C_BLOCKS = [
    (4, np.array([[1, 1, 0, 3], [0, 2, 2, 0], [0, 0, 0, 2]], dtype=np.int64)),
    (8, np.array([[1, 1, 0, 5], [0, 2, 2, 0], [0, 0, 4, 4]], dtype=np.int64)),
    (24, np.array([[1, 1, 0, 5], [0, 2, 2, 0], [0, 0, 4, 4]], dtype=np.int64)),
]


class TestSmithOverZn:
    """``smith_normal_form`` over Z_n, and ``row_group`` for composite n
    against the integer Smith form it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(composite_inputs(max_cols=12))
    @example(C_BLOCKS[0])
    @example(C_BLOCKS[1])
    @example(C_BLOCKS[2])
    def test_contract(self, data):
        n, mat = data
        rows, cols = mat.shape
        d, u, v = smith_normal_form(mat, n)
        assert isinstance(v, Entries) and u.dtype == v.value.dtype == np.int64
        assert u.shape == (rows, rows) and v.shape == (cols, cols)
        # v's entries: ordered by row, each (row, col) once, reduced and nonzero
        assert np.all(np.diff(v.row) >= 0) and len(np.unique(v.row * cols + v.col)) == v.nnz
        assert np.all((0 < v.value) & (v.value < n))
        v = v.toarray()
        diag = np.zeros((rows, cols), dtype=np.int64)
        diag[np.arange(len(d)), np.arange(len(d))] = d
        assert len(d) == min(rows, cols)
        assert np.array_equal((u @ mat @ v) % n, diag % n)
        assert gcd(integer_det(u), n) == 1
        assert gcd(integer_det(v), n) == 1
        assert all(n % di == 0 for di in d)
        assert all(b % a == 0 for a, b in zip(d, d[1:]))

    @settings(max_examples=120, deadline=None)
    @given(composite_inputs(), st.integers(0, 2**32 - 1))
    @example(C_BLOCKS[0], 0)
    @example(C_BLOCKS[1], 0)
    @example(C_BLOCKS[2], 0)
    def test_row_group_against_reference(self, data, seed):
        n, mat = data
        rows, cols = mat.shape
        group, want = row_group(mat, n), reference_row_group(mat, n)
        assert group.factors == want.factors
        assert group.order == want.order
        assert group.rank == want.rank
        if group.rank is not None:
            assert len(group.relations) == len(want.relations)
        rel = group.relations
        assert rel.shape == (len(rel), rows)
        assert not np.any((rel @ mat) % n)
        assert reference_row_group(rel, n).order * group.order == n**rows
        rng = np.random.default_rng(seed)
        members = rng.integers(0, n, (10, rows)) @ mat % n
        for vec in members:
            assert group.contains(vec) and want.contains(vec)
        for vec in rng.integers(0, n, (20, cols)):
            assert group.contains(vec) == want.contains(vec)

    @pytest.mark.parametrize("n, mat", C_BLOCKS)
    def test_examples_reach_the_pivot_block(self, n, mat):
        """Each ``C_BLOCKS`` example, given to the two tests above, has a
        pivot row with an entry on a later pivot column, and over Z_8 the
        rows form the chain that makes C^2 nonzero."""
        p, k = _prime_powers(n)[0]
        ech, pivots, levels, _ = _echelon(mat, p, k)
        c = np.array([[ech[i, col] // p ** levels[i] % p**k for col in pivots] for i in range(len(pivots))])
        c[np.arange(len(pivots)), np.arange(len(pivots))] = 0
        assert c.any()
        assert (c @ c).any() == (k == 3)


@st.composite
def order_inputs(draw):
    """A matrix over Z_n whose entries take every p-adic valuation (a unit
    or zero times a divisor of n), with empty shapes, and a column that is a
    combination of its columns, such a combination plus a scaled unit
    vector, or arbitrary."""
    n = draw(st.sampled_from(MODULI))
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    entry = st.builds(lambda u, d: u * d, st.integers(-n, n), st.sampled_from(divisors))
    mat = draw(arrays(np.int64, (rows, cols), elements=entry))
    combo = draw(arrays(np.int64, cols, elements=st.integers(0, n - 1)))
    spanned = mat @ combo if cols else np.zeros(rows, dtype=np.int64)
    kind = draw(st.sampled_from(("spanned", "shifted", "arbitrary")))
    if kind == "arbitrary":
        return n, mat, draw(arrays(np.int64, rows, elements=entry))
    if kind == "shifted" and rows:
        spanned[draw(st.integers(0, rows - 1))] += draw(st.sampled_from(divisors))
    return n, mat, spanned


class TestRowOrder:
    """``row_order`` against the integer Smith form: the factors of the row
    group, and whether every relation annihilates the column."""

    @settings(max_examples=400, deadline=None)
    @given(order_inputs())
    @example((4, np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)))
    @example((6, np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64)))
    @example((9, np.zeros((3, 0), dtype=np.int64), np.array([0, 3, 0])))
    @example((2, np.zeros((2, 0), dtype=np.int64), np.array([0, 0])))
    def test_against_reference(self, data):
        n, mat, column = data
        want = reference_row_group(mat, n)
        factors, in_span = row_order(mat, n, column)
        assert factors == want.factors
        assert in_span == (not (want.relations @ column % n).any())

    def test_needs_n_at_least_2(self):
        with pytest.raises(ValueError, match="n >= 2"):
            row_order(np.eye(2, dtype=np.int64), 1, np.zeros(2, dtype=np.int64))


def reference_echelon_local(mat, p, k, column=None):
    """Echelon form of mat over the local ring Z_q, q = p^k, by the numpy
    column loop the packed kernel replaced: returns ``(ech, pivots, levels,
    t)`` with ``t @ mat == ech (mod q)``, or, given a column, the
    ``(pivots, levels)`` of ``[mat | column]`` with no transform.

    Sweep v = 0 .. k-1 takes its pivots, column by column, from the entries
    of valuation exactly v in the rows not yet pivoted, all of which p^v
    divides.  A pivot row is swapped up and scaled by its unit's inverse, and
    every other row loses the multiple of it that leaves its entry in the
    pivot column reduced mod p^v.  Each pivot updates the block of ``[mat |
    T]`` under its row's nonzero columns in one array expression.
    """
    q = p**k
    rows, cols = mat.shape
    if column is None:
        w = np.concatenate((mat % q, np.eye(rows, dtype=np.int64)), axis=1)
    else:
        w = np.empty((rows, cols + 1), dtype=np.int64)
        np.remainder(mat, q, out=w[:, :cols])
        np.remainder(column, q, out=w[:, cols])
        cols += 1
    pivots, levels = [], []
    r = 0
    for v in range(k):
        unit, step = p**v, p ** (v + 1)
        for c in range(cols):
            if r >= rows:
                break
            nz = np.flatnonzero(w[r:, c] % step)
            if len(nz) == 0:
                continue
            pr = r + nz[0]
            if pr != r:
                w[[r, pr]] = w[[pr, r]]
            w[r] = (w[r] * pow(int(w[r, c] // unit), -1, q)) % q
            f = w[:, c] // unit
            f[r] = 0
            others = np.flatnonzero(f)
            # only the pivot row's nonzero columns change
            block = np.ix_(others, np.flatnonzero(w[r]))
            w[block] = (w[block] - np.outer(f[others], w[r][block[1]])) % q
            pivots.append(c)
            levels.append(v)
            r += 1
    if column is not None:
        return pivots, levels
    return w[:, :cols], pivots, levels, w[:, cols:]


# 64 is the widest q of 1-byte fields, 81 the narrowest of 2-byte ones
RING_MODULI = ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (3, 4), (2, 7), (3, 5))


@st.composite
def ring_inputs(draw):
    """A small matrix over Z_{p^k} whose entries take every valuation, with
    zero and duplicate rows, and a column spanned by its columns or not."""
    p, k = draw(st.sampled_from(RING_MODULI))
    q = p**k
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.builds(lambda u, e: u * p**e, st.integers(-q, q), st.integers(0, k))
    mat = draw(arrays(np.int64, (rows, cols), elements=entry))
    for i in range(rows):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "duplicate")))
        if kind == "zero":
            mat[i] = 0
        elif kind == "duplicate" and i:
            mat[i] = mat[draw(st.integers(0, i - 1))] * p ** draw(st.integers(0, k - 1))
    column = draw(arrays(np.int64, rows, elements=entry))
    if draw(st.booleans()) and cols:
        column = mat @ draw(arrays(np.int64, cols, elements=st.integers(0, q - 1)))
    return p, k, mat, column


class TestPackedRingKernel:
    """The packed Z_{p^k} kernel against the numpy column loop it replaced:
    the same levels, so the same factors, though the pivot columns may
    differ, with and without an appended column."""

    @settings(max_examples=150, deadline=None)
    @given(ring_inputs())
    def test_against_reference(self, data):
        p, k, mat, column = data
        q = p**k
        rows, cols = mat.shape
        ech, pivots, levels, t = _echelon(mat, p, k)
        _, want_pivots, want_levels, _ = reference_echelon_local(mat, p, k)
        assert sorted(levels) == sorted(want_levels) and levels == sorted(levels)
        assert len(pivots) == len(want_pivots) == len(set(pivots))
        assert np.array_equal(t @ mat % q, ech)
        assert reference_rank(t, p) == rows  # invertible mod p, so mod q
        assert not ech[len(pivots):].any()
        for i, (c, v) in enumerate(zip(pivots, levels)):
            assert ech[i, c] == p**v and not (ech[i] % p**v).any()
            # zero on every pivot column of the rows above it
            assert not ech[i, pivots[:i]].any()
        found = _echelon(mat, p, k, column)
        want = reference_echelon_local(mat, p, k, column)
        assert sorted(found[1]) == sorted(want[1])
        assert (cols in found[0]) == (cols in want[0])

    @settings(max_examples=150, deadline=None)
    @given(ring_inputs())
    def test_row_order_agrees_with_row_group(self, data):
        p, k, mat, column = data
        q = p**k
        group = row_group(mat, q)
        factors, in_span = row_order(mat, q, column)
        assert factors == group.factors
        assert in_span == (not (group.relations @ column % q).any())


def reference_dense_contains(mat, n):
    """Membership by the dense products ``row_group`` formed before it held
    sparse ones: ``vec - vec[pivots] @ ech[:r]`` over the reduced echelon
    rows for prime n, and ``vec % n @ v_kept % g_kept`` over the columns of
    the Smith v whose g is not 1 for composite n."""
    mat = np.asarray(mat, dtype=np.int64)
    rows, cols = mat.shape
    if is_prime(n):
        ech, pivots, _ = row_echelon_mod_p(mat, n)
        basis = ech[: len(pivots)]

        def contains(vec):
            vec = np.asarray(vec, dtype=np.int64) % n
            return not np.any((vec - vec[pivots] @ basis) % n)

        return contains
    d, _, v = smith_normal_form(mat, n)
    g_cols = np.array(d + [n] * (max(rows, cols) - len(d)), dtype=np.int64)[:cols]
    v_kept, g_kept = v.toarray()[:, g_cols != 1], g_cols[g_cols != 1]

    def contains(vec):
        return not np.any((np.asarray(vec, dtype=np.int64) % n @ v_kept) % g_kept)

    return contains


class TestSparseMembership:
    """``row_group``'s sparse membership test against the dense products it
    replaced, on members and on members plus one unit entry."""

    @settings(max_examples=200, deadline=None)
    @given(composite_inputs(moduli=(2, 3, 4, 5, 6, 8, 9)), st.integers(0, 2**32 - 1))
    def test_against_dense_reference(self, data, seed):
        n, mat = data
        rows, cols = mat.shape
        group, want = row_group(mat, n), reference_dense_contains(mat, n)
        rng = np.random.default_rng(seed)
        members = rng.integers(0, n, (8, rows)) @ mat % n
        for vec in members:
            # entries outside [0, n) are reduced first
            signed = vec + n * rng.integers(-2, 3, cols)
            assert group.contains(vec) and want(vec) and group.contains(signed)
            if cols:
                shifted = vec.copy()
                shifted[rng.integers(cols)] += 1
                assert group.contains(shifted) == want(shifted)

    @pytest.mark.parametrize("model", ["m1", "mhoriz", "zn:4"])
    def test_catalog_blocks_against_dense_reference(self, model):
        """Each CSS block of a torus:16x16 model, on generator products, and
        on products plus one unit entry, which are mostly outside the group."""
        sm = StabilizerModel.from_hamiltonian(build_hamiltonian(model, Lattice("torus", 16, 16)))
        n = sm.n
        rng = np.random.default_rng(16)
        for b in sm._blocks.blocks:
            mat = np.zeros(b.mat.shape, dtype=np.int64)
            mat[b.mat.row, b.mat.col] = b.mat.value
            group, want = row_group(b.mat, n), reference_dense_contains(mat, n)
            coeffs = rng.integers(0, n, (6, len(b.gens))) * (rng.random((6, len(b.gens))) < 0.1)
            for vec in coeffs @ mat % n:
                assert group.contains(vec) and want(vec)
                vec[rng.integers(len(vec))] += 1
                assert group.contains(vec) == want(vec)


class TestEntriesParity:
    """Every public decomposition gives identical results on a dense matrix
    and on its ``Entries``: signed and unreduced values, zero rows and
    columns, and shapes with no rows."""

    @settings(max_examples=200, deadline=None)
    @given(composite_inputs(moduli=(2, 3, 4, 5, 6, 8, 9)), st.integers(0, 2**32 - 1))
    @example((4, np.zeros((0, 3), dtype=np.int64)), 0)
    @example((9, np.zeros((0, 0), dtype=np.int64)), 0)
    @example((6, np.array([[0, -7, 13], [0, 0, 0]], dtype=np.int64)), 1)
    def test_dense_and_entries_agree(self, data, seed):
        n, mat = data
        rows, cols = mat.shape
        rng = np.random.default_rng(seed)
        if cols and rng.random() < 0.5:
            mat[:, rng.integers(cols)] = 0
        row, col = np.nonzero(mat)
        entries = Entries(mat.shape, row, col, mat[row, col])
        for column in (np.zeros(rows, dtype=np.int64), rng.integers(-2 * n, 2 * n, rows)):
            assert row_order(mat, n, column) == row_order(entries, n, column)
        dense, sparse = row_group(mat, n), row_group(entries, n)
        assert dense.factors == sparse.factors
        assert np.array_equal(dense.relations, sparse.relations)
        vecs = np.vstack((rng.integers(0, n, (4, rows)) @ mat, rng.integers(-n, n, (4, cols))))
        assert [dense.contains(v) for v in vecs] == [sparse.contains(v) for v in vecs]
        for p, _ in _prime_powers(n):
            for a, b in zip(row_echelon_mod_p(mat, p), row_echelon_mod_p(entries, p), strict=True):
                assert np.array_equal(a, b)
        for a, b in zip(smith_normal_form(mat, n), smith_normal_form(entries, n), strict=True):
            if isinstance(a, Entries):  # v
                a, b = a.toarray(), b.toarray()
            assert np.array_equal(a, b)
