"""Exact linear algebra over Z_n in int64: elimination over Z_{p^k} and
the Smith form over Z_n, with transform tracking.

``row_group`` describes the subgroup of Z_n^cols generated by a matrix's
rows with one decomposition, chosen once by the modulus.  For prime n one
``row_echelon_mod_p`` gives the order from the pivots, the relations among
the rows from the transform's last rows, and membership by reducing a vector
against the echelon rows.  For composite n one ``smith_normal_form`` over Z_n
gives the order and the relations from the diagonal and the left transform,
and membership from one product with the right transform.

For n = 2, the case of most catalog models, ``row_echelon_mod_p`` packs each
row of ``[mat | I]`` into one Python int and eliminates by XOR, the packed
tableau of Aaronson and Gottesman (2004); odd p keeps a column loop with one
array update per pivot.  Both return the same reduced echelon form, so one
contract serves every prime.  The Smith form splits Z_n by the Chinese
remainder theorem into its Z_{p^k} parts (Hostens, Dehaene and De Moor,
2005), eliminates each part on pivots of least p-adic valuation (a prime
part runs the same private elimination as ``row_echelon_mod_p``), and joins
the parts' transforms with the CRT idempotents.  No entry or product-sum
leaves int64 within the ``StabilizerModel`` bound ``4 L n^2 < 2^63``.  The
two functions keep their names and stay module globals, called through the
module, because ``perfbench``'s tracer wraps them by name to count and time
each decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable

import numpy as np


def _prime_powers(n):
    """The ``(p, k)`` with ``p^k`` exactly dividing n, by increasing p."""
    parts = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            parts.append((p, k))
        p += 1
    if n > 1:
        parts.append((n, 1))
    return parts


def is_prime(n):
    return _prime_powers(n) == [(n, 1)]


# -- prime fields -------------------------------------------------------------


def _inv_mod(a, p):
    return pow(int(a), -1, p)


def row_echelon_mod_p(mat, p):
    """Return (reduced echelon matrix, pivot column list, transform T) with
    ``T @ mat == echelon (mod p)``; T is square and invertible mod p.

    The reduced echelon form and its pivots are unique; over GF(2) T is
    not, and any T with those properties may be returned.  For p = 2 each
    row of ``[mat | I]`` is packed into one Python int and reduced by XOR
    (``_echelon_gf2``).  For odd p the columns are eliminated one at a time
    (``_echelon_local`` with k = 1).  Both results are C-contiguous int64
    arrays.  Like ``smith_normal_form``, the function keeps its name and one
    entry point for every prime, since the benchmark's tracer wraps it by
    name.
    """
    mat = np.asarray(mat, dtype=np.int64)
    if p == 2:
        return _echelon_gf2(np.ascontiguousarray(mat, dtype="<i8"))
    ech, pivots, _, t = _echelon_local(mat, p, 1)
    return ech, pivots, t


def _echelon_local(mat, p, k):
    """Echelon form of mat over the local ring Z_q, q = p^k: returns
    ``(ech, pivots, levels, t)`` with ``t @ mat == ech (mod q)``, t invertible
    mod q, and row i of ech divisible by ``p^levels[i]`` with ``p^levels[i]``
    in column ``pivots[i]``.

    Sweep v = 0 .. k-1 takes its pivots, column by column, from the entries
    of valuation exactly v in the rows not yet pivoted, all of which p^v
    divides.  A pivot row is swapped up and scaled by its unit's inverse, and
    every other row loses the multiple of it that leaves its entry in the
    pivot column reduced mod p^v: zero below the pivot and in the pivot rows
    of the same level.  Each pivot updates the block of ``[mat | T]`` under
    its row's nonzero columns in one array expression; no int64 entry
    exceeds q^2 on the way.  For k = 1 this is the reduced echelon form over
    GF(p) and its unique transform.
    """
    q = p**k
    rows, cols = mat.shape
    w = np.concatenate((mat % q, np.eye(rows, dtype=np.int64)), axis=1)
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
            w[r] = (w[r] * _inv_mod(w[r, c] // unit, q)) % q
            f = w[:, c] // unit
            f[r] = 0
            others = np.flatnonzero(f)
            # only the pivot row's nonzero columns change; the catalog's rows are sparse
            block = np.ix_(others, np.flatnonzero(w[r]))
            w[block] = (w[block] - np.outer(f[others], w[r][block[1]])) % q
            pivots.append(c)
            levels.append(v)
            r += 1
    return np.ascontiguousarray(w[:, :cols]), pivots, levels, np.ascontiguousarray(w[:, cols:])


def _echelon_gf2(mat):
    """``row_echelon_mod_p`` for p = 2 on rows packed into Python ints.

    Row i of ``[mat | I]`` becomes one int: column c of mat is bit
    ``top - 1 - c`` and transform column j is bit ``tw - 1 - j``, both parts
    padded to whole bytes, so a row's leading column is read off its
    ``bit_length``.  Each row in turn is XORed with the stored row whose
    pivot is its leading column until it leads with a new pivot (and is
    stored) or its mat part is zero (and its transform bits are a relation).
    Back-substitution in decreasing pivot order then clears every pivot
    column outside its own row, giving the unique reduced echelon form.  The
    transform is lower unitriangular in row order before back-substitution,
    so T stays invertible.
    """
    rows, cols = mat.shape
    mb, tb = -(-cols // 8), -(-rows // 8)  # packed bytes of the mat and transform parts
    tw = 8 * tb
    top = tw + 8 * mb
    stored = {}  # pivot column -> row
    relations = []
    # the first byte of a little-endian int64 holds its parity
    packed = np.packbits(mat.view(np.uint8)[:, ::8] & 1, axis=1).tobytes()
    for i in range(rows):
        x = int.from_bytes(packed[i * mb : (i + 1) * mb], "big") << tw | 1 << (tw - 1 - i)
        while x.bit_length() > tw:
            c = top - x.bit_length()
            s = stored.get(c)
            if s is None:
                stored[c] = x
                break
            x ^= s
        else:
            relations.append(x)
    pivots = sorted(stored)
    pivot_bits = sum(1 << (top - 1 - c) for c in pivots)
    for c in reversed(pivots):
        x = stored[c]
        other = x & pivot_bits ^ (1 << (top - 1 - c))
        while other:
            k = other.bit_length()
            x ^= stored[top - k]
            other ^= 1 << (k - 1)
        stored[c] = x
    ordered = [stored[c] for c in pivots] + relations
    # write only the set bits, so pages of zeros are never touched
    bits = np.unpackbits(np.frombuffer(b"".join(x.to_bytes(mb + tb, "big") for x in ordered), dtype=np.uint8))
    i, j = np.divmod(np.flatnonzero(bits.view(bool)), top)
    ech = np.zeros((rows, cols), dtype=np.int64)
    t = np.zeros((rows, rows), dtype=np.int64)
    in_mat = j < cols
    ech[i[in_mat], j[in_mat]] = 1
    t[i[~in_mat], j[~in_mat] - 8 * mb] = 1
    return ech, pivots, t


# -- Smith form over Z_n ------------------------------------------------------


def smith_normal_form(mat, n):
    """Smith form of mat over Z_n: returns (d, u, v) with
    ``u @ mat @ v == diag(d) (mod n)``.

    u and v are int64 arrays with entries in [0, n), invertible mod n; d has
    ``min(rows, cols)`` entries, each a divisor of n (n itself for a zero),
    with d[i] dividing d[i + 1].  Each part Z_q, q = p^k exactly dividing n,
    is one elimination of ``mat mod q`` (``_echelon_gf2`` for q = 2,
    otherwise ``_echelon_local``), whose pivot of level v contributes p^v to
    its d[i]; levels rise down the rows, so the divisibility chain holds in
    every part.  The parts' transforms, their rows scaled by units mod q so
    that each part gives the same d, are joined with the CRT idempotents
    e_q (1 mod q, 0 mod n / q): ``u = sum e_q u_q`` and ``v = sum e_q v_q``.
    """
    mat = np.asarray(mat, dtype=np.int64)
    rows, cols = mat.shape
    size = min(rows, cols)
    parts = []
    for p, k in _prime_powers(n):
        if p**k == 2:
            ech, pivots, t = _echelon_gf2(np.ascontiguousarray(mat, dtype="<i8"))
            levels = [0] * len(pivots)
        else:
            ech, pivots, levels, t = _echelon_local(mat, p, k)
        v = _column_transform(ech, pivots, levels, p, p**k)
        parts.append((p, k, levels + [k] * (size - len(pivots)), t, v))
    d = [prod(p**level[i] for p, _, level, _, _ in parts) for i in range(size)]
    for p, k, level, u_q, v_q in parts:
        q = p**k
        e = n // q * pow(n // q, -1, q)
        unit = [d[i] // p ** level[i] % q for i in range(size)] + [1] * (rows - size)
        u_q *= np.array(unit, dtype=np.int64)[:, None]
        u_q %= q
        for part in (u_q, v_q):
            part *= e
            part %= n
    # the sums build up in the first part's arrays, so no third copy is made
    _, _, _, u, v = parts[0]
    for _, _, _, u_q, v_q in parts[1:]:
        u += u_q
        v += v_q
    u %= n
    v %= n
    return d, u, v


def _column_transform(ech, pivots, levels, p, q):
    """The column operations that finish an echelon form over Z_q, q = p^k:
    returns v, invertible mod q, with ``ech @ v == diag(p^levels)`` (mod q)
    in the first ``len(pivots)`` columns and zero elsewhere.

    Pivot row i of ech is ``p^levels[i] (e_c + b_i)`` for its pivot column c,
    where b_i vanishes on c and on the earlier pivot columns, and on the
    later ones except where a later pivot has a higher level.  With N the
    matrix whose row c is b_i, ``ech`` is a row selection of ``diag(p^level)
    (I + N)``, and N is nilpotent, so ``v = (I + N)^{-1}`` with the pivot
    columns moved first.  Only the pivot-column block C of the b_i couples
    them: ``(I + N)^{-1} = I - S^T (I + C)^{-1} B`` for B the rows b_i, S the
    pivot selection, and ``(I + C) X = B`` is solved by back-substitution
    over the rows of C that are not zero (none over a prime field).
    """
    cols = ech.shape[1]
    pivots = np.array(pivots, dtype=np.intp)
    b = ech[: len(pivots)] // p ** np.array(levels, dtype=np.int64)[:, None]
    b[np.arange(len(pivots)), pivots] = 0
    c = b[:, pivots]
    for i in np.flatnonzero(c.any(axis=1))[::-1]:
        b[i] = (b[i] - c[i] @ b) % q
    # v is I - S^T X, X = (I + C)^{-1} B, with the pivot columns moved first
    r = len(pivots)
    free = np.setdiff1d(np.arange(cols), pivots)
    x = b[:, np.concatenate((pivots, free))]
    np.negative(x, out=x)
    x[np.arange(r), np.arange(r)] += 1
    x %= q
    v = np.zeros((cols, cols), dtype=np.int64)
    v[pivots] = x
    v[free, np.arange(r, cols)] = 1
    return v


# -- the group generated by the rows of a matrix over Z_n -----------------------


@dataclass(frozen=True)
class RowGroup:
    """The subgroup of Z_n^cols generated by the rows of a matrix, from one
    decomposition of that matrix.

    ``factors`` are the orders of the cyclic summands of the group, so their
    product is its order.  ``relations`` is a ``(k, rows)`` array whose rows
    generate ``{j : j @ mat == 0 (mod n)}`` mod n.  ``contains(vec)`` tells
    whether vec is a Z_n-combination of the rows.
    """

    n: int
    factors: tuple
    relations: np.ndarray
    contains: Callable

    @property
    def order(self):
        return prod(self.factors)

    @property
    def rank(self):
        """Number of Z_n summands, or None when the group is not free over Z_n."""
        if any(f != self.n for f in self.factors):
            return None
        return len(self.factors)


def row_group(mat, n):
    """Decompose mat once: ``row_echelon_mod_p`` for prime n, otherwise
    ``smith_normal_form`` over Z_n."""
    mat = np.array(mat, dtype=np.int64)
    rows, cols = mat.shape
    if is_prime(n):
        ech, pivots, t = row_echelon_mod_p(mat, n)
        r = len(pivots)
        basis = ech[:r]

        def contains(vec):
            vec = np.asarray(vec, dtype=np.int64) % n
            return not np.any((vec - vec[pivots] @ basis) % n)

        return RowGroup(n, (n,) * r, t[r:] % n, contains)
    d, u, v = smith_normal_form(mat, n)
    g = np.array(d + [n] * (max(rows, cols) - len(d)), dtype=np.int64)
    g_rows, g_cols = g[:rows], g[:cols]
    kept = g_rows != 1
    relations = (n // g_rows[kept])[:, None] * u[kept] % n
    # columns with g = 1 test nothing: every residue is divisible by 1
    v_kept, g_kept = v[:, g_cols != 1], g_cols[g_cols != 1]

    def contains(vec):
        return not np.any((np.asarray(vec, dtype=np.int64) % n @ v_kept) % g_kept)

    return RowGroup(n, tuple(n // int(gi) for gi in g if gi != n), relations, contains)
