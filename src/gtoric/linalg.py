"""Exact linear algebra over Z_n: prime-field elimination and integer
Smith normal form with transform tracking.

``row_group`` describes the subgroup of Z_n^cols generated by a matrix's
rows with one decomposition, chosen once by the modulus.  For prime n one
``row_echelon_mod_p`` gives the order from the pivots, the relations among
the rows from the transform's last rows, and membership by reducing a vector
against the echelon rows.  For composite n one ``smith_normal_form`` gives
the order and the relations from the elementary divisors and the left
transform, and membership from the right transform mod n.

For n = 2, the case of most catalog models, ``row_echelon_mod_p`` packs each
row of ``[mat | I]`` into one Python int and eliminates by XOR, the packed
tableau of Aaronson and Gottesman (2004); odd p keeps a column loop with one
array update per pivot.  Both return the same reduced echelon form, so one
contract serves every prime.  The two functions keep their names and stay
module globals, called through the module, because ``perfbench``'s tracer
wraps them by name to count and time each decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Callable

import numpy as np


def is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


# -- prime fields -------------------------------------------------------------


def _inv_mod(a, p):
    return pow(int(a), -1, p)


def row_echelon_mod_p(mat, p):
    """Return (reduced echelon matrix, pivot column list, transform T) with
    ``T @ mat == echelon (mod p)``; T is square and invertible mod p.

    The reduced echelon form and its pivots are unique; over GF(2) T is
    not, and any T with those properties may be returned.  For p = 2 each
    row of ``[mat | I]`` is packed into one Python int and reduced by XOR
    (``_echelon_gf2``).  For odd p the columns are eliminated one at a time,
    each pivot updating every other row of ``[mat | T]`` in one array
    expression; no int64 entry exceeds p^2 in magnitude on the way.  Both
    results are C-contiguous int64 arrays.  Like ``smith_normal_form``, the
    function keeps its name and one entry point for every prime, since the
    benchmark's tracer wraps it by name.
    """
    mat = np.asarray(mat, dtype=np.int64)
    rows, cols = mat.shape
    if p == 2:
        return _echelon_gf2(np.ascontiguousarray(mat, dtype="<i8"))
    w = np.concatenate((mat % p, np.eye(rows, dtype=np.int64)), axis=1)
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(w[r:, c])
        if len(nz) == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            w[[r, pr]] = w[[pr, r]]
        w[r] = (w[r] * _inv_mod(w[r, c], p)) % p
        others = np.flatnonzero(w[:, c])
        others = others[others != r]
        w[others] = (w[others] - np.outer(w[others, c], w[r])) % p
        pivots.append(c)
        r += 1
    return np.ascontiguousarray(w[:, :cols]), pivots, np.ascontiguousarray(w[:, cols:])


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


# -- integer Smith normal form -------------------------------------------------


def smith_normal_form(mat):
    """Smith normal form with transforms: returns (d, u, v) with
    ``u @ mat @ v == diag(d)``, u and v unimodular.

    Uses Python integers (object dtype) so intermediate entries never
    overflow.  Suitable for the few-hundred-row matrices used here.
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
    ``smith_normal_form`` of the integer matrix."""
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
    d, u, v = smith_normal_form(mat)
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
