"""Exact linear algebra over Z_n: elimination over Z_{p^k} on rows packed
into Python ints, and the Smith form over Z_n with transform tracking, and
the group order alone without it.

``row_group`` describes the subgroup of Z_n^cols generated by a matrix's
rows with one decomposition for every n, ``smith_normal_form`` over Z_n: the
order and the relations among the rows come from the diagonal and the left
transform u, and membership from one product with the right transform v,
which is held as its nonzero entries, so that a test costs a product over
them.  Over a prime field the Smith form is the reduced echelon form
itself: u is the kernel's transform, the relations are its rows below the
pivots, and the columns of v that test membership are the echelon form's
free columns, a few percent nonzero in a catalog model's block.

``row_order`` answers what a count needs, the group's invariant factors and
whether a column lies in the span of the matrix's columns, from one
elimination of ``[mat | column]`` per prime-power part with no transform:
no identity fields, no T, no Smith u or v.  The kernels are the same; each
runs its forward pass alone when given the column.

Every part Z_q, q = p^k, eliminates on rows of ``[mat | I]`` packed into
Python ints, the packed tableau of Aaronson and Gottesman (2004): for q = 2
one bit per entry, reduced by XOR (``_echelon_gf2``); for every other q one
byte-aligned field per entry, added mod q field by field with one carry
test on each field's high bit (``_echelon_packed``).  Over Z_{p^k}, k >= 2,
the packed kernel pivots level by level on entries of least p-adic
valuation, a unit times p^v, as Hostens, Dehaene and De Moor (2005) do for
Z_n; over a prime field that is one level, and both kernels return the
unique reduced echelon form.  The Smith form splits Z_n by the Chinese
remainder theorem into its Z_{p^k} parts, finishes each part's echelon form
with column operations, a v written as entries from the echelon rows'
nonzero entries, and joins the parts' transforms with the CRT idempotents.  No
entry or product-sum leaves int64 within the ``StabilizerModel`` bound ``4 L
n^2 < 2^63``.  ``elimination_path`` names the kernels a modulus uses.
``row_echelon_mod_p`` is the prime-field kernel's echelon form on its own,
the reference the tests read.  It and ``smith_normal_form`` keep their
names and stay module globals, called through the module, because
``perfbench``'s tracer wraps them by name to count and time each
decomposition; ``row_order`` is not among the names it wraps.

Each public function takes its matrix dense or as ``Entries``, the nonzero
entries in which a ``PauliTable`` stores a model's generators; ``_entries``
alone turns the one form into the other, and the kernels set their packed
bits or fields from the entries, so a large table is never made dense.
``Entries`` is the package's one sparse form: the exponent tables, v, the
relation checks and the dense oracle's realized terms are all entries, read
by int64 or complex numpy gathers and reductions, and no sparse matrix
library is imported.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd, prod
from typing import Callable, NamedTuple

import numpy as np


@functools.lru_cache(maxsize=None)
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
    return tuple(parts)


def is_prime(n):
    return _prime_powers(n) == ((n, 1),)


class Entries(NamedTuple):
    """A ``shape`` matrix as its nonzero entries, ``mat[row[i], col[i]] ==
    value[i]`` and 0 elsewhere: int64 index arrays naming no ``(row, col)``
    twice, ordered by row unless their maker says otherwise (a realized
    operator's, ``OperatorSum.sparse_matrix``, are ordered by column).  The
    values are int64, and need not be reduced, in exponent tables and
    transforms, and complex in a realized operator."""

    shape: tuple
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray

    @property
    def nnz(self):
        return len(self.value)

    def toarray(self):
        """The dense matrix, each entry added into a zero (so a -0.0 part reads 0.0)."""
        out = np.zeros(self.shape, dtype=self.value.dtype)
        out[self.row, self.col] += self.value
        return out

    def padded(self):
        """The rows as two ``(rows, w)`` arrays, w the most entries in a row:
        each row's columns and values, filled out with column 0 and value 0,
        so that ``mat @ vec`` is ``np.einsum("ij,ij->i", value, vec[col])``,
        one gather.  The entries must be ordered by row."""
        count = np.bincount(self.row, minlength=self.shape[0])
        slot = np.arange(len(self.row)) - (np.cumsum(count) - count)[self.row]
        col = np.zeros((self.shape[0], int(count.max(initial=0))), dtype=np.int64)
        value = np.zeros(col.shape, dtype=self.value.dtype)
        col[self.row, slot] = self.col
        value[self.row, slot] = self.value
        return col, value


def _entries(mat):
    """mat as ``Entries``: itself when it is, and otherwise the nonzero
    entries of a dense 2-D array, in row-major order."""
    if isinstance(mat, Entries):
        return mat
    mat = np.asarray(mat, dtype=np.int64)
    row, col = np.nonzero(mat)
    return Entries(mat.shape, row, col, mat[row, col])


def key_pairs(a, b, size):
    """Every index pair ``(i, j)`` with ``a[i] == b[j]``, for int arrays of
    keys in ``range(size)``, ordered by i and then by j: b's indices sorted
    by key and counted per key, and each i repeated once per j of its key.
    It joins two sets of entries on a shared index with no matrix built."""
    order = np.argsort(b, kind="stable")
    count = np.bincount(b, minlength=size)
    lo, k = (np.cumsum(count) - count)[a], count[a]
    i = np.repeat(np.arange(len(a)), k)
    return i, order[np.arange(len(i)) + np.repeat(lo - np.cumsum(k) + k, k)]


def _summed(shape, row, col, value, n):
    """``Entries`` of int64 triples, those on one ``(row, col)`` added: the
    sums reduced mod n, zeros dropped, ordered by row and then column."""
    if not len(value):
        return Entries(shape, row, col, value)
    key = row * shape[1] + col
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))  # each key's first entry
    value = np.add.reduceat(value[order], first) % n
    keep = value != 0
    row, col = np.divmod(key[first][keep], shape[1])
    return Entries(shape, row, col, value[keep])


# -- prime fields -------------------------------------------------------------


def _inv_mod(a, p):
    return pow(int(a), -1, p)


def row_echelon_mod_p(mat, p):
    """Return (reduced echelon matrix, pivot column list, transform T) with
    ``T @ mat == echelon (mod p)``; T is square and invertible mod p, and
    its rows below the pivot rows span the relations ``{j : j @ mat == 0}``.

    The reduced echelon form and its pivots are unique; T is not when rows
    are dependent, and any T with those properties may be returned.  Rows
    are packed into Python ints: one bit per entry and XOR for p = 2
    (``_echelon_gf2``), one field per entry and field-wise addition mod p
    for odd p (``_echelon_packed``).  Both results are C-contiguous int64
    arrays.  A p that is not prime raises ``ValueError``.  Like
    ``smith_normal_form``, the function keeps its name and one entry point
    for every prime, since the benchmark's tracer wraps it by name;
    ``row_group`` reads the same kernel through ``smith_normal_form``.
    """
    if not is_prime(p):
        raise ValueError(f"row_echelon_mod_p needs a prime modulus, got {p}")
    ech, pivots, _, t = _echelon(mat, p, 1)
    return ech, pivots, t


def _echelon(mat, p, k, column=None):
    """The packed kernel of Z_q, q = p^k: ``_echelon_gf2`` for q = 2 and
    ``_echelon_packed`` otherwise, with one contract.  Returns ``(ech,
    pivots, levels, t)`` with ``t @ mat == ech (mod q)``, t invertible mod
    q, and row i of ech divisible by ``p^levels[i]`` with ``p^levels[i]`` in
    column ``pivots[i]``; levels rise down the rows, all zero over a prime
    field.  Given a column, the forward pass alone eliminates ``[mat |
    column]`` with no transform and returns ``(pivots, levels)``; the
    appended column, index ``cols``, is the last at every level."""
    mat = _entries(mat)
    if p**k == 2:
        return _echelon_gf2(mat, column)
    return _echelon_packed(mat, p, k, column)


def elimination_path(n, relations):
    """The kernels that eliminate over Z_n, for a modulus n >= 2: per
    prime-power part q = p^k of n, ``GF(2) bitset`` for q = 2, ``GF(p)
    packed`` for another prime and ``Z_q packed`` for k >= 2, joined by
    `` + ``, as ``row_order`` runs them.  With relations, as ``row_group``
    forms them, a composite n names the CRT join of its parts' Smith forms,
    e.g. ``CRT Smith form: Z_4 packed + GF(3) packed``; a prime n's Smith
    form is its kernel's echelon form, named alone."""
    parts = " + ".join(
        "GF(2) bitset" if p**k == 2 else f"GF({p}) packed" if k == 1 else f"Z_{p**k} packed"
        for p, k in _prime_powers(n)
    )
    return "CRT Smith form: " + parts if relations and not is_prime(n) else parts


def _row_ints(arr):
    """Each row of a C-contiguous 2-D array as one big-endian int, its bytes
    copied 64 KB of rows at a time, so that a large array is never copied
    whole; a smaller one is one block."""
    width = arr.shape[1] * arr.itemsize
    step = max(1, (1 << 16) // max(width, 1))
    blocks = ((arr[s : s + step].tobytes(), min(step, len(arr) - s)) for s in range(0, len(arr), step))
    return itertools.chain.from_iterable(
        [int.from_bytes(data[i * width : (i + 1) * width], "big") for i in range(count)] for data, count in blocks
    )


def _echelon_gf2(mat, column=None):
    """``_echelon`` for q = 2 on rows packed into Python ints.

    Row i of ``[mat | I]`` becomes one int: column c of mat is bit
    ``top - 1 - c`` and transform column j is bit ``tw - 1 - j``, both parts
    padded to whole bytes, so a row's leading column is read off its
    ``bit_length``; the mat parts are set from the entries' parities into
    one ``(rows, bytes)`` array.  Each row in turn is XORed with the stored
    row whose pivot is its leading column until it leads with a new pivot
    (and is stored) or its mat part is zero (and its transform bits are a
    relation).  Back-substitution in decreasing pivot order then clears
    every pivot column outside its own row, giving the unique reduced
    echelon form.  The transform is lower unitriangular in row order before
    back-substitution, so T stays invertible.

    Given a column, the rows are those of ``[mat | column]``, packed with no
    transform part, and only the pivot columns of the forward pass are
    returned, sorted, with their levels: the pivots are those of the reduced
    form, and ``cols`` among them is a pivot on the appended column.
    """
    rows, cols = mat.shape
    width = cols if column is None else cols + 1
    mb = -(-width // 8)  # packed bytes of the mat part
    tw = 8 * -(-rows // 8) if column is None else 0  # bits of the transform part
    top = tw + 8 * mb
    stored = {}  # pivot column -> row
    relations = []
    packed = np.zeros((rows, mb), dtype=np.uint8)  # column c is bit 7 - c % 8 of byte c // 8
    np.bitwise_or.at(packed, (mat.row, mat.col // 8), ((mat.value & 1) << 7 - mat.col % 8).astype(np.uint8))
    if column is not None:
        packed[:, cols // 8] |= ((column & 1) << 7 - cols % 8).astype(np.uint8)
    for i, x in enumerate(_row_ints(packed)):
        if tw:
            x = x << tw | 1 << (tw - 1 - i)
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
    if column is not None:
        return pivots, [0] * len(pivots)
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
    bits = np.unpackbits(np.frombuffer(b"".join(x.to_bytes(top // 8, "big") for x in ordered), dtype=np.uint8))
    bits = bits.reshape(rows, top)
    ech = np.ascontiguousarray(bits[:, :cols], dtype=np.int64)
    t = np.ascontiguousarray(bits[:, 8 * mb : 8 * mb + rows], dtype=np.int64)
    return ech, pivots, [0] * len(pivots), t


def _echelon_packed(mat, p, k, column=None):
    """``_echelon`` for q = p^k other than 2 on rows packed into Python ints,
    on pivots of least p-adic valuation (Hostens, Dehaene and De Moor, 2005).

    Row i of ``[mat | I]`` becomes one int of byte-aligned fields of w = 8B
    bits, B the least of 1, 2, 4 and 8 with ``2q <= 2^(w-1)``: column c of
    mat is field c from the top and transform column j field j of the
    ``rows`` lowest.  Two rows add mod q field by field: their sum s has
    every field below 2q, no carry crosses a field, and adding ``2^(w-1) -
    q`` to every field sets a field's high bit exactly where ``s >= q``,
    which marks the fields to subtract q from.  Multiples of a stored row
    are formed by doubling on first use and kept.

    Level v = 0 .. k-1 eliminates the rows left by the levels before it, all
    of whose mat fields p^v divides.  Its forward pass takes each row in
    turn and reads its leading field of valuation exactly v: for p = 2 the
    leading set bit of the row masked to bit v of every field, at the last
    level (and so over a prime field) its leading nonzero field, and
    otherwise by scanning its nonzero fields.  A row whose leading such
    field is a pivot has the multiple of that pivot's row added that clears
    the field; the fields before it change by multiples of p^(v+1) only, so
    the leading field moves right.  Otherwise the row is scaled to p^v there
    and stored as a new pivot.  A row with no field of valuation v is
    divisible by p^(v+1); its mat part may still be nonzero on the pivot
    columns, and ``clear`` adds pivot rows until it is not, each addition
    raising the valuation of the fields it leaves behind.  It then moves to
    the next level, or is a relation once its mat part is zero.  With the
    transform, each pivot row is first cleared on the level's other pivot
    columns and scaled back to p^v, in decreasing pivot order, so that it is
    zero on every pivot column of the rows above it: on the earlier levels'
    by construction and on its own level's by this back-substitution.  Over
    a prime field that is the unique reduced echelon form.  Every step adds
    a multiple of another row or scales a row by a unit, so T stays
    invertible.  Given a column, the forward passes run on ``[mat |
    column]``, with no transform part.
    """
    q = p**k
    rows, cols = mat.shape
    size = next(b for b in (1, 2, 4, 8) if 2 * q <= 1 << (8 * b - 1))
    width = cols if column is None else cols + 1
    transform = rows if column is None else 0  # fields of the transform part
    w, fields = 8 * size, width + transform
    tw, top = w * transform, w * fields  # bits of the transform part, and of a row
    ones = int.from_bytes((1).to_bytes(size, "big") * fields, "big")  # 1 in every field
    high, lift, full = ones << (w - 1), ones * ((1 << (w - 1)) - q), (1 << w) - 1

    def add(a, b):
        s = a + b
        return s - (((s + lift) & high) >> (w - 1)) * q

    def scale(x, f):  # f x for 0 < f < q, by doubling
        out = None
        while True:
            if f & 1:
                out = x if out is None else add(out, x)
            f >>= 1
            if not f:
                return out
            x = add(x, x)

    def multiple(c, f):
        kept = multiples[c]
        x = kept.get(f)
        if x is None:
            x = kept[f] = scale(stored[c], f)
        return x

    def scan(x):
        """The column of x's leading mat field of valuation v, or None, for
        odd p below the last level."""
        rest = x >> tw << tw
        while rest:
            c = (top - rest.bit_length()) // w
            shift = top - w * (c + 1)
            f = rest >> shift
            if f % step:
                return c
            rest ^= f << shift
        return None

    def clear(x, columns):
        """x plus the multiples of pivot rows that zero it on the given
        pivot columns, leftmost first."""
        while other := x & columns:
            c = (top - other.bit_length()) // w
            x = add(x, multiple(c, -((other >> (top - w * (c + 1))) // unit) % span))
        return x

    grid = np.zeros((rows, width), dtype=f">u{size}")
    grid[mat.row, mat.col] = mat.value % q
    if column is not None:
        grid[:, cols] = column % q
    pending = [x << tw | 1 << (w * (rows - 1 - i)) if tw else x for i, x in enumerate(_row_ints(grid))]
    pivots, levels, ordered, relations = [], [], [], []
    for v in range(k):
        unit, step, span, last = p**v, p ** (v + 1), p ** (k - v), v == k - 1
        # at the last level every nonzero field has valuation v; for p = 2 a
        # field p^v divides has valuation v where its bit v is set
        marks = ones >> tw << (tw + v) if p == 2 and not last else None
        scanned = p != 2 and not last
        stored, multiples = {}, {}  # pivot column -> row, and -> {f: f row}
        rest, pending = pending, []
        for x in rest:
            while True:
                if scanned:
                    c = scan(x)
                else:
                    length = (x if marks is None else x & marks).bit_length()
                    c = (top - length) // w if length > tw else None
                if c is None:
                    (pending if x >> tw else relations).append(x)
                    break
                u = (x >> (top - w * (c + 1)) & full) // unit
                if c not in stored:
                    stored[c], multiples[c] = scale(x, pow(u, -1, q)), {}
                    break
                x = add(x, multiple(c, -u % span))
        found = sorted(stored)
        if tw or pending:
            mask = np.zeros(fields, dtype=f">u{size}")
            mask[found] = full
            pivot_fields = int.from_bytes(mask.tobytes(), "big")
        if tw:
            for c in reversed(found):
                x = stored[c]
                shift = top - w * (c + 1)
                others = pivot_fields ^ full << shift
                if not x & others:
                    continue  # the row is reduced already, and its kept multiples stay valid
                x = clear(x, others)
                stored[c], multiples[c] = scale(x, pow((x >> shift & full) // unit, -1, q)), {}
        rest, pending = pending, []
        for x in rest:
            x = clear(x, pivot_fields)
            (pending if x >> tw else relations).append(x)
        pivots += found
        levels += [v] * len(found)
        ordered += [stored[c] for c in found]
    if column is not None:
        return pivots, levels
    out = np.frombuffer(b"".join(x.to_bytes(top // 8, "big") for x in ordered + relations), dtype=f">u{size}")
    out = out.reshape(rows, fields)
    ech, t = (np.ascontiguousarray(part, dtype=np.int64) for part in (out[:, :cols], out[:, cols:]))
    return ech, pivots, levels, t


# -- Smith form over Z_n ------------------------------------------------------


def smith_normal_form(mat, n):
    """Smith form of mat over Z_n: returns (d, u, v) with
    ``u @ mat @ v == diag(d) (mod n)``.

    u is a dense int64 array and v an ``Entries`` of int64 values, both
    with entries in [0, n) and invertible mod n; d is a list of ``min(rows,
    cols)`` ints, each a divisor of n (n itself for a zero), with d[i]
    dividing d[i + 1].  Each part Z_q, q = p^k exactly dividing n, is one
    elimination of ``mat mod q`` by its packed kernel (``_echelon``), whose
    pivot of level v contributes p^v to its d[i]; levels rise down the rows,
    so the divisibility chain holds in every part, and ``_column_transform``
    finishes the part's echelon form.  Over a prime field d is r ones and
    then n, u is the kernel's T and v's columns after the first r are the
    free columns ``e_f - sum_i ech[i, f] e_{pivot_i}``.  The parts'
    transforms, their rows scaled by units mod q so that each part gives the
    same d, are joined with the CRT idempotents e_q (1 mod q, 0 mod n / q):
    ``u = sum e_q u_q`` and ``v = sum e_q v_q``, v's sum taken over the
    parts' entries (``_summed``); a prime power n is its own part.  An n
    below 2 raises ``ValueError``.
    """
    if n < 2:
        raise ValueError(f"Z_n needs a modulus n >= 2, got {n}")
    mat = _entries(mat)
    size = min(mat.shape)
    d, parts = np.ones(size, dtype=np.int64), []
    for p, k in _prime_powers(n):
        ech, pivots, levels, t = _echelon(mat, p, k)
        level = np.full(size, k, dtype=np.int64)
        level[: len(pivots)] = levels
        d *= p**level
        parts.append((p, p**k, level, t, _column_transform(ech, pivots, levels, p, p**k)))
    if len(parts) == 1:  # n = q: the part's transforms are u and v, already reduced mod n
        _, _, _, u, v = parts[0]
        return d.tolist(), u, v
    vs = []
    for p, q, level, u_q, v_q in parts:
        e = n // q * pow(n // q, -1, q)
        u_q[:size] *= (d // p**level % q)[:, None]
        u_q %= q
        u_q *= e
        u_q %= n
        vs.append(v_q._replace(value=v_q.value * e))
    # the sum builds up in the first part's array, so no third copy of u is made
    u = parts[0][3]
    for _, _, _, u_q, _ in parts[1:]:
        u += u_q
    u %= n
    v = _summed(vs[0].shape, *(np.concatenate(arrays) for arrays in zip(*(v_q[1:] for v_q in vs))), n)
    return d.tolist(), u, v


def _column_transform(ech, pivots, levels, p, q):
    """The column operations that finish an echelon form over Z_q, q = p^k:
    returns v, an ``Entries`` ordered by row and invertible mod q, with
    ``ech @ v == diag(p^levels)`` (mod q) in the first ``len(pivots)``
    columns and zero elsewhere.

    Pivot row i of ech is ``p^levels[i] (e_c + b_i)`` for its pivot column c,
    where b_i vanishes on c and on the earlier pivot columns, and on the
    later ones except where a later pivot has a higher level.  With N the
    matrix whose row c is b_i, ``ech`` is a row selection of ``diag(p^level)
    (I + N)``, and N is nilpotent, so ``v = (I + N)^{-1}`` with the pivot
    columns moved first.  Only the pivot-column block C of the b_i couples
    them: ``(I + N)^{-1} = I - S^T (I + C)^{-1} B`` for B the rows b_i, S the
    pivot selection, and ``(I + C) X = B`` is solved by back-substitution
    over the rows of C that are not zero, last first.  Every row vanishes on
    the pivot columns of the levels before its own and on its own level's
    but its own, so C is zero on the first level's pivot columns, and zero
    over a prime field, where the loop is empty and X is B.  B and X are
    held as the pivot rows' nonzero entries, their columns already in v's
    order; a row being back-substituted is ``x_i - sum_c x_i[c] x_c`` over
    its coupled columns c, whose rows come after it and are X's already,
    its entries summed per column by ``_summed``.  v is written from them:
    no dense cols x cols or r x cols array is made.
    """
    cols = ech.shape[1]
    r = len(pivots)
    pivots = np.array(pivots, dtype=np.int64)
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    where = np.empty(cols, dtype=np.int64)  # v's column of each of ech's
    where[pivots], where[free] = np.arange(r), np.arange(r, cols)
    flat = np.flatnonzero(ech[:r] != 0)
    row, col = np.divmod(flat, cols)
    value = ech[:r].reshape(-1)[flat] // p ** np.array(levels, dtype=np.int64)[row]
    col = where[col]
    off = col != row  # a row's own pivot entry, 1 after the division, is I's
    row, col, value = row[off], col[off], value[off]
    coupled = np.flatnonzero(np.bincount(row[col < r], minlength=r))[::-1]
    if len(coupled):
        bounds = np.searchsorted(row, np.arange(r + 1))  # row-major, from flatnonzero
        x = [(col[a:b], value[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]  # B's rows, then X's
        for i in coupled.tolist():
            c, w = x[i]
            on = np.flatnonzero(c < r)
            terms = [(x[k][0], -a * x[k][1]) for k, a in zip(c[on].tolist(), w[on].tolist())]
            cs, ws = (np.concatenate(parts) for parts in zip((c, w), *terms))
            new = _summed((1, cols), np.zeros_like(cs), cs, ws, q)
            x[i] = (new.col, new.value)
        row = np.repeat(np.arange(r), [len(c) for c, _ in x])
        col, value = (np.concatenate(parts) for parts in zip(*x))
    # v's row pivots[i] is row i of X, negated, with its pivot's 1 at column
    # i, and its row free[j] is 1 at column r + j
    at = np.concatenate((pivots[row], pivots, free))
    sort = np.argsort(at, kind="stable")
    col = np.concatenate((col, np.arange(cols)))[sort]
    value = np.concatenate((-value % q, np.ones(cols, dtype=np.int64)))[sort]
    return Entries((cols, cols), at[sort], col, value)


# -- the group generated by the rows of a matrix over Z_n -----------------------


@dataclass(frozen=True)
class RowGroup:
    """The subgroup of Z_n^cols generated by the rows of a matrix, from one
    decomposition of that matrix.

    ``factors`` are the orders of the cyclic summands of the group, so their
    product is its order.  ``relations`` is a ``(k, rows)`` array whose rows
    generate ``{j : j @ mat == 0 (mod n)}`` mod n.  ``contains(vec)`` tells
    whether vec is a Z_n-combination of the rows; ``row_group``'s holds the
    tested rows of the Smith form's right transform, transposed, as entries,
    and tests in time linear in their count.
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
    """Decompose mat once by ``smith_normal_form`` over Z_n, for every n: an
    n below 2 raises ``ValueError``.

    With g_i = d_i, and n past d, the group is ``{y v^-1 : g_i | y_i}``: its
    factors are the n / g_i other than 1, its relations the rows ``(n / g_i)
    u_i`` with g_i not 1, and vec is a member when every entry of ``v^T
    vec`` whose g is not 1 is divisible by that g.  The g_i equal to 1 lead
    the chain, so those rows and entries are a prefix, skipped.  Over a
    prime field the relations are the kernel's ``t[r:]`` and the tested
    columns of v the free columns of the reduced echelon form.  Only v^T's
    tested rows, v's columns past that prefix, are kept, as entries ordered
    by v^T row; each has an entry, since v is invertible, so membership is
    one gather of vec's residues, one product with the values (none when
    every value is 1, as over GF(2)) and one ``np.add.reduceat`` over the
    rows.  It is exact in int64, since every
    entry and vec's residues are below n and a row sum has at most ``cols``
    terms, within the ``4 L n^2 < 2^63`` bound; no dense basis or v is
    kept."""
    mat = _entries(mat)
    rows, cols = mat.shape
    d, u, v = smith_normal_form(mat, n)
    g = np.array(d + [n] * (max(rows, cols) - len(d)), dtype=np.int64)
    ones = int(np.count_nonzero(g == 1))  # rows that are no relation, and entries that test nothing
    relations = u[ones:] * (n // g[ones:rows])[:, None]
    relations %= n
    tested = np.flatnonzero(v.col >= ones)
    tested = tested[np.argsort(v.col[tested], kind="stable")]
    at, value = v.row[tested], v.value[tested]
    starts = np.searchsorted(v.col[tested], np.arange(ones, cols))
    g_kept = g[ones:cols]
    value = None if (value == 1).all() else value  # over GF(2) every entry is 1

    def contains(vec):
        if not len(starts):
            return True
        terms = (np.asarray(vec, dtype=np.int64) % n).take(at)
        if value is not None:
            terms *= value
        return not np.any(np.add.reduceat(terms, starts) % g_kept)

    return RowGroup(n, tuple((n // g[g != n]).tolist()), relations, contains)


def invariant_factors(orders, n):
    """The invariant factors, largest first as ``row_group`` gives them, of
    the direct sum of cyclic groups of the given orders, each dividing n:
    per prime p of n the orders' p-parts, sorted, are multiplied index by
    index.  The orders themselves are those factors when n is a prime power;
    for other n they need not be (Z_2 + Z_3 is Z_6)."""
    if len(_prime_powers(n)) == 1:
        return tuple(sorted((f for f in orders if f > 1), reverse=True))
    # the p-part of an order f, which divides n, is gcd(f, p^k)
    parts = [sorted((gcd(f, p**k) for f in orders), reverse=True) for p, k in _prime_powers(n)]
    return tuple(f for f in map(prod, zip(*parts)) if f > 1)


def row_order(mat, n, column):
    """The invariant factors of the group the rows of mat generate over Z_n,
    as ``row_group`` gives them, and whether column lies in the Z_n-span of
    mat's columns, that is, whether ``r @ column == 0 (mod n)`` for every
    relation r (``r @ mat == 0``): ``(factors, column_in_span)``.

    Each part Z_q, q = p^k exactly dividing n, eliminates ``[mat | column]``
    once by its packed kernel with no transform: level by level, the
    appended column last at every level, so that a pivot of level v on
    mat's columns is a factor p^(k - v).  The column is in the span exactly
    when no pivot of any part lands on it.  When one does in a part with k
    >= 2, the pivots left of it need not give that part's factors (the
    column's pivot may have taken a row that a higher level of mat's
    columns needed), and the part is eliminated once more with a zero
    column.  An n below 2 raises ``ValueError``.
    """
    if n < 2:
        raise ValueError(f"Z_n needs a modulus n >= 2, got {n}")
    mat = _entries(mat)
    column = np.asarray(column, dtype=np.int64)
    cols = mat.shape[1]
    orders, in_span = [], True
    for p, k in _prime_powers(n):
        pivots, levels = _echelon(mat, p, k, column)
        if cols in pivots:
            in_span = False
            if k > 1:
                pivots, levels = _echelon(mat, p, k, np.zeros_like(column))
        orders += [p ** (k - v) for c, v in zip(pivots, levels) if c != cols]
    return invariant_factors(orders, n), in_span
