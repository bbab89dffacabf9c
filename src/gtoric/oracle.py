"""Brute-force matrix oracle on small lattices.

Realizes operators as matrices in the computational basis, checks projector
and commutation claims numerically, computes ground-space dimensions, builds
ground states, and measures per-term expectations.

The memory budget caps basis amplitudes and stored matrix nonzeros (the
environment variable ``GTORIC_BUDGET`` overrides the default of 2**24); it
lives in :mod:`gtoric.paulis`, and its names are read here too.  At every
size the ground-space dimension is the trace of the ordered product of
the term projectors, each term realized once as ``linalg.Entries``
(``OperatorSum.sparse_matrix``); the same entries then verify on random
probes that the product is an exact projector onto the lowest eigenspace.

The product is formed on a sector S of the basis only.  A term's x-free
rows sum to a diagonal d, evaluated on the term's local configurations.  The
term confines S to the states where d != 0 when (a) each x-free row commutes
with every row of every term, and (b) the term is zero on every column where
d = 0.  Then the projector D onto d != 0 commutes with every term and
D P = P D = P for the product P, so Tr P = Tr (D P D), exactly, for any
list of OperatorSums; a term that fails (a) or (b) confines nothing.  S is
found by evaluating the terms, never from the stabilizer engine, and is
enumerated by joining the terms' allowed local configurations, so only an S
that is the whole basis takes an array of all n^sites states.  Both the join
and the realization read the digits of S's states off their indices with
``paulis._digit_table``.  On m1 torus:2x2, S holds 512 of 65,536 states.

S splits further into blocks, the connected components of the terms'
realized off-diagonal entries (found from those entries, never from the
stabilizer engine): every term maps each block into itself, so the product
is block diagonal.  The running product is held as stacks of dense blocks,
one stack per block size, and each term is multiplied in with one row
gather and one scale per entry rank of its columns, of which a column has at
most one per run of equal X shift; no sparse product is formed.  The
budget's count before each factor is the running product's nonzeros times
the factor's term count, as it was for a sparse product, and the stacks'
``sum b^2`` numbers are checked against it before any is allocated; on
every catalog case the dense oracle runs, ``sum b^2`` equals the product's
peak nonzeros (m1 torus:3x2: 128 blocks of 64 states, 524,288; boundary
open:2x2: 4 blocks of 512, 1,048,576), so the blocks store no zero that a
sparse product would not.  The probes apply the product block by block.

Matrices are realized from phases that ``paulis._roots`` makes exact where
they can be: for n = 2, and for n = 4 projectors, every root of unity is
exactly +-1 or +-i, so projector cancellations are exact zeros and the
running product has only its true nonzeros: on m1 torus:2x2 at most 8,192,
its final count, and on the 8,192-state sector of m1 torus:3x2 at most
524,288.  No tolerance cut is applied to the matrices; for other n the
entries carry ordinary round-off.  The count logs its sector size, its
blocks, the running product's peak nonzeros and its largest probe residual
at DEBUG level on the ``gtoric.oracle`` logger.

Ground states and syndromes never expand a term.  ``Term.apply`` acts on the
state vector, viewed as an ``(n,) * sites`` array, factor by factor, each
factor only on its support axes, through masks and phases that each term
prepares once over its factors' supports.  A Z-only factor is an exact 0/1 mask of the
states whose clock eigenvalue is the target, so no root of unity or round-off
enters; a factor with an X part is ``(1/n) sum_j w_n^{-t j} s^j``, each power
a phase array over its Z support and one ``np.roll`` over its X support.
``construct_ground_state`` and ``measure_syndrome`` each log at DEBUG level
the states, the terms and factors applied and the largest distance of any
expectation from 0 or 1.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from . import paulis
from .lattice import parse_site
from .paulis import (  # noqa: F401  the budget's names are read here too
    DEFAULT_BUDGET, BudgetExceededError, InvalidBudgetError, _check_budget, _check_nonzeros, budget,
)

# every count takes the projector trace; the name stays because the benchmark
# tracer labels a count of at most this many amplitudes the eigensolve path,
# so 0 labels every count the trace path
DENSE_EIG_DIM = 0
TOL = 1e-10

log = logging.getLogger(__name__)


class SeedAnnihilatedError(ValueError):
    def __init__(self, term):
        super().__init__(
            f"seed configuration is annihilated by the {term.kind} term at {term.location}"
        )
        self.term = term


class SeedViolatesFaceTermError(ValueError):
    def __init__(self, faces):
        super().__init__(f"seed configuration violates face terms at {faces}")
        self.faces = faces


def trace_product(terms, lat, n):
    """Exact trace of the ordered product of OperatorSums.

    For commuting projector terms this equals the ground-space dimension.
    """
    _, tr = _product_trace(terms, _check_budget(n, lat.n_sites))
    if abs(tr.imag) > 1e-6:
        raise AssertionError(f"trace unexpectedly complex: {tr}")
    return float(tr.real)


def _sector(opsums):
    """The sorted basis states that every certified diagonal keeps, or None
    if no OperatorSum constrains them.

    An OperatorSum's x-free rows sum to a diagonal d, evaluated on the sum's
    local configurations.  It is certified when (a) each of those rows
    commutes with every row of every sum, so d is constant along every X
    shift that any sum makes, and (b) the sum is zero on every column where
    d is.  Then the projector D onto ``d != 0`` commutes with every sum,
    and the sum equals itself times D, so the ordered product P satisfies
    P = D P D.  A configuration counts as ``d = 0`` when |d| is at most 1e-12
    times the sum's coefficient mass, which leaves the round-off of an exact
    cancellation out of the sector."""
    if not opsums:
        return None
    n, nsites = opsums[0].n, opsums[0].nsites
    shifts = np.concatenate([op.x for op in opsums])  # a repeated shift changes no verdict
    allowed = []
    for op in opsums:
        zrows = op.z[~op.x.any(axis=1)]
        if ((zrows @ shifts.T) % n).any():  # (a)
            continue
        sites, runs = op._local
        cut = 1e-12 * np.abs(op.coeffs).sum()
        diag = next((v for shift, v in runs if not shift.any()), np.zeros(n ** len(sites)))
        keep = np.abs(diag) > cut
        if keep.all() or any((np.abs(v[~keep]) > cut).any() for _, v in runs):  # (b)
            continue
        allowed.append((sites, keep))
    if not allowed:
        return None
    def spread(states, sites):  # every digit on each of the sites
        for s in sites:
            states = (states[:, None] + np.arange(n) * n ** (nsites - 1 - s)).ravel()
        return states

    # join the allowed local configurations, adding first the sum whose sites
    # are most covered already: each new site multiplies the partial states
    # by n before the sum's configurations filter them
    covered = np.zeros(nsites, dtype=bool)
    states = np.zeros(1, dtype=np.int64)
    while allowed:
        sites, keep = allowed.pop(
            min(range(len(allowed)), key=lambda i: np.count_nonzero(~covered[allowed[i][0]]))
        )
        states = spread(states, sites[~covered[sites]])
        covered[sites] = True
        states = states[keep[paulis._digit_table(n, nsites, sites, states)]]
    return np.sort(spread(states, np.flatnonzero(~covered)))


def _components(mats, size):
    """Per sector position, the least position of its connected component
    in the graph whose edges are the realized off-diagonal entries of every
    matrix.  Each position's label starts as itself and takes the least
    label among its neighbours (``np.minimum.at`` over the entries, both
    ways: a diagonal entry leaves a label as it is) and then its label's
    label, until no label changes; a label only falls, and stays a
    position of the component, so the labels settle on each component's
    least position."""
    row = np.concatenate([m.row for m in mats])
    col = np.concatenate([m.col for m in mats])
    label = np.arange(size)
    while True:
        new = label.copy()
        np.minimum.at(new, row, label[col])
        np.minimum.at(new, col, label[row])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


class _Blocks:
    """The sector split into the connected components of the realized
    off-diagonal entries of its terms: every term maps each component into
    itself, so the product of the terms is block diagonal on them.  The
    components are grouped by size b: ``index`` holds per size a ``(count,
    b)`` array of sector positions, one component per row in increasing
    order, and ``local`` each position's place in its row.  The dense
    blocks hold ``sum b^2`` numbers, checked against the nonzero budget
    before any is made, and are real when every term's values are, as for
    every n = 2 catalog model: the real parts then come out bit for bit as
    complex arithmetic gives them, at half the memory traffic."""

    def __init__(self, mats, size):
        self.dtype = complex if any(m.value.imag.any() for m in mats) else np.float64
        label = _components(mats, size)
        _, comp, sizes = np.unique(label, return_inverse=True, return_counts=True)
        layout = np.lexsort((comp, sizes[comp]))  # by block size, then component, then position
        # checked through paulis: this module's name is the per-factor count alone
        paulis._check_nonzeros(int(np.sum(sizes.astype(np.int64) ** 2)))
        self.size, self.index = size, []
        self.local = np.empty(size, dtype=np.int64)
        start = 0
        for b, count in zip(*np.unique(sizes, return_counts=True)):
            index = layout[start : start + count * b].reshape(count, b)
            self.local[index] = np.arange(b)
            self.index.append(index)
            start += count * b

    def slots(self, mat):
        """A term's entries, ordered by column as ``sparse_matrix`` gives
        them, per size as ``(rows, values)``, each ``(count, b, k)``: the
        local rows and the values of the entries in each block column, k the
        most in any column (at least 1), filled out with the column's own
        row and 0."""
        count = np.bincount(mat.col, minlength=self.size)
        rank = np.arange(mat.nnz) - (np.cumsum(count) - count)[mat.col]
        rows = np.repeat(np.arange(self.size)[:, None], max(1, int(count.max(initial=0))), axis=1)
        values = np.zeros(rows.shape, dtype=self.dtype)
        rows[mat.col, rank] = mat.row
        values[mat.col, rank] = mat.value if self.dtype is complex else mat.value.real
        return [(self.local[rows[index]], values[index]) for index in self.index]


class _Product:
    """An operator on the sector held as stacks of dense blocks, one
    ``(count, b, b)`` stack per block size of ``_Blocks``; each stack holds
    its blocks transposed, so that a term multiplied in on the right gathers
    rows.  ``times`` multiplies a term in: column c of ``A M`` is ``sum_j
    A[:, r_j] m_j`` over the entries (r_j, m_j) of M's column c, so each
    transposed block's row c is that sum of its rows r_j, formed with one
    row gather and one scale per entry rank j of the term's columns (a
    column holds at most one entry per run of equal X shift).  No sparse
    product is formed."""

    def __init__(self, blocks, stacks):
        self.blocks, self.stacks = blocks, stacks

    @classmethod
    def of(cls, blocks, mat):
        """The term itself on the blocks."""
        stacks = []
        for (rows, values), index in zip(blocks.slots(mat), blocks.index):
            stack = np.zeros(index.shape + index.shape[1:], dtype=blocks.dtype)
            k, c = np.ogrid[: len(index), : index.shape[1]]
            for j in range(rows.shape[2]):  # one rank's positions are distinct
                stack[k, c, rows[..., j]] += values[..., j]
            stacks.append(stack)
        return cls(blocks, stacks)

    def times(self, mat):
        """This operator times the term on the right.  A rank whose rows are
        the columns' own, as a diagonal run's are, scales without a gather.
        Rows go 2^20 numbers at a time, so the sum of the ranks' products
        needs no second stack."""
        stacks = []
        for stack, (rows, values) in zip(self.stacks, self.blocks.slots(mat)):
            count, b, ranks = rows.shape
            own = [np.array_equal(rows[..., j], np.broadcast_to(np.arange(b), (count, b))) for j in range(ranks)]
            at = (rows + b * np.arange(count)[:, None, None]).reshape(count * b, ranks)  # rows of the flattened stack
            values = values.reshape(count * b, ranks, 1)
            flat = stack.reshape(count * b, b)
            out = np.empty_like(flat)
            step = max(1, 2**20 // b)
            spare = np.empty((min(step, len(flat)), b), dtype=flat.dtype)
            for start in range(0, len(flat), step):
                rows_of = slice(start, start + step)
                part = out[rows_of]
                for j in range(ranks):
                    target = spare[: len(part)] if j else part
                    if own[j]:
                        np.multiply(flat[rows_of], values[rows_of, j], out=target)
                    else:
                        np.take(flat, at[rows_of, j], axis=0, out=target, mode="clip")  # in range: "clip" skips a buffered copy
                        target *= values[rows_of, j]
                    if j:
                        part += target
            stacks.append(out.reshape(count, b, b))
        return _Product(self.blocks, stacks)

    @functools.cached_property
    def nnz(self):
        return sum(np.count_nonzero(stack) for stack in self.stacks)

    def trace(self):
        return complex(sum(np.trace(stack, axis1=1, axis2=2).sum() for stack in self.stacks))

    def apply(self, vec):
        """The operator times a vector over the sector, block by block."""
        out = np.empty(self.blocks.size, dtype=complex)
        for stack, index in zip(self.stacks, self.blocks.index):
            part = vec[index][:, None, :]
            if stack.dtype == complex:
                out[index] = np.matmul(part, stack)[:, 0, :]
            else:  # no complex copy of the stack
                out[index] = np.matmul(part.real, stack)[:, 0, :] + 1j * np.matmul(part.imag, stack)[:, 0, :]
        return out


def _apply(mat, vec):
    """A realized term, as ``linalg.Entries``, times a vector."""
    terms = mat.value * vec[mat.col]
    size = mat.shape[0]
    return np.bincount(mat.row, terms.real, size) + 1j * np.bincount(mat.row, terms.imag, size)


def _products(opsums, dim):
    """Each OperatorSum's ``linalg.Entries`` on the sector of ``_sector``
    (all ``dim`` amplitudes if nothing constrains it), with the running
    product of the matrices so far as a ``_Product`` on their ``_Blocks``.
    Every term is realized first, since the blocks are the components of
    all their entries; before each factor, the running product's nonzeros
    (the sector size before the first) times the factor's term count are
    checked against the budget."""
    opsums = list(opsums)
    states = _sector(opsums)
    size = dim if states is None else len(states)
    mats = [op.sparse_matrix(states) for op in opsums]
    blocks = _Blocks(mats, size) if mats else None
    acc = None
    for op in opsums:
        mat = mats.pop(0)  # held here no longer than its factor needs it
        # each Pauli term of op puts at most one nonzero in a column
        _check_nonzeros((size if acc is None else acc.nnz) * len(op.coeffs))
        acc = _Product.of(blocks, mat) if acc is None else acc.times(mat)
        yield mat, acc


def _product_trace(opsums, dim):
    """The ordered product of OperatorSums on their sector as a
    ``_Product`` (None if there are none) and its trace."""
    acc = None
    for _, acc in _products(opsums, dim):
        pass
    return acc, complex(dim if acc is None else acc.trace())


def ground_space_dimension(h):
    """Multiplicity of the lowest eigenvalue -(term count): the trace of the
    product of the term projectors, verified on random probes to be an exact
    projector onto that eigenspace.  A model with no terms has H = 0, and
    every state is a ground state."""
    dim = _check_budget(h.n, h.lattice.n_sites)
    if not h.terms:
        return dim
    mats = []
    peak = 0
    for mat, proj in _products((t.opsum for t in h.terms), dim):
        mats.append(mat)
        peak = max(peak, proj.nnz)
    tr = proj.trace()
    count = int(round(tr.real))
    if abs(tr - count) > 1e-6:
        raise AssertionError(f"projector trace {tr} is not an integer")
    # verify idempotence and the eigenspace property on random probes; a
    # residual is relative to 1 + |Pv| and must stay within 1e-6
    rng = np.random.default_rng(7)
    size = proj.blocks.size
    residual = 0.0
    for _ in range(3):
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        pv = proj.apply(v)
        scale = 1 + np.linalg.norm(pv)
        idem = np.linalg.norm(proj.apply(pv) - pv) / scale
        if idem > 1e-6:
            raise AssertionError("term product is not a projector")
        hv = sum(-_apply(m, pv) for m in mats)
        eigen = np.linalg.norm(hv - (-len(mats)) * pv) / scale
        if eigen > 1e-6:
            raise AssertionError("projector image is not the lowest eigenspace")
        residual = max(residual, idem, eigen)
    stats = {"sector": size, "states": dim, "peak_nnz": peak, "residual": residual,
             "blocks": sum(len(index) for index in proj.blocks.index),
             "stacked": sum(index.size * index.shape[1] for index in proj.blocks.index)}
    log.debug(
        "ground_space_dimension: sector %(sector)d of %(states)d states in %(blocks)d blocks of "
        "%(stacked)d entries, peak product nnz %(peak_nnz)d, largest probe residual %(residual).3g",
        stats,
        extra=stats,
    )
    return count


def basis_state(lat, n, digits):
    """Product state with the given level label (1..n) on every site.

    ``digits`` is a sequence indexed by site index.
    """
    dim = _check_budget(n, lat.n_sites)
    idx = 0
    for s in range(lat.n_sites):
        d = digits[s]
        if not 1 <= d <= n:
            raise ValueError(f"site {s}: level {d} outside 1..{n}")
        idx = idx * n + (d - 1)
    vec = np.zeros(dim, dtype=complex)
    vec[idx] = 1.0
    return vec


def parse_seed_config(text, lat, n):
    """Seed syntax: whitespace-separated assignments, later ones override:
    ``all=K``, ``D=K`` for a direction D in {W,N,E,S}, or ``(x,y).D=K``."""
    digits = [1] * lat.n_sites
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"bad seed token {token!r}")
        lhs, rhs = token.split("=", 1)
        val = int(rhs)
        if lhs == "all":
            digits = [val] * lat.n_sites
        elif lhs in ("W", "N", "E", "S"):
            for i, s in enumerate(lat.sites()):
                if s.direction == lhs:
                    digits[i] = val
        else:
            digits[lat.site_index(parse_site(lhs))] = val
    return digits


def construct_ground_state(h, seed_digits):
    """Project a face-term-satisfying product state into the ground space by
    applying every vertex-kind term, then verify all eigenvalues.

    A seed whose face terms hold can still be zeroed by a vertex projection
    (its Z checks can demand other levels); that raises
    ``SeedAnnihilatedError`` naming the first term that zeroed it."""
    vec = basis_state(h.lattice, h.n, seed_digits)
    faces, vertices = h.face_terms(), h.vertex_terms()
    checks = [np.vdot(vec, t.apply(vec)) for t in faces]
    bad_faces = [t.location for t, val in zip(faces, checks) if abs(val - 1.0) > TOL]
    if bad_faces:
        raise SeedViolatesFaceTermError(bad_faces)
    for t in vertices:
        vec = t.apply(vec)
        if np.linalg.norm(vec) < 1e-12:
            raise SeedAnnihilatedError(t)
    vec = vec / np.linalg.norm(vec)
    values = measure_syndrome(h, vec)
    if any(abs(val - 1.0) > TOL for val in values):
        raise AssertionError("constructed state is not a joint +1 eigenstate")
    _log_applied("construct_ground_state", len(vec), [*faces, *vertices, *h.terms], checks + values)
    return vec


def measure_syndrome(h, vec):
    """Expectation value of every term on the state vector, in term order;
    each term acts through its factors."""
    out = []
    for t in h.terms:
        val = np.vdot(vec, t.apply(vec))
        if abs(val.imag) > 1e-8:
            raise AssertionError("term expectation unexpectedly complex")
        out.append(float(val.real))
    _log_applied("measure_syndrome", len(vec), h.terms, out)
    return out


def _log_applied(name, states, terms, values):
    """One DEBUG record of the terms and factors applied to a state and the
    largest distance of any expectation from 0 or 1."""
    stats = {
        "states": states,
        "terms": len(terms),
        "factors": sum(len(t.factors) for t in terms),
        "deviation": max((min(abs(v), abs(v - 1)) for v in values), default=0.0),
    }
    log.debug(
        f"{name}: %(terms)d terms, %(factors)d factors applied on %(states)d states, "
        "largest expectation distance from 0 or 1 %(deviation).3g",
        stats,
        extra=stats,
    )


apply_pauli_to_state = paulis.apply_pauli
