"""Exact stabilizer engine over Z_n: ground-space dimension, phase
consistency, logical operators, syndromes, and string/loop constructions.

A stabilizer model is a list of commuting Pauli-string generators, each of
order dividing n, with target eigenvalue exponents.  Their exponents and
phases are one ``paulis.PauliTable``: the catalog writes it with array
operations, and a model built from a list of strings stacks their rows
once.  Every catalog model is CSS, each generator pure X or pure Z, and the
analysis then works on two blocks, the X rows on the x columns and the Z
rows on the z columns: the generated group is the direct product of theirs,
and its relations are theirs.  Any other table is one block.  One analysis
per model, shared with target-flipped copies, checks ``X Z^T - Z X^T == 0
(mod n)`` with one sparse product of the X rows by the Z rows, and
decomposes each block once (``linalg.row_group``: echelon form for prime n,
by XOR on bit-packed rows for n = 2, and otherwise the Smith form over Z_n,
one int64 elimination per prime-power part joined by the CRT) into its
group order, the relations among its generators and a membership test.  The
ground space has dimension ``n^sites / |group|`` when every relation
multiplies out to the phase the targets demand (in a pure block, the linear
``sum r_i (p_i - 2 t_i) = 0 (mod 2n)``), and zero (a frustrated model)
otherwise.  Each count logs its blocks and the seconds of each stage as one
DEBUG record on the ``gtoric.stabilizer`` logger, silent by default.
Syndromes, classification and the logical basis read one sparse ``[X|Z]``
table, written from the table's nonzero entries on first use; an error's
eigenvalue shifts are one product ``(Z x_e - X z_e) mod n``.  All of it is
exact in int64 for the n a model admits (see ``StabilizerModel``); a larger
n is refused, not rounded.
"""

from __future__ import annotations

import copy
import functools
import logging
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import linalg
from .paulis import PauliString, PauliTable, lattice_string
from .paulis import symplectic_phase  # noqa: F401  unused here; perfbench's tracer patches it

log = logging.getLogger(__name__)

PATH_KINDS = {
    # constituent kind -> X-site directions at the step's vertex
    "I": ("W",),
    "II": ("S",),
    "III": ("W", "S"),
    "IV": ("N", "E"),
}


class InvalidModelError(ValueError):
    pass


class InvalidPathError(ValueError):
    pass


@dataclass(frozen=True)
class Block:
    """One CSS block of a model's table: the generators ``gens``, on the
    columns ``cols`` of ``[x|z]``, decomposed once into ``group``.  ``xz``
    is the CSR matrix of the ``x_i.z_j`` (mod n) within a block that is not
    pure, and None in a pure block, where every one is zero."""

    label: str  # X, Z, or XZ for a model that is not CSS
    gens: np.ndarray
    cols: slice
    shape: tuple  # of the decomposed matrix
    group: linalg.RowGroup
    xz: object = None


@dataclass(frozen=True)
class _Split:
    blocks: tuple
    seconds: dict  # stage -> seconds: table, check, eliminations


@dataclass
class StabilizerModel:
    """Pauli-string generators with target exponents, analyzed on first use.

    The generators' exponents and phases are one ``PauliTable``: the spec's
    own when built by ``from_hamiltonian``, otherwise the strings' rows
    stacked once.  The engine computes in int64.  Every product-sum it forms
    (elimination, membership, ``_form``, the commutation check,
    ``phase_consistent``) has at most ``L = max(generators, 2 * nsites)``
    terms, each below ``2 n^2`` in magnitude, so a model is refused with
    ``InvalidModelError`` unless ``4 L n^2 < 2^63``.  For zn:N on torus:2x2
    (L = 32) that admits N < 2^28.
    """

    n: int
    nsites: int
    generators: list  # list of (PauliString, target exponent mod n)
    term_members: list  # per-term list of generator indices
    term_info: list  # per-term (kind, location)
    lattice: object = None
    model: str = None
    table: PauliTable = field(default=None, repr=False, compare=False)
    _analysis: linalg.RowGroup = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = max(len(self.generators), 2 * self.nsites)
        if 4 * terms * self.n**2 >= 2**63:
            raise InvalidModelError(
                f"n = {self.n} is too large: exact int64 arithmetic on this model "
                f"needs 4 L n^2 < 2^63 with L = {terms}"
            )
        if self.table is None:
            self.table = PauliTable.from_strings(self.n, self.nsites, [s for s, _ in self.generators])
        # dropping the n*e_i relations relies on s^n = I
        bad = np.flatnonzero(~self.table.order_divides_n())
        if len(bad):
            raise InvalidModelError(f"generator {bad[0]} has order larger than n")

    @classmethod
    def from_hamiltonian(cls, h):
        gens, members = [], []
        for t in h.terms:
            members.append(list(range(len(gens), len(gens) + len(t.factors))))
            gens.extend((s, tgt % h.n) for s, tgt in t.factors)
        return cls(
            n=h.n,
            nsites=h.lattice.n_sites,
            generators=gens,
            term_members=members,
            term_info=[(t.kind, t.location) for t in h.terms],
            lattice=h.lattice,
            model=h.model,
            table=h.table,
        )

    def exponent_matrix(self):
        """Rows are generator (x | z) exponent vectors, as one dense array."""
        t = self.table
        return np.hstack((t.x[t.x_row], t.z[t.z_row]))

    @cached_property
    def exponent_table(self):
        """``[X|Z]`` as one CSR matrix: every query reads the generators here."""
        gen, col, exp = self.table.entries()
        g = len(self.generators)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(gen, minlength=g))))
        return sp.csr_matrix((exp, col, indptr), shape=(g, 2 * self.nsites))

    @cached_property
    def term_incidence(self):
        """Sparse term-by-generator matrix, 1 where the generator is a factor of the term."""
        idx = np.array([i for members in self.term_members for i in members], dtype=np.int64)
        ptr = np.cumsum([0] + [len(members) for members in self.term_members])
        return sp.csr_matrix((np.ones(ptr[-1]), idx, ptr), shape=(len(ptr) - 1, len(self.generators)))

    def check_commuting(self):
        """Raise unless ``X Z^T - Z X^T == 0 (mod n)`` for the generators'
        exponents, i.e. unless every pair commutes.  One product of the
        table's x rows by its z rows gives every nonzero x_i.z_j.  In a CSS
        table that is the X block times the Z block transposed, and no
        entry meets its transpose: two pure rows of one kind commute."""
        (x_gens, x), (z_gens, z) = self.table.sparse
        form = (x @ z.T).tocoo()
        i, j, data = x_gens[form.row], z_gens[form.col], form.data  # x_i.z_j
        if not self.table.css:
            g = len(self.generators)
            xz = sp.csr_matrix((data, (i, j)), shape=(g, g))
            clash = sp.triu(xz - xz.T, k=1, format="coo")
            i, j, data = clash.row, clash.col, clash.data
        bad = data % self.n != 0
        if bad.any():
            i, j = min(zip(np.minimum(i, j)[bad], np.maximum(i, j)[bad]))
            raise InvalidModelError(f"generators {i} and {j} do not commute")

    @cached_property
    def _split(self):
        """The model's blocks, each decomposed once after the commutation
        check, with the seconds each stage took.  A CSS table gives the X
        rows on the x columns and the Z rows on the z columns, and the
        generated group is their direct product; any other table is one
        block.  The targets do not enter."""
        start = time.perf_counter()
        t = self.table
        (x_gens, x), (z_gens, z) = t.sparse
        if t.css:
            # a block without rows stays: its group is {0} on its columns
            parts = [
                ("X", x_gens, slice(0, self.nsites), (x,), t.x[:-1]),
                ("Z", z_gens, slice(self.nsites, None), (z,), t.z[:-1]),
            ]
        else:
            xz = self.exponent_table
            x, z = xz[:, : self.nsites], xz[:, self.nsites :]
            parts = [("XZ", np.arange(len(t)), slice(None), (x, z), xz.toarray())]
        tabled = time.perf_counter()
        self.check_commuting()
        checked = time.perf_counter()
        blocks = []
        for label, gens, cols, sparse, mat in parts:
            group = linalg.row_group(mat, self.n)
            _check_relations(group.relations, sparse, self.n)
            xz = None
            if len(sparse) == 2:
                xz = (sparse[0] @ sparse[1].T).tocsr()
                xz.data %= self.n
            blocks.append(Block(label, gens, cols, mat.shape, group, xz))
        seconds = {
            "table": tabled - start,
            "check": checked - tabled,
            "eliminations": time.perf_counter() - checked,
        }
        return _Split(tuple(blocks), seconds)

    def analysis(self):
        """The generated group as one ``linalg.RowGroup``, assembled from the
        blocks: their factors joined into invariant factors, their relations
        placed at their generators' indices, and membership tested block by
        block."""
        if self._analysis is None:
            blocks = self._split.blocks
            count = sum(len(b.group.relations) for b in blocks)
            relations = np.zeros((count, len(self.generators)), dtype=np.int64)
            row = 0
            for b in blocks:
                k = len(b.group.relations)
                relations[row : row + k, b.gens] = b.group.relations
                row += k
            self._analysis = linalg.RowGroup(
                self.n, _invariant_factors(blocks, self.n), relations, functools.partial(_contains, blocks)
            )
        return self._analysis

    def with_flipped_target(self, index, delta=1):
        self._split  # analyzed once, shared with the copy
        flipped = copy.copy(self)  # shares the analysis and every table built so far
        flipped.generators = list(self.generators)
        s, t = self.generators[index]
        flipped.generators[index] = (s, (t + delta) % self.n)
        return flipped


def _invariant_factors(blocks, n):
    """The invariant factors of the direct sum of the blocks' groups, largest
    first as ``linalg.row_group`` gives them: per prime p of n the blocks'
    p-parts, sorted, are multiplied index by index.  Concatenating the
    blocks' factors is the same for a prime power n; for other n it is not
    (Z_2 + Z_3 is Z_6)."""
    factors = [f for b in blocks for f in b.group.factors]
    # the p-part of a factor f, which divides n, is gcd(f, p^k)
    parts = [sorted((math.gcd(f, p**k) for f in factors), reverse=True) for p, k in linalg._prime_powers(n)]
    return tuple(f for f in map(math.prod, zip(*parts)) if f > 1)


def _contains(blocks, vec):
    """Whether ``[x|z]`` vec lies in the group: its columns of each block in
    that block's group."""
    return all(b.group.contains(vec[b.cols]) for b in blocks)


def _check_relations(relations, parts, n):
    """Raise unless every relation row annihilates the block's exponent
    parts mod n.  Rows go a chunk at a time, which bounds the dense product
    and the copy that a dense-by-sparse product makes."""
    for start in range(0, len(relations), 1024):
        chunk = relations[start : start + 1024]
        if any(((chunk @ part) % n).any() for part in parts):
            raise AssertionError("relation vector is not actually a relation")


def _path(n):
    if n == 2:
        return "GF(2) bitset"
    return "prime field" if linalg.is_prime(n) else "CRT Smith form"


def phase_consistent(m):
    """Whether every relation among generators is compatible with the targets:
    for ``s_i = w^{p_i} X^{x_i} Z^{z_i}``, ``prod_i s_i^{r_i}`` has phase
    ``sum r_i p_i + sum r_i (r_i - 1) x_i.z_i + 2 sum_{i<j} r_i r_j x_j.z_i``
    (mod 2n), and the targets demand ``2 sum r_i t_i``.  The doubled terms
    matter mod n only, so they are reduced mod n before every product.  The
    relations of a CSS model are those of its blocks, and in a pure block
    every ``x_j.z_i`` is zero, so only ``sum r_i (p_i - 2 t_i)`` remains:
    one product per block, which a flipped copy repeats on the blocks'
    shared relations."""
    n = m.n
    c = m.table.phase - 2 * np.array([t for _, t in m.generators], dtype=np.int64)
    for b in m._split.blocks:
        rel = b.group.relations  # reduced mod n by row_group
        phase = rel @ c[b.gens]
        if b.xz is not None:
            cross = ((sp.tril(b.xz, k=-1) @ rel.T).T % n * rel).sum(axis=1)  # sum_{i<j} r_i r_j x_j.z_i
            doubled = ((rel * (rel - 1) // 2) % n @ b.xz.diagonal() + cross) % n
            phase = phase + 2 * doubled
        if (phase % (2 * n)).any():
            return False
    return True


def gsd(m):
    """Ground-space dimension as an exact integer (0 when frustrated).  Logs
    one DEBUG record on ``gtoric.stabilizer``: each block's shape,
    elimination path, group order and relation count, and the seconds of the
    table, check, elimination and consistency stages."""
    split = m._split
    order = math.prod(b.group.order for b in split.blocks)
    began = time.perf_counter()
    consistent = phase_consistent(m)
    seconds = dict(split.seconds, consistency=time.perf_counter() - began)
    _log_count(m, split.blocks, seconds)
    if not consistent:
        return 0
    total = m.n**m.nsites
    if total % order:
        raise AssertionError("group order does not divide the space dimension")
    return total // order


def _log_count(m, blocks, seconds):
    if not log.isEnabledFor(logging.DEBUG):
        return
    stats = [
        {"block": b.label, "shape": b.shape, "path": _path(m.n), "order": b.group.order,
         "relations": len(b.group.relations)}
        for b in blocks
    ]
    log.debug(
        "gsd: %s; seconds: %s",
        "; ".join(
            f"{s['block']} {s['shape'][0]}x{s['shape'][1]} by {s['path']}: order "
            f"{m.n}^{math.log(s['order'], m.n):.6g}, {s['relations']} relations"
            for s in stats
        ),
        ", ".join(f"{stage} {value:.3g}" for stage, value in seconds.items()),
        extra={"blocks": stats, "seconds": seconds},
    )


def logical_qudit_count(m):
    g = gsd(m)
    if g == 0:
        raise InvalidModelError("frustrated model has no code space")
    k = _power_of(g, m.n)
    if k is None:
        raise InvalidModelError("ground space is not a qudit power")
    return k


def _power_of(g, n):
    """k with n^k = g for g >= 1, or None when g is no power of n."""
    k = 0
    while g > 1 and g % n == 0:
        g //= n
        k += 1
    return k if g == 1 else None


def _exponents(m, *strings):
    """The strings' ``[x|z]`` exponent vectors, each checked to act on m's qudits."""
    if any((p.n, p.nsites) != (m.n, m.nsites) for p in strings):
        raise ValueError("dimension or site-count mismatch")
    return [np.concatenate((p.x, p.z)) for p in strings]


def _form(rows, v, n):
    """Exponents c_i with ``u_i v = w_n^{c_i} v u_i`` for ``[x|z]`` rows u_i and a vector v."""
    half = len(v) // 2
    return (rows @ np.concatenate((-v[half:], v[:half]))) % n


def logical_basis(m):
    """Conjugate pairs of logical operators (exponent-vector construction).

    Returns ``(k, pairs)`` where each pair (P, Q) commutes with every
    generator and satisfies ``Q P = w_n P Q``.  Prime n only.
    """
    n = m.n
    if not linalg.is_prime(n):
        raise NotImplementedError("logical basis extraction needs a prime dimension")
    k = logical_qudit_count(m)
    x, z = m.exponent_table[:, : m.nsites], m.exponent_table[:, m.nsites :]
    # centralizer: vectors v with (x|z) . J . gens^T == 0
    cands = linalg.row_group(sp.hstack([z, -x]).T.toarray() % n, n).relations
    pairs = []
    while len(cands):
        u, cands = cands[0], cands[1:]
        forms = _form(cands, u, n)
        if not forms.any():
            continue  # u commutes with everything left: stabilizer-equivalent
        partner = np.flatnonzero(forms)[0]
        v = (cands[partner] * linalg._inv_mod(int(forms[partner]), n)) % n
        cands = np.delete(cands, partner, axis=0)
        cands = (cands - np.outer(_form(cands, u, n), v) + np.outer(_form(cands, v, n), u)) % n
        pairs.append((u, v))
    if len(pairs) != k:
        raise AssertionError(f"found {len(pairs)} conjugate pairs, expected {k}")
    return k, [tuple(PauliString(n, w[: m.nsites], w[m.nsites :]) for w in pair) for pair in pairs]


@dataclass
class Syndrome:
    flips: list  # per-generator eigenvalue shift exponent in Z_n
    violated: list  # (term kind, location) of each violated term
    energy: int


def syndrome(m, error):
    """Eigenvalue shifts caused by a Pauli error; energy counts violated
    TERMS (a term is violated when any of its factors shifts)."""
    flips = _form(m.exponent_table, *_exponents(m, error), m.n)
    violated = [m.term_info[t] for t in np.flatnonzero(m.term_incidence @ (flips != 0))]
    return Syndrome(flips=flips.tolist(), violated=violated, energy=len(violated))


def in_stabilizer_group(m, p):
    """Exponent-level membership of p in the generated group."""
    return _contains(m._split.blocks, *_exponents(m, p))


def is_logical(m, p):
    """Classify a Pauli string: 'detectable' (nonzero syndrome),
    'stabilizer' (in the generated group) or 'logical'."""
    if _form(m.exponent_table, *_exponents(m, p), m.n).any():
        return "detectable"
    return "stabilizer" if in_stabilizer_group(m, p) else "logical"


def logically_equivalent(m, p, q):
    """Whether two undetectable strings differ by a stabilizer element."""
    diff = np.subtract(*_exponents(m, p, q)) % m.n  # p q^-1 up to phase
    return not _form(m.exponent_table, diff, m.n).any() and _contains(m._split.blocks, diff)


# -- string and loop operators -------------------------------------------------


@dataclass
class PathSpec:
    """A chain of constituent X placements, each anchored at a vertex.

    ``steps`` is a list of (vertex, kind) with kind in I/II/III/IV.  A vertex
    may carry more than one step (that is how a loop detours around a vertex)
    but never both III and IV, and never a repeated kind.
    """

    steps: list

    def validate(self):
        seen = {}
        for v, kind in self.steps:
            if kind not in PATH_KINDS:
                raise InvalidPathError(f"unknown constituent kind {kind!r}")
            kinds = seen.setdefault(tuple(v), set())
            if kind in kinds:
                raise InvalidPathError(f"repeated constituent {kind} at vertex {v}")
            if {"III", "IV"} <= kinds | {kind}:
                raise InvalidPathError(
                    f"constituents III and IV together at vertex {v} form a vertex operator"
                )
            kinds.add(kind)


def string_operator(lat, path, n=2):
    """X placements of a constituent path as a single PauliString."""
    path.validate()
    placements = [((x, y, d), 1) for (x, y), kind in path.steps for d in PATH_KINDS[kind]]
    return lattice_string(lat, n, x=placements)


def confinement_profile(m, direction, lengths):
    """Syndrome energy of strings of growing length.

    Each direction is a chain of X on one site direction, from a first
    vertex by a fixed step, and may run at most one vertex short of the
    lattice's extent along that step.  ``allowed`` strings are chains of the
    model's deconfined constituent (II along a row for mhoriz, I up a column
    otherwise) and cost a constant 2; ``forbidden-vertical`` places X on E
    sites moving up, ``forbidden-horizontal`` places X on N sites moving
    east, both of which drag vertex excitations along and cost energy per
    step.
    """
    # constituent II is one S site and constituent I one W site
    allowed = ("S", (0, 1), (1, 0)) if m.model == "mhoriz" else ("W", (1, 0), (0, 1))
    chains = {  # direction -> (site direction, first vertex, step)
        "allowed": allowed,
        "forbidden-vertical": ("E", (0, 0), (0, 1)),
        "forbidden-horizontal": ("N", (0, 0), (1, 0)),
    }
    if direction not in chains:
        raise ValueError(f"unknown direction {direction!r}")
    d, (x0, y0), (dx, dy) = chains[direction]
    lat = m.lattice
    out = []
    for length in lengths:
        if length > (lat.m if dx else lat.n) - 1:
            raise InvalidPathError("path exceeds the lattice")
        err = lattice_string(lat, m.n, x=[((x0 + k * dx, y0 + k * dy, d), 1) for k in range(length)])
        out.append(syndrome(m, err).energy)
    return out


def report(m):
    """Summary dict used by the command-line interface.  A group free over
    Z_n of rank r leaves ``generators - r`` independent relations; for any
    other group the rank and the relation count are None."""
    factors = _invariant_factors(m._split.blocks, m.n)
    rank = len(factors) if all(f == m.n for f in factors) else None
    g = gsd(m)
    return {
        "n": m.n,
        "sites": m.nsites,
        "generators": len(m.generators),
        "group_order": math.prod(factors),
        "rank": rank,
        "relations": None if rank is None else len(m.generators) - rank,
        "consistency": g != 0,
        "gsd": g,
        "k": _power_of(g, m.n) if g else 0,
    }
