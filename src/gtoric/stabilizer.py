"""Exact stabilizer engine over Z_n: ground-space dimension, phase
consistency, logical operators, syndromes, and string/loop constructions.

A stabilizer model is a set of commuting Pauli-string generators, each of
order dividing n, with target eigenvalue exponents, stored once as one
``paulis.PauliTable`` of nonzero exponents and phases and one array of
targets.  Every catalog model is CSS, each generator pure X or pure Z, and
the analysis then works on two blocks, the table's X part and its Z part,
whose ``linalg.Entries`` every kernel reads as they are: the generated
group is the direct product of theirs.  Any other table is one block.  Each
model checks ``X Z^T - Z X^T == 0 (mod n)`` once, by joining the table's x
and z entries on site, with no matrix built.  The ground space has
dimension ``n^sites / |group|`` when every relation among the generators
multiplies out to the phase the targets demand, and zero (a frustrated
model) otherwise.  In a pure block that demand is linear, ``sum r_i c_i = 0
(mod 2n)`` with c_i = p_i - 2 t_i, so it holds exactly when c/2 lies in the
span of the block's columns, i.e. when appending c/2 leaves the block's
order unchanged.  A count therefore needs each block's order and that
verdict only, and a CSS model reads both from one transform-free
elimination of ``[block | c/2]`` (``linalg.row_order``), forming no
relation.  The relations are built when something asks for them: membership
(``is_logical``, ``logically_equivalent``, ``in_stabilizer_group``),
``analysis()``, a table that is not CSS, whose phase is quadratic, and
``with_flipped_target``.  Then each block is decomposed once
(``linalg.row_group``: the Smith form over Z_n for every n, one elimination
per prime-power part on rows packed into Python ints, joined by the CRT)
into its group order, the relations among its generators and a membership
test, shared with target-flipped copies, and from then on each consistency
verdict is one product with the relations and each membership read one
product with the Smith form's sparse right transform, whose tested columns
over a prime field are the echelon form's free columns.  The route is
chosen by whether the relations exist.  Each count logs its
blocks, the kernel that eliminated them (``linalg.elimination_path``), the
route of each block's consistency verdict and the seconds of each stage as
one DEBUG record on the ``gtoric.stabilizer`` logger, silent by default.
Syndromes, classification and the logical basis read one sparse ``[X|Z]``
table, written from the table's nonzero entries on first use; an error's
eigenvalue shifts are one product ``(Z x_e - X z_e) mod n``.  All of it is
exact in int64 for the n a model admits (see ``StabilizerModel``); a larger
n is refused, not rounded.
"""

from __future__ import annotations

import copy
import functools
import itertools
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
    """One CSS block of a model's table: the generators ``gens`` and their
    exponents ``mat`` on the columns ``cols`` of ``[x|z]``, as
    ``linalg.Entries``: the table's own part in a CSS table."""

    label: str  # X, Z, or XZ for a model that is not CSS
    gens: np.ndarray
    cols: slice
    mat: linalg.Entries


@dataclass(frozen=True)
class _Blocks:
    blocks: tuple
    seconds: dict  # stage -> seconds: table, check


@dataclass(frozen=True)
class _Split:
    """The relation route: each block decomposed once.  ``xz[i]`` is the CSR
    matrix of the ``x_i.z_j`` (mod n) within block i when it is not pure,
    and None in a pure block, where every one is zero."""

    groups: tuple  # of linalg.RowGroup, one per block
    xz: tuple
    seconds: float


@dataclass(frozen=True)
class _Orders:
    """The span route: per block its invariant factors and whether the
    targets are consistent on it."""

    factors: tuple
    consistent: tuple
    seconds: float


@dataclass(eq=False)
class StabilizerModel:
    """Pauli-string generators with target exponents, analyzed on first use.

    The generators are stored once, as one ``PauliTable`` (the spec's own
    from ``from_hamiltonian``) and one target each, reduced mod n; the
    ``(PauliString, target)`` pairs of ``generators`` are built on read.
    The engine computes in int64.  Every product-sum it forms (elimination,
    membership, ``_form``, the commutation check, ``phase_consistent``) has
    at most ``L = max(generators, 2 * nsites)`` terms, each below ``2 n^2``
    in magnitude, so a model is refused with ``InvalidModelError`` unless
    ``4 L n^2 < 2^63``.  For zn:N on torus:2x2 (L = 32) that admits N < 2^28.
    """

    n: int
    nsites: int
    table: PauliTable = field(repr=False)
    targets: np.ndarray  # one target exponent per generator
    term_members: list  # per-term sequence of generator indices
    term_info: list  # per-term (kind, location)
    lattice: object = None
    model: str = None
    _analysis: linalg.RowGroup = field(default=None, init=False, repr=False)

    def __post_init__(self):
        terms = max(len(self.table), 2 * self.nsites)
        if 4 * terms * self.n**2 >= 2**63:
            raise InvalidModelError(
                f"n = {self.n} is too large: exact int64 arithmetic on this model "
                f"needs 4 L n^2 < 2^63 with L = {terms}"
            )
        if len(self.targets) != len(self.table):
            raise InvalidModelError(f"{len(self.targets)} targets for {len(self.table)} generators")
        self.targets = np.asarray(self.targets, dtype=np.int64) % self.n
        self.targets.setflags(write=False)
        # dropping the n*e_i relations relies on s^n = I
        bad = np.flatnonzero(~self.table.order_divides_n())
        if len(bad):
            raise InvalidModelError(f"generator {bad[0]} has order larger than n")

    @classmethod
    def from_hamiltonian(cls, h):
        counts = [count for *_, count in h.layout]
        members = [range(start, start + k) for start, k in zip(itertools.accumulate(counts, initial=0), counts)]
        info = [(kind, location) for kind, location, _ in h.layout]
        return cls(h.n, h.lattice.n_sites, h.table, h.targets, members, info, h.lattice, h.model)

    @cached_property
    def generators(self):
        """Each generator as ``(PauliString, target)``, built from the table's entries on first read."""
        return tuple(zip(self.table.strings(), self.targets.tolist()))

    def exponent_matrix(self):
        """Rows are generator (x | z) exponent vectors, as one dense array."""
        return self.exponent_table.toarray()

    @cached_property
    def exponent_table(self):
        """``[X|Z]`` as one CSR matrix: every query reads the generators here."""
        gen, col, exp = self.table.entries()
        g = len(self.table)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(gen, minlength=g))))
        return sp.csr_matrix((exp, col, indptr), shape=(g, 2 * self.nsites))

    @cached_property
    def term_incidence(self):
        """Sparse term-by-generator matrix, 1 where the generator is a factor of the term."""
        idx = np.array([i for members in self.term_members for i in members], dtype=np.int64)
        ptr = np.cumsum([0] + [len(members) for members in self.term_members])
        return sp.csr_matrix((np.ones(ptr[-1]), idx, ptr), shape=(len(ptr) - 1, len(self.table)))

    def check_commuting(self):
        """Raise unless ``X Z^T - Z X^T == 0 (mod n)`` for the generators'
        exponents, i.e. unless every pair commutes; the error names the
        least clashing pair (i, j), i < j.

        Every nonzero x_i.z_j is a sum over the sites where an x entry of
        generator i meets a z entry of generator j, so the table's x and z
        entries are joined on site: the z entries sorted by site and counted
        per site, each x entry repeated once per z entry on its site, and the
        products summed per pair.  x_i.z_j and x_j.z_i go to one pair (min,
        max) with opposite signs, so a table that is not CSS is checked the
        same way; in a CSS table no pair meets its transpose, since two pure
        rows of one kind commute.  No matrix is built."""
        n, g = self.n, len(self.table)
        (xg, xs, xv), (zg, zs, zv) = self.table.part_entries
        order = np.argsort(zs, kind="stable")
        zg, zv = zg[order], zv[order]
        on_site = np.bincount(zs, minlength=self.nsites)  # z entries per site
        lo, count = (np.cumsum(on_site) - on_site)[xs], on_site[xs]
        xe = np.repeat(np.arange(len(xs)), count)  # the x entry and the z entry of each product
        if not len(xe):
            return
        ze = np.arange(len(xe)) + np.repeat(lo - np.cumsum(count) + count, count)
        i, j = xg[xe], zg[ze]
        value = xv[xe] * zv[ze] * np.sign(j - i)  # each below n^2, as StabilizerModel bounds
        pair = np.minimum(i, j) * g + np.maximum(i, j)
        order = np.argsort(pair, kind="stable")
        pair, value = pair[order], value[order]
        first = np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1])))  # of each pair's run
        bad = first[np.add.reduceat(value, first) % n != 0]
        if len(bad):
            i, j = divmod(int(pair[bad[0]]), g)
            raise InvalidModelError(f"generators {i} and {j} do not commute")

    @cached_property
    def _blocks(self):
        """The model's blocks after the commutation check, with the seconds
        each stage took.  A CSS table gives the X rows on the x columns and
        the Z rows on the z columns, and the generated group is their direct
        product; any other table is one block."""
        start = time.perf_counter()
        t = self.table
        if t.css:
            # a block without rows stays: its group is {0} on its columns
            blocks = (
                Block("X", t.x_gens, slice(0, self.nsites), t.x),
                Block("Z", t.z_gens, slice(self.nsites, None), t.z),
            )
        else:
            whole = linalg.Entries((len(t), 2 * self.nsites), *t.entries())
            blocks = (Block("XZ", np.arange(len(t)), slice(None), whole),)
        tabled = time.perf_counter()
        self.check_commuting()
        seconds = {"table": tabled - start, "check": time.perf_counter() - tabled}
        return _Blocks(blocks, seconds)

    @cached_property
    def _split(self):
        """The relation route: each block decomposed once by
        ``linalg.row_group`` into its group order, the relations among its
        generators, which are checked against the block's rows as CSR
        matrices built from its entries, and a membership test.  The targets
        do not enter, so target-flipped copies share it."""
        start = time.perf_counter()
        groups, products = [], []
        for b in self._blocks.blocks:
            group = linalg.row_group(b.mat, self.n)
            rows = sp.csr_matrix((b.mat.value, (b.mat.row, b.mat.col)), shape=b.mat.shape)
            parts = [rows] if self.table.css else [rows[:, : self.nsites], rows[:, self.nsites :]]
            _check_relations(group.relations, parts, self.n)
            xz = None
            if len(parts) == 2:
                xz = (parts[0] @ parts[1].T).tocsr()
                xz.data %= self.n
            groups.append(group)
            products.append(xz)
        return _Split(tuple(groups), tuple(products), time.perf_counter() - start)

    @cached_property
    def _orders(self):
        """The span route, for a CSS table: per block one transform-free
        elimination of ``[block | c/2]`` (``linalg.row_order``), c_i = p_i -
        2 t_i, which is even for a pure generator of order dividing n.  It
        gives the block's invariant factors, and the targets are consistent
        on the block exactly when c/2 lies in its columns' span, i.e. when
        every relation r has ``r.c = 0 (mod 2n)``.  It holds this model's
        targets, so ``with_flipped_target`` drops it from its copy."""
        blocks = self._blocks.blocks
        start = time.perf_counter()
        half = (self.table.phase - 2 * self.targets) // 2
        found = [linalg.row_order(b.mat, self.n, half[b.gens]) for b in blocks]
        factors, consistent = zip(*found)
        return _Orders(factors, consistent, time.perf_counter() - start)

    def _route(self):
        """``relations`` once the blocks' relations exist, and for a table
        that is not CSS, whose phase is quadratic; ``span`` otherwise."""
        return "relations" if "_split" in self.__dict__ or not self.table.css else "span"

    def _block_factors(self):
        """Each block's invariant factors, read by the model's route."""
        if self._route() == "span":
            return self._orders.factors
        return tuple(g.factors for g in self._split.groups)

    def analysis(self):
        """The generated group as one ``linalg.RowGroup``, assembled from the
        blocks: their factors joined into invariant factors, their relations
        placed at their generators' indices, and membership tested block by
        block."""
        if self._analysis is None:
            blocks, groups = self._blocks.blocks, self._split.groups
            count = sum(len(g.relations) for g in groups)
            relations = np.zeros((count, len(self.table)), dtype=np.int64)
            row = 0
            for b, g in zip(blocks, groups):
                k = len(g.relations)
                relations[row : row + k, b.gens] = g.relations
                row += k
            self._analysis = linalg.RowGroup(
                self.n, _invariant_factors(self._block_factors(), self.n), relations,
                functools.partial(_contains, self),
            )
        return self._analysis

    def with_flipped_target(self, index, delta=1):
        self._split  # relations built once, shared with the copy
        flipped = copy.copy(self)  # shares the analysis and every table built so far
        for held in ("_orders", "generators"):  # they hold this model's targets
            flipped.__dict__.pop(held, None)
        flipped.targets = self.targets.copy()
        flipped.targets[index] = (flipped.targets[index] + delta) % self.n
        flipped.targets.setflags(write=False)
        return flipped


def _invariant_factors(block_factors, n):
    """The invariant factors of the direct sum of the blocks' groups, largest
    first as ``linalg.row_group`` gives them."""
    return linalg.invariant_factors([f for factors in block_factors for f in factors], n)


def _contains(m, vec):
    """Whether ``[x|z]`` vec lies in the group: its columns of each block in
    that block's group."""
    return all(g.contains(vec[b.cols]) for b, g in zip(m._blocks.blocks, m._split.groups))


def _check_relations(relations, parts, n):
    """Raise unless every relation row annihilates the block's exponent
    parts mod n.  Rows go a chunk at a time, which bounds the dense product
    and the copy that a dense-by-sparse product makes."""
    for start in range(0, len(relations), 1024):
        chunk = relations[start : start + 1024]
        if any(((chunk @ part) % n).any() for part in parts):
            raise AssertionError("relation vector is not actually a relation")


def phase_consistent(m):
    """Whether every relation among generators is compatible with the targets:
    for ``s_i = w^{p_i} X^{x_i} Z^{z_i}``, ``prod_i s_i^{r_i}`` has phase
    ``sum r_i p_i + sum r_i (r_i - 1) x_i.z_i + 2 sum_{i<j} r_i r_j x_j.z_i``
    (mod 2n), and the targets demand ``2 sum r_i t_i``.  The relations of a
    CSS model are those of its blocks, and in a pure block every ``x_j.z_i``
    is zero, so only ``sum r_i c_i = 0 (mod 2n)`` remains, c_i = p_i - 2 t_i.

    The verdict takes one of two routes, chosen by whether the blocks'
    relations exist.  Without them, a CSS model reads each block's verdict
    from its one transform-free elimination of ``[block | c/2]`` (the span
    route, ``StabilizerModel._orders``), and no relation is formed.  Once
    they exist (membership, ``analysis()`` and ``with_flipped_target`` build
    them), and always for a table that is not CSS, whose phase is
    quadratic, each block's verdict is one product with its shared
    relations; the doubled terms matter mod n only, so they are reduced mod
    n before every product."""
    if m._route() == "span":
        return all(m._orders.consistent)
    n = m.n
    c = m.table.phase - 2 * m.targets  # the phase each relation's product must cancel
    for b, group, xz in zip(m._blocks.blocks, m._split.groups, m._split.xz):
        rel = group.relations  # reduced mod n by row_group
        phase = rel @ c[b.gens]
        if xz is not None:
            cross = ((sp.tril(xz, k=-1) @ rel.T).T % n * rel).sum(axis=1)  # sum_{i<j} r_i r_j x_j.z_i
            doubled = ((rel * (rel - 1) // 2) % n @ xz.diagonal() + cross) % n
            phase = phase + 2 * doubled
        if (phase % (2 * n)).any():
            return False
    return True


def gsd(m):
    """Ground-space dimension as an exact integer: ``n^sites / |group|``, or
    0 when the targets are frustrated.  The group order is the product of
    the blocks' invariant factors, read by the route ``phase_consistent``
    takes: one transform-free elimination per block when the relations do
    not exist, and the shared decomposition when they do.  Logs one DEBUG
    record on ``gtoric.stabilizer``: each block's shape, elimination kernel,
    group order, consistency route and relation count, and the seconds of
    the table, check, elimination and consistency stages."""
    factors = m._block_factors()
    began = time.perf_counter()
    consistent = phase_consistent(m)
    _log_count(m, factors, time.perf_counter() - began)
    if not consistent:
        return 0
    total = m.n**m.nsites
    order = math.prod(math.prod(f) for f in factors)
    if total % order:
        raise AssertionError("group order does not divide the space dimension")
    return total // order


def _log_count(m, factors, consistency):
    if not log.isEnabledFor(logging.DEBUG):
        return
    route = m._route()
    path = linalg.elimination_path(m.n, relations=route == "relations")  # every block eliminates over Z_n
    eliminations = m._orders.seconds if route == "span" else m._split.seconds
    seconds = dict(m._blocks.seconds, eliminations=eliminations, consistency=consistency)
    # both routes relate every row but those whose factor is n itself: rows
    # minus the least number of level-0 pivots over n's prime-power parts
    stats = [{"block": b.label, "shape": b.mat.shape, "path": path, "order": math.prod(f), "route": route,
              "relations": len(b.gens) - f.count(m.n)} for b, f in zip(m._blocks.blocks, factors)]
    log.debug(
        "gsd: %s; seconds: %s",
        "; ".join(
            f"{s['block']} {s['shape'][0]}x{s['shape'][1]} by {s['path']}: order "
            f"{m.n}^{math.log(s['order'], m.n):.6g}, consistency by {s['route']}, {s['relations']} relations"
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
    return _contains(m, *_exponents(m, p))


def is_logical(m, p):
    """Classify a Pauli string: 'detectable' (nonzero syndrome),
    'stabilizer' (in the generated group) or 'logical'."""
    (vec,) = _exponents(m, p)  # built once, for the syndrome and the membership test
    if _form(m.exponent_table, vec, m.n).any():
        return "detectable"
    return "stabilizer" if _contains(m, vec) else "logical"


def logically_equivalent(m, p, q):
    """Whether two undetectable strings differ by a stabilizer element."""
    diff = np.subtract(*_exponents(m, p, q)) % m.n  # p q^-1 up to phase
    return not _form(m.exponent_table, diff, m.n).any() and _contains(m, diff)


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
    step.  The names describe these chains, not the model: m1's faces also
    move along a row at a constant energy 2, by constituent IV then I.
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
    factors = _invariant_factors(m._block_factors(), m.n)
    rank = len(factors) if all(f == m.n for f in factors) else None
    g = gsd(m)
    return {
        "n": m.n,
        "sites": m.nsites,
        "generators": len(m.table),
        "group_order": math.prod(factors),
        "rank": rank,
        "relations": None if rank is None else len(m.table) - rank,
        "consistency": g != 0,
        "gsd": g,
        "k": _power_of(g, m.n) if g else 0,
    }
