"""Exact stabilizer engine over Z_n: ground-space dimension, phase
consistency, logical operators, syndromes, and string/loop constructions.

A stabilizer model is a list of commuting Pauli-string generators, each of
order dividing n, with target eigenvalue exponents.  The engine reads them
from one sparse exponent table, built on first use and shared with
target-flipped copies.  One analysis per model checks ``X Z^T - Z X^T == 0
(mod n)`` on it and decomposes it once (``linalg.row_group``: echelon form
for prime n, by XOR on bit-packed rows for n = 2, and otherwise the Smith
form over Z_n, one int64 elimination per prime-power part joined by the
CRT) into the group order, the relations among the generators and a
membership test.  The ground space has dimension ``n^sites / |group|`` when
every relation multiplies out to the phase the targets demand, and zero (a
frustrated model) otherwise.  Syndromes, classification and the logical
basis read the same table; an error's eigenvalue shifts are one product
``(Z x_e - X z_e) mod n``.  All of it is exact in int64 for the n a model
admits (see ``StabilizerModel``); a larger n is refused, not rounded.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import linalg
from .paulis import PauliString, order_divides_n
from .paulis import symplectic_phase  # noqa: F401  unused here; perfbench's tracer patches it

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


@dataclass
class StabilizerModel:
    """Pauli-string generators with target exponents, analyzed on first use.

    The engine computes in int64.  Every product-sum it forms (elimination,
    membership, ``_form``, the commutation check, ``phase_consistent``) has
    at most ``L = max(generators, 2 * nsites)`` terms, each below ``2 n^2`` in
    magnitude, so a model is refused with ``InvalidModelError`` unless
    ``4 L n^2 < 2^63``.  For zn:N on torus:2x2 (L = 32) that admits N < 2^28.
    """

    n: int
    nsites: int
    generators: list  # list of (PauliString, target exponent mod n)
    term_members: list  # per-term list of generator indices
    term_info: list  # per-term (kind, location)
    lattice: object = None
    model: str = None
    _analysis: linalg.RowGroup = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = max(len(self.generators), 2 * self.nsites)
        if 4 * terms * self.n**2 >= 2**63:
            raise InvalidModelError(
                f"n = {self.n} is too large: exact int64 arithmetic on this model "
                f"needs 4 L n^2 < 2^63 with L = {terms}"
            )
        # dropping the n*e_i relations relies on s^n = I
        for i, (s, _) in enumerate(self.generators):
            if not order_divides_n(s):
                raise InvalidModelError(f"generator {i} has order larger than n")

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
        )

    def exponent_matrix(self):
        """Rows are generator (x | z) exponent vectors."""
        return np.array([np.concatenate((s.x, s.z)) for s, _ in self.generators], dtype=np.int64)

    @cached_property
    def exponent_table(self):
        """The exponent matrix in sparse form: every query reads the generators here."""
        return sp.csr_matrix(self.exponent_matrix())

    @cached_property
    def exponent_blocks(self):
        """The X and Z blocks of the exponent table and ``X Z^T`` ([i, j] = x_i.z_j)."""
        x, z = self.exponent_table[:, : self.nsites], self.exponent_table[:, self.nsites :]
        return x, z, (x @ z.T).tocsr()

    @cached_property
    def term_incidence(self):
        """Sparse term-by-generator matrix, 1 where the generator is a factor of the term."""
        idx = np.array([i for members in self.term_members for i in members], dtype=np.int64)
        ptr = np.cumsum([0] + [len(members) for members in self.term_members])
        return sp.csr_matrix((np.ones(ptr[-1]), idx, ptr), shape=(len(ptr) - 1, len(self.generators)))

    def check_commuting(self):
        """Raise unless ``X Z^T - Z X^T == 0 (mod n)`` for the generators'
        exponent blocks, i.e. unless every pair commutes."""
        xz = self.exponent_blocks[2]
        clash = sp.triu(xz - xz.T, k=1, format="coo")
        bad = clash.data % self.n != 0
        if bad.any():
            i, j = min(zip(clash.row[bad], clash.col[bad]))
            raise InvalidModelError(f"generators {i} and {j} do not commute")

    def analysis(self):
        """The generated group (a ``linalg.RowGroup``), computed on first use
        after the commutation check; the targets do not enter it."""
        if self._analysis is None:
            self.check_commuting()
            self._analysis = linalg.row_group(self.exponent_table.toarray(), self.n)
        return self._analysis

    def with_flipped_target(self, index, delta=1):
        self.analysis()
        flipped = copy.copy(self)  # shares the analysis and every table built so far
        flipped.generators = list(self.generators)
        s, t = self.generators[index]
        flipped.generators[index] = (s, (t + delta) % self.n)
        return flipped


def phase_consistent(m):
    """Whether every relation among generators is compatible with the targets:
    for ``s_i = w^{p_i} X^{x_i} Z^{z_i}``, ``prod_i s_i^{r_i}`` has phase
    ``sum r_i p_i + sum r_i (r_i - 1) x_i.z_i + 2 sum_{i<j} r_i r_j x_j.z_i``
    (mod 2n), and the targets demand ``2 sum r_i t_i``.  The doubled terms
    matter mod n only, so they are reduced mod n before every product."""
    n = m.n
    rel = m.analysis().relations % n
    x, z, xz = m.exponent_blocks
    if ((rel @ x) % n).any() or ((rel @ z) % n).any():
        raise AssertionError("relation vector is not actually a relation")
    phases, targets = np.array([(s.phase, t) for s, t in m.generators], dtype=np.int64).T
    xz = xz.copy()
    xz.data %= n
    cross = ((sp.tril(xz, k=-1) @ rel.T).T % n * rel).sum(axis=1)  # sum_{i<j} r_i r_j x_j.z_i
    doubled = ((rel * (rel - 1) // 2) % n @ xz.diagonal() + cross) % n
    phase = rel @ (phases - 2 * targets) + 2 * doubled
    return not (phase % (2 * n)).any()


def gsd(m):
    """Ground-space dimension as an exact integer (0 when frustrated)."""
    order = m.analysis().order
    if not phase_consistent(m):
        return 0
    total = m.n**m.nsites
    if total % order:
        raise AssertionError("group order does not divide the space dimension")
    return total // order


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
    x, z, _ = m.exponent_blocks
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
    return m.analysis().contains(*_exponents(m, p))


def is_logical(m, p):
    """Classify a Pauli string: 'detectable' (nonzero syndrome),
    'stabilizer' (in the generated group) or 'logical'."""
    if _form(m.exponent_table, *_exponents(m, p), m.n).any():
        return "detectable"
    return "stabilizer" if in_stabilizer_group(m, p) else "logical"


def logically_equivalent(m, p, q):
    """Whether two undetectable strings differ by a stabilizer element."""
    diff = np.subtract(*_exponents(m, p, q)) % m.n  # p q^-1 up to phase
    return not _form(m.exponent_table, diff, m.n).any() and m.analysis().contains(diff)


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
    x_at = {}
    for v, kind in path.steps:
        x, y = v
        for d in PATH_KINDS[kind]:
            idx = lat.site_index(lat.site(x, y, d))
            x_at[idx] = x_at.get(idx, 0) + 1
    return PauliString.from_ops(n, lat.n_sites, x_at=x_at)


def _allowed_chain(m, length):
    """Deconfined open string of the given length for the current model."""
    lat = m.lattice
    if m.model == "mhoriz":
        if length > lat.m - 1:
            raise InvalidPathError("path exceeds the lattice")
        steps = [((x, 1), "II") for x in range(length)]
    else:
        if length > lat.n - 1:
            raise InvalidPathError("path exceeds the lattice")
        steps = [((1, y), "I") for y in range(length)]
    return PathSpec(steps)


def confinement_profile(m, direction, lengths):
    """Syndrome energy of strings of growing length.

    ``allowed`` strings are chains of the model's deconfined constituent and
    cost a constant 2; ``forbidden-vertical`` places X on E sites moving up,
    ``forbidden-horizontal`` places X on N sites moving east, both of which
    drag vertex excitations along and cost energy per step.
    """
    lat = m.lattice
    out = []
    for length in lengths:
        if direction == "allowed":
            err = string_operator(lat, _allowed_chain(m, length), m.n)
        elif direction == "forbidden-vertical":
            if length > lat.n - 1:
                raise InvalidPathError("path exceeds the lattice")
            x_at = {lat.site_index(lat.site(0, y, "E")): 1 for y in range(length)}
            err = PauliString.from_ops(m.n, m.nsites, x_at=x_at)
        elif direction == "forbidden-horizontal":
            if length > lat.m - 1:
                raise InvalidPathError("path exceeds the lattice")
            x_at = {lat.site_index(lat.site(x, 0, "N")): 1 for x in range(length)}
            err = PauliString.from_ops(m.n, m.nsites, x_at=x_at)
        else:
            raise ValueError(f"unknown direction {direction!r}")
        out.append(syndrome(m, err).energy)
    return out


def report(m):
    """Summary dict used by the command-line interface."""
    group = m.analysis()
    g = gsd(m)
    return {
        "n": m.n,
        "sites": m.nsites,
        "generators": len(m.generators),
        "group_order": group.order,
        "rank": group.rank,
        "relations": None if group.rank is None else len(group.relations),
        "consistency": g != 0,
        "gsd": g,
        "k": _power_of(g, m.n) if g else 0,
    }
