"""Brute-force matrix oracle on small lattices.

Realizes operators as (sparse) matrices in the computational basis, checks
projector and commutation claims numerically, computes ground-space
dimensions, builds ground states, and measures per-term expectations.

The memory budget caps basis amplitudes and sparse matrix nonzeros (the
environment variable ``GTORIC_BUDGET`` overrides the default of 2**24).  Full
dense eigensolves are only attempted below ``DENSE_EIG_DIM``; above that the
ground-space dimension comes from the trace of the product of term
projectors, verified to be an exact projector onto the lowest eigenspace.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DEFAULT_BUDGET = 2**24
DENSE_EIG_DIM = 4096
TOL = 1e-10


class BudgetExceededError(MemoryError):
    pass


class InvalidBudgetError(ValueError):
    pass


class SeedViolatesFaceTermError(ValueError):
    def __init__(self, faces):
        super().__init__(f"seed configuration violates face terms at {faces}")
        self.faces = faces


def budget():
    text = os.environ.get("GTORIC_BUDGET", str(DEFAULT_BUDGET))
    if not text.strip().isdecimal():
        raise InvalidBudgetError(f"GTORIC_BUDGET must be a non-negative integer, not {text!r}")
    return int(text)


def _check_budget(n, nsites):
    dim = n**nsites
    if dim > budget():
        raise BudgetExceededError(
            f"dimension {n}^{nsites} exceeds the amplitude budget {budget()}"
        )
    return dim


def _check_nonzeros(count):
    if count > budget():
        raise BudgetExceededError(f"up to {count} sparse nonzeros exceed the budget {budget()}")


@dataclass
class DenseState:
    """A normalized state vector together with its lattice metadata."""

    amplitudes: np.ndarray
    lattice: object
    n: int

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


def trace_product(terms, lat, n):
    """Exact trace of the ordered product of OperatorSums.

    For commuting projector terms this equals the ground-space dimension.
    """
    dim = _check_budget(n, lat.n_sites)
    acc = _sparse_product(terms)
    if acc is None:
        return float(dim)
    tr = acc.diagonal().sum()
    if abs(tr.imag) > 1e-6:
        raise AssertionError(f"trace unexpectedly complex: {tr}")
    return float(tr.real)


def _sparse_product(opsums):
    """Sparse matrix of the ordered product of OperatorSums (None if empty)."""
    acc = None
    for op in opsums:
        # each Pauli term of op puts at most one nonzero in a column
        _check_nonzeros((op.n**op.nsites if acc is None else acc.nnz) * len(op.coeffs))
        mat = op.sparse_matrix()
        acc = mat if acc is None else acc @ mat
    return acc


def hamiltonian_sparse(h):
    dim = _check_budget(h.n, h.lattice.n_sites)
    _check_nonzeros(dim * min(dim, sum(len(t.opsum.coeffs) for t in h.terms)))
    return -sum(t.opsum.sparse_matrix() for t in h.terms)


def ground_space_dimension(h):
    """Multiplicity of the lowest eigenvalue -(term count) of the dense
    Hamiltonian; falls back to a verified spectral projector trace when the
    dimension is too large for a full eigensolve."""
    dim = _check_budget(h.n, h.lattice.n_sites)
    nterms = len(h.terms)
    if dim <= DENSE_EIG_DIM:
        ham = hamiltonian_sparse(h).toarray()
        evals = np.linalg.eigvalsh(ham)
        count = int(np.sum(np.abs(evals - (-nterms)) < 1e-8))
        if count and evals.min() < -nterms - 1e-8:
            raise AssertionError("eigenvalue below the commuting-projector bound")
        return count
    # spectral projector onto the joint +1 eigenspace of all terms
    proj = _sparse_product(t.opsum for t in h.terms)
    tr = proj.diagonal().sum()
    count = int(round(tr.real))
    if abs(tr - count) > 1e-6:
        raise AssertionError(f"projector trace {tr} is not an integer")
    # verify idempotence and the eigenspace property on random probes
    rng = np.random.default_rng(7)
    for _ in range(3):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        pv = proj @ v
        if np.linalg.norm(proj @ pv - pv) > 1e-6 * (1 + np.linalg.norm(pv)):
            raise AssertionError("term product is not a projector")
        hv = sum(-(t.opsum.apply(pv)) for t in h.terms)
        if np.linalg.norm(hv - (-nterms) * pv) > 1e-6 * (1 + np.linalg.norm(pv)):
            raise AssertionError("projector image is not the lowest eigenspace")
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
    return DenseState(vec, lat, n)


def parse_seed_config(text, lat, n):
    """Seed syntax: whitespace-separated assignments, later ones override:
    ``all=K``, ``D=K`` for a direction D in {W,N,E,S}, or ``(x,y).D=K``."""
    from .lattice import parse_site

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
    applying every vertex-kind term, then verify all eigenvalues."""
    lat, n = h.lattice, h.n
    state = basis_state(lat, n, seed_digits)
    vec = state.amplitudes
    bad_faces = []
    for t in h.face_terms():
        val = np.vdot(vec, t.opsum.apply(vec))
        if abs(val - 1.0) > TOL:
            bad_faces.append(t.location)
    if bad_faces:
        raise SeedViolatesFaceTermError(bad_faces)
    for t in h.vertex_terms():
        vec = t.opsum.apply(vec)
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise AssertionError("vertex projection annihilated the seed")
    vec = vec / norm
    out = DenseState(vec, lat, n)
    for val in measure_syndrome(h, out):
        if abs(val - 1.0) > TOL:
            raise AssertionError("constructed state is not a joint +1 eigenstate")
    return out


def measure_syndrome(h, state):
    """Expectation value of every term on the state, in term order."""
    vec = state.amplitudes
    out = []
    for t in h.terms:
        val = np.vdot(vec, t.opsum.apply(vec))
        if abs(val.imag) > 1e-8:
            raise AssertionError("term expectation unexpectedly complex")
        out.append(float(val.real))
    return out


def apply_pauli_to_state(p, state):
    from .paulis import apply_pauli

    return DenseState(apply_pauli(p, state.amplitudes), state.lattice, state.n)
