"""Brute-force matrix oracle on small lattices.

Realizes operators as (sparse) matrices in the computational basis, checks
projector and commutation claims numerically, computes ground-space
dimensions, builds ground states, and measures per-term expectations.

The memory budget caps basis amplitudes and sparse matrix nonzeros (the
environment variable ``GTORIC_BUDGET`` overrides the default of 2**24).  At
every size the ground-space dimension is the trace of the ordered product of
the term projectors, each term realized once as a sparse matrix; the same
matrices then verify on random probes that the product is an exact projector
onto the lowest eigenspace.

Matrices are realized from phases that ``paulis._roots`` makes exact where
they can be: for n = 2, and for n = 4 projectors, every root of unity is
exactly +-1 or +-i, so projector cancellations are exact zeros and the
running product stores only its true nonzeros (on m1 torus:2x2 at most
65,536 of 2^32 entries, and 8,192 at the end).  No tolerance cut is
applied; for other n the entries carry ordinary round-off.
"""

from __future__ import annotations

import os

import numpy as np

DEFAULT_BUDGET = 2**24
# every count takes the projector trace; the name stays because the benchmark
# tracer labels a count of at most this many amplitudes the eigensolve path,
# so 0 labels every count the trace path
DENSE_EIG_DIM = 0
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


def trace_product(terms, lat, n):
    """Exact trace of the ordered product of OperatorSums.

    For commuting projector terms this equals the ground-space dimension.
    """
    _, tr = _product_trace(terms, _check_budget(n, lat.n_sites))
    if abs(tr.imag) > 1e-6:
        raise AssertionError(f"trace unexpectedly complex: {tr}")
    return float(tr.real)


def _products(opsums, dim):
    """Each OperatorSum's sparse matrix on ``dim`` amplitudes, with the
    running product of the matrices so far, checked against the budget
    before each is realized."""
    acc = None
    for op in opsums:
        # each Pauli term of op puts at most one nonzero in a column
        _check_nonzeros((dim if acc is None else acc.nnz) * len(op.coeffs))
        mat = op.sparse_matrix()
        acc = mat if acc is None else acc @ mat
        yield mat, acc


def _product_trace(opsums, dim):
    """Sparse matrix of the ordered product of OperatorSums on ``dim``
    amplitudes (None if there are none) and its trace."""
    acc = None
    for _, acc in _products(opsums, dim):
        pass
    return acc, complex(dim if acc is None else acc.diagonal().sum())


def ground_space_dimension(h):
    """Multiplicity of the lowest eigenvalue -(term count): the trace of the
    product of the term projectors, verified on random probes to be an exact
    projector onto that eigenspace."""
    dim = _check_budget(h.n, h.lattice.n_sites)
    mats = []
    for mat, proj in _products((t.opsum for t in h.terms), dim):
        mats.append(mat)
    tr = complex(proj.diagonal().sum())
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
        hv = sum(-(m @ pv) for m in mats)
        if np.linalg.norm(hv - (-len(mats)) * pv) > 1e-6 * (1 + np.linalg.norm(pv)):
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
    return vec


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
    vec = basis_state(h.lattice, h.n, seed_digits)
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
    for val in measure_syndrome(h, vec):
        if abs(val - 1.0) > TOL:
            raise AssertionError("constructed state is not a joint +1 eigenstate")
    return vec


def measure_syndrome(h, vec):
    """Expectation value of every term on the state vector, in term order."""
    out = []
    for t in h.terms:
        val = np.vdot(vec, t.opsum.apply(vec))
        if abs(val.imag) > 1e-8:
            raise AssertionError("term expectation unexpectedly complex")
        out.append(float(val.real))
    return out


def apply_pauli_to_state(p, vec):
    from .paulis import apply_pauli

    return apply_pauli(p, vec)
