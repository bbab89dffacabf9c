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

The product is formed on a sector S of the basis only.  A term's x-free
rows sum to a diagonal d, evaluated on the term's local configurations.  The
term confines S to the states where d != 0 when (a) each x-free row commutes
with every row of every term, and (b) the term is zero on every column where
d = 0.  Then the projector D onto d != 0 commutes with every term and
D P = P D = P for the product P, so Tr P = Tr (D P D), exactly, for any
list of OperatorSums; a term that fails (a) or (b) confines nothing.  S is
found by evaluating the terms, never from the stabilizer engine, and is
enumerated by joining the terms' allowed local configurations, so only an S
that is the whole basis takes an array of all n^sites states.  On m1
torus:2x2, S holds 512 of 65,536 states.

Matrices are realized from phases that ``paulis._roots`` makes exact where
they can be: for n = 2, and for n = 4 projectors, every root of unity is
exactly +-1 or +-i, so projector cancellations are exact zeros and the
running product stores only its true nonzeros: on m1 torus:2x2 at most
8,192, its final count, and on the 8,192-state sector of m1 torus:3x2 at
most 524,288.  No tolerance cut is applied to the matrices; for other n the
entries carry ordinary round-off.  The count logs its sector size, the
running product's peak nonzeros and its largest probe residual at DEBUG
level on the ``gtoric.oracle`` logger.

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

import logging
import os

import numpy as np

DEFAULT_BUDGET = 2**24
# every count takes the projector trace; the name stays because the benchmark
# tracer labels a count of at most this many amplitudes the eigensolve path,
# so 0 labels every count the trace path
DENSE_EIG_DIM = 0
TOL = 1e-10

log = logging.getLogger(__name__)


class BudgetExceededError(MemoryError):
    pass


class InvalidBudgetError(ValueError):
    pass


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
    from .paulis import _digit_table

    if not opsums:
        return None
    n, nsites = opsums[0].n, opsums[0].nsites
    shifts = np.unique(np.concatenate([op.x for op in opsums]), axis=0)
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
        states = states[keep[_digit_table(n, nsites, sites, states)]]
    return np.sort(spread(states, np.flatnonzero(~covered)))


def _products(opsums, dim):
    """Each OperatorSum's sparse matrix on the sector of ``_sector`` (all
    ``dim`` amplitudes if nothing constrains it), with the running product of
    the matrices so far, checked against the budget before each is
    realized."""
    opsums = list(opsums)
    states = _sector(opsums)
    size = dim if states is None else len(states)
    acc = None
    for op in opsums:
        # each Pauli term of op puts at most one nonzero in a column
        _check_nonzeros((size if acc is None else acc.nnz) * len(op.coeffs))
        mat = op.sparse_matrix(states)
        acc = mat if acc is None else acc @ mat
        yield mat, acc


def _product_trace(opsums, dim):
    """Sparse matrix of the ordered product of OperatorSums on their sector
    (None if there are none) and its trace."""
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
    peak = 0
    for mat, proj in _products((t.opsum for t in h.terms), dim):
        mats.append(mat)
        peak = max(peak, proj.nnz)
    tr = complex(proj.diagonal().sum())
    count = int(round(tr.real))
    if abs(tr - count) > 1e-6:
        raise AssertionError(f"projector trace {tr} is not an integer")
    # verify idempotence and the eigenspace property on random probes; a
    # residual is relative to 1 + |Pv| and must stay within 1e-6
    rng = np.random.default_rng(7)
    residual = 0.0
    for _ in range(3):
        v = rng.normal(size=proj.shape[0]) + 1j * rng.normal(size=proj.shape[0])
        pv = proj @ v
        scale = 1 + np.linalg.norm(pv)
        idem = np.linalg.norm(proj @ pv - pv) / scale
        if idem > 1e-6:
            raise AssertionError("term product is not a projector")
        hv = sum(-(m @ pv) for m in mats)
        eigen = np.linalg.norm(hv - (-len(mats)) * pv) / scale
        if eigen > 1e-6:
            raise AssertionError("projector image is not the lowest eigenspace")
        residual = max(residual, idem, eigen)
    stats = {"sector": proj.shape[0], "states": dim, "peak_nnz": peak, "residual": residual}
    log.debug(
        "ground_space_dimension: sector %(sector)d of %(states)d states, peak product "
        "nnz %(peak_nnz)d, largest probe residual %(residual).3g",
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


def apply_pauli_to_state(p, vec):
    from .paulis import apply_pauli

    return apply_pauli(p, vec)
