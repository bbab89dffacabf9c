"""Generalized Pauli (clock/shift) strings over Z_n with exact phases.

A ``PauliString`` is ``w^phase * prod_s X_s^{a_s} Z_s^{b_s}`` where ``w`` is
a primitive 2n-th root of unity and X is written left of Z on every site.
Exponents live in Z_n (``X^n = Z^n = 1``); the phase exponent lives in
Z_{2n}, which is needed for even n and harmless for odd n.

Basis convention: the n levels of a site are labelled 1..n with ``|0> == |n>``;
``Z|i> = w_n^i |i>`` and ``X|i> = |i+1 mod n>``.  Dense realizations order
the local basis |1>, ..., |n> and take site 0 as the most significant digit.

Reordering rule: ``Z^b X^a = w_n^{a b} X^a Z^b``.
"""

from __future__ import annotations

import cmath
import functools
import re

import numpy as np
import scipy.sparse as sp

from .oracle import _check_budget, _check_nonzeros


class PauliString:
    """Immutable clock/shift string on a fixed number of sites."""

    __slots__ = ("n", "x", "z", "phase")

    def __init__(self, n, x, z, phase=0):
        if n < 2:
            raise ValueError("qudit dimension must be >= 2")
        x = np.asarray(x, dtype=np.int64) % n
        z = np.asarray(z, dtype=np.int64) % n
        if x.shape != z.shape or x.ndim != 1:
            raise ValueError("x/z exponent vectors must be 1-d and equal length")
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phase", int(phase) % (2 * n))

    def __setattr__(self, name, value):
        raise AttributeError("PauliString is immutable")

    @property
    def nsites(self):
        return len(self.x)

    @classmethod
    def identity(cls, n, nsites):
        return cls(n, np.zeros(nsites, dtype=np.int64), np.zeros(nsites, dtype=np.int64))

    @classmethod
    def from_ops(cls, n, nsites, x_at=None, z_at=None, phase=0):
        """Build from sparse {site_index: exponent} maps."""
        x = np.zeros(nsites, dtype=np.int64)
        z = np.zeros(nsites, dtype=np.int64)
        for s, a in (x_at or {}).items():
            x[s] += a
        for s, b in (z_at or {}).items():
            z[s] += b
        return cls(n, x, z, phase)

    # -- algebra ---------------------------------------------------------

    def _check_compatible(self, other):
        if self.n != other.n or self.nsites != other.nsites:
            raise ValueError("dimension or site-count mismatch")

    def __mul__(self, other):
        """Canonical-form product; moving Z past X costs w_n^{a_q b_p} per site."""
        self._check_compatible(other)
        cross = int(np.dot(other.x, self.z)) % self.n
        return PauliString(
            self.n,
            self.x + other.x,
            self.z + other.z,
            self.phase + other.phase + 2 * cross,
        )

    def inverse(self):
        inv = PauliString(self.n, -self.x, -self.z, 0)
        residue = (self * inv).phase
        return PauliString(self.n, -self.x, -self.z, -residue)

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return self.inverse() ** (-k)
        acc = PauliString.identity(self.n, self.nsites)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def with_phase(self, phase):
        return PauliString(self.n, self.x, self.z, phase)

    def is_identity(self):
        return not self.x.any() and not self.z.any() and self.phase == 0

    def phase_factor(self):
        """The complex value of w_{2n}^phase."""
        return cmath.exp(1j * cmath.pi * self.phase / self.n)

    def key(self):
        """Hashable exponent key ignoring the phase."""
        return (self.x.tobytes(), self.z.tobytes())

    def __eq__(self, other):
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.n == other.n
            and self.phase == other.phase
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self):
        return hash((self.n, self.phase, self.key()))

    def support(self):
        return sorted(set(np.nonzero(self.x)[0]) | set(np.nonzero(self.z)[0]))

    def __repr__(self):
        return f"PauliString(n={self.n}, x={self.x.tolist()}, z={self.z.tolist()}, w^{self.phase})"


def symplectic_phase(p, q):
    """Exponent c with ``q p = w_n^c p q``; zero iff p and q commute."""
    p._check_compatible(q)
    return int(np.dot(p.x, q.z) - np.dot(p.z, q.x)) % p.n


# -- dense / sparse realization and state application ------------------------


def _digit_table(n, nsites, sites):
    """Per basis state, its digits on ``sites`` read as one base-n number, the
    first site most significant (digit d in 0..n-1 stands for level label
    d+1).  The number is formed on a grid with one axis per site, of length n
    on the given sites and 1 elsewhere, and spread over the basis once."""
    code = np.zeros((1,) * nsites, dtype=np.int64)
    for k, s in enumerate(sites):
        axis = [1] * nsites
        axis[s] = n
        code = code + (np.arange(n) * n ** (len(sites) - 1 - k)).reshape(axis)
    return np.broadcast_to(code, (n,) * nsites).ravel()


def pauli_permutation(p):
    """(row_indices, diagonal_values) realizing the string as a generalized
    permutation matrix: ``M[rows[i], i] = diag[i]``."""
    return next(OperatorSum.from_pauli(p)._columns())


def apply_pauli(p, vec):
    _check_budget(p.n, p.nsites)
    rows, diag = pauli_permutation(p)
    out = np.zeros(len(vec), dtype=complex)
    out[rows] = diag * np.asarray(vec, dtype=complex)
    return out


def _phase_roots(n):
    """``w^k`` for k in 0..2n-1, each computed as ``PauliString.phase_factor``."""
    return np.array([cmath.exp(1j * cmath.pi * k / n) for k in range(2 * n)])


def _cmul(a, b):
    """Complex ``a * b`` with every real product and sum rounded on its own,
    as Python's complex multiplication does; numpy's vector loops may fuse
    them, which would change coefficients in the last bit."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class OperatorSum:
    """Finite complex-weighted sum of PauliStrings on a common site set.

    Stored as packed arrays: ``coeffs`` (T,) complex and the exponents ``x``,
    ``z`` (T, nsites) int64, views of one (T, 2 nsites) array.  Each row is a
    distinct Pauli with its phase folded into the coefficient; rows with
    ``|c| <= 1e-14`` are dropped and the rest are sorted by
    ``(x.tobytes(), z.tobytes())``.  ``terms`` lists them as
    ``(coeff, PauliString)`` pairs, built on first read.
    """

    def __init__(self, terms, n=None, nsites=None):
        terms = list(terms)
        if terms:
            n = terms[0][1].n
            nsites = terms[0][1].nsites
        if n is None or nsites is None:
            raise ValueError("empty OperatorSum needs explicit n and nsites")
        for _, p in terms:
            if p.n != n or p.nsites != nsites:
                raise ValueError("mixed dimensions in OperatorSum")
        coeffs = np.array([complex(c) * p.phase_factor() for c, p in terms], dtype=complex)
        xz = np.array([np.concatenate((p.x, p.z)) for _, p in terms], dtype=np.int64)
        self._merge(n, nsites, coeffs, xz.reshape(len(terms), 2 * nsites))

    @classmethod
    def _from_arrays(cls, n, nsites, coeffs, xz, cols=None):
        out = cls.__new__(cls)
        out._merge(n, nsites, coeffs, xz, cols)
        return out

    def _merge(self, n, nsites, coeffs, xz, cols=None):
        """Sum the coefficients of equal ``[x|z]`` rows in input order and keep
        the rows above the cut-off, sorted by their bytes.  ``xz`` holds the
        columns ``cols`` of the packed rows (all of them by default); every
        other column is zero."""
        if cols is None:
            cols = np.flatnonzero(xz.any(axis=0))
            xz = xz[:, cols]
        if not len(cols):  # a key needs a column: take column 0, zero in every row
            cols, xz = np.zeros(1, dtype=np.int64), np.zeros((len(coeffs), 1), dtype=np.int64)
        # a void item compares by its bytes, as (x.tobytes(), z.tobytes()) do:
        # the columns left out are equal in every row
        xz = np.ascontiguousarray(xz, dtype=np.int64)
        keys = xz.view(np.dtype((np.void, xz.itemsize * len(cols)))).ravel()
        unique, inverse = np.unique(keys, return_inverse=True)
        re = np.bincount(inverse, coeffs.real, len(unique))
        im = np.bincount(inverse, coeffs.imag, len(unique))
        keep = np.hypot(re, im) > 1e-14  # np.abs may round |c| differently from abs()
        self.n = n
        self.nsites = nsites
        self.coeffs = np.empty(np.count_nonzero(keep), dtype=complex)
        self.coeffs.real = re[keep]
        self.coeffs.imag = im[keep]
        self.coeffs.setflags(write=False)
        self._xz = np.zeros((len(self.coeffs), 2 * nsites), dtype=np.int64)
        self._xz[:, cols] = unique.view(np.int64).reshape(len(unique), len(cols))[keep]
        self._xz.setflags(write=False)
        self.x = self._xz[:, :nsites]
        self.z = self._xz[:, nsites:]

    @functools.cached_property
    def terms(self):
        """The rows as ``(coeff, PauliString)`` pairs, phase 0 each."""
        return [
            (c, PauliString(self.n, x, z))
            for c, x, z in zip(self.coeffs.tolist(), self.x, self.z)
        ]

    @classmethod
    def identity(cls, n, nsites):
        return cls([(1.0, PauliString.identity(n, nsites))])

    @classmethod
    def from_pauli(cls, p):
        return cls([(1.0, p)])

    def _check_compatible(self, other):
        if (self.n, self.nsites) != (other.n, other.nsites):
            raise ValueError("dimension or site-count mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        return OperatorSum._from_arrays(
            self.n,
            self.nsites,
            np.concatenate((self.coeffs, other.coeffs)),
            np.concatenate((self._xz, other._xz)),
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return OperatorSum._from_arrays(
            self.n, self.nsites, _cmul(complex(scalar), self.coeffs), self._xz
        )

    def __mul__(self, other):
        """All pairwise products at once: moving ``Z^{z1}`` past ``X^{x2}``
        costs ``w_n^{z1 . x2}``, i.e. phase ``2 (z1 . x2)`` in units of w."""
        if not isinstance(other, OperatorSum):
            return NotImplemented
        self._check_compatible(other)
        n = self.n
        cross = (self.z @ other.x.T) % n
        coeffs = _cmul(_cmul(self.coeffs[:, None], other.coeffs[None, :]), _phase_roots(n)[2 * cross])
        cols = np.flatnonzero(self._xz.any(axis=0) | other._xz.any(axis=0))
        xz = (self._xz[:, None, cols] + other._xz[None, :, cols]) % n
        return OperatorSum._from_arrays(
            n, self.nsites, coeffs.ravel(), xz.reshape(coeffs.size, len(cols)), cols
        )

    def is_zero(self, tol=1e-12):
        return bool(np.all(np.hypot(self.coeffs.real, self.coeffs.imag) <= tol))

    def approx_equal(self, other, tol=1e-10):
        return (self - other).is_zero(tol)

    def commutator(self, other):
        return self * other - other * self

    def support(self):
        return np.flatnonzero((self.x | self.z).any(axis=0)).tolist()

    def apply(self, vec):
        _check_budget(self.n, self.nsites)
        vec = np.asarray(vec, dtype=complex)
        out = np.zeros(len(vec), dtype=complex)
        for rows, values in self._columns():
            out[rows] += values * vec
        return out

    def restrict(self, sites):
        """The same operator rewritten on the given site subset, which must
        contain the support."""
        sites = list(sites)
        if not set(self.support()) <= set(sites):
            raise ValueError("restriction drops support sites")
        cols = np.array(sites, dtype=np.int64)
        xz = np.hstack((self.x[:, cols], self.z[:, cols]))
        return OperatorSum._from_arrays(self.n, len(sites), self.coeffs, xz)

    @functools.cached_property
    def _local(self):
        """The sum realized on the n^S configurations of the S sites where
        some term has a nonzero exponent: those sites, and per run of adjacent
        terms with equal X exponents the basis-index shift and the value of
        the run at each configuration, its terms' values added in term
        order."""
        n, nsites = self.n, self.nsites
        sites = np.flatnonzero((self.x | self.z).any(axis=0))
        local = np.indices((n,) * len(sites)).reshape(len(sites), n ** len(sites))
        # X^a takes digit d of site s to (d + a) mod n, which moves the basis
        # index by the digit's change times n^(nsites-1-s)
        place = n ** (nsites - 1 - sites)
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        # Z acts first: phase w_n^{sum_s b_s (digit_s + 1)}, as levels run 1..n
        zsum = self.z.sum(axis=1)
        x, z = self.x[:, sites], self.z[:, sites]
        first = np.ones(len(x), dtype=bool)  # first term of a run
        first[1:] = (x[1:] != x[:-1]).any(axis=1)
        starts = np.flatnonzero(first)
        runs = []
        for start, stop in zip(starts, np.r_[starts[1:], len(x)]):
            shift = place @ ((local + x[start][:, None]) % n - local)
            values = self.coeffs[start] * roots[(zsum[start] + z[start] @ local) % n]
            for t in range(start + 1, stop):
                values += self.coeffs[t] * roots[(zsum[t] + z[t] @ local) % n]
            runs.append((shift, values))
        return sites, runs

    def _columns(self):
        """Yield ``(rows, values)`` per run of terms with equal X exponents:
        the run's matrix is ``M[rows[i], i] = values[i]``.  A Pauli term puts
        one entry in each column, at a row fixed by its X exponents alone."""
        sites, runs = self._local
        code = _digit_table(self.n, self.nsites, sites)
        base = np.arange(self.n**self.nsites)
        for shift, values in runs:
            yield base + shift[code], values[code]

    def sparse_matrix(self):
        """CSR matrix of the sum, built in one pass: the entries of the runs
        of ``_columns()`` are stacked column by column as CSC arrays."""
        dim = self.n**self.nsites
        _check_nonzeros(dim * len(self.coeffs))
        groups = list(self._columns())
        if not groups:
            return sp.csr_matrix((dim, dim), dtype=complex)
        rows, vals = (np.stack(arrays, axis=1).ravel() for arrays in zip(*groups))
        mat = sp.csc_matrix((vals, rows, np.arange(dim + 1) * len(groups)), shape=(dim, dim))
        mat.eliminate_zeros()
        return mat.tocsr()

    def dense_matrix(self, max_entries=2**26):
        dim = self.n**self.nsites
        if dim * dim > max_entries:
            raise MemoryError(
                f"dense matrix of dimension {dim} exceeds the entry budget"
            )
        return self.sparse_matrix().toarray()

    def trace(self):
        """Exact trace: only the exponent-free row contributes, n^nsites times
        its coefficient."""
        identity_row = ~self._xz.any(axis=1)
        return complex(self.coeffs[identity_row].sum()) * self.n**self.nsites

    def __repr__(self):
        return f"OperatorSum({len(self.coeffs)} terms, n={self.n}, sites={self.nsites})"


def to_matrix(obj, max_entries=2**26):
    """Dense complex matrix of a PauliString or OperatorSum."""
    if isinstance(obj, PauliString):
        obj = OperatorSum.from_pauli(obj)
    return obj.dense_matrix(max_entries=max_entries)


# -- text syntax --------------------------------------------------------------


class PauliParseError(ValueError):
    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


_PHASE_RE = re.compile(r"^w(?:\^(-?\d+))?$")
_OP_RE = re.compile(r"^([XZ])(?:\^(-?\d+))?@\((-?\d+),(-?\d+)\)\.([WNES])$")


def pauli_from_text(text, lat, n):
    """Parse e.g. ``"w^3 X^2@(0,1).N Z@(1,0).E"`` into a PauliString.

    Tokens are whitespace separated; an optional leading ``w^k`` sets the
    phase exponent (mod 2n); exponent ``^1`` may be omitted.
    """
    x = np.zeros(lat.n_sites, dtype=np.int64)
    z = np.zeros(lat.n_sites, dtype=np.int64)
    phase = 0
    col = 0
    first = True
    for token in text.split():
        col = text.index(token, col)
        m = _PHASE_RE.match(token)
        if m:
            if not first:
                raise PauliParseError("phase token must come first", col + 1)
            phase = int(m.group(1) or 1)
            first = False
            col += len(token)
            continue
        m = _OP_RE.match(token)
        if not m:
            raise PauliParseError(f"bad token {token!r}", col + 1)
        kind, exp, sx, sy, d = m.groups()
        try:
            idx = lat.site_index((int(sx), int(sy), d))
        except KeyError:
            raise PauliParseError(f"no such site ({sx},{sy}).{d}", col + 1) from None
        e = int(exp) if exp is not None else 1
        if kind == "X":
            x[idx] += e
        else:
            z[idx] += e
        first = False
        col += len(token)
    return PauliString(n, x, z, phase)


def pauli_to_text(p, lat):
    """Inverse of :func:`pauli_from_text`; sites appear in index order."""
    parts = []
    if p.phase:
        parts.append(f"w^{p.phase}")
    sites = lat.sites()
    for idx in range(p.nsites):
        for kind, exps in (("X", p.x), ("Z", p.z)):
            e = int(exps[idx])
            if e:
                suffix = "" if e == 1 else f"^{e}"
                parts.append(f"{kind}{suffix}@{sites[idx]}")
    return " ".join(parts) if parts else "I"
