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
    """Array D of shape (len(sites), n^nsites): D[k, i] = digit of site
    ``sites[k]`` in basis state i (digit d in 0..n-1 stands for level label
    d+1)."""
    table = np.empty((len(sites), n**nsites), dtype=np.int64)
    for row, s in zip(table, sites):
        # in base n, a basis index is (higher digits, digit of s, lower digits)
        row.reshape(n**s, n, -1)[...] = np.arange(n)[:, None]
    return table


def pauli_permutation(p):
    """(row_indices, diagonal_values) realizing the string as a generalized
    permutation matrix: ``M[rows[i], i] = diag[i]``.  Only the digits of the
    supported sites are computed."""
    n, nsites = p.n, p.nsites
    sites = np.flatnonzero(p.x | p.z)
    levels = np.arange(n)
    rows = np.arange(n**nsites)
    # Z part acts first: phase w_n^{sum_s b_s (digit_s + 1)}, as levels run 1..n
    zexp = np.full(len(rows), p.z.sum())
    for s, digits in zip(sites, _digit_table(n, nsites, sites)):
        a, b = p.x[s], p.z[s]
        if a:  # X part shifts the digit: d -> d + a (mod n)
            rows += (((levels + a) % n - levels) * n ** (nsites - 1 - s))[digits]
        if b:
            zexp += (b * levels)[digits]
    roots = np.exp(2j * np.pi * levels / n) * p.phase_factor()
    return rows, roots[zexp % n]


def apply_pauli(p, vec):
    _check_budget(p.n, p.nsites)
    rows, diag = pauli_permutation(p)
    out = np.zeros(len(vec), dtype=complex)
    out[rows] = diag * np.asarray(vec, dtype=complex)
    return out


class OperatorSum:
    """Finite complex-weighted sum of PauliStrings on a common site set."""

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
        self.n = n
        self.nsites = nsites
        self.terms = self._merge(terms)

    @staticmethod
    def _merge(terms):
        acc = {}
        keep = {}
        for c, p in terms:
            key = p.key()
            coeff = complex(c) * p.phase_factor()
            acc[key] = acc.get(key, 0) + coeff
            keep[key] = p
        out = []
        for key, coeff in acc.items():
            if abs(coeff) > 1e-14:
                out.append((coeff, keep[key].with_phase(0)))
        out.sort(key=lambda t: t[1].key())
        return out

    @classmethod
    def identity(cls, n, nsites):
        return cls([(1.0, PauliString.identity(n, nsites))])

    @classmethod
    def from_pauli(cls, p):
        return cls([(1.0, p)])

    def __add__(self, other):
        return OperatorSum(self.terms + other.terms, self.n, self.nsites)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return OperatorSum([(scalar * c, p) for c, p in self.terms], self.n, self.nsites)

    def __mul__(self, other):
        if isinstance(other, OperatorSum):
            prods = [
                (c1 * c2, p1 * p2) for c1, p1 in self.terms for c2, p2 in other.terms
            ]
            return OperatorSum(prods, self.n, self.nsites)
        return NotImplemented

    def is_zero(self, tol=1e-12):
        return all(abs(c) <= tol for c, _ in self.terms)

    def approx_equal(self, other, tol=1e-10):
        return (self - other).is_zero(tol)

    def commutator(self, other):
        return self * other - other * self

    def support(self):
        out = set()
        for _, p in self.terms:
            out.update(p.support())
        return sorted(out)

    def apply(self, vec):
        out = np.zeros(len(vec), dtype=complex)
        for c, p in self.terms:
            out += c * apply_pauli(p, vec)
        return out

    def restrict(self, sites):
        """The same operator rewritten on the given site subset, which must
        contain the support."""
        sites = list(sites)
        pos = {s: i for i, s in enumerate(sites)}
        out = []
        for c, p in self.terms:
            if any(s not in pos for s in p.support()):
                raise ValueError("restriction drops support sites")
            x = np.zeros(len(sites), dtype=np.int64)
            z = np.zeros(len(sites), dtype=np.int64)
            for s in p.support():
                x[pos[s]] = p.x[s]
                z[pos[s]] = p.z[s]
            out.append((c, PauliString(p.n, x, z, p.phase)))
        return OperatorSum(out, self.n, len(sites))

    def sparse_matrix(self):
        """CSR matrix of the sum, built in one pass.  A Pauli term puts one
        entry in each column, at a row fixed by its X exponents alone, so the
        terms that share X exponents are summed, in term order, into one
        entry per column; those entries are stacked column by column as CSC
        arrays."""
        dim = self.n**self.nsites
        _check_nonzeros(dim * len(self.terms))
        by_x = {}
        for c, p in self.terms:
            rows, diag = pauli_permutation(p)
            key = p.x.tobytes()
            if key in by_x:
                by_x[key][1] += c * diag
            else:
                by_x[key] = [rows, c * diag]
        if not by_x:
            return sp.csr_matrix((dim, dim), dtype=complex)
        rows, vals = (np.stack(arrays, axis=1).ravel() for arrays in zip(*by_x.values()))
        mat = sp.csc_matrix((vals, rows, np.arange(dim + 1) * len(by_x)), shape=(dim, dim))
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
        """Exact trace: only exponent-free terms contribute n^nsites each."""
        dim = self.n**self.nsites
        total = 0j
        for c, p in self.terms:
            if not p.x.any() and not p.z.any():
                total += c * p.phase_factor() * dim
        return total

    def __repr__(self):
        return f"OperatorSum({len(self.terms)} terms, n={self.n}, sites={self.nsites})"


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
