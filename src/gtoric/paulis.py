"""Generalized Pauli (clock/shift) strings over Z_n with exact phases.

A ``PauliString`` is ``w^phase * prod_s X_s^{a_s} Z_s^{b_s}`` where ``w`` is
a primitive 2n-th root of unity and X is written left of Z on every site.
Exponents live in Z_n (``X^n = Z^n = 1``); the phase exponent lives in
Z_{2n}, which is needed for even n and harmless for odd n.

Basis convention: the n levels of a site are labelled 1..n with ``|0> == |n>``;
``Z|i> = w_n^i |i>`` and ``X|i> = |i+1 mod n>``.  Dense realizations order
the local basis |1>, ..., |n> and take site 0 as the most significant digit.

Reordering rule: ``Z^b X^a = w_n^{a b} X^a Z^b``.

Every phase value comes from one table of roots of unity, :func:`_roots`.
A part of a root that is rational is stored exactly, and the m-th roots for
m = 1, 2, 4 are exactly +-1 or +-i.  So for n = 2 every phase is exact, and
for n = 4 every clock eigenvalue and projector coefficient is.  Projector
cancellations then come out as exact zeros, with no tolerance cut, and a
realized matrix stores only its true nonzeros.  Elsewhere the irrational
parts carry the usual round-off.

Realizations read the basis digits of the states they act on in one way,
:func:`_digit_table` over given state indices; a full-basis realization
passes every index.  A realized sum is ``linalg.Entries`` with complex
values, the package's one sparse form.  The memory budget lives here, as
the lowest module that allocates against it: ``budget()`` caps basis
amplitudes and stored nonzeros (the environment variable ``GTORIC_BUDGET``
overrides the default of 2**24), and :mod:`gtoric.oracle` and
:mod:`gtoric.catalog` check against it through this module.
"""

from __future__ import annotations

import functools
import os
import re

import numpy as np

from . import linalg

DEFAULT_BUDGET = 2**24


class BudgetExceededError(MemoryError):
    pass


class InvalidBudgetError(ValueError):
    pass


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
        """``self ** -1``."""
        return self ** -1

    def __pow__(self, k):
        """``w^{k phase + k(k-1) x.z} X^{kx} Z^{kz}`` for every integer k:
        each of the k(k-1)/2 reorderings of a Z^z past an X^x costs
        ``w_n^{x.z}``, i.e. phase ``2 x.z`` in units of w."""
        k = int(k) % (2 * self.n)  # p^{2n} = I, and a small k keeps k x in int64
        return PauliString(self.n, k * self.x, k * self.z, k * self.phase + k * (k - 1) * int(self.x @ self.z))

    def is_identity(self):
        return not self.x.any() and not self.z.any() and self.phase == 0

    def phase_factor(self):
        """The complex value of w_{2n}^phase."""
        return complex(_roots(2 * self.n)[self.phase])

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


def order_divides_n(s):
    """Whether ``s^n = w^(n phase + n(n-1) x.z) I`` is I: ``phase + (n-1) x.z`` is even."""
    return (s.phase + (s.n - 1) * int(s.x @ s.z)) % 2 == 0


class PauliTable:
    """Generator strings over Z_n as one exponent table, stored as its
    nonzero entries.

    ``x`` holds the X exponents of each generator that is not pure Z (an
    identity counts as pure X), and ``z`` the Z exponents of each generator
    with a Z part, each part as one ``linalg.Entries`` with a row per such
    generator; ``x_gens`` and ``z_gens`` name the generator of each row.
    Entries are reduced mod n and in row-major order, ``phase`` is mod 2n,
    and every array is read-only.  A CSS table, where no generator has both
    parts, stores each generator once: its X block is ``x`` and its Z block
    ``z``.  ``strings()`` builds the generators' strings on each call.

    The table is written from placements: per part a triple of equal-length
    arrays (generator, site, exponent), naming each site of a generator at
    most once.
    """

    def __init__(self, n, nsites, count, xs, zs, phase=None):
        self.n, self.nsites = n, nsites
        has_x, has_z = np.zeros((2, count), dtype=bool)
        has_x[xs[0]] = True
        has_z[zs[0]] = True
        parts = []
        for (gen, site, exp), keep in ((xs, has_x | ~has_z), (zs, has_z)):
            gens = np.flatnonzero(keep)
            row = np.cumsum(keep) - 1  # the part row of each generator that has one
            value = exp % n
            nonzero = value != 0
            r, c, value = row[gen[nonzero]], site[nonzero], value[nonzero]
            order = np.argsort(r * nsites + c, kind="stable")
            parts += [gens, linalg.Entries((len(gens), nsites), r[order], c[order], value[order])]
        self.x_gens, self.x, self.z_gens, self.z = parts
        phase = np.zeros(count, dtype=np.int64) if phase is None else np.asarray(phase, dtype=np.int64)
        self.phase = phase % (2 * n)
        for a in (self.x_gens, self.z_gens, *self.x[1:], *self.z[1:], self.phase):
            a.setflags(write=False)

    @classmethod
    def from_strings(cls, n, nsites, strings):
        """Table of the given strings, their nonzero exponents placed once."""
        placements = []
        for part in ([s.x for s in strings], [s.z for s in strings]):
            rows = np.array(part, dtype=np.int64).reshape(len(strings), nsites)
            gen, site = np.nonzero(rows)
            placements.append((gen, site, rows[gen, site]))
        return cls(n, nsites, len(strings), *placements, [s.phase for s in strings])

    def __len__(self):
        return len(self.phase)

    @property
    def css(self):
        """Whether every generator is pure X or pure Z: none has rows in both parts."""
        return len(self.x_gens) + len(self.z_gens) == len(self)

    def strings(self):
        """Each generator as a PauliString, scattered from the entries on each call."""
        xz = np.zeros((2, len(self), self.nsites), dtype=np.int64)
        for rows, (gen, site, exp) in zip(xz, self.part_entries):
            rows[gen, site] = exp
        return [PauliString(self.n, x, z, p) for x, z, p in zip(xz[0], xz[1], self.phase.tolist())]

    @functools.cached_property
    def part_entries(self):
        """The nonzero exponents of ``x`` and of ``z``, each part as
        (generator, site, exponent) arrays: ``(x_entries, z_entries)``."""
        return tuple((gens[e.row], e.col, e.value) for gens, e in ((self.x_gens, self.x), (self.z_gens, self.z)))

    def entries(self):
        """The nonzero exponents as (generator, column of ``[x|z]``,
        exponent) arrays, ordered by generator, and within one by part."""
        (xg, xc, xv), (zg, zc, zv) = self.part_entries
        gen = np.concatenate((xg, zg))
        order = np.argsort(gen, kind="stable")  # the x columns of a generator come first
        return gen[order], np.concatenate((xc, zc + self.nsites))[order], np.concatenate((xv, zv))[order]

    def order_divides_n(self):
        """Per generator, :func:`order_divides_n` of its string, with ``x.z``
        summed over the sites where its x and z entries meet."""
        (xg, xs, xv), (zg, zs, zv) = self.part_entries
        keys = (xg * self.nsites + xs, zg * self.nsites + zs)  # (generator, site), unique within a part
        _, i, j = np.intersect1d(*keys, assume_unique=True, return_indices=True)
        xz = np.zeros(len(self), dtype=np.int64)
        np.add.at(xz, xg[i], xv[i] * zv[j])
        return (self.phase + (self.n - 1) % 2 * (xz % 2)) % 2 == 0


# -- dense and entries realization, and state application --------------------


def _digit_table(n, nsites, sites, states):
    """Per basis state index in ``states``, its digits on ``sites`` read as
    one base-n number, the first site most significant (digit d in 0..n-1
    stands for level label d+1), read off the indices site by site.  A
    full-basis realization passes all n^nsites indices."""
    code = np.zeros(len(states), dtype=np.int64)
    for s in sites:
        code = code * n + states // n ** (nsites - 1 - s) % n
    return code


def pauli_permutation(p):
    """(row_indices, diagonal_values) realizing the string as a generalized
    permutation matrix: ``M[rows[i], i] = diag[i]``.  The package no longer
    calls it; ``perfbench/spans.py`` traces it by name."""
    return next(OperatorSum.from_pauli(p)._columns())


def clock_exponents(n, z):
    """``sum_s z_s (d_s + 1) mod n`` over the sites where z is nonzero, for
    digits d_s in 0..n-1 (levels 1..n): an array with an axis of length n on
    each of those sites and of length 1 on every other, which broadcasts
    over a state viewed as an ``(n,) * nsites`` array.  It is built one
    supported site at a time, so it never holds more than its n^support
    entries."""
    exps = z.tolist()
    levels = np.arange(1, n + 1)
    out = np.zeros((), dtype=np.int64)
    for e in exps:
        if e:
            out = out[..., None] + e * levels
    return (out % n).reshape([n if e else 1 for e in exps])


def power_action(p, j, coeff=1.0):
    """``coeff * p^j`` prepared for :func:`act` as ``(weights, shifts,
    axes)``.  For the power ``p ** j = w^phase X^x Z^z``, Z acts first, so
    the global phase and the clock phases ``w_n^{z_s (d_s + 1)}`` form one
    array over the Z support, and X^x rolls each X support axis by ``x_s``.
    ``act`` rolls the state before it multiplies, so the phases are rolled
    alike."""
    q = p**j
    n = q.n
    weights = coeff * _roots(2 * n)[(q.phase + 2 * clock_exponents(n, q.z)) % (2 * n)]
    shift = q.x.tolist()
    axes = tuple(a for a, e in enumerate(shift) if e)
    shifts = tuple(shift[a] for a in axes)
    if any(weights.shape[a] > 1 for a in axes):  # the phases meet the X support
        weights = np.roll(weights, shifts, axes)
    return weights, shifts, axes


def act(action, state):
    """A power prepared by :func:`power_action` applied to a state viewed as
    an ``(n,) * nsites`` array: one ``np.roll`` over the X support axes into
    a new array, which the phases then multiply in place."""
    weights, shifts, axes = action
    out = np.roll(state, shifts, axes)
    out *= weights
    return out


def apply_pauli(p, vec):
    """The string applied to a state vector: the power-1 case of :func:`act`."""
    _check_budget(p.n, p.nsites)
    state = np.asarray(vec, dtype=complex).reshape((p.n,) * p.nsites)
    return act(power_action(p, 1), state).ravel()


@functools.lru_cache(maxsize=None)
def _roots(m):
    """The m-th roots of unity ``exp(2 pi i k / m)``, k = 0..m-1, read-only.

    Each angle is split exactly into quarter turns, which multiply by a power
    of i, and a rest; a rest above an eighth turn is measured back from the
    next quarter turn, so ``exp`` only ever sees angles in [0, pi/4].  Hence
    ``r[m-k]`` is exactly ``conj(r[k])``, and for m | 4 every root is exactly
    +-1 or +-i.  A real or imaginary part within 1e-15 of 0, +-1/2 or +-1
    is then set to that value: by Niven's theorem these are the only rational
    values the cosine or sine of a rational multiple of pi takes."""
    quarter, rest = np.divmod(4 * np.arange(m), m)  # 2 pi k/m = quarter pi/2 + rest pi/(2m)
    far = 2 * rest > m
    roots = np.exp(0.5j * np.pi * np.where(far, m - rest, rest) / m)
    roots[far] = 1j * np.conj(roots[far])  # exp(i(pi/2 - a)) = i conj(exp(ia))
    roots[2 * rest == m] = np.sqrt(0.5) * (1 + 1j)  # an eighth turn, its parts equal
    roots *= np.array([1, 1j, -1, -1j])[quarter]
    parts = roots.view(np.float64)
    for value in (0.0, 0.5, -0.5, 1.0, -1.0):
        parts[np.abs(parts - value) < 1e-15] = value
    roots.setflags(write=False)
    return roots


@functools.lru_cache(maxsize=None)
def _word_places(n):
    """The place values ``n^(k-1), ..., n, 1`` of one int64 key word, read-only:
    k is the most base-n digits with n^k < 2^63."""
    k = 1
    while n ** (k + 1) < 2**63:
        k += 1
    places = np.array([n**e for e in range(k - 1, -1, -1)], dtype=np.int64)
    places.setflags(write=False)
    return places


def _cross(a, b, n):
    """``a @ b.T mod n``, summed over the columns where both are nonzero."""
    both = np.flatnonzero(a.any(axis=0) & b.any(axis=0))
    return a[:, both] @ b[:, both].T % n


def _cmul(a, b):
    """Complex ``a * b`` with every real product and sum rounded on its own,
    as Python's complex multiplication does; numpy's vector loops may fuse
    them, which would change coefficients in the last bit."""
    a, b = np.asarray(a), np.asarray(b)
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _pair_rows(n, ca, a, cb, b, weights):
    """The rows ``a + b`` (mod n) of every pair of a row of ``a`` and a row
    of ``b``, two exponent arrays on the same columns, with coefficient
    ``(c_a c_b) weights[a, b]``, in row-major order of the pairs: the row
    arithmetic of every product of sums."""
    coeffs = _cmul(_cmul(ca[:, None], cb[None, :]), weights)
    xz = a[:, None] + b[None, :]
    np.subtract(xz, n, out=xz, where=xz >= n)  # both terms lie in 0..n-1
    return coeffs.ravel(), xz.reshape(coeffs.size, a.shape[1])


class OperatorSum:
    """Finite complex-weighted sum of PauliStrings on a common site set.

    Stored as packed arrays: ``coeffs`` (T,) complex and the exponents ``x``,
    ``z`` (T, nsites) int64, views of one (T, 2 nsites) array.  Each row is a
    distinct Pauli with its phase folded into the coefficient; rows with
    ``|c| <= 1e-14`` are dropped and the rest are sorted in lexicographic
    order of their ``[x|z]`` exponents.  Every operation (sum, difference,
    product, commutator, scaling, and ``product_of_rows``, the product of
    several sums given by their rows) forms its rows in one pass and merges
    them once.  ``terms`` lists them as ``(coeff, PauliString)`` pairs, built on
    first read.
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
        the rows above the cut-off, in lexicographic order of their exponents.
        ``xz`` holds the columns ``cols`` of the packed rows (all of them by
        default), reduced mod n; every other column is zero.

        A row's key is its entries read as base-n digits, the first column
        most significant, packed into int64 words of as many digits as keep
        n^k below 2^63.  The first word is ranked by one ``unique``; each
        further word with rank r refines the rank to ``rank * (r.max() + 1) +
        r``, ranked again.  The ranks follow the lexicographic order of the
        rows, and each distinct row is recovered by scattering the rows onto
        their ranks.  The zero sum, given by no rows, has nothing to rank."""
        if n < 2:
            raise ValueError("qudit dimension must be >= 2")
        if not len(coeffs):
            self._store(n, nsites, np.zeros(0, dtype=complex), np.zeros((0, 2 * nsites), dtype=np.int64))
            return
        if cols is None:
            cols = np.flatnonzero(xz.any(axis=0))
            xz = xz[:, cols]
        inverse = np.zeros(len(coeffs), dtype=np.int64)
        size = min(len(coeffs), 1)  # no column: every row is the identity
        places = _word_places(n)
        for start in range(0, len(cols), len(places)):
            digits = xz[:, start : start + len(places)]
            values, rank = np.unique(digits @ places[len(places) - digits.shape[1] :], return_inverse=True)
            if start:
                rank = inverse * len(values) + rank
                values, rank = np.unique(rank, return_inverse=True)
            size, inverse = len(values), rank
        rows = np.empty((size, len(cols)), dtype=np.int64)
        rows[inverse] = xz
        re = np.bincount(inverse, coeffs.real, size)
        im = np.bincount(inverse, coeffs.imag, size)
        keep = np.hypot(re, im) > 1e-14  # np.abs may round |c| differently from abs()
        coeffs = np.empty(np.count_nonzero(keep), dtype=complex)
        coeffs.real = re[keep]
        coeffs.imag = im[keep]
        xz = np.zeros((len(coeffs), 2 * nsites), dtype=np.int64)
        xz[:, cols] = rows[keep]
        self._store(n, nsites, coeffs, xz)

    def _store(self, n, nsites, coeffs, xz):
        """Keep merged rows, read-only, with ``x`` and ``z`` as views of ``xz``."""
        coeffs.setflags(write=False)
        xz.setflags(write=False)
        self.n = n
        self.nsites = nsites
        self.coeffs = coeffs
        self._xz = xz
        self.x = xz[:, :nsites]
        self.z = xz[:, nsites:]

    @functools.cached_property
    def terms(self):
        """The rows as ``(coeff, PauliString)`` pairs, phase 0 each."""
        return [
            (c, PauliString(self.n, x, z))
            for c, x, z in zip(self.coeffs.tolist(), self.x, self.z)
        ]

    @classmethod
    def identity(cls, n, nsites):
        xz = np.zeros((1, 2 * nsites), dtype=np.int64)
        return cls._from_arrays(n, nsites, np.ones(1, dtype=complex), xz)

    @classmethod
    def from_pauli(cls, p):
        coeffs = np.array([p.phase_factor()])
        return cls._from_arrays(p.n, p.nsites, coeffs, np.concatenate((p.x, p.z))[None])

    def _check_compatible(self, other):
        if (self.n, self.nsites) != (other.n, other.nsites):
            raise ValueError("dimension or site-count mismatch")

    def __add__(self, other):
        return self._stack(other, other.coeffs)

    def __sub__(self, other):
        return self._stack(other, -other.coeffs)  # negation is exact

    def _stack(self, other, coeffs):
        """The rows of self and of other, the latter with ``coeffs``, merged once."""
        self._check_compatible(other)
        return OperatorSum._from_arrays(
            self.n,
            self.nsites,
            np.concatenate((self.coeffs, coeffs)),
            np.concatenate((self._xz, other._xz)),
        )

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
        return self._pair_product(other, _roots(2 * self.n)[2 * _cross(self.z, other.x, self.n)])

    def _pair_product(self, other, weights, ra=slice(None), rb=slice(None)):
        """The rows ``a + b`` of every pair of rows a of ``self[ra]`` and b of
        ``other[rb]`` (all rows by default), with coefficient ``c_a c_b
        weights[a, b]``, merged once."""
        a, b = self._xz[ra], other._xz[rb]
        cols = np.flatnonzero(a.any(axis=0) | b.any(axis=0))
        coeffs, xz = _pair_rows(self.n, self.coeffs[ra], a[:, cols], other.coeffs[rb], b[:, cols], weights)
        return OperatorSum._from_arrays(self.n, self.nsites, coeffs, xz, cols)

    @classmethod
    def product_of_rows(cls, n, nsites, sites, factors):
        """The product, in order, of sums given by their rows: each factor is
        ``(coeffs, xz)`` with ``xz`` its ``[x|z]`` exponents on the sorted
        ``sites`` only, reduced mod n, its rows neither merged nor distinct.
        The rows are formed factor by factor with the row arithmetic of
        ``__mul__``, each step's reordering phase ``w_n^{z_acc . x_b}`` read
        from the rows formed so far, and merged once at the end.  Wherever
        the factors' merges would have neither summed nor dropped a row,
        the result equals the pairwise product bit for bit."""
        k = len(sites)
        coeffs, xz = factors[0]
        for cb, b in factors[1:]:
            weights = _roots(2 * n)[2 * _cross(xz[:, k:], b[:, :k], n)]
            coeffs, xz = _pair_rows(n, coeffs, xz, cb, b, weights)
        return cls._from_arrays(n, nsites, coeffs, xz, np.concatenate((sites, nsites + sites)))

    def is_zero(self, tol=1e-12):
        return bool(np.all(np.hypot(self.coeffs.real, self.coeffs.imag) <= tol))

    def approx_equal(self, other, tol=1e-10):
        return (self - other).is_zero(tol)

    def commutator(self, other):
        """``self * other - other * self`` as one pair product: rows a and b
        give the row ``a + b`` in both products, with the reordering phases
        ``w_n^{z_a . x_b}`` and ``w_n^{x_a . z_b}``, so their difference is
        the pair's weight, exactly 0 when the two rows commute.  When every
        pair commutes, as for any two terms of a catalog model, whose rows
        are products of commuting stabilizer strings, the commutator is the
        zero sum, formed with no pair product."""
        self._check_compatible(other)
        n, roots = self.n, _roots(2 * self.n)
        weights = roots[2 * _cross(self.z, other.x, n)] - roots[2 * _cross(self.x, other.z, n)]
        if not weights.any():
            return OperatorSum._from_arrays(n, self.nsites, self.coeffs[:0], self._xz[:0])
        # a row whose pairs all weigh 0 adds only exact zeros: leave it out
        ra, rb = weights.any(axis=1), weights.any(axis=0)
        return self._pair_product(other, weights[ra][:, rb], ra, rb)

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
        roots = _roots(n)
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

    def _columns(self, states=None):
        """Yield ``(rows, values)`` per run of terms with equal X exponents:
        on the column of basis state ``states[i]`` (all states, in order, by
        default) the run's one entry is ``values[i]``, in the row of basis
        state ``rows[i]``.  A Pauli term puts one entry in each column, at a
        row fixed by its X exponents alone."""
        sites, runs = self._local
        if states is None:
            states = np.arange(self.n**self.nsites)
        code = _digit_table(self.n, self.nsites, sites, states)
        for shift, values in runs:
            yield states + shift[code], values[code]

    def sparse_matrix(self, states=None):
        """The sum on the span of the sorted basis ``states`` (all of them by
        default) as ``linalg.Entries`` with complex values, built in one
        pass: the nonzero entries of the runs of ``_columns()`` are stacked
        column by column, so the entries are ordered by column and, within
        one, by run, at most one per run; each row is then mapped to its
        position in ``states``.  A nonzero entry in a row outside ``states``
        raises AssertionError: the states must span a space that the sum
        maps into itself."""
        dim = self.n**self.nsites if states is None else len(states)
        _check_nonzeros(dim * len(self.coeffs))
        groups = list(self._columns(states))
        if not groups:
            none = np.zeros(0, dtype=np.int64)
            return linalg.Entries((dim, dim), none, none, np.zeros(0, dtype=complex))
        rows, vals = (np.stack(arrays, axis=1) for arrays in zip(*groups))
        keep = vals != 0
        cols = np.repeat(np.arange(dim), np.count_nonzero(keep, axis=1))
        rows, vals = rows[keep], vals[keep]
        if states is not None:
            pos = np.minimum(np.searchsorted(states, rows), dim - 1)
            if not np.array_equal(states[pos], rows):
                raise AssertionError("a nonzero entry leaves the given states")
            rows = pos
        return linalg.Entries((dim, dim), rows, cols, vals)

    def dense_matrix(self):
        """Dense matrix of the sum; its n^(2 nsites) entries count against
        the amplitude budget, and its up to n^nsites entries per term against
        the nonzero budget, as for ``sparse_matrix``.  The runs of
        ``_columns()`` are added straight in: each puts one entry in every
        column, and distinct runs put theirs in distinct rows, so every entry
        is 0 plus at most one value, as ``sparse_matrix().toarray()`` has it."""
        _check_budget(self.n, 2 * self.nsites)
        dim = self.n**self.nsites
        _check_nonzeros(dim * len(self.coeffs))
        out = np.zeros((dim, dim), dtype=complex)
        for rows, values in self._columns():
            out[rows, np.arange(dim)] += values
        return out

    def __repr__(self):
        return f"OperatorSum({len(self.coeffs)} terms, n={self.n}, sites={self.nsites})"


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


def lattice_string(lat, n, x=(), z=()):
    """The string with X^e and Z^e at each ``(site, e)`` placement of x and z.

    A site is a ``Site`` or an ``(x, y, direction)`` tuple, wrapped as
    ``lat.site_index`` wraps it, and the exponents of a site placed twice
    add.  A site that an open lattice lacks raises ``MissingSiteError`` and a
    vertex off the lattice ``ValueError``.
    """
    xz = np.zeros((2, lat.n_sites), dtype=np.int64)
    for row, placements in zip(xz, (x, z)):
        for site, e in placements:
            row[lat.site_index(site)] += e
    return PauliString(n, *xz)


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
