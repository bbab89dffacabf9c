"""Generalized Pauli strings: phases, products, matrices, parsing."""

import math
import operator
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtoric.catalog import build_hamiltonian, cyclic_projector
from gtoric.lattice import Lattice
from gtoric.oracle import BudgetExceededError, trace_product
from gtoric.paulis import (
    OperatorSum,
    PauliParseError,
    PauliString,
    _roots,
    _word_places,
    apply_pauli,
    pauli_from_text,
    pauli_to_text,
    symplectic_phase,
)


def to_matrix(p):
    return OperatorSum.from_pauli(p).dense_matrix()


def random_pauli(draw, n, nsites):
    x = draw(st.lists(st.integers(0, n - 1), min_size=nsites, max_size=nsites))
    z = draw(st.lists(st.integers(0, n - 1), min_size=nsites, max_size=nsites))
    phase = draw(st.integers(0, 2 * n - 1))
    return PauliString(n, x, z, phase)


pauli_pairs = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.composite(lambda draw: random_pauli(draw, n, 3))(),
        st.composite(lambda draw: random_pauli(draw, n, 3))(),
    )
)


class TestSingleSite:
    def test_qubit_anticommutation(self):
        z = PauliString.from_ops(2, 1, z_at={0: 1})
        x = PauliString.from_ops(2, 1, x_at={0: 1})
        zx = z * x
        xz = x * z
        assert zx.phase == 2  # -1 in half-turn units
        assert xz.phase == 0

    def test_clock_matrix(self):
        z3 = PauliString.from_ops(3, 1, z_at={0: 1})
        w = np.exp(2j * np.pi / 3)
        assert np.allclose(to_matrix(z3), np.diag([w, w**2, 1.0]))

    def test_shift_matrix(self):
        x3 = PauliString.from_ops(3, 1, x_at={0: 1})
        mat = to_matrix(x3)
        expected = np.zeros((3, 3))
        # shift raises the level label by one, wrapping the top level around
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1
        assert np.allclose(mat, expected)

    def test_order_n(self):
        for n in (2, 3, 4):
            x = PauliString.from_ops(n, 1, x_at={0: 1})
            z = PauliString.from_ops(n, 1, z_at={0: 1})
            assert (x**n).is_identity()
            assert (z**n).is_identity()


class TestGroupLaws:
    @settings(max_examples=60, deadline=None)
    @given(pauli_pairs)
    def test_product_matches_matrices(self, data):
        n, p, q = data
        assert np.allclose(to_matrix(p * q), to_matrix(p) @ to_matrix(q), atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(pauli_pairs)
    def test_inverse(self, data):
        n, p, _ = data
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @settings(max_examples=60, deadline=None)
    @given(pauli_pairs)
    def test_symplectic_phase_is_commutation_exponent(self, data):
        n, p, q = data
        c = symplectic_phase(p, q)
        lhs = q * p
        rhs = p * q
        # q p = w_n^c p q, and w_n = w_{2n}^2
        assert list(lhs.x) == list(rhs.x)
        assert list(lhs.z) == list(rhs.z)
        assert (lhs.phase - rhs.phase) % (2 * n) == (2 * c) % (2 * n)

    @settings(max_examples=40, deadline=None)
    @given(pauli_pairs)
    def test_symplectic_antisymmetry(self, data):
        n, p, q = data
        assert (symplectic_phase(p, q) + symplectic_phase(q, p)) % n == 0

    @settings(max_examples=40, deadline=None)
    @given(pauli_pairs)
    def test_power_consistency(self, data):
        n, p, _ = data
        acc = PauliString.identity(n, 3)
        for k in range(4):
            assert (p**k).key() == acc.key()
            acc = acc * p


class TestOperatorSum:
    def test_merge_and_prune(self):
        p = PauliString.from_ops(2, 2, z_at={0: 1})
        s = OperatorSum([(0.5, p), (0.5, p)])
        assert len(s.terms) == 1
        assert (s - s).is_zero()

    def test_projector_algebra(self):
        # (1 + Z)/2 squared equals itself
        p = PauliString.from_ops(2, 1, z_at={0: 1})
        proj = OperatorSum([(0.5, PauliString.identity(2, 1)), (0.5, p)])
        assert (proj * proj).approx_equal(proj)

    def test_commutator_dense_agreement(self):
        rng = np.random.default_rng(11)
        n, nsites = 3, 2
        for _ in range(10):
            def rand_sum():
                terms = []
                for _ in range(3):
                    p = PauliString(
                        n,
                        rng.integers(0, n, nsites),
                        rng.integers(0, n, nsites),
                        int(rng.integers(0, 2 * n)),
                    )
                    terms.append((complex(rng.normal(), rng.normal()), p))
                return OperatorSum(terms)

            a, b = rand_sum(), rand_sum()
            lhs = a.commutator(b).dense_matrix()
            am, bm = a.dense_matrix(), b.dense_matrix()
            assert np.allclose(lhs, am @ bm - bm @ am, atol=1e-10)

    def test_trace(self):
        three_sites = SimpleNamespace(n_sites=3)  # trace_product reads only the site count
        assert trace_product([OperatorSum.identity(2, 3)], three_sites, 2) == 8
        z = PauliString.from_ops(2, 3, z_at={1: 1})
        assert trace_product([OperatorSum([(1.0, z)])], three_sites, 2) == 0

    def test_apply_matches_dense(self):
        n, nsites = 2, 3
        rng = np.random.default_rng(5)
        p = PauliString.from_ops(n, nsites, x_at={0: 1}, z_at={2: 1})
        s = OperatorSum([(0.7, p), (0.3, PauliString.identity(n, nsites))])
        vec = rng.normal(size=n**nsites) + 1j * rng.normal(size=n**nsites)
        assert np.allclose(s.apply(vec), s.dense_matrix() @ vec, atol=1e-10)

    def test_restrict(self):
        p = PauliString.from_ops(2, 4, z_at={1: 1, 3: 1})
        s = OperatorSum([(1.0, p)])
        small = s.restrict([1, 3])
        assert small.nsites == 2
        assert np.allclose(
            small.dense_matrix(), np.kron(np.diag([-1, 1]), np.diag([-1, 1]))
        )


def kron_reference(p):
    """Dense matrix of p built site by site: the Kronecker product of
    ``X^a Z^b`` over the sites (site 0 leftmost) times ``w^phase``."""
    n = p.n
    shift = np.roll(np.eye(n), 1, axis=0)  # |d> -> |d+1 mod n>
    clock = np.diag(np.exp(2j * np.pi * np.arange(1, n + 1) / n))  # levels 1..n
    mat = np.ones((1, 1))
    for a, b in zip(p.x, p.z):
        site = np.linalg.matrix_power(shift, int(a)) @ np.linalg.matrix_power(clock, int(b))
        mat = np.kron(mat, site)
    return np.exp(1j * np.pi * p.phase / n) * mat


qudit_sums = st.sampled_from([2, 3, 4, 6]).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda nsites: st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
                st.composite(lambda draw: random_pauli(draw, n, nsites))(),
            ),
            min_size=1,
            max_size=5,
        )
    )
)


def rational_cos(num, den):
    """cos(2 pi num / den) if it is rational, else None.  By Niven's theorem it
    is rational only when the reduced denominator is 1, 2, 3, 4 or 6."""
    order = den // math.gcd(num, den)
    return {1: 1.0, 2: -1.0, 3: -0.5, 4: 0.0, 6: 0.5}.get(order)


@st.composite
def projector_cases(draw):
    """A string s with ``s^n = 1``, phase included, for n in {2, 4}, and a
    target: ``s^n`` of the phase-0 string is ``w^r`` with r in {0, n}, so the
    phase's parity cancels r."""
    n = draw(st.sampled_from([2, 4]))
    p = random_pauli(draw, n, draw(st.integers(1, 4)))
    residue = (PauliString(n, p.x, p.z) ** n).phase
    s = PauliString(n, p.x, p.z, 2 * draw(st.integers(0, n - 1)) + residue // n)
    return s, draw(st.integers(0, n - 1))


class TestRoots:
    """One table of roots of unity, exact wherever a part is rational."""

    @pytest.mark.parametrize("m", range(1, 25))
    def test_table(self, m):
        roots = _roots(m)
        assert len(roots) == m and not roots.flags.writeable
        for k in range(m):
            assert roots[(m - k) % m] == np.conj(roots[k])
            # against the root at 40 digits: cmath.exp(2j * pi * k / m) is
            # itself off by up to 1.1e-15 here, as its argument is rounded
            with mpmath.workdps(40):
                exact = mpmath.expjpi(mpmath.mpf(2 * k) / m)
                assert abs(mpmath.mpc(roots[k].real, roots[k].imag) - exact) <= 4e-16
            for part, rational in (
                (roots[k].real, rational_cos(k, m)),
                (roots[k].imag, rational_cos(4 * k - m, 4 * m)),  # sin x = cos(x - pi/2)
            ):
                if rational is not None:
                    assert part == rational
                else:
                    assert part not in (0.0, 0.5, -0.5, 1.0, -1.0)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_phase_factor_reads_the_table(self, n):
        for phase in range(2 * n):
            p = PauliString(n, [0], [0], phase)
            assert p.phase_factor() == _roots(2 * n)[phase]

    @settings(max_examples=80, deadline=None)
    @given(pauli_pairs)
    def test_product_and_construction_agree(self, data):
        # a product of phase-0 strings carries its reordering phase only; the
        # construction of the product string reads the same table entry
        n, p, q = data
        p, q = PauliString(n, p.x, p.z), PauliString(n, q.x, q.z)
        product = OperatorSum.from_pauli(p) * OperatorSum.from_pauli(q)
        assert np.array_equal(product.coeffs, OperatorSum.from_pauli(p * q).coeffs)


class TestRealization:
    """The support-only realization against a site-by-site construction."""

    @settings(max_examples=80, deadline=None)
    @given(qudit_sums)
    def test_matrix_is_kronecker_product(self, terms):
        for _, p in terms:
            assert np.allclose(to_matrix(p), kron_reference(p), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(qudit_sums, st.integers(0, 2**32 - 1))
    def test_apply_matches_dense(self, terms, seed):
        s = OperatorSum(terms)
        rng = np.random.default_rng(seed)
        dim = s.n**s.nsites
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        expected = sum(c * kron_reference(p) for c, p in terms)
        assert np.allclose(s.dense_matrix(), expected, atol=1e-10)
        assert np.allclose(s.apply(vec), s.dense_matrix() @ vec, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(qudit_sums)
    def test_cancelled_entries_not_stored(self, terms):
        (_, p), (_, q) = terms[0], terms[-1]
        n = p.n
        sums = [OperatorSum.from_pauli(p) - OperatorSum.from_pauli(p) + OperatorSum.from_pauli(q)]
        # I - Z^b is exactly zero on the columns where Z^b has eigenvalue 1
        z_only = PauliString(n, np.zeros(p.nsites, dtype=np.int64), p.z)
        sums.append(OperatorSum([(1.0, PauliString.identity(n, p.nsites)), (-1.0, z_only)]))
        for s in sums:
            mat = s.sparse_matrix()
            assert mat.nnz == np.count_nonzero(mat.data)
            assert np.allclose(mat.toarray(), sum(c * kron_reference(r) for c, r in s.terms))

    @settings(max_examples=80, deadline=None)
    @given(projector_cases())
    def test_projector_stores_no_round_off(self, case):
        # for n | 4 the roots are exact, so the cancelled entries are exact zeros
        s, target = case
        mat = cyclic_projector(s, target).sparse_matrix()
        assert np.all(np.abs(mat.data) >= 1e-12)
        expected = sum(
            np.exp(-2j * np.pi * target * j / s.n) / s.n * kron_reference(s**j)
            for j in range(s.n)
        )
        assert np.allclose(mat.toarray(), expected, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(qudit_sums)
    def test_dense_matrix_is_sparse_matrix(self, terms):
        s = OperatorSum(terms)
        s = s * s - s  # products and cancellations, as validate forms them
        assert s.dense_matrix().tobytes() == s.sparse_matrix().toarray().tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(0, 2**32 - 1))
    def test_apply_pauli_is_dense_product(self, data, seed):
        n = data.draw(st.sampled_from([2, 3, 4, 6]))
        p = data.draw(st.composite(lambda draw: random_pauli(draw, n, draw(st.integers(1, 4))))())
        p = PauliString(n, p.x, p.z, data.draw(st.integers(1, 2 * n - 1)))  # a nonzero phase
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=n**p.nsites) + 1j * rng.normal(size=n**p.nsites)
        np.testing.assert_allclose(apply_pauli(p, vec), to_matrix(p) @ vec, rtol=0, atol=1e-12)

    def test_empty_sum(self):
        s = OperatorSum([], n=3, nsites=2)
        assert s.sparse_matrix().shape == (9, 9)
        assert s.sparse_matrix().nnz == 0


class TestBudget:
    def test_sparse_matrix_refused_before_allocation(self, monkeypatch):
        p = PauliString.from_ops(2, 3, x_at={0: 1})
        s = OperatorSum([(1.0, p), (1.0, PauliString.identity(2, 3))])  # 2 terms x 8
        monkeypatch.setenv("GTORIC_BUDGET", "16")
        assert s.sparse_matrix().nnz == 16
        monkeypatch.setenv("GTORIC_BUDGET", "15")
        with pytest.raises(BudgetExceededError):
            s.sparse_matrix()

    def test_dense_matrix_refused(self, monkeypatch):
        s = OperatorSum.from_pauli(PauliString.from_ops(2, 3, x_at={0: 1}))
        monkeypatch.setenv("GTORIC_BUDGET", "64")  # 8 x 8 entries
        assert s.dense_matrix().shape == (8, 8)
        monkeypatch.setenv("GTORIC_BUDGET", "63")
        with pytest.raises(BudgetExceededError):
            s.dense_matrix()

    def test_apply_pauli_refused(self, monkeypatch):
        p = PauliString.from_ops(2, 3, x_at={0: 1})
        vec = np.ones(8)
        monkeypatch.setenv("GTORIC_BUDGET", "8")
        assert np.allclose(apply_pauli(p, vec), vec)
        monkeypatch.setenv("GTORIC_BUDGET", "7")
        with pytest.raises(BudgetExceededError):
            apply_pauli(p, vec)
        with pytest.raises(BudgetExceededError):
            OperatorSum.from_pauli(p).apply(vec)


def exponents(p):
    """The exponents of p as one tuple, x then z: the order of merged rows."""
    return tuple(p.x.tolist()) + tuple(p.z.tolist())


def reference_merge(terms):
    """Merge (coeff, PauliString) pairs one by one: the phase folded into the
    coefficient, equal strings summed in order, |c| <= 1e-14 dropped, sorted
    lexicographically by the exponent values, x then z."""
    acc, keep = {}, {}
    for c, p in terms:
        key = p.key()
        acc[key] = acc.get(key, 0) + complex(c) * p.phase_factor()
        keep[key] = p
    out = [
        (c, PauliString(keep[key].n, keep[key].x, keep[key].z))
        for key, c in acc.items()
        if abs(c) > 1e-14
    ]
    out.sort(key=lambda t: exponents(t[1]))
    return out


def reference_mul(a, b):
    return reference_merge([(c1 * c2, p1 * p2) for c1, p1 in a for c2, p2 in b])


def reference_add(a, b):
    return reference_merge(a + b)


def reference_sub(a, b):
    return reference_add(a, reference_merge([(-1.0 * c, p) for c, p in b]))


def reference_commutator(a, b):
    return reference_sub(reference_mul(a, b), reference_mul(b, a))


def reference_projector(s, target):
    """``(1/n) sum_j w_n^{-target j} s^j``, merged term by term."""
    n, power, out = s.n, PauliString.identity(s.n, s.nsites), []
    for j in range(n):
        out.append((np.exp(-2j * np.pi * target * j / n) / n, power))
        power = power * s
    return reference_merge(out)


def assert_same_terms(got, want):
    assert len(got.terms) == len(want)
    for (c, p), (d, q) in zip(got.terms, want):
        assert p == q
        assert abs(c - d) <= 1e-12


def assert_same_bits(got, want):
    """Same rows in the same order, and coefficients equal bit for bit; + 0
    makes a zero part +0, as a sum started at 0 leaves it in both."""
    assert [p for _, p in got.terms] == [p for _, p in want]
    want = np.array([c for c, _ in want], dtype=complex)
    assert (got.coeffs + 0).tobytes() == (want + 0).tobytes()


def assert_same_commutator(got, want):
    """Coefficients within 1e-14 on the same rows, in the same order, and the
    same verdict of ``is_zero``.  The reference cuts each product at 1e-14
    before the difference, the fused commutator only the difference, so a
    row that one side alone keeps is below 2e-14."""
    rows = dict((exponents(p), c) for c, p in want)
    got_rows = dict((exponents(p), c) for c, p in got.terms)
    assert list(got_rows) == sorted(got_rows)
    for key in rows.keys() | got_rows.keys():
        if key in rows and key in got_rows:
            assert abs(got_rows[key] - rows[key]) <= 1e-14
        else:
            assert abs(got_rows.get(key, 0) + rows.get(key, 0)) < 2e-14
    assert got.is_zero() == all(abs(d) <= 1e-12 for d, _ in want)


def pauli_sum_pair(n):
    """Two sums over few sites and exponents, so that products and sums merge
    terms often; the second may repeat the first's strings negated, so that
    a difference cancels to nothing."""
    nsites = st.integers(1, 3)
    coeffs = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)

    def sums(draw):
        k = draw(nsites)
        paulis = st.composite(lambda d: random_pauli(d, n, k))()
        a = draw(st.lists(st.tuples(coeffs, paulis), max_size=6))
        b = draw(st.lists(st.tuples(coeffs, paulis), max_size=6))
        if draw(st.booleans()):
            b = b + [(-c, p) for c, p in a]
        return n, k, a, b

    return st.composite(sums)()


def near_strings(rng, n, nsites, size=8):
    """Terms drawn, with repeats, from six strings that each differ from one
    of two bases on up to three sites: rows agree on most digits and differ
    in any key word, and sums and products merge rows often.  No base
    exponent is 0, so every column is supported."""
    bases = rng.integers(1, n, (2, 2, nsites)) if n > 2 else np.ones((2, 2, nsites), dtype=np.int64)
    pool = []
    for base in bases[rng.integers(0, 2, 6)]:
        xz = base.copy()
        sites = rng.integers(0, nsites, 3)
        xz[rng.integers(0, 2, 3), sites] = rng.integers(0, n, 3)
        pool.append(PauliString(n, xz[0], xz[1], int(rng.integers(0, 2 * n))))
    return [(complex(rng.normal(), rng.normal()), pool[i]) for i in rng.integers(0, len(pool), size)]


array_sums = st.sampled_from([2, 3, 4, 6]).flatmap(pauli_sum_pair)


class TestArrayAlgebra:
    """The packed-array sum against a term-by-term reference."""

    @settings(max_examples=150, deadline=None)
    @given(array_sums)
    def test_matches_pairwise_reference(self, data):
        n, nsites, a_terms, b_terms = data
        a = OperatorSum(a_terms, n, nsites)
        b = OperatorSum(b_terms, n, nsites)
        ra, rb = reference_merge(a_terms), reference_merge(b_terms)
        assert_same_terms(a, ra)
        assert_same_terms(b, rb)
        assert_same_bits(a * b, reference_mul(ra, rb))
        assert_same_bits(b * a, reference_mul(rb, ra))
        assert_same_bits(a + b, reference_add(ra, rb))
        assert_same_bits(a - b, reference_sub(ra, rb))
        assert_same_bits(a + b - b - a, reference_sub(reference_sub(reference_add(ra, rb), rb), ra))
        assert_same_commutator(a.commutator(b), reference_commutator(ra, rb))
        assert_same_commutator(b.commutator(a), reference_commutator(rb, ra))
        assert not (a - a).terms
        assert (a - a).is_zero() and (a * (b - b)).is_zero()

    def test_sixty_four_sites(self):
        # 2 x 64 base-2 exponent digits do not fit one int64 key
        lat = Lattice("torus", 4, 4)
        assert lat.n_sites == 64
        terms = build_hamiltonian("m1", lat, 2).terms
        picks = [terms[0], terms[1], terms[16], terms[17]]
        refs = []
        for t in picks:
            acc = reference_merge([(1.0, PauliString.identity(2, 64))])
            for s, target in t.factors:
                acc = reference_mul(acc, reference_projector(s, target))
            assert_same_terms(t.opsum, acc)
            refs.append(acc)
        for t, a in zip(picks, refs):
            for u, b in zip(picks, refs):
                assert_same_terms(t.opsum * u.opsum, reference_mul(a, b))
                assert_same_terms(t.opsum - u.opsum, reference_sub(a, b))
        assert (picks[0].opsum * picks[0].opsum).approx_equal(picks[0].opsum)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    @pytest.mark.parametrize("nsites", [3, 40])
    def test_keys_of_several_words(self, n, nsites):
        # every column is supported, so the keys span ceil(2 nsites / k) words
        words = -(-2 * nsites // len(_word_places(n)))
        assert words == (1 if nsites == 3 else {2: 2, 3: 3, 5: 3, 7: 4}[n])
        rng = np.random.default_rng([n, nsites])
        for _ in range(4):
            a_terms, b_terms = near_strings(rng, n, nsites), near_strings(rng, n, nsites)
            a, b = OperatorSum(a_terms), OperatorSum(b_terms)
            assert np.hstack((a.x, a.z)).any(axis=0).all()
            ra, rb = reference_merge(a_terms), reference_merge(b_terms)
            assert_same_bits(a, ra)
            assert_same_bits(a * b, reference_mul(ra, rb))
            assert_same_bits(a + b, reference_add(ra, rb))
            assert_same_bits(a - b, reference_sub(ra, rb))
            assert_same_commutator(a.commutator(b), reference_commutator(ra, rb))
            assert_same_commutator(a.commutator(a), reference_commutator(ra, ra))
            assert a.commutator(a).is_zero()

    def test_rows_in_order_of_exponent_values(self):
        # from n = 257 on, exponent bytes no longer sort as their values:
        # 256 is the bytes 0, 1 and 1 the bytes 1, 0
        n, nsites = 257, 5  # 10 columns, 7 digits to a word
        rng = np.random.default_rng(257)
        values = [0, 1, 255, 256]
        pool = [PauliString(n, rng.choice(values, nsites), rng.choice(values, nsites)) for _ in range(8)]
        a_terms, b_terms = ([(complex(rng.normal(), rng.normal()), pool[i]) for i in rng.integers(0, 8, 10)]
                            for _ in range(2))
        a, b = OperatorSum(a_terms), OperatorSum(b_terms)
        rows = [exponents(p) for _, p in a.terms]
        assert rows == sorted(rows)
        assert [p for _, p in a.terms] != sorted((p for _, p in a.terms), key=PauliString.key)
        ra, rb = reference_merge(a_terms), reference_merge(b_terms)
        assert_same_bits(a, ra)
        assert_same_bits(a * b, reference_mul(ra, rb))
        assert_same_bits(a - b, reference_sub(ra, rb))
        assert_same_commutator(a.commutator(b), reference_commutator(ra, rb))

    def test_model_commutators(self):
        lat = Lattice("torus", 2, 2)
        for model in ("m3exp", "zn:3"):
            terms = build_hamiltonian(model, lat).terms
            refs = [reference_merge(t.opsum.terms) for t in terms]
            for i, j in ((0, 1), (0, len(terms) - 1), (len(terms) - 1, 1)):
                got = terms[i].opsum.commutator(terms[j].opsum)
                assert_same_commutator(got, reference_commutator(refs[i], refs[j]))
                assert got.is_zero()

    def test_one_merge_per_operation(self, monkeypatch):
        lat = Lattice("torus", 2, 2)
        a, b = (t.opsum for t in build_hamiltonian("m1", lat).terms[:2])
        c = OperatorSum.from_pauli(PauliString.from_ops(2, lat.n_sites, x_at={0: 1}, z_at={1: 1}))
        merges, products = [], []
        merge, mul = OperatorSum._merge, OperatorSum.__mul__
        monkeypatch.setattr(OperatorSum, "_merge", lambda self, *args: merges.append(1) or merge(self, *args))
        monkeypatch.setattr(OperatorSum, "__mul__", lambda self, other: products.append(1) or mul(self, other))
        for x, y in ((a, b), (a, c), (c, a), (c, c)):
            merges.clear()
            x.commutator(y)
            assert len(merges) == 1 and not products
            merges.clear()
            x - y
            assert len(merges) == 1 and not products

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_mismatched_dimensions_raise(self, op):
        empty = OperatorSum([], n=2, nsites=4)
        for other in (OperatorSum.identity(3, 8), OperatorSum.identity(2, 5),
                      OperatorSum.identity(3, 4)):
            with pytest.raises(ValueError):
                op(empty, other)
            with pytest.raises(ValueError):
                op(other, empty)


class TestTextFormat:
    def test_round_trip(self):
        lat = Lattice("torus", 3, 3)
        text = "X@(0,0).W Z@(1,2).N"
        p = pauli_from_text(text, lat, 2)
        assert pauli_to_text(p, lat) == text

    def test_powers_and_phase(self):
        lat = Lattice("torus", 2, 2)
        p = pauli_from_text("w^2 X^2@(0,0).E Z@(1,1).S", lat, 3)
        assert p.phase == 2
        assert p.x[lat.site_index(lat.site(0, 0, "E"))] == 2
        assert p.z[lat.site_index(lat.site(1, 1, "S"))] == 1

    def test_parse_error_position(self):
        lat = Lattice("torus", 2, 2)
        with pytest.raises(PauliParseError) as err:
            pauli_from_text("X@(0,0).E Y@(0,0).W", lat, 2)
        assert err.value.column > 0

    def test_site_outside_lattice(self):
        lat = Lattice("open", 2, 2)
        with pytest.raises(PauliParseError):
            pauli_from_text("X@(0,0).W", lat, 2)
