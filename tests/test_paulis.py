"""Generalized Pauli strings: phases, products, matrices, parsing."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtoric.catalog import build_hamiltonian
from gtoric.lattice import Lattice
from gtoric.oracle import BudgetExceededError
from gtoric.paulis import (
    OperatorSum,
    PauliParseError,
    PauliString,
    apply_pauli,
    pauli_from_text,
    pauli_to_text,
    symplectic_phase,
    to_matrix,
)


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
        ident = OperatorSum.identity(2, 3)
        assert ident.trace() == pytest.approx(8)
        z = PauliString.from_ops(2, 3, z_at={1: 1})
        assert OperatorSum([(1.0, z)]).trace() == pytest.approx(0)

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


def reference_merge(terms):
    """Merge (coeff, PauliString) pairs one by one: the phase folded into the
    coefficient, equal strings summed in order, |c| <= 1e-14 dropped, sorted
    by the exponent bytes."""
    acc, keep = {}, {}
    for c, p in terms:
        key = p.key()
        acc[key] = acc.get(key, 0) + complex(c) * p.phase_factor()
        keep[key] = p
    out = [(c, keep[key].with_phase(0)) for key, c in acc.items() if abs(c) > 1e-14]
    out.sort(key=lambda t: t[1].key())
    return out


def reference_mul(a, b):
    return reference_merge([(c1 * c2, p1 * p2) for c1, p1 in a for c2, p2 in b])


def reference_add(a, b):
    return reference_merge(a + b)


def reference_sub(a, b):
    return reference_add(a, reference_merge([(-1.0 * c, p) for c, p in b]))


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
        assert_same_terms(a * b, reference_mul(ra, rb))
        assert_same_terms(b * a, reference_mul(rb, ra))
        assert_same_terms(a + b, reference_add(ra, rb))
        assert_same_terms(a - b, reference_sub(ra, rb))
        assert_same_terms(a + b - b - a, reference_sub(reference_sub(reference_add(ra, rb), rb), ra))
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
