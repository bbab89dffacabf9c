"""Dense/sparse exact-diagonalization oracle on small lattices."""

import numpy as np
import pytest

from gtoric import oracle
from gtoric.catalog import build_hamiltonian
from gtoric.lattice import Lattice
from gtoric.oracle import (
    BudgetExceededError,
    SeedViolatesFaceTermError,
    apply_pauli_to_state,
    basis_state,
    construct_ground_state,
    ground_space_dimension,
    measure_syndrome,
    parse_seed_config,
    trace_product,
)
from gtoric.paulis import PauliString


M1_SEED = "all=1 E=2 W=2"  # satisfies every m1 face term


class TestBudget:
    def test_large_system_rejected(self):
        spec = build_hamiltonian("zn:3", Lattice("torus", 2, 2))  # 3^16 amplitudes
        with pytest.raises(BudgetExceededError):
            ground_space_dimension(spec)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("GTORIC_BUDGET", "4")
        spec = build_hamiltonian("m1", Lattice("torus", 2, 2))
        with pytest.raises(BudgetExceededError):
            ground_space_dimension(spec)


    def test_eigensolve_matrix_counts_against_budget(self, monkeypatch):
        # 256 amplitudes fit, the 65536 entries of the dense Hamiltonian do not
        spec = build_hamiltonian("boundary", Lattice("open", 1, 1))
        monkeypatch.setenv("GTORIC_BUDGET", "65536")
        assert ground_space_dimension(spec) == 1
        monkeypatch.setenv("GTORIC_BUDGET", "65535")
        with pytest.raises(BudgetExceededError):
            ground_space_dimension(spec)


class TestGroundSpace:
    def test_m1_dimension(self):
        spec = build_hamiltonian("m1", Lattice("torus", 2, 2))
        assert ground_space_dimension(spec) == 32

    def test_m1_trace(self):
        spec = build_hamiltonian("m1", Lattice("torus", 2, 2))
        tr = trace_product([t.opsum for t in spec.terms], spec.lattice, spec.n)
        assert tr == pytest.approx(32, abs=1e-6)

    def test_boundary_1x2(self):
        spec = build_hamiltonian("boundary", Lattice("open", 1, 2))
        assert ground_space_dimension(spec) == 1


class TestExactZeros:
    """With exact roots of unity, n = 2 projector cancellations are exact
    zeros: the realized terms and their running product hold no round-off."""

    @pytest.mark.parametrize("model, nnz", [
        ("m1", 393216), ("m2", 393216), ("m3exp", 393216), ("mhoriz", 393216),
        ("mvert", 393216), ("zn:2", 393216), ("mnondeg", 81920),
    ])
    def test_term_matrices_store_no_round_off(self, model, nnz):
        spec = build_hamiltonian(model, Lattice("torus", 2, 2))
        mats = [t.opsum.sparse_matrix() for t in spec.terms]
        assert sum(m.nnz for m in mats) == nnz
        assert min(np.abs(m.data).min() for m in mats) >= 1e-12

    def test_product_stays_sparse(self, monkeypatch):
        spec = build_hamiltonian("m1", Lattice("torus", 2, 2))
        ops = [t.opsum for t in spec.terms]
        # before each factor the budget check sees the running product's
        # nonzeros times the factor's term count
        counts = []
        monkeypatch.setattr(oracle, "_check_nonzeros", counts.append)
        product, tr = oracle._product_trace(ops, 2**spec.lattice.n_sites)
        running = [c // len(op.coeffs) for c, op in zip(counts[1:], ops[1:])] + [product.nnz]
        assert max(running) <= 65536
        assert running[-1] == 8192
        assert tr == 32


class TestSeeds:
    def test_parse_tokens(self):
        lat = Lattice("torus", 2, 2)
        digits = parse_seed_config("all=1 N=2 (0,0).N=1", lat, 2)
        assert digits[lat.site_index(lat.site(0, 0, "N"))] == 1  # later token wins
        assert digits[lat.site_index(lat.site(1, 0, "N"))] == 2
        assert digits[lat.site_index(lat.site(0, 0, "E"))] == 1

    def test_bad_token(self):
        lat = Lattice("torus", 2, 2)
        with pytest.raises(ValueError):
            parse_seed_config("N:2", lat, 2)

    def test_seed_violating_faces(self):
        spec = build_hamiltonian("m1", Lattice("torus", 2, 2))
        digits = parse_seed_config("all=1", spec.lattice, 2)
        with pytest.raises(SeedViolatesFaceTermError) as err:
            construct_ground_state(spec, digits)
        assert len(err.value.faces) == 4

    def test_ground_state_from_seed(self):
        spec = build_hamiltonian("m1", Lattice("torus", 2, 2))
        digits = parse_seed_config(M1_SEED, spec.lattice, 2)
        state = construct_ground_state(spec, digits)
        assert np.linalg.norm(state) == pytest.approx(1.0)
        assert measure_syndrome(spec, state) == pytest.approx([1.0] * len(spec.terms))


class TestSyndromeMeasurements:
    def make_ground(self):
        spec = build_hamiltonian("m1", Lattice("torus", 2, 2))
        digits = parse_seed_config(M1_SEED, spec.lattice, 2)
        return spec, construct_ground_state(spec, digits)

    def test_single_z_excites_one_vertex(self):
        spec, state = self.make_ground()
        lat = spec.lattice
        err = PauliString.from_ops(2, lat.n_sites, z_at={lat.site_index(lat.site(0, 0, "E")): 1})
        vals = measure_syndrome(spec, apply_pauli_to_state(err, state))
        excited = [t for t, v in zip(spec.terms, vals) if v < 0.5]
        assert len(excited) == 1
        assert (excited[0].kind, excited[0].location) == ("vertex", (0, 0))

    def test_vertex_pair_z_is_harmless(self):
        spec, state = self.make_ground()
        lat = spec.lattice
        err = PauliString.from_ops(
            2,
            lat.n_sites,
            z_at={
                lat.site_index(lat.site(0, 0, "W")): 1,
                lat.site_index(lat.site(0, 0, "N")): 1,
            },
        )
        vals = measure_syndrome(spec, apply_pauli_to_state(err, state))
        assert vals == pytest.approx([1.0] * len(spec.terms))

    def test_basis_state_indexing(self):
        lat = Lattice("torus", 2, 2)
        digits = [1] * lat.n_sites
        digits[0] = 2  # site 0 is the most significant digit
        state = basis_state(lat, 2, digits)
        idx = int(np.argmax(np.abs(state)))
        assert idx == 2 ** (lat.n_sites - 1)


class TestAdjacentCommutation:
    def test_dense_term_commutators_vanish(self):
        spec = build_hamiltonian("m1", Lattice("torus", 2, 2))
        terms = [t.opsum for t in spec.terms]
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                comm = terms[i].commutator(terms[j])
                assert comm.is_zero(1e-10)
