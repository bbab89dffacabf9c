"""Dense/sparse exact-diagonalization oracle on small lattices."""

import logging
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gtoric import oracle, stabilizer
from gtoric.catalog import (
    HamiltonianSpec, build_hamiltonian, cyclic_projector, ketbra, level_projector, project, projector_action,
)
from gtoric.lattice import Lattice
from gtoric.oracle import (
    BudgetExceededError,
    SeedAnnihilatedError,
    SeedViolatesFaceTermError,
    apply_pauli_to_state,
    basis_state,
    construct_ground_state,
    ground_space_dimension,
    measure_syndrome,
    parse_seed_config,
    trace_product,
)
from gtoric.paulis import OperatorSum, PauliString, PauliTable


M1_SEED = "all=1 E=2 W=2"  # satisfies every m1 face term
TORUS_MODELS = ("m1", "m2", "m3exp", "mhoriz", "mvert", "zn:2", "mnondeg")


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

    def test_count_needs_only_the_product_bound(self, monkeypatch):
        # 256 amplitudes, 16 of them in the sector; the largest product bound
        # is the running product's 128 nonzeros times a four-term projector,
        # and no n^(2 sites) matrix is formed
        spec = build_hamiltonian("boundary", Lattice("open", 1, 1))
        monkeypatch.setenv("GTORIC_BUDGET", "512")
        assert ground_space_dimension(spec) == 1
        monkeypatch.setenv("GTORIC_BUDGET", "511")
        with pytest.raises(BudgetExceededError):
            ground_space_dimension(spec)

    def test_term_apply_refused(self, monkeypatch):
        spec = build_hamiltonian("boundary", Lattice("open", 1, 1))  # 256 amplitudes
        vec = np.ones(256, dtype=complex)
        monkeypatch.setenv("GTORIC_BUDGET", "256")
        spec.terms[0].apply(vec)
        monkeypatch.setenv("GTORIC_BUDGET", "255")
        with pytest.raises(BudgetExceededError):
            spec.terms[0].apply(vec)


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

    def test_model_with_no_terms(self):
        # H = 0: every one of the 2^8 states is a ground state
        lat = Lattice("open", 1, 1)
        table = PauliTable.from_strings(2, lat.n_sites, [])
        spec = HamiltonianSpec("empty", lat, 2, table, np.zeros(0, dtype=np.int64), [])
        engine = stabilizer.gsd(stabilizer.StabilizerModel.from_hamiltonian(spec))
        assert ground_space_dimension(spec) == engine == trace_product([], lat, 2) == 256

    @pytest.mark.parametrize("model, spec", [("m1", ("torus", 2, 2)), ("boundary", ("open", 1, 1))])
    def test_each_term_realized_once(self, monkeypatch, model, spec):
        # the trace and the probes share one sparse matrix per term
        h = build_hamiltonian(model, Lattice(*spec))
        calls = {"sparse_matrix": 0, "apply": 0}
        for name in calls:
            method = getattr(OperatorSum, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(OperatorSum, name, counted)
        ground_space_dimension(h)
        assert calls == {"sparse_matrix": len(h.terms), "apply": 0}


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
        assert min(np.abs(m.value).min() for m in mats) >= 1e-12

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

    def test_annihilated_seed_names_the_term(self):
        # the face term holds, but the corner vertex's Z check wants (0,0).N and
        # (0,0).E at unequal levels
        spec = build_hamiltonian("boundary", Lattice("open", 1, 1))
        digits = parse_seed_config("all=1 (0,0).N=2 (0,0).E=2 (1,0).W=2", spec.lattice, 2)
        with pytest.raises(SeedAnnihilatedError) as err:
            construct_ground_state(spec, digits)
        assert (err.value.term.kind, err.value.term.location) == ("corner-vertex", (0, 0))
        assert "corner-vertex term at (0, 0)" in str(err.value)

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


class TestSecondSize:
    """The paper's 2·2^{N_v} count at N_v = 6, checked densely on the sector."""

    @pytest.mark.parametrize("model, spec, count", [
        ("m1", ("torus", 3, 2), 128), ("boundary", ("open", 2, 2), 4),
    ])
    def test_dense_count_matches_engine(self, model, spec, count):
        h = build_hamiltonian(model, Lattice(*spec))
        assert ground_space_dimension(h) == count
        assert trace_product([t.opsum for t in h.terms], h.lattice, h.n) == count
        assert stabilizer.gsd(stabilizer.StabilizerModel.from_hamiltonian(h)) == count


@st.composite
def order_n_factors(draw):
    """A (string, target) factor with ``s^n = 1`` for n in {3, 4, 6} on 4 or
    5 sites; half of the strings are Z-only."""
    n = draw(st.sampled_from([3, 4, 6]))
    nsites = draw(st.integers(4, 5))
    exps = st.lists(st.integers(0, n - 1), min_size=nsites, max_size=nsites)
    x = draw(exps) if draw(st.booleans()) else [0] * nsites
    p = PauliString(n, x, draw(exps))
    # the phase's parity cancels the residue of p^n, so the projector is defined
    s = PauliString(n, p.x, p.z, 2 * draw(st.integers(0, n - 1)) + (p**n).phase // n)
    return s, draw(st.integers(0, n - 1))


class TestFactorAction:
    """Terms act on states through their factors, as their expansions do."""

    @pytest.mark.parametrize("model, spec", [(m, ("torus", 2, 2)) for m in TORUS_MODELS] + [
        ("boundary", ("open", 1, 1)), ("boundary", ("open", 1, 2)),
    ])
    def test_term_apply_is_opsum_apply(self, model, spec):
        # n = 2: every coefficient and mask is exact, so the two agree bit for bit
        h = build_hamiltonian(model, Lattice(*spec))
        rng = np.random.default_rng(3)
        dim = h.n**h.lattice.n_sites
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for t in h.terms:
            assert np.array_equal(t.apply(vec), t.opsum.apply(vec))

    @settings(max_examples=120, deadline=None)
    @given(order_n_factors(), st.integers(0, 2**32 - 1))
    def test_factor_projector_is_cyclic_projector(self, factor, seed):
        s, target = factor
        rng = np.random.default_rng(seed)
        dim = s.n**s.nsites
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        got = project(projector_action(s, target), vec.reshape((s.n,) * s.nsites)).ravel()
        want = cyclic_projector(s, target).apply(vec)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_oracle_never_expands_a_term(self):
        spec = build_hamiltonian("m1", Lattice("torus", 2, 2))
        state = construct_ground_state(spec, parse_seed_config(M1_SEED, spec.lattice, 2))
        measure_syndrome(spec, state)
        assert not any("opsum" in t.__dict__ for t in spec.terms)


def sector_factor(draw, n, nsites):
    """A cyclic projector of a random string, a |i><j| on one site, a bare
    string, or a clock projector on one site, which keeps part of the basis."""
    kind = draw(st.sampled_from(["projector", "ketbra", "string", "level"]))
    site = draw(st.integers(0, nsites - 1))
    if kind == "ketbra":
        return ketbra(n, nsites, site, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    if kind == "level":
        return level_projector(n, nsites, site, draw(st.integers(0, n - 1)))
    exps = st.lists(st.integers(0, n - 1), min_size=nsites, max_size=nsites)
    x = draw(exps) if draw(st.booleans()) else [0] * nsites
    p = PauliString(n, x, draw(exps))
    if kind == "string":
        return OperatorSum.from_pauli(PauliString(n, p.x, p.z, draw(st.integers(0, 2 * n - 1))))
    # the phase's parity cancels the residue of p^n, so the projector is defined
    s = PauliString(n, p.x, p.z, 2 * draw(st.integers(0, n - 1)) + (p**n).phase // n)
    return cyclic_projector(s, draw(st.integers(0, n - 1)))


@st.composite
def factor_lists(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    nsites = draw(st.integers(1, 4 if n == 2 else 3))
    return [sector_factor(draw, n, nsites) for _ in range(draw(st.integers(1, 5)))]


def dense_trace(ops):
    return np.trace(reduce(operator.matmul, (op.dense_matrix() for op in ops)))


class TestSectorTrace:
    """The trace on the sector equals the trace of the full dense product."""

    @settings(max_examples=200, deadline=None)
    @given(factor_lists())
    def test_equals_dense_product(self, ops):
        dim = ops[0].n ** ops[0].nsites
        _, tr = oracle._product_trace(ops, dim)
        assert tr == pytest.approx(dense_trace(ops), abs=1e-9)

    def test_frustrated_targets_leave_no_sector(self):
        ops = [level_projector(3, 2, 0, 1), cyclic_projector(
            PauliString.from_ops(3, 2, x_at={1: 1}), 0), level_projector(3, 2, 0, 2)]
        assert len(oracle._sector(ops)) == 0
        _, tr = oracle._product_trace(ops, 9)
        assert tr == 0
        assert dense_trace(ops) == pytest.approx(0, abs=1e-12)

    def test_sector_shrinks(self):
        # Z on site 0 commutes with X on site 1: the clock projector is certified
        x1 = PauliString.from_ops(4, 2, x_at={1: 1})
        ops = [cyclic_projector(x1, 1), level_projector(4, 2, 0, 3), ketbra(4, 2, 1, 0, 2)]
        assert oracle._sector(ops).tolist() == [8, 9, 10, 11]  # site 0 at level 3
        _, tr = oracle._product_trace(ops, 16)
        assert tr == pytest.approx(dense_trace(ops), abs=1e-12)

    def test_uncertified_diagonal_adds_no_constraint(self):
        # (a) fails: the clock projector does not commute with X on its site;
        # (b) fails: the clock projector plus X on site 1 is nonzero where its
        # diagonal vanishes
        x0 = PauliString.from_ops(2, 2, x_at={0: 1})
        x1 = OperatorSum.from_pauli(PauliString.from_ops(2, 2, x_at={1: 1}))
        assert oracle._sector([level_projector(2, 2, 0, 1), cyclic_projector(x0, 0)]) is None
        assert oracle._sector([level_projector(2, 2, 0, 1) + x1]) is None

    def test_entry_outside_the_states_raises(self):
        x0 = OperatorSum.from_pauli(PauliString.from_ops(2, 2, x_at={0: 1}))
        assert x0.sparse_matrix(np.array([0, 2])).nnz == 2
        with pytest.raises(AssertionError):
            x0.sparse_matrix(np.array([0, 1]))


@st.composite
def unequal_block_lists(draw):
    """Factor lists with a one-site |i><j|, i != j, for n of 3 or 4: it
    pairs the i and j levels of its site, which leaves the other levels'
    states out of those pairs, so the blocks need not share one size."""
    n = draw(st.sampled_from([3, 4]))
    nsites = draw(st.integers(2, 3))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    ops = [sector_factor(draw, n, nsites) for _ in range(draw(st.integers(0, 4)))]
    ops.insert(draw(st.integers(0, len(ops))), ketbra(n, nsites, draw(st.integers(0, nsites - 1)), i, j))
    return ops


def realized(ops):
    """The ops' sector, their realized matrices and the sector's blocks."""
    states = oracle._sector(ops)
    size = ops[0].n ** ops[0].nsites if states is None else len(states)
    mats = [op.sparse_matrix(states) for op in ops]
    return states, mats, oracle._Blocks(mats, size)


def component_of(blocks):
    """Per sector position, a label shared by exactly its block's positions."""
    label = np.full(blocks.size, -1)
    start = 0
    for index in blocks.index:
        label[index] = start + np.arange(len(index))[:, None]
        start += len(index)
    return label


class TestBlocks:
    """The running product held as stacks of dense blocks, one block per
    connected component of the terms' realized off-diagonal entries."""

    CASES = [("m1", ("torus", 2, 2)), ("mnondeg", ("torus", 2, 2)), ("boundary", ("open", 1, 2))]

    @pytest.mark.parametrize("model, spec", CASES)
    def test_blocks_partition_the_sector(self, model, spec):
        _, _, blocks = realized([t.opsum for t in build_hamiltonian(model, Lattice(*spec)).terms])
        positions = np.concatenate([index.ravel() for index in blocks.index])
        assert np.array_equal(np.sort(positions), np.arange(blocks.size))
        for index in blocks.index:
            assert np.all(np.diff(index, axis=1) > 0)  # each block's positions in increasing order
            assert np.array_equal(blocks.local[index], np.broadcast_to(np.arange(index.shape[1]), index.shape))
        assert [index.shape[1] for index in blocks.index] == sorted({index.shape[1] for index in blocks.index})

    @pytest.mark.parametrize("model, spec", CASES)
    def test_every_entry_inside_one_block(self, model, spec):
        _, mats, blocks = realized([t.opsum for t in build_hamiltonian(model, Lattice(*spec)).terms])
        label = component_of(blocks)
        assert (label >= 0).all()
        for mat in mats:
            assert np.array_equal(label[mat.row], label[mat.col])

    @settings(max_examples=150, deadline=None)
    @given(unequal_block_lists())
    def test_unequal_blocks_match_the_dense_product(self, ops):
        states, mats, blocks = realized(ops)
        assume(len(blocks.index) > 1)  # blocks of unequal sizes
        label = component_of(blocks)
        for mat in mats:
            assert np.array_equal(label[mat.row], label[mat.col])
        dim = ops[0].n ** ops[0].nsites
        product, tr = oracle._product_trace(ops, dim)
        dense = reduce(operator.matmul, (op.dense_matrix() for op in ops))
        assert tr == pytest.approx(np.trace(dense), abs=1e-9)
        # the blocks hold the dense product on the sector, and nothing else
        held = np.zeros((blocks.size, blocks.size), dtype=complex)
        for stack, index in zip(product.stacks, product.blocks.index):
            for block, at in zip(stack, index):
                held[np.ix_(at, at)] = block.T
        on = slice(None) if states is None else np.ix_(states, states)
        np.testing.assert_allclose(held, dense[on], atol=1e-9)
        vec = np.arange(blocks.size) + 1j
        np.testing.assert_allclose(product.apply(vec), held @ vec, atol=1e-9)

    def test_budget_counts_per_factor(self, monkeypatch):
        # the counts that the sparse product took before each factor on m1
        # torus:2x2: the sector size, then the running product's nonzeros,
        # each times the factor's term count
        spec = build_hamiltonian("m1", Lattice("torus", 2, 2))
        counts = []
        monkeypatch.setattr(oracle, "_check_nonzeros", counts.append)
        product, _ = oracle._product_trace([t.opsum for t in spec.terms], 2**spec.lattice.n_sites)
        assert counts == [2048, 4096, 8192, 16384, 16384, 16384, 16384, 16384]
        assert product.nnz == 8192 == sum(np.count_nonzero(stack) for stack in product.stacks)

    def test_stacks_within_the_budget(self, monkeypatch):
        # m1 torus:2x2 stacks 8,192 numbers, the product's final nonzeros
        ops = [t.opsum for t in build_hamiltonian("m1", Lattice("torus", 2, 2)).terms]
        _, mats, blocks = realized(ops)
        assert sum(index.size * index.shape[1] for index in blocks.index) == 8192
        monkeypatch.setenv("GTORIC_BUDGET", "8191")
        with pytest.raises(BudgetExceededError):
            oracle._Blocks(mats, blocks.size)


class TestLogging:
    def test_count_reports_sector_and_residual(self, caplog):
        caplog.set_level(logging.DEBUG, logger="gtoric.oracle")
        ground_space_dimension(build_hamiltonian("m1", Lattice("torus", 2, 2)))
        [rec] = [r for r in caplog.records if r.name == "gtoric.oracle"]
        assert rec.levelno == logging.DEBUG
        assert (rec.sector, rec.states, rec.peak_nnz) == (512, 65536, 8192)
        assert 0 <= rec.residual < 1e-12
        assert "sector 512 of 65536 states" in rec.getMessage()

    def test_seed_and_syndrome_report_their_work(self, caplog):
        caplog.set_level(logging.DEBUG, logger="gtoric.oracle")
        spec = build_hamiltonian("m1", Lattice("torus", 2, 2))  # 4 vertex and 4 face terms
        state = construct_ground_state(spec, parse_seed_config(M1_SEED, spec.lattice, 2))
        err = PauliString.from_ops(2, spec.lattice.n_sites, z_at={0: 1})
        measure_syndrome(spec, apply_pauli_to_state(err, state))
        # the final check of construct_ground_state measures the state first
        check, built, measured = [r for r in caplog.records if r.name == "gtoric.oracle"]
        assert (check.terms, check.factors) == (8, 12)
        # 4 face checks, 4 vertex projections and the 8-term final check; a
        # vertex term has two factors, a face term one
        assert (built.states, built.terms, built.factors) == (65536, 16, 24)
        assert (measured.states, measured.terms, measured.factors) == (65536, 8, 12)
        for rec in (check, built, measured):
            assert rec.levelno == logging.DEBUG
            assert 0 <= rec.deviation < 1e-12
        assert built.getMessage().startswith("construct_ground_state: 16 terms, 24 factors")
        assert measured.getMessage().startswith("measure_syndrome: 8 terms, 12 factors")

    def test_silent_by_default(self, capfd):
        ground_space_dimension(build_hamiltonian("boundary", Lattice("open", 1, 1)))
        assert capfd.readouterr() == ("", "")
