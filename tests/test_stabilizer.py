"""Stabilizer engine: degeneracy, consistency, logicals, syndromes, strings."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtoric import catalog
from gtoric.catalog import (
    build_hamiltonian,
    cyclic_projector,
    global_shift_symmetry,
)
from gtoric.lattice import Lattice
from gtoric.oracle import trace_product
from gtoric.paulis import OperatorSum, PauliString, symplectic_phase
from gtoric.stabilizer import (
    InvalidModelError,
    InvalidPathError,
    PathSpec,
    StabilizerModel,
    confinement_profile,
    gsd,
    in_stabilizer_group,
    is_logical,
    logical_basis,
    logically_equivalent,
    phase_consistent,
    report,
    string_operator,
    syndrome,
)


def model_for(model_id, topology="torus", m=2, n=2):
    return StabilizerModel.from_hamiltonian(
        build_hamiltonian(model_id, Lattice(topology, m, n))
    )


def bare_model(n, nsites, generators):
    """A model with one single-factor term per (string, target) generator."""
    info = [("term", i) for i in range(len(generators))]
    return StabilizerModel(
        n=n,
        nsites=nsites,
        generators=generators,
        term_members=[[i] for i in range(len(generators))],
        term_info=info,
    )


def first_face_flipped(sm):
    face_idx = next(i for i, (s, _) in enumerate(sm.generators) if len(s.support()) == 6)
    return sm.with_flipped_target(face_idx)


def vertex_x_loop(lat, x, direction="W"):
    """Non-contractible column loop of X operators."""
    x_at = {lat.site_index(lat.site(x, y, direction)): 1 for y in range(lat.n)}
    return PauliString.from_ops(2, lat.n_sites, x_at=x_at)


class TestConstruction:
    def test_generators_commute(self):
        for model_id in ("m1", "m3exp", "zn:3"):
            model_for(model_id).check_commuting()

    def test_noncommuting_rejected(self):
        sm = model_for("m1")
        gens = list(sm.generators)
        lat = sm.lattice
        clash = PauliString.from_ops(2, lat.n_sites, x_at={0: 1}, z_at={1: 1})
        bad = StabilizerModel(
            n=2,
            nsites=lat.n_sites,
            generators=gens + [(clash, 0)],
            term_members=sm.term_members + [[len(gens)]],
            term_info=sm.term_info + [("vertex", (0, 0))],
            lattice=lat,
        )
        with pytest.raises(InvalidModelError):
            bad.check_commuting()
        with pytest.raises(InvalidModelError):
            gsd(bad)

    @pytest.mark.parametrize(
        "n, z, phase",
        [
            pytest.param(2, 1, 0, id="XZ-n2"),  # (XZ)^2 = -1
            pytest.param(4, 1, 0, id="XZ-n4"),  # (XZ)^4 = -1
            pytest.param(3, 0, 1, id="wX-n3"),  # (w X)^3 = w^3 = -1
        ],
    )
    def test_generator_order_checked(self, n, z, phase):
        s = PauliString(n, [1], [z], phase)
        with pytest.raises(ValueError):
            cyclic_projector(s, 0)
        with pytest.raises(InvalidModelError):
            bare_model(n, 1, [(s, 0)])

    def test_exponent_matrix_shape(self):
        sm = model_for("m1")
        mat = sm.exponent_matrix()
        assert mat.shape == (len(sm.generators), 2 * sm.nsites)


class TestDegeneracy:
    def test_m1_sizes(self):
        for (m, n), expect in [((2, 2), 32), ((3, 3), 1024), ((4, 5), 2 * 2**20)]:
            assert gsd(model_for("m1", m=m, n=n)) == expect

    def test_composite_qudit(self):
        assert gsd(model_for("zn:4")) == 4**5

    @pytest.mark.parametrize(
        "build, expect",
        [
            pytest.param(
                lambda: model_for("m1"),
                dict(n=2, sites=16, generators=12, group_order=2048, rank=11, relations=1,
                     consistency=True, gsd=32, k=5),
                id="m1",
            ),
            pytest.param(
                lambda: model_for("zn:3"),
                dict(n=3, sites=16, generators=12, group_order=177147, rank=11, relations=1,
                     consistency=True, gsd=243, k=5),
                id="zn3",
            ),
            pytest.param(
                lambda: model_for("zn:4"),
                dict(n=4, sites=16, generators=12, group_order=4194304, rank=11, relations=1,
                     consistency=True, gsd=1024, k=5),
                id="zn4",
            ),
            pytest.param(
                lambda: model_for("zn:6"),
                dict(n=6, sites=16, generators=12, group_order=362797056, rank=11, relations=1,
                     consistency=True, gsd=7776, k=5),
                id="zn6",
            ),
            pytest.param(
                lambda: model_for("boundary", topology="open"),
                dict(n=2, sites=24, generators=22, group_order=4194304, rank=22, relations=0,
                     consistency=True, gsd=4, k=2),
                id="boundary",
            ),
            pytest.param(
                lambda: first_face_flipped(model_for("m1")),
                dict(n=2, sites=16, generators=12, group_order=2048, rank=11, relations=1,
                     consistency=False, gsd=0, k=0),
                id="m1-frustrated",
            ),
        ],
    )
    def test_report_fields(self, build, expect):
        assert report(build()) == expect


# at most 1024 amplitudes, so the dense projector product stays small
MAX_SITES = {2: 10, 3: 6, 4: 5, 6: 3}


@st.composite
def commuting_models(draw, n):
    """Sparse generators s with s^n = I, kept when they commute with every
    generator kept before; sometimes one more generator is the product of two
    kept ones, so a relation ties the targets.  Targets are random."""
    nsites = draw(st.integers(1, MAX_SITES[n]))
    exps = st.dictionaries(st.integers(0, nsites - 1), st.integers(1, n - 1), max_size=3)
    strings = []
    for _ in range(draw(st.integers(1, 6))):
        s = PauliString.from_ops(n, nsites, x_at=draw(exps), z_at=draw(exps))
        # the phase parity that makes s^n = I
        s = PauliString(n, s.x, s.z, 2 * draw(st.integers(0, n - 1)) + (n - 1) * int(s.x @ s.z))
        if all(symplectic_phase(s, t) == 0 for t in strings):
            strings.append(s)
    if len(strings) > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(strings), min_size=2, max_size=2))
        strings.append(a * b)
    targets = draw(st.lists(st.integers(0, n - 1), min_size=len(strings), max_size=len(strings)))
    return bare_model(n, nsites, list(zip(strings, targets)))


class TestDenseAgreement:
    """The stabilizer engine against the exact trace of the projector product."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_commuting_models(self, n, data):
        sm = data.draw(commuting_models(n))
        projectors = [cyclic_projector(s, t) for s, t in sm.generators]
        dense = trace_product(projectors, SimpleNamespace(n_sites=sm.nsites), n)
        assert abs(dense - gsd(sm)) < 1e-6
        powers = data.draw(
            st.lists(st.integers(0, n - 1), min_size=len(sm.generators), max_size=len(sm.generators))
        )
        element = PauliString.identity(n, sm.nsites)
        for (s, _), k in zip(sm.generators, powers):
            element = element * s**k
        assert in_stabilizer_group(sm, element)


class TestPhaseConsistency:
    def test_m1_consistent(self):
        assert phase_consistent(model_for("m1"))

    def test_flipped_face_target_frustrates(self):
        flipped = first_face_flipped(model_for("m1"))
        assert not phase_consistent(flipped)
        assert gsd(flipped) == 0


class TestNoOperatorAlgebra:
    """Stabilizer answers read the terms' (string, target) factors only."""

    @pytest.fixture()
    def no_products(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("operator product formed on the stabilizer path")

        monkeypatch.setattr(catalog, "product_of_projectors", refuse)
        monkeypatch.setattr(OperatorSum, "__mul__", refuse)
        monkeypatch.setattr(PauliString, "__mul__", refuse)

    @pytest.mark.parametrize(
        "model, size",
        [pytest.param("m1", 4, id="m1"), pytest.param("zn:3", 3, id="zn3"),
         pytest.param("zn:4", 3, id="zn4")],
    )
    def test_answers_from_factors(self, no_products, model, size):
        lat = Lattice("torus", size, size)
        sm = StabilizerModel.from_hamiltonian(build_hamiltonian(model, lat))
        assert report(sm)["consistency"]
        error = PauliString.from_ops(sm.n, sm.nsites, x_at={0: 1})
        assert syndrome(sm, error).energy > 0
        assert is_logical(sm, error) == "detectable"
        assert is_logical(sm, sm.generators[0][0]) == "stabilizer"
        assert logically_equivalent(sm, sm.generators[0][0], sm.generators[1][0])
        flipped = [gsd(sm.with_flipped_target(i)) for i in range(len(sm.generators))]
        assert 0 in flipped

    def test_opsum_expanded_once(self, monkeypatch):
        calls = []
        expand = catalog.product_of_projectors

        def counting(*args):
            calls.append(args)
            return expand(*args)

        monkeypatch.setattr(catalog, "product_of_projectors", counting)
        term = build_hamiltonian("m1", Lattice("torus", 2, 2)).terms[0]
        assert not calls
        assert term.opsum is term.opsum
        assert len(calls) == 1
        assert (term.opsum * term.opsum).approx_equal(term.opsum)


class TestLogicalStructure:
    def test_basis_pairing(self):
        sm = model_for("m1", m=2, n=2)
        k, basis = logical_basis(sm)
        assert k == 5
        assert 2**k == gsd(sm)
        for u, v in basis:
            # conjugate pairs realize the minimal clock/shift commutation
            assert symplectic_phase(u, v) % 2 == 1
            for s, _ in sm.generators:
                assert symplectic_phase(u, s) % 2 == 0
                assert symplectic_phase(v, s) % 2 == 0
        # distinct pairs commute
        flat = [p for pair in basis for p in pair]
        for i, (u, v) in enumerate(basis):
            for j, (w, z) in enumerate(basis):
                if i != j:
                    assert symplectic_phase(u, w) % 2 == 0
                    assert symplectic_phase(u, z) % 2 == 0

    @pytest.mark.parametrize(
        "model_id,m,n,k",
        [("m1", 2, 2, 5), ("m1", 3, 3, 10), ("mhoriz", 3, 2, 8), ("zn:3", 2, 2, 5)],
    )
    def test_conjugate_pairs(self, model_id, m, n, k):
        sm = model_for(model_id, m=m, n=n)
        got_k, pairs = logical_basis(sm)
        assert got_k == k
        assert len(pairs) == k
        for p, q in pairs:
            assert not any(syndrome(sm, p).flips)
            assert not any(syndrome(sm, q).flips)
            assert symplectic_phase(p, q) == 1
        for i, (p, q) in enumerate(pairs):
            for r, s in pairs[i + 1 :]:
                for a in (p, q):
                    for b in (r, s):
                        assert symplectic_phase(a, b) == 0

    def test_classifications(self):
        sm = model_for("m1")
        lat = sm.lattice
        s0, _ = sm.generators[0]
        assert is_logical(sm, s0) == "stabilizer"
        assert is_logical(sm, global_shift_symmetry(lat, 2)) == "logical"
        single_x = PauliString.from_ops(2, lat.n_sites, x_at={0: 1})
        assert is_logical(sm, single_x) == "detectable"

    def test_membership(self):
        sm = model_for("m1")
        s0, _ = sm.generators[0]
        s1, _ = sm.generators[1]
        assert in_stabilizer_group(sm, s0 * s1)
        assert not in_stabilizer_group(sm, global_shift_symmetry(sm.lattice, 2))


class TestSyndromes:
    def test_stabilizer_invariance(self):
        sm = model_for("m1", m=3, n=3)
        lat = sm.lattice
        err = PauliString.from_ops(2, lat.n_sites, z_at={3: 1})
        s0, _ = sm.generators[0]
        assert syndrome(sm, err).flips == syndrome(sm, err * s0).flips

    def test_immobility(self):
        # any single-site Z costs 1; Z's at two different vertices cost 2
        sm = model_for("m1", m=3, n=3)
        lat = sm.lattice
        for s in lat.sites():
            err = PauliString.from_ops(2, lat.n_sites, z_at={lat.site_index(s): 1})
            assert syndrome(sm, err).energy == 1
        err2 = PauliString.from_ops(
            2,
            lat.n_sites,
            z_at={
                lat.site_index(lat.site(0, 0, "E")): 1,
                lat.site_index(lat.site(1, 1, "E")): 1,
            },
        )
        assert syndrome(sm, err2).energy == 2

    def test_corner_pair_x_excites_two_faces(self):
        sm = model_for("m1", m=3, n=3)
        lat = sm.lattice
        err = PauliString.from_ops(
            2,
            lat.n_sites,
            x_at={
                lat.site_index(lat.site(1, 1, "W")): 1,
                lat.site_index(lat.site(1, 1, "S")): 1,
            },
        )
        syn = syndrome(sm, err)
        assert syn.energy == 2
        assert all(kind == "face" for kind, _ in syn.violated)


class TestStringOperators:
    def test_closed_column_is_logical(self):
        sm = model_for("m1", m=2, n=3)
        lat = sm.lattice
        path = PathSpec([((0, y), "I") for y in range(3)], closed=True)
        loop = string_operator(lat, path, 2)
        assert syndrome(sm, loop).energy == 0
        assert is_logical(sm, loop) == "logical"

    def test_deformed_loop_equivalent(self):
        sm = model_for("m1", m=2, n=3)
        lat = sm.lattice
        plain = string_operator(lat, PathSpec([((0, y), "I") for y in range(3)], closed=True), 2)
        detour_steps = [((0, 0), "I"), ((0, 1), "II"), ((0, 1), "IV"), ((0, 2), "I")]
        detour = string_operator(lat, PathSpec(detour_steps, closed=True), 2)
        assert is_logical(sm, detour) == "logical"
        assert logically_equivalent(sm, plain, detour)

    def test_parallel_loops_inequivalent(self):
        sm = model_for("m1", m=3, n=3)
        lat = sm.lattice
        a = vertex_x_loop(lat, 0)
        b = vertex_x_loop(lat, 1)
        assert is_logical(sm, a) == "logical"
        assert is_logical(sm, b) == "logical"
        assert not logically_equivalent(sm, a, b)

    def test_invalid_paths(self):
        with pytest.raises(InvalidPathError):
            PathSpec([((0, 0), "III"), ((0, 0), "IV")], closed=False).validate()
        with pytest.raises(InvalidPathError):
            PathSpec([((0, 0), "I"), ((0, 0), "I")], closed=False).validate()


class TestConfinement:
    def test_m1_profiles(self):
        sm = model_for("m1", m=5, n=5)
        assert confinement_profile(sm, "allowed", range(1, 5)) == [2, 2, 2, 2]
        assert confinement_profile(sm, "forbidden-vertical", range(1, 4)) == [2, 4, 6]
        assert confinement_profile(sm, "forbidden-horizontal", range(1, 4)) == [2, 4, 6]

    def test_mhoriz_profiles(self):
        sm = model_for("mhoriz", m=5, n=5)
        assert confinement_profile(sm, "allowed", [3]) == [2]
        forb = confinement_profile(sm, "forbidden-vertical", range(1, 4))
        assert forb == sorted(forb) and forb[0] < forb[-1]

    def test_path_exceeds_lattice(self):
        sm = model_for("m1", m=2, n=2)
        with pytest.raises(InvalidPathError):
            confinement_profile(sm, "forbidden-vertical", [3])
