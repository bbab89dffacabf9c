"""Stabilizer engine: degeneracy, consistency, logicals, syndromes, strings."""

from types import SimpleNamespace

import numpy as np
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
from gtoric.paulis import OperatorSum, PauliString, _roots, symplectic_phase
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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_order_test_matches_power_loop(self, data):
        """One order test decides s^n = I for the projector and the model:
        both raise exactly when the power loop does not end at I, and the
        projector has the power loop's coefficient and exponent bytes."""
        n = data.draw(st.integers(2, 8))
        nsites = data.draw(st.integers(1, 4))
        digits = st.lists(st.integers(0, n - 1), min_size=nsites, max_size=nsites)
        s = PauliString(n, data.draw(digits), data.draw(digits), data.draw(st.integers(0, 2 * n - 1)))
        target = data.draw(st.integers(0, n - 1))
        power, terms = PauliString.identity(n, nsites), []
        for j in range(n):
            terms.append((_roots(n)[-target * j % n] / n, power))
            power = power * s
        if not power.is_identity():
            with pytest.raises(ValueError):
                cyclic_projector(s, target)
            with pytest.raises(InvalidModelError):
                bare_model(n, nsites, [(s, target)])
            return
        got, want = cyclic_projector(s, target), OperatorSum(terms)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.x.tobytes() == want.x.tobytes() and got.z.tobytes() == want.z.tobytes()
        bare_model(n, nsites, [(s, target)])

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


def reference_flips(m, p):
    """Per-generator eigenvalue shifts, one ``symplectic_phase`` per generator."""
    return [symplectic_phase(p, s) for s, _ in m.generators]


def reference_equivalent(m, p, q):
    diff = PauliString(m.n, p.x - q.x, p.z - q.z)
    return not any(reference_flips(m, diff)) and in_stabilizer_group(m, diff)


def assert_matches_reference(m, strings):
    """syndrome, is_logical and logically_equivalent against the per-generator
    loop; consecutive strings form the equivalence pairs."""
    for p in strings:
        flips = reference_flips(m, p)
        violated = [
            info for members, info in zip(m.term_members, m.term_info)
            if any(flips[i] for i in members)
        ]
        syn = syndrome(m, p)
        assert syn.flips == flips and all(type(f) is int for f in syn.flips)
        assert syn.violated == violated
        assert syn.energy == len(violated)
        if any(flips):
            assert is_logical(m, p) == "detectable"
        else:
            assert is_logical(m, p) == ("stabilizer" if in_stabilizer_group(m, p) else "logical")
    for p, q in zip(strings, strings[1:]):
        assert logically_equivalent(m, p, q) == reference_equivalent(m, p, q)


def group_element(m, powers):
    element = PauliString.identity(m.n, m.nsites)
    for (s, _), k in zip(m.generators, powers):
        element = element * s**k
    return element


class TestTablePath:
    """Syndromes, classes and equivalence read the exponent table; the
    per-generator loop they replaced is the reference."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_commuting_models(self, n, data):
        sm = data.draw(commuting_models(n))
        digits = st.lists(st.integers(0, n - 1), min_size=sm.nsites, max_size=sm.nsites)
        gens = st.lists(st.integers(0, n - 1), min_size=len(sm.generators), max_size=len(sm.generators))
        errors = [PauliString(n, data.draw(digits), data.draw(digits)) for _ in range(3)]
        element = group_element(sm, data.draw(gens))
        strings = [errors[0], element, errors[0] * element, errors[1], errors[1] * element, errors[2]]
        assert_matches_reference(sm, strings)
        flipped = sm.with_flipped_target(data.draw(st.integers(0, len(sm.generators) - 1)))
        assert flipped.exponent_table is sm.exponent_table
        assert flipped.term_incidence is sm.term_incidence
        assert_matches_reference(flipped, strings)

    @pytest.mark.parametrize(
        "model, topology, size",
        [("m1", "torus", 3), ("mnondeg", "torus", 3), ("zn:3", "torus", 3), ("boundary", "open", 2)],
    )
    def test_catalog_models(self, model, topology, size):
        sm = model_for(model, topology, size, size)
        rng = np.random.default_rng(7)
        logicals = [p for pair in logical_basis(sm)[1] for p in pair]
        strings = []
        for _ in range(12):
            sparse = rng.random((2, sm.nsites)) < 0.1
            error = PauliString(sm.n, *(rng.integers(1, sm.n, (2, sm.nsites)) * sparse))
            element = group_element(sm, rng.integers(0, sm.n, len(sm.generators)))
            strings += [error, error * element, element]
            if logicals:
                strings += [logicals[rng.integers(len(logicals))] * element]
        want = {"detectable", "stabilizer"} | ({"logical"} if logicals else set())
        assert {is_logical(sm, p) for p in strings} == want
        assert_matches_reference(sm, strings)

    @pytest.mark.parametrize(
        "query",
        [syndrome, is_logical, in_stabilizer_group,
         lambda m, p: logically_equivalent(m, m.generators[0][0], p)],
        ids=["syndrome", "is_logical", "in_stabilizer_group", "logically_equivalent"],
    )
    @pytest.mark.parametrize("n, nsites", [(3, 16), (2, 15)], ids=["dimension", "sites"])
    def test_mismatched_string_rejected(self, query, n, nsites):
        sm = model_for("m1")
        with pytest.raises(ValueError, match="dimension or site-count mismatch"):
            query(sm, PauliString.from_ops(n, nsites, x_at={0: 1}))


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
