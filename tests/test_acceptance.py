"""Acceptance suite: exact degeneracy counts, dense cross-checks, operator
algebra identities, corner enumerations, excitation energetics, logical
structure, the groupoid/qudit dictionary, and frustration under mutated
targets."""

import numpy as np
import pytest

from gtoric.catalog import (
    build_hamiltonian,
    cyclic_projector,
    edge_encoding_matrix,
    face_holonomy,
    face_projector_family,
    left_action,
    qubit_image_of_action,
    right_action,
    vertex_projector_family,
)
from gtoric.commutation import check_corner_commutation, check_summed_commutation
from gtoric.groupoids import make_isotropy_z2_groupoid, make_sis_groupoid
from gtoric.lattice import Lattice
from gtoric.oracle import (
    ground_space_dimension,
    trace_product,
)
from gtoric.paulis import OperatorSum, PauliString, pauli_from_text, symplectic_phase
from gtoric.stabilizer import (
    PathSpec,
    StabilizerModel,
    confinement_profile,
    gsd,
    in_stabilizer_group,
    is_logical,
    logical_qudit_count,
    logically_equivalent,
    string_operator,
    syndrome,
)

TORUS_SIZES = [(m, n) for m in range(2, 7) for n in range(2, 7)]
OPEN_SIZES = [(m, n) for m in range(2, 6) for n in range(2, 6)]


def stab(model, lat, n=2):
    return StabilizerModel.from_hamiltonian(build_hamiltonian(model, lat, n=n))


class TestDegeneracyFormulas:
    """Exact ground-space dimensions across lattice sizes."""

    @pytest.mark.parametrize("m,n", TORUS_SIZES)
    def test_m1(self, m, n):
        assert gsd(stab("m1", Lattice("torus", m, n))) == 2 * 2 ** (m * n)

    @pytest.mark.parametrize("m,n", TORUS_SIZES)
    def test_m2(self, m, n):
        assert gsd(stab("m2", Lattice("torus", m, n))) == 2 * 2 ** (m * n)

    @pytest.mark.parametrize("m,n", TORUS_SIZES)
    def test_m3exp(self, m, n):
        assert gsd(stab("m3exp", Lattice("torus", m, n))) == 2 ** (2 * m * n)

    @pytest.mark.parametrize("m,n", TORUS_SIZES)
    def test_mhoriz(self, m, n):
        # one protected bit per row of faces (the second size is the row
        # count), plus a free dot per vertex
        assert gsd(stab("mhoriz", Lattice("torus", m, n))) == 2**n * 2 ** (m * n)

    @pytest.mark.parametrize("m,n", TORUS_SIZES)
    def test_mvert(self, m, n):
        # one protected bit per column of faces, plus a free dot per vertex
        assert gsd(stab("mvert", Lattice("torus", m, n))) == 2**m * 2 ** (m * n)

    @pytest.mark.parametrize("m,n", TORUS_SIZES)
    def test_mnondeg(self, m, n):
        assert gsd(stab("mnondeg", Lattice("torus", m, n))) == 1

    @pytest.mark.parametrize("qdim", [2, 3, 4, 5])
    def test_zn_2x2(self, qdim):
        lat = Lattice("torus", 2, 2)
        assert gsd(stab(f"zn:{qdim}", lat, n=qdim)) == qdim ** (2 * 2 + 1)

    @pytest.mark.parametrize("qdim,m,n", [(2, 3, 4), (3, 2, 3), (5, 3, 3)])
    def test_zn_other_sizes(self, qdim, m, n):
        lat = Lattice("torus", m, n)
        assert gsd(stab(f"zn:{qdim}", lat, n=qdim)) == qdim ** (m * n + 1)

    @pytest.mark.parametrize("m,n", OPEN_SIZES)
    def test_boundary(self, m, n):
        lat = Lattice("open", m, n)
        assert gsd(stab("boundary", lat)) == 2 ** (m * n - 2)

    @pytest.mark.parametrize("model,m,n,k", [
        ("m1", 16, 16, 257),
        ("m2", 12, 9, 109),
        ("mhoriz", 12, 9, 9 + 108),
        ("mvert", 12, 9, 12 + 108),
    ])
    def test_large_torus(self, model, m, n, k):
        assert gsd(stab(model, Lattice("torus", m, n))) == 2**k

    @pytest.mark.parametrize("qdim", [4, 6])
    def test_composite_large_torus(self, qdim):
        # k = N_v + 1 logical qudits, from the Smith form over Z_4 and Z_6
        sm = stab(f"zn:{qdim}", Lattice("torus", 12, 12), n=qdim)
        assert logical_qudit_count(sm) == 145


class TestDenseCrossValidation:
    """The stabilizer count matches the dense oracle on small lattices."""

    @pytest.mark.parametrize(
        "model", ["m1", "m2", "m3exp", "mhoriz", "mvert", "mnondeg", "zn:2"]
    )
    def test_torus_2x2(self, model):
        lat = Lattice("torus", 2, 2)
        h = build_hamiltonian(model, lat, n=2)
        expected = gsd(StabilizerModel.from_hamiltonian(h))
        assert ground_space_dimension(h) == expected
        tr = trace_product(
            [t.opsum for t in h.terms], lat, 2
        )
        assert abs(tr - expected) < 1e-9

    def test_boundary_open_1x2(self):
        for lat in (Lattice("open", 1, 2), Lattice("open", 1, 1)):
            h = build_hamiltonian("boundary", lat)
            expected = gsd(StabilizerModel.from_hamiltonian(h))
            assert ground_space_dimension(h) == expected


class TestProjectorAlgebra:
    """Resolutions of identity and term commutation, tolerance 1e-10."""

    TOL = 1e-10

    def _partition_check(self, projectors, n, nsites):
        ident = OperatorSum.identity(n, nsites)
        total = None
        for i, p in enumerate(projectors):
            assert (p * p - p).is_zero(self.TOL)
            for q in projectors[i + 1 :]:
                assert (p * q).is_zero(self.TOL)
            total = p if total is None else total + p
        assert (total - ident).is_zero(self.TOL)

    def test_vertex_family_partitions_n2(self):
        lat = Lattice("torus", 2, 2)
        fam = vertex_projector_family(lat, (0, 0), 2)
        assert len(fam) == 16
        self._partition_check(fam, 2, lat.n_sites)

    def test_vertex_family_partitions_n3(self):
        lat = Lattice("torus", 2, 2)
        fam = vertex_projector_family(lat, (0, 0), 3)
        assert len(fam) == 81
        self._partition_check(fam, 3, lat.n_sites)

    def test_face_family_partitions(self):
        lat = Lattice("torus", 2, 2)
        fam = face_projector_family(lat, (0, 0), 2)
        assert len(fam) == 5
        self._partition_check(list(fam.values()), 2, lat.n_sites)

    def test_holonomy_sum_commutes_with_vertex_projectors(self):
        lat = Lattice("torus", 2, 2)
        face = face_projector_family(lat, (0, 0), 2)
        combo = face[("x", 1, 1)] + face[("x", 2, 2)]
        # the vertex at the face's SW corner is the delicate one
        vertex = vertex_projector_family(lat, (0, 0), 2)
        for vp in vertex:
            assert combo.commutator(vp).is_zero(self.TOL)
        # the individual holonomy projectors do not commute on their own
        assert not face[("x", 1, 1)].commutator(vertex[0]).is_zero(self.TOL)
        assert not face[("x", 2, 2)].commutator(vertex[0]).is_zero(self.TOL)

    @pytest.mark.parametrize(
        "model,qdim",
        [
            ("m1", 2),
            ("m2", 2),
            ("m3exp", 2),
            ("mhoriz", 2),
            ("mvert", 2),
            ("mnondeg", 2),
            ("zn:2", 2),
            ("zn:3", 3),
        ],
    )
    def test_all_terms_commute(self, model, qdim):
        lat = Lattice("torus", 2, 2)
        h = build_hamiltonian(model, lat, n=qdim)
        terms = [t.opsum for t in h.terms]
        for i, a in enumerate(terms):
            for b in terms[i + 1 :]:
                assert a.commutator(b).is_zero(self.TOL)

    def test_boundary_terms_commute(self):
        lat = Lattice("open", 2, 2)
        h = build_hamiltonian("boundary", lat)
        terms = [t.opsum for t in h.terms]
        for i, a in enumerate(terms):
            for b in terms[i + 1 :]:
                assert a.commutator(b).is_zero(self.TOL)


class TestCornerEnumeration:
    """Exhaustive face/vertex commutation on a single square."""

    GROUPOIDS = {
        "pair-2": make_sis_groupoid(2),
        "pair-3": make_sis_groupoid(3),
        "isotropy-z2": make_isotropy_z2_groupoid(),
    }

    @pytest.mark.parametrize("name", sorted(GROUPOIDS))
    @pytest.mark.parametrize("corner", ["NW", "NE", "SE"])
    def test_three_corners_clean(self, name, corner):
        rep = check_corner_commutation(self.GROUPOIDS[name], corner)
        assert rep.violations == []
        assert rep.pairs_checked == len(self.GROUPOIDS[name]) ** 2

    @pytest.mark.parametrize("name", sorted(GROUPOIDS))
    def test_sw_per_pair_violations(self, name):
        rep = check_corner_commutation(self.GROUPOIDS[name], "SW")
        assert rep.violations
        assert rep.max_deviation > 0

    @pytest.mark.parametrize("name", sorted(GROUPOIDS))
    def test_sw_summed_element_clean(self, name):
        assert check_summed_commutation(self.GROUPOIDS[name], "SW") == 0


class TestExcitationEnergetics:
    """Syndromes and confinement on a 5x5 torus."""

    @pytest.fixture(scope="class")
    @staticmethod
    def sm():
        return stab("m1", Lattice("torus", 5, 5))

    def _energy(self, sm, text):
        p = pauli_from_text(text, sm.lattice, 2)
        return syndrome(sm, p).energy

    def test_single_z_energy_one(self, sm):
        assert self._energy(sm, "Z@(1,1).E") == 1

    def test_allowed_chains_constant_cost(self, sm):
        assert confinement_profile(sm, "allowed", range(1, 5)) == [2, 2, 2, 2]

    def test_forbidden_vertical_linear_cost(self, sm):
        assert confinement_profile(sm, "forbidden-vertical", range(1, 4)) == [2, 4, 6]

    def test_forbidden_horizontal_linear_cost(self, sm):
        assert confinement_profile(sm, "forbidden-horizontal", range(1, 4)) == [
            2,
            4,
            6,
        ]

    def test_local_symmetry_invisible(self, sm):
        assert self._energy(sm, "Z@(1,1).W Z@(1,1).N") == 0

    def test_mhoriz_stays_deconfined(self):
        sm = stab("mhoriz", Lattice("torus", 5, 5))
        assert confinement_profile(sm, "allowed", [1, 2, 3, 4]) == [2, 2, 2, 2]
        forb = confinement_profile(sm, "forbidden-vertical", [1, 2, 3])
        assert forb == sorted(forb) and forb[-1] > forb[0]


class TestLogicalStructure:
    """Logical count and the loop calculus."""

    @pytest.fixture(scope="class")
    @staticmethod
    def sm():
        return stab("m1", Lattice("torus", 3, 3))

    def test_logical_count(self, sm):
        assert logical_qudit_count(sm) == 3 * 3 + 1

    def test_global_shift_in_centralizer(self, sm):
        lat = sm.lattice
        text = " ".join(f"X@{s}" for s in lat.sites())
        p = pauli_from_text(text, lat, 2)
        assert syndrome(sm, p).energy == 0

    def test_every_vertex_pair_z_in_centralizer(self, sm):
        lat = sm.lattice
        for x, y in lat.vertices():
            p = pauli_from_text(f"Z@({x},{y}).W Z@({x},{y}).N", lat, 2)
            assert syndrome(sm, p).energy == 0
            assert not in_stabilizer_group(sm, p)
            assert is_logical(sm, p)

    def test_parallel_loops_inequivalent(self, sm):
        lat = sm.lattice
        a = string_operator(lat, PathSpec([((0, y), "I") for y in range(3)]))
        b = string_operator(lat, PathSpec([((1, y), "I") for y in range(3)]))
        assert is_logical(sm, a) and is_logical(sm, b)
        assert not logically_equivalent(sm, a, b)

    def test_deformed_loop_equivalent(self, sm):
        lat = sm.lattice
        straight = string_operator(
            lat, PathSpec([((0, y), "I") for y in range(3)])
        )
        bent = string_operator(
            lat,
            PathSpec(
                [((0, 0), "I"), ((0, 1), "II"), ((0, 1), "IV"), ((0, 2), "I")]
            ),
        )
        assert logically_equivalent(sm, straight, bent)


class TestGroupoidDictionary:
    """The edge encoding intertwines the two vertex actions."""

    @pytest.mark.parametrize("nobj", [2, 3])
    def test_intertwiner(self, nobj):
        g = make_sis_groupoid(nobj)
        enc = edge_encoding_matrix(g)
        for m in range(len(g)):
            for side, action in (("left", left_action), ("right", right_action)):
                target = enc @ action(g, m) @ enc.conj().T
                got = qubit_image_of_action(g, m, side).dense_matrix()
                assert np.max(np.abs(got - target)) <= 1e-12

    def test_sample_configuration_decodes_to_identity_holonomy(self):
        g = make_sis_groupoid(2)
        lat = Lattice("torus", 2, 2)
        digits = {i: 1 for i in range(lat.n_sites)}
        hol = face_holonomy(g, lat, (0, 0), digits)
        assert g.label(hol) == "x11"
        fam = face_projector_family(lat, (0, 0), 2)
        # the matching holonomy projector keeps the configuration
        from gtoric.oracle import basis_state

        state = basis_state(lat, 2, digits)
        kept = fam[("x", 1, 1)].apply(state)
        assert np.linalg.norm(kept - state) < 1e-10


class TestTargetMutationFrustration:
    """Flipping the eigenvalue target of any constraint-coupled
    generator empties the ground space."""

    def _flippable_indices(self, sm):
        return [i for i, (_, t) in enumerate(sm.generators) if t != 0]

    def test_flips_kill_gsd(self):
        lat = Lattice("torus", 2, 2)
        sm = stab("m1", lat)
        idxs = self._flippable_indices(sm)
        assert len(idxs) == 8  # every face term plus every vertex pair check
        for i in idxs:
            assert gsd(sm.with_flipped_target(i)) == 0

    def test_flips_kill_dense_trace(self):
        lat = Lattice("torus", 2, 2)
        h = build_hamiltonian("m1", lat, n=2)
        sm = stab("m1", lat)
        for i in self._flippable_indices(sm):
            projs = []
            for j, (pauli, target) in enumerate(sm.generators):
                t = (target + sm.n // 2) % sm.n if j == i else target
                projs.append(cyclic_projector(pauli, t))
            tr = trace_product(projs, lat, 2)
            assert abs(tr) < 1e-6
