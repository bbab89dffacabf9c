"""Operator catalog: morphism actions, projector families, model builders."""

import numpy as np
import pytest

from gtoric.catalog import (
    MODEL_IDS,
    HamiltonianSpec,
    Term,
    build_hamiltonian,
    cyclic_projector,
    decode_edge_state,
    edge_encoding_matrix,
    encode_edge_state,
    face_corner_string,
    face_holonomy,
    face_projector_family,
    global_shift_symmetry,
    left_action,
    level_projector,
    parse_model_id,
    qubit_image_of_action,
    right_action,
    vertex_projector_family,
)
from gtoric.groupoids import make_isotropy_z2_groupoid, make_sis_groupoid
from gtoric.lattice import DIRECTIONS, Lattice
from gtoric.paulis import OperatorSum, PauliString, PauliTable
from gtoric.stabilizer import StabilizerModel


def family_matrices(fam):
    ops = list(fam.values()) if isinstance(fam, dict) else list(fam)
    sites = sorted(set().union(*[set(p.support()) for p in ops]))
    return [p.restrict(sites).dense_matrix() for p in ops]


def assert_projector_family(mats, complete=True, atol=1e-10):
    dim = mats[0].shape[0]
    for m in mats:
        assert np.allclose(m @ m, m, atol=atol)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert np.allclose(mats[i] @ mats[j], 0, atol=atol)
    if complete:
        assert np.allclose(sum(mats), np.eye(dim), atol=atol)


class TestActions:
    @pytest.mark.parametrize("n", [2, 3])
    def test_action_matrices_are_partial_permutations(self, n):
        g = make_sis_groupoid(n)
        for m in range(len(g)):
            for act in (left_action(g, m), right_action(g, m)):
                assert set(np.unique(act)) <= {0.0, 1.0}
                assert act.sum() == n  # one image per composable morphism

    def test_left_action_composition(self):
        g = make_sis_groupoid(3)
        for a in range(len(g)):
            for b in range(len(g)):
                prod = g.compose(b, a)
                lhs = left_action(g, b) @ left_action(g, a)
                rhs = left_action(g, prod) if prod is not None else np.zeros_like(lhs)
                assert np.allclose(lhs, rhs)

    def test_edge_digit_encoding(self):
        g = make_sis_groupoid(3)
        for m in range(len(g)):
            assert decode_edge_state(g, encode_edge_state(g, m)) == m

    def test_encoding_rejects_general_groupoid(self):
        g = make_isotropy_z2_groupoid()
        with pytest.raises(TypeError):
            encode_edge_state(g, 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_qubit_image_intertwines(self, n):
        g = make_sis_groupoid(n)
        enc = edge_encoding_matrix(g)
        for m in range(len(g)):
            for side, act in (("left", left_action(g, m)), ("right", right_action(g, m))):
                img = qubit_image_of_action(g, m, side).dense_matrix()
                assert np.allclose(enc @ act @ enc.conj().T, img, atol=1e-12)


class TestElementaryProjectors:
    def test_level_projector_matrix(self):
        p = level_projector(2, 1, 0, 1).dense_matrix()
        assert np.allclose(p, np.diag([1.0, 0.0]))
        p2 = level_projector(2, 1, 0, 2).dense_matrix()
        assert np.allclose(p2, np.diag([0.0, 1.0]))

    def test_level_projectors_complete(self):
        for n in (2, 3, 4):
            mats = [level_projector(n, 1, 0, lv).dense_matrix() for lv in range(1, n + 1)]
            assert_projector_family(mats)

    def test_cyclic_projector(self):
        z = PauliString.from_ops(2, 1, z_at={0: 1})
        plus = cyclic_projector(z, 0).dense_matrix()
        minus = cyclic_projector(z, 1).dense_matrix()
        assert np.allclose(plus + minus, np.eye(2))
        assert np.allclose(plus @ minus, 0)


class TestVertexFamily:
    @pytest.mark.parametrize("n,count", [(2, 16), (3, 81)])
    def test_family_partition(self, n, count):
        lat = Lattice("torus", 2, 2)
        fam = vertex_projector_family(lat, (0, 0), n)
        assert len(fam) == count
        assert_projector_family(family_matrices(fam))


class TestFaceFamily:
    def test_five_projectors_partition(self):
        lat = Lattice("torus", 2, 2)
        fam = face_projector_family(lat, (0, 0), 2)
        assert len(fam) == 5
        assert_projector_family(family_matrices(fam))

    def test_identity_holonomy_sum_is_all_corners_matched(self):
        lat = Lattice("torus", 2, 2)
        fam = face_projector_family(lat, (0, 0), 2)
        lhs = fam[("x", 1, 1)] + fam[("x", 2, 2)]
        rhs = OperatorSum.identity(2, lat.n_sites)
        for corner in ("NW", "NE", "SE", "SW"):
            rhs = rhs * cyclic_projector(face_corner_string(lat, (0, 0), corner, 2), 0)
        assert lhs.approx_equal(rhs)

    def test_sample_configuration(self):
        # digits: bottom edge (1,2), right (2,2), top (1,2), left (1,1)
        lat = Lattice("torus", 2, 2)
        g = make_sis_groupoid(2)
        digits = {lat.site_index(s): 1 for s in lat.sites()}
        assign = {
            (0, 0, "E"): 1, (1, 0, "W"): 2,   # bottom edge
            (1, 0, "N"): 2, (1, 1, "S"): 2,   # right edge
            (0, 1, "E"): 1, (1, 1, "W"): 2,   # top edge
            (0, 0, "N"): 1, (0, 1, "S"): 1,   # left edge
        }
        for (x, y, d), v in assign.items():
            digits[lat.site_index(lat.site(x, y, d))] = v
        hol = face_holonomy(g, lat, (0, 0), digits)
        assert g.label(hol) == "x11"


class TestModelBuilders:
    def test_model_ids(self):
        assert "m1" in MODEL_IDS and "boundary" in MODEL_IDS
        assert parse_model_id("zn:3") == ("zn", 3)

    def test_m1_term_inventory(self):
        spec = build_hamiltonian("m1", Lattice("torus", 2, 2))
        counts = spec.term_counts()
        assert counts == {"vertex": 4, "face": 4}
        for t in spec.face_terms():
            (s, target), = t.factors
            assert len(s.support()) == 6
            assert target == 1

    def test_m1_vertex_factors(self):
        lat = Lattice("torus", 2, 2)
        spec = build_hamiltonian("m1", lat)
        for t in spec.vertex_terms():
            factors = dict()
            for s, target in t.factors:
                kind = "x" if any(s.x) else "z"
                factors[kind] = (s, target)
            xs, xt = factors["x"]
            assert len(xs.support()) == 4 and xt == 0
            zs, zt = factors["z"]
            x, y = t.location
            assert set(zs.support()) == {
                lat.site_index(lat.site(x, y, "E")),
                lat.site_index(lat.site(x, y, "N")),
            }
            assert zt == 1

    def test_boundary_term_inventory(self):
        spec = build_hamiltonian("boundary", Lattice("open", 2, 2))
        counts = spec.term_counts()
        assert counts["corner-vertex"] == 4
        assert counts["boundary-vertex"] == 4
        assert counts["vertex"] == 1
        assert counts["face"] == 4

    def test_topology_mismatch(self):
        with pytest.raises(ValueError):
            build_hamiltonian("boundary", Lattice("torus", 2, 2))
        with pytest.raises(ValueError):
            build_hamiltonian("m1", Lattice("open", 2, 2))

    def test_zn2_equals_m2(self):
        lat = Lattice("torus", 2, 2)
        a = build_hamiltonian("zn:2", lat)
        b = build_hamiltonian("m2", lat)
        keys_a = sorted((t.kind, t.location, [(s.key(), tg) for s, tg in t.factors]) for t in a.terms)
        keys_b = sorted((t.kind, t.location, [(s.key(), tg) for s, tg in t.factors]) for t in b.terms)
        assert keys_a == keys_b

    def test_all_terms_are_projectors(self):
        lat = Lattice("torus", 2, 2)
        for model in ("m1", "m2", "m3exp", "mhoriz", "mvert", "mnondeg", "zn:3"):
            spec = build_hamiltonian(model, lat)
            for t in spec.terms:
                assert (t.opsum * t.opsum).approx_equal(t.opsum), (model, t.kind, t.location)


class TestSymmetryOperators:
    def test_global_shift_support(self):
        lat = Lattice("torus", 2, 2)
        op = global_shift_symmetry(lat, 2)
        expected = set()
        for v in lat.vertices():
            expected.add(lat.site_index(lat.site(*v, "E")))
            expected.add(lat.site_index(lat.site(*v, "N")))
        assert set(op.support()) == expected
        assert not any(op.z)


# -- the per-site builder, kept as the reference for the table builder ---------


def _ref_z_string(lat, n, placements):
    z_at = {}
    for site, e in placements:
        idx = lat.site_index(site)
        z_at[idx] = z_at.get(idx, 0) + e
    return PauliString.from_ops(n, lat.n_sites, z_at=z_at)


def _ref_x_string(lat, n, sites):
    return PauliString.from_ops(n, lat.n_sites, x_at={lat.site_index(s): 1 for s in sites})


def _ref_vertex_z(lat, v, n, dirs, exps):
    x, y = v
    return _ref_z_string(lat, n, [(lat.site(x, y, d), e) for d, e in zip(dirs, exps)])


def _ref_corner(lat, f, corner, n):
    exps = {"NW": (-1, 1), "NE": (1, -1), "SE": (1, -1), "SW": (1, -1)}[corner]
    return _ref_z_string(lat, n, list(zip(lat.face_corner_sites(f, corner), exps)))


def _ref_six(lat, f, n, alternating):
    exps = [-1, 1, -1, 1, -1, 1] if alternating else [1] * 6
    return _ref_z_string(lat, n, list(zip(lat.face_nonsw_sites(f), exps)))


def _ref_spec(model, lat, n, terms):
    """The spec of hand-placed terms, their strings stacked into one table."""
    factors = [f for t in terms for f in t.factors]
    table = PauliTable.from_strings(n, lat.n_sites, [s for s, _ in factors])
    layout = [(t.kind, t.location, len(t.factors)) for t in terms]
    return HamiltonianSpec(model, lat, n, table, np.array([t for _, t in factors]), layout)


def reference_hamiltonian(model, lat, n=2):
    """``build_hamiltonian`` as it was written before the table builder: one
    PauliString per factor, placed site by site."""
    model, model_n = parse_model_id(model)
    n = model_n if model == "zn" else n
    terms = []
    if model == "boundary":
        for v in lat.vertices():
            dirs = [d for d in DIRECTIONS if lat.has_site(*v, d)]
            x_all = _ref_x_string(lat, n, lat.vertex_sites(v))
            if len(dirs) == 4:
                zdirs, kind = "EN", "vertex"
            elif len(dirs) == 3:
                zdirs = "WE" if "N" not in dirs or "S" not in dirs else "SN"
                kind = "boundary-vertex"
            else:
                zdirs, kind = dirs, "corner-vertex"
            terms.append(Term(kind, v, [(x_all, 0), (_ref_vertex_z(lat, v, n, zdirs, (1, 1)), 1)]))
        for f in lat.faces():
            terms.append(Term("face", f, [(_ref_six(lat, f, n, alternating=False), 1)]))
        return _ref_spec("boundary", lat, n, terms)
    half = n // 2
    corner_checks = {"NW": ("WN", (-1, 1)), "SW": ("WS", (1, -1)), "SE": ("SE", (1, -1))}
    for v in lat.vertices():
        x4 = _ref_x_string(lat, n, lat.vertex_sites(v))
        z = {
            "m1": ("EN", (1, 1)), "m2": ("EN", (1, 1)), "m3exp": ("WS", (1, 1)),
            "mhoriz": ("WE", (1, 1)), "mvert": ("SN", (1, 1)), "zn": ("NE", (-1, 1)),
        }
        if model == "mnondeg":
            corners = [_ref_vertex_z(lat, v, n, *corner_checks[c]) for c in ("NW", "SW", "SE")]
            factors = [(x4, 0)] + [(s, 0) for s in corners]
        else:
            factors = [(x4, 0), (_ref_vertex_z(lat, v, n, *z[model]), half if model == "m1" else 0)]
        terms.append(Term("vertex", v, factors))
    for f in lat.faces():
        if model in ("m1", "m2"):
            factors = [(_ref_six(lat, f, n, alternating=False), half if model == "m1" else 0)]
        elif model == "m3exp":
            factors = [(_ref_corner(lat, f, "NE", n), 0)]
        elif model == "mhoriz":
            sites = lat.face_corner_sites(f, "NE") + lat.face_corner_sites(f, "NW")
            factors = [(_ref_z_string(lat, n, [(s, 1) for s in sites]), 0)]
        elif model == "mvert":
            sites = lat.face_corner_sites(f, "SE") + lat.face_corner_sites(f, "NE")
            factors = [(_ref_z_string(lat, n, [(s, 1) for s in sites]), 0)]
        elif model == "mnondeg":
            factors = [(_ref_corner(lat, f, c, n), 0) for c in ("NW", "NE", "SE", "SW")]
        else:
            factors = [(_ref_six(lat, f, n, alternating=True), 0)]
        terms.append(Term("face", f, factors))
    return _ref_spec(model if model != "zn" else f"zn:{n}", lat, n, terms)


REFERENCE_CASES = [
    (model, "torus", m, n)
    for model in ("m1", "m2", "m3exp", "mhoriz", "mvert", "mnondeg", "zn:3", "zn:6")
    for m, n in ((2, 2), (3, 2), (4, 3), (5, 5))
] + [("boundary", "open", m, n) for m, n in ((1, 1), (1, 2), (2, 2), (3, 2))]


class TestReferenceBuilder:
    """The table builder writes the terms and generators the per-site
    builder placed one site at a time."""

    @pytest.mark.parametrize("model, topology, m, n", REFERENCE_CASES, ids=lambda v: str(v))
    def test_same_terms_and_table(self, model, topology, m, n):
        lat = Lattice(topology, m, n)
        got, want = build_hamiltonian(model, lat), reference_hamiltonian(model, lat)
        assert (got.model, got.n) == (want.model, want.n)
        assert [(t.kind, t.location) for t in got.terms] == [(t.kind, t.location) for t in want.terms]
        for a, b in zip(got.terms, want.terms):
            assert len(a.factors) == len(b.factors)
            for (s, target), (r, want_target) in zip(a.factors, b.factors):
                assert s.x.dtype == r.x.dtype and s.z.dtype == r.z.dtype
                assert np.array_equal(s.x, r.x) and np.array_equal(s.z, r.z)
                assert (s.phase, target) == (r.phase, want_target)
                assert type(target) is int and type(s.phase) is int
        for name in ("x", "z"):  # each part's entries, field by field
            for a, b in zip(getattr(got.table, name), getattr(want.table, name), strict=True):
                assert np.array_equal(a, b), name
        for name in ("x_gens", "z_gens", "phase"):
            assert np.array_equal(getattr(got.table, name), getattr(want.table, name)), name
        table, ref_table = (StabilizerModel.from_hamiltonian(h).exponent_table for h in (got, want))
        assert table.shape == ref_table.shape
        for a, b in zip(table[1:], ref_table[1:], strict=True):  # the entries, field by field
            assert np.array_equal(a, b)
