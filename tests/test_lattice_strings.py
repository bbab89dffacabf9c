"""Every string placed on the lattice goes through ``paulis.lattice_string``.

The dict builders below are the per-site code that the catalog and the
stabilizer engine used before the helper, kept as the reference: each
string built now must equal its reference in x, z and phase, and raise
where the reference raises.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from gtoric import catalog, stabilizer
from gtoric.catalog import (
    FACE_CORNER_EXPONENTS,
    VERTEX_CORNER_STRINGS,
    build_hamiltonian,
    face_corner_string,
    global_shift_symmetry,
    vertex_corner_string,
    vertex_projector_family,
)
from gtoric.lattice import Lattice, MissingSiteError, Site
from gtoric.paulis import PauliString, lattice_string
from gtoric.stabilizer import (
    PATH_KINDS,
    InvalidPathError,
    PathSpec,
    StabilizerModel,
    confinement_profile,
    string_operator,
)

# -- the dict builders, kept as the reference ------------------------------------


def _ref_z_string(lat, n, placements):
    z_at = {}
    for site, e in placements:
        idx = lat.site_index(site)
        z_at[idx] = z_at.get(idx, 0) + e
    return PauliString.from_ops(n, lat.n_sites, z_at=z_at)


def _ref_x_string(lat, n, sites):
    return PauliString.from_ops(n, lat.n_sites, x_at={lat.site_index(s): 1 for s in sites})


def ref_string_operator(lat, path, n):
    path.validate()
    x_at = {}
    for (x, y), kind in path.steps:
        for d in PATH_KINDS[kind]:
            idx = lat.site_index(lat.site(x, y, d))
            x_at[idx] = x_at.get(idx, 0) + 1
    return PauliString.from_ops(n, lat.n_sites, x_at=x_at)


def ref_confinement_string(m, direction, length):
    lat = m.lattice
    if direction == "allowed":
        if m.model == "mhoriz":
            if length > lat.m - 1:
                raise InvalidPathError("path exceeds the lattice")
            steps = [((x, 1), "II") for x in range(length)]
        else:
            if length > lat.n - 1:
                raise InvalidPathError("path exceeds the lattice")
            steps = [((1, y), "I") for y in range(length)]
        return ref_string_operator(lat, PathSpec(steps), m.n)
    if direction == "forbidden-vertical":
        if length > lat.n - 1:
            raise InvalidPathError("path exceeds the lattice")
        return _ref_x_string(lat, m.n, [lat.site(0, y, "E") for y in range(length)])
    if length > lat.m - 1:
        raise InvalidPathError("path exceeds the lattice")
    return _ref_x_string(lat, m.n, [lat.site(x, 0, "N") for x in range(length)])


def ref_vertex_corner_string(lat, v, corner, n):
    x, y = v
    return _ref_z_string(lat, n, [(lat.site(x, y, d), e) for d, e in VERTEX_CORNER_STRINGS[corner]])


def ref_face_corner_string(lat, f, corner, n):
    s1, s2 = lat.face_corner_sites(f, corner)
    e1, e2 = FACE_CORNER_EXPONENTS[corner]
    return _ref_z_string(lat, n, [(s1, e1), (s2, e2)])


def ref_vertex_x_string(lat, v, n):
    return _ref_x_string(lat, n, lat.vertex_sites(v))


def ref_global_shift(lat, n):
    sites = []
    for x, y in lat.vertices():
        sites.append(lat.site(x, y, "E"))
        sites.append(lat.site(x, y, "N"))
    return _ref_x_string(lat, n, sites)


# -- comparison ------------------------------------------------------------------


def outcome(build):
    """The string ``build()`` returns, or the type of the error it raises."""
    try:
        return build()
    except (KeyError, ValueError) as exc:
        return type(exc)


def assert_same(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert isinstance(got, PauliString)
    assert got.n == want.n
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.z, want.z)
    assert got.phase == want.phase


LATTICES = [("torus", 4, 3), ("open", 2, 2)]
MODELS = [("m1", "torus", 4, 3), ("mhoriz", "torus", 4, 3), ("mvert", "torus", 4, 3),
          ("zn:3", "torus", 4, 3), ("boundary", "open", 2, 2)]


@pytest.fixture(params=MODELS, ids=lambda c: f"{c[0]}-{c[1]}:{c[2]}x{c[3]}")
def model(request):
    name, topology, m, n = request.param
    return StabilizerModel.from_hamiltonian(build_hamiltonian(name, Lattice(topology, m, n)))


# -- parity ----------------------------------------------------------------------


class TestStringOperatorParity:
    PATHS = {
        "straight": [((1, y), "I") for y in range(3)],
        "detour": [((1, 0), "I"), ((1, 1), "II"), ((1, 1), "IV"), ((1, 2), "I")],
        "I and III": [((1, 1), "I"), ((1, 1), "III")],
    }

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("spec", LATTICES, ids=lambda s: f"{s[0]}:{s[1]}x{s[2]}")
    @pytest.mark.parametrize("name", PATHS)
    def test_equals_reference(self, name, spec, n):
        lat = Lattice(*spec)
        path = PathSpec(self.PATHS[name])
        assert_same(string_operator(lat, path, n), ref_string_operator(lat, path, n))

    @pytest.mark.parametrize("n, w", [(2, 0), (3, 2)])
    def test_twice_placed_site_adds(self, n, w):
        # I and III both place X on the W site: X^2 vanishes for n = 2 only
        lat = Lattice("torus", 4, 3)
        s = string_operator(lat, PathSpec(self.PATHS["I and III"]), n)
        assert s.x[lat.site_index((1, 1, "W"))] == w
        assert s.x[lat.site_index((1, 1, "S"))] == 1


class TestConfinementParity:
    DIRECTIONS = ("allowed", "forbidden-vertical", "forbidden-horizontal")

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_every_length(self, model, direction, monkeypatch):
        lat = model.lattice
        built = []

        def recording_syndrome(m, err):
            built.append(err)
            return SimpleNamespace(energy=0)

        admissible = []
        for length in range(max(lat.m, lat.n) + 1):
            want = outcome(lambda: ref_confinement_string(model, direction, length))
            if want is InvalidPathError:
                break
            admissible.append(length)
            with monkeypatch.context() as mp:
                mp.setattr(stabilizer, "syndrome", recording_syndrome)
                confinement_profile(model, direction, [length])
            assert_same(built.pop(), want)
        # the first inadmissible length is refused
        with pytest.raises(InvalidPathError):
            confinement_profile(model, direction, [admissible[-1] + 1])
        energies = [stabilizer.syndrome(model, ref_confinement_string(model, direction, k)).energy
                    for k in admissible]
        assert confinement_profile(model, direction, admissible) == energies


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spec", LATTICES, ids=lambda s: f"{s[0]}:{s[1]}x{s[2]}")
class TestCatalogStringParity:
    def test_vertex_corner_strings(self, spec, n):
        lat = Lattice(*spec)
        for v in lat.vertices():
            for corner in VERTEX_CORNER_STRINGS:
                assert_same(outcome(lambda: vertex_corner_string(lat, v, corner, n)),
                            outcome(lambda: ref_vertex_corner_string(lat, v, corner, n)))

    def test_face_corner_strings(self, spec, n):
        lat = Lattice(*spec)
        for f in lat.faces():
            for corner in FACE_CORNER_EXPONENTS:
                assert_same(face_corner_string(lat, f, corner, n), ref_face_corner_string(lat, f, corner, n))

    def test_vertex_family_strings(self, spec, n, monkeypatch):
        # the family's factors, captured at its first projector product
        class Captured(Exception):
            pass

        def capture(factors):
            raise Captured([s for s, _ in factors])

        monkeypatch.setattr(catalog, "product_of_projectors", capture)
        lat = Lattice(*spec)
        for v in lat.vertices():
            try:
                vertex_projector_family(lat, v, n)
            except Captured as got:
                x4, *corners = got.args[0]
            except MissingSiteError:
                # a boundary vertex lacks a corner check's site
                assert lat.topology == "open"
                continue
            else:
                raise AssertionError("the family formed no product")
            assert_same(x4, ref_vertex_x_string(lat, v, n))
            for s, corner in zip(corners, ("NW", "SW", "SE")):
                assert_same(s, ref_vertex_corner_string(lat, v, corner, n))

    def test_global_shift(self, spec, n):
        lat = Lattice(*spec)
        assert_same(outcome(lambda: global_shift_symmetry(lat, n)), outcome(lambda: ref_global_shift(lat, n)))


# -- the helper's own edges ------------------------------------------------------


class TestLatticeString:
    def test_site_and_tuple_placements_add(self):
        lat = Lattice("torus", 3, 3)
        s = lattice_string(lat, 3, x=[(Site(1, 2, "N"), 1), ((4, 5, "N"), 1)], z=[((0, 0, "E"), -1)])
        assert s.x[lat.site_index((1, 2, "N"))] == 2
        assert s.z[lat.site_index((0, 0, "E"))] == 2
        assert s.phase == 0
        assert len(s.support()) == 2

    def test_missing_site(self):
        lat = Lattice("open", 2, 2)
        with pytest.raises(MissingSiteError):
            lattice_string(lat, 2, x=[((0, 0, "W"), 1)])
        with pytest.raises(MissingSiteError):
            lattice_string(lat, 2, z=[(Site(2, 1, "E"), 1)])

    def test_vertex_off_the_lattice(self):
        lat = Lattice("open", 2, 2)
        with pytest.raises(ValueError) as info:
            lattice_string(lat, 2, x=[((3, 0, "N"), 1)])
        assert not isinstance(info.value, KeyError)

    def test_unknown_confinement_direction(self):
        sm = StabilizerModel.from_hamiltonian(build_hamiltonian("m1", Lattice("torus", 3, 3)))
        with pytest.raises(ValueError, match="unknown direction"):
            confinement_profile(sm, "diagonal", [])
