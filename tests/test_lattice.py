"""Square-lattice geometry: sites, edges, faces, corner incidence."""

import pytest

from gtoric.lattice import Lattice, MissingSiteError, Site, parse_site


class TestCounts:
    def test_torus_2x2(self):
        lat = Lattice("torus", 2, 2)
        assert len(lat.vertices()) == 4
        assert len(lat.edges()) == 8
        assert len(lat.faces()) == 4
        assert lat.n_sites == 16

    def test_open_3x4(self):
        lat = Lattice("open", 3, 4)
        assert len(lat.vertices()) == 20
        assert len(lat.faces()) == 12
        assert len(lat.edges()) == 31
        assert lat.n_sites == 62

    def test_torus_minimum(self):
        with pytest.raises(ValueError):
            Lattice("torus", 1, 2)

    def test_open_1x1(self):
        lat = Lattice("open", 1, 1)
        assert len(lat.vertices()) == 4
        assert len(lat.edges()) == 4
        assert lat.n_sites == 8


class TestSpecStrings:
    def test_round_trip(self):
        for spec in ("torus:2x3", "open:4x2"):
            assert Lattice.from_spec(spec).spec == spec

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            Lattice.from_spec("klein:2x2")

    def test_site_text(self):
        s = parse_site("(1,2).N")
        assert s == Site(1, 2, "N")
        assert str(s) == "(1,2).N"


class TestEdges:
    def test_horizontal_edge_sites(self):
        lat = Lattice("torus", 3, 3)
        tail, head = lat.edge_sites(("h", 0, 0))
        assert (tail, head) == (Site(0, 0, "E"), Site(1, 0, "W"))

    def test_vertical_edge_sites(self):
        lat = Lattice("torus", 3, 3)
        tail, head = lat.edge_sites(("v", 2, 1))
        assert (tail, head) == (Site(2, 1, "N"), Site(2, 2, "S"))

    def test_vertical_wrap(self):
        lat = Lattice("torus", 3, 3)
        tail, head = lat.edge_sites(("v", 0, 2))
        assert (tail, head) == (Site(0, 2, "N"), Site(0, 0, "S"))


class TestCorners:
    def test_face_corner_pairs(self):
        lat = Lattice("torus", 3, 3)
        assert lat.face_corner_sites((0, 0), "SW") == (Site(0, 0, "N"), Site(0, 0, "E"))
        assert lat.face_corner_sites((0, 0), "NW") == (Site(0, 1, "E"), Site(0, 1, "S"))
        assert lat.face_corner_sites((0, 0), "NE") == (Site(1, 1, "W"), Site(1, 1, "S"))
        assert lat.face_corner_sites((0, 0), "SE") == (Site(1, 0, "N"), Site(1, 0, "W"))

    def test_face_nonsw_sites(self):
        lat = Lattice("torus", 3, 3)
        got = set(lat.face_nonsw_sites((0, 0)))
        assert got == {
            Site(1, 0, "W"), Site(1, 0, "N"), Site(1, 1, "S"),
            Site(1, 1, "W"), Site(0, 1, "E"), Site(0, 1, "S"),
        }
        assert len(lat.face_nonsw_sites((0, 0))) == 6

    def test_vertex_sw_pair_meets_face_ne_pair(self):
        # the SW fan of a vertex uses the same dots as the NE pair of the
        # face whose top-right vertex it is (sets coincide)
        lat = Lattice("torus", 3, 3)
        for x in range(3):
            for y in range(3):
                v_pair = {lat.site(x, y, "S"), lat.site(x, y, "W")}
                f = ((x - 1) % 3, (y - 1) % 3)
                assert v_pair == set(lat.face_corner_sites(f, "NE"))

    def test_open_boundary_corner_missing(self):
        lat = Lattice("open", 2, 2)
        with pytest.raises(MissingSiteError):
            lat.site(0, 2, "N")  # top-left vertex has no N site


class TestIncidence:
    def test_site_partition_by_edges(self):
        for lat in (Lattice("torus", 2, 3), Lattice("open", 3, 2)):
            seen = []
            for e in lat.edges():
                seen.extend(lat.edge_sites(e))
            assert len(seen) == lat.n_sites
            assert len(set(seen)) == lat.n_sites

    def test_torus_sites_in_two_face_pairs(self):
        lat = Lattice("torus", 3, 2)
        counts = {s: 0 for s in lat.sites()}
        for f in lat.faces():
            for corner in ("NW", "NE", "SE", "SW"):
                for s in lat.face_corner_sites(f, corner):
                    counts[s] += 1
        assert set(counts.values()) == {2}

    def test_site_index_bijection(self):
        lat = Lattice("open", 2, 3)
        idx = sorted(lat.site_index(s) for s in lat.sites())
        assert idx == list(range(lat.n_sites))

    def test_open_site_presence(self):
        lat = Lattice("open", 2, 2)
        assert not lat.has_site(0, 0, "W")
        assert not lat.has_site(0, 0, "S")
        assert lat.has_site(0, 0, "N")
        assert lat.has_site(2, 2, "W")
        assert not lat.has_site(2, 2, "E")
