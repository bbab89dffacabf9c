"""Oriented square lattices with a four-sites-per-vertex qudit layout.

Each vertex carries up to four sites, one per incident edge direction
(W, N, E, S).  Horizontal edges point east and vertical edges point north.
An edge's degree of freedom is split over the two sites adjacent to its
endpoints: the tail site sits at the source vertex (direction E or N) and
the head site at the target vertex (direction W or S).

Supported topologies:

* ``torus``  -- m x n faces and vertices, wrapping in both directions
  (minimum 2 x 2 so that no face is adjacent to itself).
* ``open``   -- m x n complete faces with smooth boundaries; boundary and
  corner vertices only carry the sites of their incident edges.

Site linear indexing is row-major over vertices (y, then x) with the fixed
direction order W, N, E, S; this ordering defines the qudit positions used
by every operator in the package.

The holonomy of a face is read clockwise starting from its SW vertex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

DIRECTIONS = ("W", "N", "E", "S")


@dataclass(frozen=True, order=True)
class Site:
    """One qudit site: a vertex coordinate plus an edge direction."""

    x: int
    y: int
    direction: str

    def __str__(self):
        return f"({self.x},{self.y}).{self.direction}"


_SITE_RE = re.compile(r"^\((-?\d+),(-?\d+)\)\.([WNES])$")


def parse_site(text):
    m = _SITE_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad site syntax: {text!r} (expected '(x,y).D')")
    return Site(int(m.group(1)), int(m.group(2)), m.group(3))


class MissingSiteError(KeyError):
    """Raised when an open-lattice vertex lacks the requested site."""


class Lattice:
    """Vertex/edge/face/site incidence for a torus or open square lattice."""

    def __init__(self, topology, m, n):
        if topology not in ("torus", "open"):
            raise ValueError(f"unknown topology {topology!r}")
        if topology == "torus" and (m < 2 or n < 2):
            raise ValueError("torus needs at least 2x2 faces")
        if topology == "open" and (m < 1 or n < 1):
            raise ValueError("open lattice needs at least 1x1 faces")
        self.topology = topology
        self.m = m
        self.n = n
        if topology == "torus":
            self.vx_range = m
            self.vy_range = n
        else:
            self.vx_range = m + 1
            self.vy_range = n + 1
        self._sites = []
        self._site_index = {}
        for y in range(self.vy_range):
            for x in range(self.vx_range):
                for d in DIRECTIONS:
                    if self._direction_present(x, y, d):
                        self._site_index[(x, y, d)] = len(self._sites)
                        self._sites.append(Site(x, y, d))

    def _direction_present(self, x, y, d):
        if self.topology == "torus":
            return True
        return {
            "W": x > 0,
            "E": x < self.m,
            "S": y > 0,
            "N": y < self.n,
        }[d]

    # -- counts ----------------------------------------------------------

    @property
    def n_sites(self):
        return len(self._sites)

    # -- element enumeration ---------------------------------------------

    def vertices(self):
        return [(x, y) for y in range((self.vy_range)) for x in range(self.vx_range)]

    def faces(self):
        return [(x, y) for y in range(self.n) for x in range(self.m)]

    def edges(self):
        out = []
        if self.topology == "torus":
            for y in range(self.n):
                for x in range(self.m):
                    out.append(("h", x, y))
                    out.append(("v", x, y))
        else:
            for y in range(self.n + 1):
                for x in range(self.m):
                    out.append(("h", x, y))
            for y in range(self.n):
                for x in range(self.m + 1):
                    out.append(("v", x, y))
        return out

    def sites(self):
        return list(self._sites)

    # -- coordinates and indexing ------------------------------------------

    def wrap(self, x, y):
        if self.topology == "torus":
            return x % self.m, y % self.n
        if not (0 <= x <= self.m and 0 <= y <= self.n):
            raise ValueError(f"vertex ({x},{y}) outside open lattice")
        return x, y

    def site(self, x, y, d):
        """Site at wrapped vertex (x, y) in direction d."""
        x, y = self.wrap(x, y)
        key = (x, y, d)
        if key not in self._site_index:
            raise MissingSiteError(f"vertex ({x},{y}) has no {d} site")
        return self._sites[self._site_index[key]]

    def site_index(self, site):
        if isinstance(site, Site):
            key = (site.x, site.y, site.direction)
        else:
            key = site
        x, y = self.wrap(key[0], key[1])
        key = (x, y, key[2])
        if key not in self._site_index:
            raise MissingSiteError(f"no site {key}")
        return self._site_index[key]

    def has_site(self, x, y, d):
        try:
            x, y = self.wrap(x, y)
        except ValueError:
            return False
        return (x, y, d) in self._site_index

    # -- incidence ---------------------------------------------------------

    def edge_sites(self, edge):
        """(tail, head) site pair of an oriented edge.

        Horizontal edge at (x, y): tail (x,y).E, head (x+1,y).W.
        Vertical edge at (x, y):   tail (x,y).N, head (x,y+1).S.
        """
        axis, x, y = edge
        if axis == "h":
            return self.site(x, y, "E"), self.site(x + 1, y, "W")
        if axis == "v":
            return self.site(x, y, "N"), self.site(x, y + 1, "S")
        raise ValueError(f"bad edge {edge!r}")

    def face_corner_sites(self, face, corner):
        """The two sites sitting at one corner of a face.

        The face is named by its SW vertex (x, y).  Each corner pair holds
        the two edge-end sites that meet there inside the face.
        """
        x, y = face
        if corner == "NW":
            return self.site(x, y + 1, "E"), self.site(x, y + 1, "S")
        if corner == "NE":
            return self.site(x + 1, y + 1, "W"), self.site(x + 1, y + 1, "S")
        if corner == "SE":
            return self.site(x + 1, y, "N"), self.site(x + 1, y, "W")
        if corner == "SW":
            return self.site(x, y, "N"), self.site(x, y, "E")
        raise ValueError(f"bad corner {corner!r}")

    def face_nonsw_sites(self, face):
        """The six face-corner sites away from the SW corner, clockwise
        from the SE corner."""
        x, y = face
        return [
            self.site(x + 1, y, "W"),
            self.site(x + 1, y, "N"),
            self.site(x + 1, y + 1, "S"),
            self.site(x + 1, y + 1, "W"),
            self.site(x, y + 1, "E"),
            self.site(x, y + 1, "S"),
        ]

    def face_edges(self, face):
        """Edges bounding a face as (left, top, right, bottom), all oriented
        east/north; left/right point up, top/bottom point east."""
        x, y = face
        return (("v", x, y), ("h", x, y + 1), ("v", (x + 1) % self.m if self.topology == "torus" else x + 1, y), ("h", x, y))

    def vertex_sites(self, vertex):
        """All sites of a vertex in direction order W, N, E, S."""
        x, y = vertex
        return [self.site(x, y, d) for d in DIRECTIONS if self.has_site(x, y, d)]

    def vertex_directions(self, vertex):
        x, y = vertex
        return [d for d in DIRECTIONS if self.has_site(x, y, d)]

    # -- parsing -------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec):
        """Parse a lattice description like 'torus:3x4' or 'open:2x2'."""
        m = re.match(r"^(torus|open):(\d+)x(\d+)$", spec.strip())
        if not m:
            raise ValueError(f"bad lattice spec {spec!r} (expected 'torus:MxN')")
        return cls(m.group(1), int(m.group(2)), int(m.group(3)))

    @property
    def spec(self):
        return f"{self.topology}:{self.m}x{self.n}"

    def __repr__(self):
        return f"Lattice({self.spec!r})"
