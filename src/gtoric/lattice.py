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
by every operator in the package.  ``Lattice.index[x, y, d]`` holds it as
one dense array, -1 where an open lattice has no site; ``site_index`` reads
it, and the catalog indexes it with whole arrays of vertices at once.
``FACE_CORNERS`` and ``FACE_NONSW`` give the face-corner sites as offsets
from a face's SW vertex, for both.

The holonomy of a face is read clockwise starting from its SW vertex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DIRECTIONS = ("W", "N", "E", "S")
_DIRECTION_CODE = {d: i for i, d in enumerate(DIRECTIONS)}

# face-corner site pairs as (dx, dy, direction) offsets from the face's SW vertex
FACE_CORNERS = {
    "NW": ((0, 1, "E"), (0, 1, "S")),
    "NE": ((1, 1, "W"), (1, 1, "S")),
    "SE": ((1, 0, "N"), (1, 0, "W")),
    "SW": ((0, 0, "N"), (0, 0, "E")),
}
# the six corner sites away from the SW corner, clockwise from the SE corner
FACE_NONSW = ((1, 0, "W"), (1, 0, "N"), (1, 1, "S"), (1, 1, "W"), (0, 1, "E"), (0, 1, "S"))


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
        # index[x, y, d]: the site at vertex (x, y) in direction DIRECTIONS[d],
        # numbered row-major over vertices (y, then x) and then by direction;
        # -1 where an open lattice's boundary vertex has no such site
        present = np.ones((self.vy_range, self.vx_range, 4), dtype=bool)
        if topology == "open":
            present[:, 0, 0] = False  # W
            present[n, :, 1] = False  # N
            present[:, m, 2] = False  # E
            present[0, :, 3] = False  # S
        index = np.where(present, np.cumsum(present).reshape(present.shape) - 1, -1)
        self.index = np.ascontiguousarray(index.transpose(1, 0, 2))
        self.index.setflags(write=False)
        self.n_sites = int(present.sum())

    @cached_property
    def _sites(self):
        """The Site of each index, built on first use."""
        ys, xs, ds = np.nonzero(self.index.transpose(1, 0, 2) >= 0)  # in index order
        return [Site(x, y, DIRECTIONS[d]) for x, y, d in zip(xs.tolist(), ys.tolist(), ds.tolist())]

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

    def _lookup(self, x, y, d):
        """Index of the site at wrapped vertex (x, y) in direction d, or -1."""
        x, y = self.wrap(x, y)
        code = _DIRECTION_CODE.get(d)
        return -1 if code is None else int(self.index[x, y, code])

    def site(self, x, y, d):
        """Site at wrapped vertex (x, y) in direction d."""
        idx = self._lookup(x, y, d)
        if idx < 0:
            x, y = self.wrap(x, y)
            raise MissingSiteError(f"vertex ({x},{y}) has no {d} site")
        return self._sites[idx]

    def site_index(self, site):
        if isinstance(site, Site):
            key = (site.x, site.y, site.direction)
        else:
            key = site
        idx = self._lookup(*key)
        if idx < 0:
            x, y = self.wrap(key[0], key[1])
            raise MissingSiteError(f"no site {(x, y, key[2])}")
        return idx

    def has_site(self, x, y, d):
        try:
            return self._lookup(x, y, d) >= 0
        except ValueError:
            return False

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
        if corner not in FACE_CORNERS:
            raise ValueError(f"bad corner {corner!r}")
        return tuple(self._offset_site(face, p) for p in FACE_CORNERS[corner])

    def face_nonsw_sites(self, face):
        """The six face-corner sites away from the SW corner, clockwise
        from the SE corner."""
        return [self._offset_site(face, p) for p in FACE_NONSW]

    def _offset_site(self, face, placement):
        dx, dy, d = placement
        return self.site(face[0] + dx, face[1] + dy, d)

    def face_edges(self, face):
        """Edges bounding a face as (left, top, right, bottom), all oriented
        east/north; left/right point up, top/bottom point east."""
        x, y = face
        return (("v", x, y), ("h", x, y + 1), ("v", (x + 1) % self.m if self.topology == "torus" else x + 1, y), ("h", x, y))

    def vertex_sites(self, vertex):
        """All sites of a vertex in direction order W, N, E, S."""
        x, y = vertex
        return [self.site(x, y, d) for d in DIRECTIONS if self.has_site(x, y, d)]

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
