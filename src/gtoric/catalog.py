"""Named operators on the lattice: morphism actions, vertex and face
projector families, and the model Hamiltonians.

Every Hamiltonian here has the shape ``H = -sum_v A_v - sum_f B_f`` where
each term is a product of cyclic projectors ``(1/n) sum_j w_n^{-t j} S^j``
for a Pauli string ``S`` and a target eigenvalue exponent ``t``.  A term
stores only its ``(S, t)`` factor pairs; the stabilizer engine reads them
directly, and the expanded operator is built from them on first read.

Basis/label conventions (see :mod:`gtoric.paulis`): site levels are labelled
1..n with ``|0> == |n>`` and ``Z|i> = w_n^i |i>``.  An edge morphism x_ij is
encoded as the pair (tail digit i, head digit j) on the edge's two sites.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .groupoids import SisGroupoid, ZERO
from .lattice import Lattice
from .paulis import OperatorSum, PauliString, _cmul, _roots, order_divides_n, pauli_to_text

MODEL_IDS = ("m1", "m2", "m3exp", "mhoriz", "mvert", "mnondeg", "zn", "boundary")

VERTEX_CORNER_STRINGS = {
    # corner -> ((direction, z exponent), (direction, z exponent))
    "NW": (("W", -1), ("N", 1)),
    "SW": (("W", 1), ("S", -1)),
    "SE": (("S", 1), ("E", -1)),
}

FACE_CORNER_EXPONENTS = {
    # corner -> (exponent on first site, exponent on second site) in the
    # (site1, site2) order returned by Lattice.face_corner_sites
    "NW": (-1, 1),  # (x,y+1).E gets Z^-1, (x,y+1).S gets Z^+1
    "NE": (1, -1),  # (x+1,y+1).W, (x+1,y+1).S
    "SE": (1, -1),  # (x+1,y).N, (x+1,y).W
    "SW": (1, -1),  # (x,y).E, (x,y).N
}


def parse_model_id(text):
    """Parse a model id string; 'zn:N' carries the qudit dimension."""
    text = text.strip().lower()
    if text.startswith("zn:"):
        arg = text.split(":", 1)[1].strip()
        if not arg.isdecimal() or int(arg) < 2:
            raise ValueError(f"bad model id {text!r}: expected zn:N with integer N >= 2")
        return "zn", int(arg)
    if text in MODEL_IDS and text != "zn":
        return text, 2
    raise ValueError(f"unknown model id {text!r}")


# -- morphism actions ----------------------------------------------------------


def _action_matrix(images):
    """Matrix sending basis morphism h to ``images[h]``; zero products drop."""
    mat = np.zeros((len(images), len(images)), dtype=complex)
    for h, prod in enumerate(images):
        if prod is not ZERO:
            mat[prod, h] = 1.0
    return mat


def left_action(g, m):
    """Matrix of h |-> m . h on the morphism basis (zero products drop)."""
    return _action_matrix([g.compose(m, h) for h in range(len(g))])


def right_action(g, m):
    """Matrix of h |-> h . m on the morphism basis."""
    return _action_matrix([g.compose(h, m) for h in range(len(g))])


def encode_edge_state(g, m):
    """Digit pair (tail, head) of an edge morphism x_ij -> (i, j)."""
    if not isinstance(g, SisGroupoid):
        raise TypeError("edge encoding is defined for the one-morphism-per-pair family")
    return g.pair_of(m)


def decode_edge_state(g, pair):
    if not isinstance(g, SisGroupoid):
        raise TypeError("edge encoding is defined for the one-morphism-per-pair family")
    return g.morphism_of_pair(*pair)


def level_projector(n, nsites, site, level):
    """|level><level| at one site: the w_n^level eigenprojector of Z there."""
    return cyclic_projector(PauliString.from_ops(n, nsites, z_at={site: 1}), level)


def ketbra(n, nsites, site, i, j):
    """|i><j| at one site as an OperatorSum: X^{i-j} |j><j|."""
    shift = PauliString.from_ops(n, nsites, x_at={site: (i - j) % n})
    return OperatorSum.from_pauli(shift) * level_projector(n, nsites, site, j)


def qubit_image_of_action(g, m, side):
    """Two-site operator realizing a morphism action on an edge.

    Site 0 is the edge tail, site 1 the head.  The left action of x_ij is
    |i><j| on the tail; the right action is |j><i| on the head.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    i, j = encode_edge_state(g, m)
    n = g.n
    if side == "left":
        return ketbra(n, 2, 0, i, j)
    return ketbra(n, 2, 1, j, i)


def edge_encoding_matrix(g):
    """Isometry from the morphism basis to the two-digit basis: the column of
    x_ij is the basis vector |i>|j| (site 0 major)."""
    n = g.n
    mat = np.zeros((n * n, n * n), dtype=complex)
    for m in range(len(g)):
        i, j = g.pair_of(m)
        mat[(i - 1) * n + (j - 1), m] = 1.0
    return mat


# -- cyclic projectors ---------------------------------------------------------


def cyclic_projector(s, target):
    """Projector onto the w_n^target eigenspace of the order-n string s:
    ``(1/n) sum_j w_n^{-target j} s^j``, where for ``s = w^p X^x Z^z``
    the power ``s^j`` is ``w^{j p + j(j-1) x.z} X^{j x} Z^{j z}``."""
    if not order_divides_n(s):
        raise ValueError("string has order larger than n; projector undefined")
    n = s.n
    j = np.arange(n)
    xz = np.outer(j, np.concatenate((s.x, s.z))) % n
    phase = (j * s.phase + j * (j - 1) * int(s.x @ s.z)) % (2 * n)
    coeffs = _cmul(_roots(n)[-target * j % n] / n, _roots(2 * n)[phase])
    return OperatorSum._from_arrays(n, s.nsites, coeffs, xz)


def product_of_projectors(factors):
    """Product, in order, of the projectors of one or more (string, target) factors."""
    return reduce(operator.mul, (cyclic_projector(s, t) for s, t in factors))


# -- projector families --------------------------------------------------------


def _z_string(lat, n, placements):
    """PauliString with Z^e at each (site, e) placement."""
    z_at = {}
    for site, e in placements:
        idx = lat.site_index(site)
        z_at[idx] = z_at.get(idx, 0) + e
    return PauliString.from_ops(n, lat.n_sites, z_at=z_at)


def _x_string(lat, n, sites):
    x_at = {lat.site_index(s): 1 for s in sites}
    return PauliString.from_ops(n, lat.n_sites, x_at=x_at)


def vertex_corner_string(lat, v, corner, n):
    """The two-site Z check of one vertex corner (NW, SW or SE)."""
    dirs, exps = zip(*VERTEX_CORNER_STRINGS[corner])
    return _vertex_z_check(lat, v, n, dirs, exps)


def vertex_projector_family(lat, v, n=2):
    """The complete orthogonal vertex projector family at a valence-4 vertex.

    Returns the n^4 projectors indexed lexicographically by
    (shift eigenvalue, NW check, SW check, SE check); index 0 is the
    all-matched, shift-symmetric projector used by the non-degenerate model.
    """
    x4 = _x_string(lat, n, lat.vertex_sites(v))
    corners = [vertex_corner_string(lat, v, c, n) for c in ("NW", "SW", "SE")]
    out = []
    for k in range(n):
        for k1 in range(n):
            for k2 in range(n):
                for k3 in range(n):
                    factors = [(x4, k), (corners[0], k1), (corners[1], k2), (corners[2], k3)]
                    out.append(product_of_projectors(factors))
    return out


def face_corner_string(lat, f, corner, n):
    """The two-site Z check across one face corner."""
    s1, s2 = lat.face_corner_sites(f, corner)
    e1, e2 = FACE_CORNER_EXPONENTS[corner]
    return _z_string(lat, n, [(s1, e1), (s2, e2)])


def face_projector_family(lat, f, n=2):
    """Holonomy projectors of one face plus the excited-corner remainder.

    Returns a dict mapping ``("x", i, k)`` to the projector measuring
    holonomy x_ik (source digit i at the SW vertex's N site, target digit k
    at its E site) and ``"zero"`` to the complement (at least one corner
    mismatched).
    """
    x, y = f
    corners = [(face_corner_string(lat, f, c, n), 0) for c in ("NW", "NE", "SE")]
    matched = product_of_projectors(corners)
    n_site = lat.site_index(lat.site(x, y, "N"))
    e_site = lat.site_index(lat.site(x, y, "E"))
    family = {}
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            family[("x", i, k)] = (
                matched
                * level_projector(n, lat.n_sites, n_site, i)
                * level_projector(n, lat.n_sites, e_site, k)
            )
    # the four holonomy projectors partition the matched sector, so the
    # excited remainder is everything with some outer corner mismatched
    family["zero"] = OperatorSum.identity(n, lat.n_sites) - matched
    return family


# -- Hamiltonians --------------------------------------------------------------


@dataclass
class Term:
    """One commuting-projector Hamiltonian term, stored as its stabilizer factors."""

    kind: str  # vertex | face | boundary-vertex | corner-vertex
    location: tuple
    factors: list  # list of (PauliString, target exponent mod n)

    @cached_property
    def opsum(self):
        """The expanded OperatorSum, built on first read and kept."""
        return product_of_projectors(self.factors)


@dataclass
class HamiltonianSpec:
    model: str
    lattice: Lattice
    n: int
    terms: list = field(default_factory=list)

    def term_counts(self):
        counts = {}
        for t in self.terms:
            counts[t.kind] = counts.get(t.kind, 0) + 1
        return counts

    def vertex_terms(self):
        return [t for t in self.terms if t.kind.endswith("vertex")]

    def face_terms(self):
        return [t for t in self.terms if t.kind == "face"]

    def to_json_dict(self):
        return {
            "model": self.model,
            "lattice": self.lattice.spec,
            "n": self.n,
            "terms": [
                {
                    "kind": t.kind,
                    "location": list(t.location),
                    "factors": [
                        {"string": pauli_to_text(s, self.lattice), "target": tgt}
                        for s, tgt in t.factors
                    ],
                }
                for t in self.terms
            ],
        }


def _six_site_face_string(lat, f, n, alternating):
    """Z string on the six face-corner sites away from the SW corner.

    With ``alternating`` the exponents alternate -1, +1 clockwise from the
    SE corner's W site (the general-n pattern); otherwise all exponents are 1.
    """
    sites = lat.face_nonsw_sites(f)
    if alternating:
        exps = [-1, 1, -1, 1, -1, 1]
    else:
        exps = [1] * 6
    return _z_string(lat, n, list(zip(sites, exps)))


def _vertex_z_check(lat, v, n, dirs, exps):
    x, y = v
    return _z_string(lat, n, [(lat.site(x, y, d), e) for d, e in zip(dirs, exps)])


def build_hamiltonian(model, lat, n=2):
    """Construct a model Hamiltonian as a list of commuting projector terms.

    ``model`` is a model-id string ('m1' ... 'mnondeg', 'zn:N', 'boundary').
    All torus models live on the torus; 'boundary' needs the open topology.
    """
    if isinstance(model, str):
        model, model_n = parse_model_id(model)
        if model == "zn":
            n = model_n
    if model == "boundary":
        if lat.topology != "open":
            raise ValueError("the boundary model needs an open lattice")
        if n != 2:
            raise ValueError("the boundary model is a two-level model")
        return _build_boundary(lat)
    if lat.topology != "torus":
        raise ValueError(f"model {model!r} needs a torus")
    if model != "zn" and n != 2:
        raise ValueError(f"model {model!r} is a two-level model")

    spec = HamiltonianSpec(model if model != "zn" else f"zn:{n}", lat, n)
    half = n // 2  # exponent of the -1 eigenvalue target for even n

    for v in lat.vertices():
        x4 = _x_string(lat, n, lat.vertex_sites(v))
        if model == "m1":
            factors = [(x4, 0), (_vertex_z_check(lat, v, n, "EN", (1, 1)), half)]
        elif model == "m2":
            factors = [(x4, 0), (_vertex_z_check(lat, v, n, "EN", (1, 1)), 0)]
        elif model == "m3exp":
            factors = [(x4, 0), (_vertex_z_check(lat, v, n, "WS", (1, 1)), 0)]
        elif model == "mhoriz":
            factors = [(x4, 0), (_vertex_z_check(lat, v, n, "WE", (1, 1)), 0)]
        elif model == "mvert":
            factors = [(x4, 0), (_vertex_z_check(lat, v, n, "SN", (1, 1)), 0)]
        elif model == "mnondeg":
            factors = [(x4, 0)] + [
                (vertex_corner_string(lat, v, c, n), 0) for c in ("NW", "SW", "SE")
            ]
        elif model == "zn":
            factors = [(x4, 0), (_vertex_z_check(lat, v, n, "NE", (-1, 1)), 0)]
        else:
            raise ValueError(f"unknown model {model!r}")
        spec.terms.append(Term("vertex", v, factors))

    for f in lat.faces():
        x, y = f
        if model == "m1":
            factors = [(_six_site_face_string(lat, f, n, alternating=False), half)]
        elif model == "m2":
            factors = [(_six_site_face_string(lat, f, n, alternating=False), 0)]
        elif model == "m3exp":
            factors = [(face_corner_string(lat, f, "NE", n), 0)]
        elif model == "mhoriz":
            ne = lat.face_corner_sites(f, "NE")
            nw = lat.face_corner_sites(f, "NW")
            factors = [(_z_string(lat, n, [(s, 1) for s in ne + nw]), 0)]
        elif model == "mvert":
            se = lat.face_corner_sites(f, "SE")
            ne = lat.face_corner_sites(f, "NE")
            factors = [(_z_string(lat, n, [(s, 1) for s in se + ne]), 0)]
        elif model == "mnondeg":
            factors = [(face_corner_string(lat, f, c, n), 0) for c in ("NW", "NE", "SE", "SW")]
        elif model == "zn":
            factors = [(_six_site_face_string(lat, f, n, alternating=True), 0)]
        spec.terms.append(Term("face", f, factors))

    return spec


def _build_boundary(lat):
    """Open-lattice model: bulk terms as in model m1, three-site boundary
    vertex checks and two-site corner checks along the smooth boundary."""
    n = 2
    spec = HamiltonianSpec("boundary", lat, n)
    for v in lat.vertices():
        dirs = lat.vertex_directions(v)
        sites = lat.vertex_sites(v)
        x_all = _x_string(lat, n, sites)
        if len(dirs) == 4:
            factors = [(x_all, 0), (_vertex_z_check(lat, v, n, "EN", (1, 1)), 1)]
            kind = "vertex"
        elif len(dirs) == 3:
            # Z check on the two collinear sites, skipping the stem
            if "N" not in dirs or "S" not in dirs:
                zdirs = "WE"
            else:
                zdirs = "SN"
            factors = [(x_all, 0), (_vertex_z_check(lat, v, n, zdirs, (1, 1)), 1)]
            kind = "boundary-vertex"
        else:
            factors = [(x_all, 0), (_vertex_z_check(lat, v, n, dirs, (1, 1)), 1)]
            kind = "corner-vertex"
        spec.terms.append(Term(kind, v, factors))
    for f in lat.faces():
        factors = [(_six_site_face_string(lat, f, n, alternating=False), 1)]
        spec.terms.append(Term("face", f, factors))
    return spec


def global_shift_symmetry(lat, n=2):
    """X on every vertex's E and N sites: the global symmetry of the torus
    models."""
    sites = []
    for v in lat.vertices():
        x, y = v
        sites.append(lat.site(x, y, "E"))
        sites.append(lat.site(x, y, "N"))
    return _x_string(lat, n, sites)


def face_holonomy(g, lat, f, digits):
    """Compose a face's edge morphisms from a digit configuration, clockwise
    from the SW vertex: left edge, top edge, reversed right edge, reversed
    bottom edge.  ``digits`` maps site index -> level label (1..n)."""
    left, top, right, bottom = lat.face_edges(f)

    def edge_morphism(edge):
        tail, head = lat.edge_sites(edge)
        return g.morphism_of_pair(digits[lat.site_index(tail)], digits[lat.site_index(head)])

    chain = [
        edge_morphism(left),
        edge_morphism(top),
        g.inverse(edge_morphism(right)),
        g.inverse(edge_morphism(bottom)),
    ]
    return g.compose_chain(chain)
