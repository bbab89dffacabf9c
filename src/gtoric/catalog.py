"""Named operators on the lattice: morphism actions, vertex and face
projector families, and the model Hamiltonians.

Every Hamiltonian here has the shape ``H = -sum_v A_v - sum_f B_f`` where
each term is a product of cyclic projectors ``(1/n) sum_j w_n^{-t j} S^j``
for a Pauli string ``S`` and a target eigenvalue exponent ``t``.  A term
holds only its ``(S, t)`` factor pairs, and the expanded operator is built
from them on first read.

A model is declared in ``TORUS_MODELS`` as its vertex and face factors, each
a pure X or Z string given by site offsets and exponents.
``build_hamiltonian`` writes a factor for all vertices or all faces at once
by indexing the lattice's site-index array.  A model's generators are
stored once, as one ``PauliTable`` and one target each; the terms, their
strings scattered from the table's entries, are built on first read.  The
per-site helpers below (``vertex_corner_string``, ``face_corner_string``,
the projector families, ``global_shift_symmetry``) build single strings for
the symbolic checks, each through ``paulis.lattice_string``.

Basis/label conventions (see :mod:`gtoric.paulis`): site levels are labelled
1..n with ``|0> == |n>`` and ``Z|i> = w_n^i |i>``.  An edge morphism x_ij is
encoded as the pair (tail digit i, head digit j) on the edge's two sites.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice

import numpy as np

from .groupoids import SisGroupoid, ZERO
from .lattice import DIRECTIONS, FACE_CORNERS, FACE_NONSW, Lattice
from .oracle import _check_budget
from .paulis import (
    OperatorSum, PauliString, PauliTable, _cmul, _roots, act, clock_exponents, lattice_string,
    order_divides_n, power_action,
)

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


def projector_action(s, target):
    """``cyclic_projector(s, target)`` prepared for ``project`` without
    expanding it, as ``(scale, powers)``: the projector is ``scale`` times the
    state plus each of the powers' ``paulis.act``.  A Z-only string is
    diagonal, with eigenvalue ``w^{phase + 2 z.level}`` on a basis state, so
    its projector is the exact 0/1 mask of the states where
    ``2 (z.level) + phase = 2 target (mod 2n)`` and it has no powers;
    otherwise ``scale`` is the identity's coefficient 1/n and the powers are
    ``w_n^{-target j} s^j / n`` for j = 1..n-1."""
    n = s.n
    if not s.x.any():
        return (2 * clock_exponents(n, s.z) + s.phase) % (2 * n) == 2 * target % (2 * n), ()
    roots = _roots(n)
    return roots[0] / n, [power_action(s, j, roots[-target * j % n] / n) for j in range(1, n)]


def project(action, state):
    """A projector prepared by ``projector_action`` applied to a state viewed
    as an ``(n,) * nsites`` array."""
    scale, powers = action
    out = state * scale
    for power in powers:
        out += act(power, state)
    return out


# -- projector families --------------------------------------------------------


def vertex_corner_string(lat, v, corner, n):
    """The two-site Z check of one vertex corner (NW, SW or SE)."""
    x, y = v
    return lattice_string(lat, n, z=[((x, y, d), e) for d, e in VERTEX_CORNER_STRINGS[corner]])


def vertex_projector_family(lat, v, n=2):
    """The complete orthogonal vertex projector family at a valence-4 vertex.

    Returns the n^4 projectors indexed lexicographically by
    (shift eigenvalue, NW check, SW check, SE check); index 0 is the
    all-matched, shift-symmetric projector used by the non-degenerate model.
    """
    x4 = lattice_string(lat, n, x=[(s, 1) for s in lat.vertex_sites(v)])
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
    return lattice_string(lat, n, z=zip(lat.face_corner_sites(f, corner), FACE_CORNER_EXPONENTS[corner]))


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
    n_site = lat.site_index((x, y, "N"))
    e_site = lat.site_index((x, y, "E"))
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

    @cached_property
    def _actions(self):
        """Each factor's projector prepared by ``projector_action``, the last
        factor first: small arrays over the factors' supports."""
        return [projector_action(s, t) for s, t in reversed(self.factors)]

    def apply(self, vec):
        """The term applied to a state vector factor by factor, never
        through ``opsum``: the product of the factors' projectors in order,
        so the last factor acts first."""
        n, nsites = self.factors[0][0].n, self.factors[0][0].nsites
        _check_budget(n, nsites)
        state = np.asarray(vec, dtype=complex).reshape((n,) * nsites)
        for action in self._actions:
            state = project(action, state)
        return state.ravel()


@dataclass(eq=False)
class HamiltonianSpec:
    """A model's generators, term by term, as one ``table`` and one target
    each, and its terms' ``(kind, location, factor count)`` as ``layout``."""

    model: str
    lattice: Lattice
    n: int
    table: PauliTable
    targets: np.ndarray
    layout: list

    @cached_property
    def terms(self):
        """The terms, built on first read; their strings are scattered from the table's entries."""
        factors = iter(zip(self.table.strings(), self.targets.tolist()))
        return tuple(Term(kind, loc, list(islice(factors, k))) for kind, loc, k in self.layout)

    def term_counts(self):
        return dict(Counter(kind for kind, _, _ in self.layout))

    def vertex_terms(self):
        return [t for t in self.terms if t.kind.endswith("vertex")]

    def face_terms(self):
        return [t for t in self.terms if t.kind == "face"]


# A factor is (pauli, offsets, exponents, target): a pure "x" or "z" string
# with one exponent at each offset (dx, dy, direction code) from a term's
# vertex or from its face's SW vertex.


def _factor(pauli, placements, exps, target=0):
    offsets = np.array([(dx, dy, DIRECTIONS.index(d)) for dx, dy, d in placements])
    return pauli, offsets, np.array(exps), target


def _vertex_z(dirs, exps=(1, 1), target=0):
    return _factor("z", [(0, 0, d) for d in dirs], exps, target)


def _face_corner(corner):
    return _factor("z", FACE_CORNERS[corner], FACE_CORNER_EXPONENTS[corner])


_VERTEX_X = _factor("x", [(0, 0, d) for d in DIRECTIONS], (1,) * 4)

# model -> (vertex factors, face factors).  m1's targets are n // 2 = 1, the
# -1 eigenvalue; the six-site face string alternates -1, +1 for general n.
TORUS_MODELS = {
    "m1": ((_VERTEX_X, _vertex_z("EN", target=1)), (_factor("z", FACE_NONSW, (1,) * 6, target=1),)),
    "m2": ((_VERTEX_X, _vertex_z("EN")), (_factor("z", FACE_NONSW, (1,) * 6),)),
    "m3exp": ((_VERTEX_X, _vertex_z("WS")), (_face_corner("NE"),)),
    "mhoriz": ((_VERTEX_X, _vertex_z("WE")),
               (_factor("z", FACE_CORNERS["NE"] + FACE_CORNERS["NW"], (1,) * 4),)),
    "mvert": ((_VERTEX_X, _vertex_z("SN")),
              (_factor("z", FACE_CORNERS["SE"] + FACE_CORNERS["NE"], (1,) * 4),)),
    "mnondeg": (
        (_VERTEX_X,) + tuple(_vertex_z(*zip(*VERTEX_CORNER_STRINGS[c])) for c in ("NW", "SW", "SE")),
        tuple(_face_corner(c) for c in ("NW", "NE", "SE", "SW")),
    ),
    "zn": ((_VERTEX_X, _vertex_z("NE", (-1, 1))), (_factor("z", FACE_NONSW, (-1, 1) * 3),)),
}


def _placed(lat, anchors, factor):
    """A factor at every anchor as (pauli, sites, exponents, target): sites
    is (anchors, placements) site indices, -1 where a site is missing."""
    pauli, offsets, exps, target = factor
    dx, dy, code = offsets.T
    x = (anchors[:, :1] + dx) % lat.vx_range
    y = (anchors[:, 1:] + dy) % lat.vy_range
    return pauli, lat.index[x, y, code], exps, target


def build_hamiltonian(model, lat, n=2):
    """Construct a model Hamiltonian of commuting projector terms.

    ``model`` is a model-id string ('m1' ... 'mnondeg', 'zn:N', 'boundary').
    All torus models live on the torus; 'boundary' needs the open topology.
    Every generator of every term is written at once into one
    ``PauliTable``, a factor at a time over all vertices or all faces, by
    indexing ``lat.index``; no string is built until ``terms`` is read.
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
        return _write("boundary", lat, n, _boundary_families(lat))
    if lat.topology != "torus":
        raise ValueError(f"model {model!r} needs a torus")
    if model != "zn" and n != 2:
        raise ValueError(f"model {model!r} is a two-level model")
    if model not in TORUS_MODELS:
        raise ValueError(f"unknown model {model!r}")
    families = []
    vertex_factors, face_factors = TORUS_MODELS[model]
    for kind, locations, factors in (("vertex", lat.vertices(), vertex_factors),
                                     ("face", lat.faces(), face_factors)):
        anchors = np.array(locations)
        families.append(([kind] * len(locations), locations, [_placed(lat, anchors, f) for f in factors]))
    return _write(model if model != "zn" else f"zn:{n}", lat, n, families)


def _boundary_families(lat):
    """Open-lattice model: bulk terms as in model m1, three-site boundary
    vertex checks and two-site corner checks along the smooth boundary.
    A vertex's Z check takes E and N at valence 4, the two collinear sites
    at valence 3 and both sites at valence 2."""
    vertices = lat.vertices()
    anchors = np.array(vertices)
    sites = lat.index[anchors[:, 0], anchors[:, 1]]  # W, N, E, S
    present = sites >= 0
    valence = present.sum(axis=1)[:, None]
    collinear = present & present[:, [2, 3, 0, 1]]  # the sites whose opposite site is there too
    check = np.where(valence == 4, [False, True, True, False], np.where(valence == 3, collinear, present))
    kinds = [{4: "vertex", 3: "boundary-vertex"}.get(k, "corner-vertex") for k in valence.ravel().tolist()]
    ones = np.ones(4, dtype=np.int64)
    vertex = [("x", sites, ones, 0), ("z", np.where(check, sites, -1), ones, 1)]
    faces = lat.faces()
    face = [_placed(lat, np.array(faces), f) for f in TORUS_MODELS["m1"][1]]
    return [(kinds, vertices, vertex), (["face"] * len(faces), faces, face)]


def _write(model, lat, n, families):
    """The spec of the families' terms, their generators written into one
    table.  A family is (kinds, locations, factors), one kind and location
    per term; its factors come from ``_placed``, and term t's factor k is
    generator ``start + t * len(factors) + k``."""
    placements = {"x": [], "z": []}
    targets, layout = [], []
    start = 0
    for kinds, locations, factors in families:
        first = start + len(factors) * np.arange(len(locations))
        for k, (pauli, sites, exps, _) in enumerate(factors):
            term, place = np.nonzero(sites >= 0)
            placements[pauli].append((first[term] + k, sites[term, place], exps[place]))
        targets += [target for *_, target in factors] * len(locations)
        layout.extend((kind, location, len(factors)) for kind, location in zip(kinds, locations))
        start += len(factors) * len(locations)
    xs, zs = ([np.concatenate(a) for a in zip(*placements[p])] for p in ("x", "z"))
    targets = np.array(targets, dtype=np.int64)
    targets.setflags(write=False)
    return HamiltonianSpec(model, lat, n, PauliTable(n, lat.n_sites, start, xs, zs), targets, layout)


def global_shift_symmetry(lat, n=2):
    """X on every vertex's E and N sites: the global symmetry of the torus
    models."""
    return lattice_string(lat, n, x=[((x, y, d), 1) for x, y in lat.vertices() for d in "EN"])


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
