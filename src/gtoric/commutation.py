"""Exhaustive vertex/face operator commutation checks for finite groupoids.

Works on a single square face with edge slots (g1, g2, g3, g4): g1 is the
left edge pointing up, g2 the top edge pointing right, g3 the right edge
pointing up, g4 the bottom edge pointing right.  The face operator for a
morphism h keeps exactly the composable configurations whose holonomy
``g1 g2 g3^-1 g4^-1`` equals h (with matching endpoints); the vertex
operator for g right-multiplies incoming edges by g^-1 and left-multiplies
outgoing edges by g.

All arithmetic is exact: basis states map to basis states or to zero, and a
"deviation" counts basis vectors on which the two operator orders disagree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .groupoids import ZERO

# corner of the face at which the vertex sits -> (incoming slots, outgoing slots)
CORNER_EDGES = {
    "NW": ((0,), (1,)),  # g1 arrives, g2 leaves
    "NE": ((1, 2), ()),  # g2 and g3 arrive
    "SE": ((3,), (2,)),  # g4 arrives, g3 leaves
    "SW": ((), (0, 3)),  # g1 and g4 leave
}


class FaceVertexSpace:
    """Basis of all morphism 4-tuples on one face, indexed lexicographically
    (state ``(g1, g2, g3, g4)`` has index ``((g1 m + g2) m + g3) m + g4`` for m
    morphisms), with per-state tables of the face and vertex operators.

    ``kept[s]`` is the one morphism whose face operator keeps state s, or -1;
    ``moved(corner)[g, s]`` is the state the vertex operator for g at that
    corner sends s to, or -1 when a composition annihilates it.
    """

    def __init__(self, groupoid):
        self.groupoid = groupoid
        self.size = size = len(groupoid)
        # groupoid data as arrays; index -1 is the zero sentinel, which
        # composes to zero and has no source or target
        self._compose = np.full((size + 1, size + 1), -1)
        for f in range(size):
            for h in range(size):
                prod = groupoid.compose(f, h)
                self._compose[f, h] = -1 if prod is ZERO else prod
        self._inverse = np.array([groupoid.inverse(m) for m in range(size)])
        source = np.array([groupoid.source(m) for m in range(size)] + [0])
        target = np.array([groupoid.target(m) for m in range(size)] + [0])
        self._slots = np.indices((size,) * 4).reshape(4, size**4)
        g1, g2, g3, g4 = self._slots
        comp, inv = self._compose, self._inverse
        hol = comp[comp[comp[g1, g2], inv[g3]], inv[g4]]
        matched = (source[g1] == source[hol]) & (source[g4] == target[hol])
        self.kept = np.where(matched, hol, -1)
        self._moved = {}

    def basis(self):
        return itertools.product(range(self.size), repeat=4)

    def _index(self, state):
        g1, g2, g3, g4 = state
        return ((g1 * self.size + g2) * self.size + g3) * self.size + g4

    def holonomy(self, state):
        g = self.groupoid
        g1, g2, g3, g4 = state
        return g.compose_chain([g1, g2, g.inverse(g3), g.inverse(g4)])

    def moved(self, corner):
        if corner not in self._moved:
            incoming, outgoing = CORNER_EDGES[corner]
            gm = np.arange(self.size)[:, None]
            index = np.zeros((self.size, self.size**4), dtype=np.int64)
            for slot, edge in enumerate(self._slots):
                if slot in incoming:
                    edge = self._compose[edge, self._inverse[gm]]
                elif slot in outgoing:
                    edge = self._compose[gm, edge]
                # a zero slot makes the index negative for good
                index = np.where((index < 0) | (edge < 0), -1, index * self.size + edge)
            self._moved[corner] = index
        return self._moved[corner]

    def apply_face(self, h, state):
        """1 when the face operator for h keeps the state, else 0."""
        return int(self.kept[self._index(state)] == h)

    def apply_vertex(self, gm, corner, state):
        """Transformed 4-tuple, or None when a composition annihilates."""
        out = self.moved(corner)[gm, self._index(state)]
        return None if out < 0 else tuple(self._slots[:, out].tolist())


@dataclass
class CornerReport:
    corner: str
    pairs_checked: int
    violations: list = field(default_factory=list)

    @property
    def max_deviation(self):
        return max((d for _, _, d in self.violations), default=0)

    def to_json_dict(self):
        return {
            "corner": self.corner,
            "pairs_checked": self.pairs_checked,
            "violations": [{"g": g, "h": h, "deviation": d} for g, h, d in self.violations],
        }


def check_corner_commutation(groupoid, corner):
    """Compare A_v^g B_f^h and B_f^h A_v^g on every basis state for every
    morphism pair (g, h); report the pairs that disagree anywhere.

    Both orders send state s to ``moved[g, s]`` or to zero, and they differ
    exactly when the move exists and the face operator for h keeps one of s
    and ``moved[g, s]`` but not the other, so each such state counts once for
    ``h = kept[s]`` and once for ``h = kept[moved]``."""
    space = FaceVertexSpace(groupoid)
    size = space.size
    moved = space.moved(corner)
    kept = space.kept
    g, s = np.nonzero((moved >= 0) & (kept != kept[moved]))
    h = np.concatenate((kept[s], kept[moved[g, s]]))
    g = np.concatenate((g, g))
    counts = np.bincount((g * size + h)[h >= 0], minlength=size * size).reshape(size, size)
    report = CornerReport(corner=corner, pairs_checked=size**2)
    for gm, hm in zip(*np.nonzero(counts)):
        report.violations.append(
            (groupoid.label(int(gm)), groupoid.label(int(hm)), int(counts[gm, hm]))
        )
    return report


def check_summed_commutation(groupoid, corner, face_element=None):
    """Whether the full vertex operator (summed over all morphisms) commutes
    with the face operator summed over the given algebra element (defaults
    to the central identity sum).  Returns the number of basis states on
    which the two orders disagree.

    With A the summed vertex move matrix and W = diag(w) the face operator,
    ``w[s]`` the element's coefficient of ``kept[s]``, a state counts when
    its column of ``A W - W A`` is nonzero: when some move sends it to a
    state of another weight (weights compared exactly)."""
    from .groupoids import central_identity_sum

    space = FaceVertexSpace(groupoid)
    if face_element is None:
        face_element = central_identity_sum(groupoid)
    coeff = np.zeros(space.size + 1, dtype=complex)  # the last entry weighs kept == -1
    for h, c in face_element.terms.items():
        coeff[h] = c
    w = coeff[space.kept]
    moved = space.moved(corner)
    return int(np.count_nonzero(((moved >= 0) & (w != w[moved])).any(axis=0)))
