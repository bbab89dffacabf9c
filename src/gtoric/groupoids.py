"""Finite groupoids: objects, morphisms, partial composition, inverses.

A groupoid is stored as a composition table over integer morphism ids.
Composition follows the path convention: ``compose(f, g)`` means "apply f,
then g" and is defined exactly when ``target(f) == source(g)``.  Products
that are not defined return the sentinel ``ZERO`` rather than raising,
because the groupoid algebra genuinely contains annihilating products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# Sentinel for an undefined (annihilating) composition.
ZERO = None


@dataclass(frozen=True)
class Morphism:
    """One arrow of a groupoid. ``source``/``target`` are 1-based object ids."""

    index: int
    source: int
    target: int
    inverse: int
    label: str


class Groupoid:
    """A finite groupoid given by an explicit composition table.

    Parameters
    ----------
    n_objects:
        Number of objects, labelled 1..n_objects.
    morphisms:
        List of ``(source, target, inverse_index, label)`` tuples.
    composition:
        ``composition[i][j]`` is the morphism index of the product
        ``morphism_i then morphism_j``, or ``None`` when undefined.
    """

    def __init__(self, n_objects, morphisms, composition):
        if n_objects < 1:
            raise ValueError("groupoid needs at least one object")
        self.n_objects = n_objects
        self.morphisms = tuple(
            Morphism(i, s, t, inv, lab) for i, (s, t, inv, lab) in enumerate(morphisms)
        )
        self._table = tuple(tuple(row) for row in composition)
        size = len(self.morphisms)
        if len(self._table) != size or any(len(row) != size for row in self._table):
            raise ValueError(f"composition table must be {size}x{size}, one entry per morphism pair")
        for row in self._table:
            for prod in row:
                if prod is not ZERO and not (isinstance(prod, int) and 0 <= prod < size):
                    raise ValueError(f"composition entry {prod!r} is neither null nor a morphism index")
        self._by_label = {m.label: m.index for m in self.morphisms}
        self._identities = self._find_identities()

    # -- basic queries -------------------------------------------------

    def __len__(self):
        return len(self.morphisms)

    def source(self, m):
        return self.morphisms[m].source

    def target(self, m):
        return self.morphisms[m].target

    def inverse(self, m):
        return self.morphisms[m].inverse

    def label(self, m):
        return self.morphisms[m].label

    def by_label(self, label):
        return self._by_label[label]

    def compose(self, f, g):
        """Product "f then g"; ``ZERO`` when target(f) != source(g)."""
        return self._table[f][g]

    def compose_chain(self, ms):
        """Compose a sequence of morphism ids left to right; ZERO-absorbing."""
        it = iter(ms)
        acc = next(it)
        for m in it:
            if acc is ZERO:
                return ZERO
            acc = self.compose(acc, m)
        return acc

    def _find_identities(self):
        ids = {}
        for m in self.morphisms:
            if m.source != m.target:
                continue
            if self._table[m.index][m.index] != m.index:
                continue
            # a genuine identity must leave every composable morphism fixed
            ok = all(
                self._table[m.index][g.index] == g.index
                for g in self.morphisms
                if g.source == m.source
            )
            if ok:
                ids[m.source] = m.index
        return ids

    def identity_at(self, obj):
        """Morphism id of the identity at the given object."""
        return self._identities[obj]

    @property
    def identities(self):
        return dict(self._identities)

    # -- serialization -------------------------------------------------

    def to_json_dict(self):
        return {
            "n_objects": self.n_objects,
            "morphisms": [
                {"label": m.label, "source": m.source, "target": m.target, "inverse": m.inverse}
                for m in self.morphisms
            ],
            "composition": [list(row) for row in self._table],
        }

    @classmethod
    def from_json_dict(cls, data):
        keys = ("n_objects", "morphisms", "composition")
        missing = [k for k in keys if k not in data] if isinstance(data, dict) else keys
        if missing:
            raise ValueError(f"groupoid JSON lacks {', '.join(missing)}")
        fields = ("source", "target", "inverse", "label")
        for m in data["morphisms"]:
            if not (isinstance(m, dict) and "label" in m
                    and all(isinstance(m.get(f), int) for f in fields[:3])):
                raise ValueError(f"morphism {m!r} needs integer source, target and inverse, and a label")
        morphisms = [tuple(m[f] for f in fields) for m in data["morphisms"]]
        return cls(data["n_objects"], morphisms, data["composition"])

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


class SisGroupoid(Groupoid):
    """Groupoid with n objects and exactly one morphism x_ij per ordered pair.

    Products obey ``x_ij . x_kl = delta(j, k) x_il``; the inverse of x_ij is
    x_ji.  Morphism index of x_ij is ``(i - 1) * n + (j - 1)``.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("need a positive object count")
        self.n = n
        morphisms = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                inv = (j - 1) * n + (i - 1)
                morphisms.append((i, j, inv, f"x{i}{j}"))
        composition = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                row = []
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        row.append((i - 1) * n + (l - 1) if j == k else ZERO)
                composition.append(row)
        super().__init__(n, morphisms, composition)

    def pair_of(self, m):
        """Object pair (i, j) of morphism x_ij."""
        return m // self.n + 1, m % self.n + 1

    def morphism_of_pair(self, i, j):
        return (i - 1) * self.n + (j - 1)


def make_sis_groupoid(n):
    """Groupoid with one invertible morphism between any two of n objects."""
    return SisGroupoid(n)


def make_isotropy_z2_groupoid():
    """Two objects with morphisms {e_ij, z_ij}; e is the unit, z . z = e.

    Composition combines the object constraint delta(j1, i2) with the Z2
    multiplication on the e/z letters.
    """
    # index = letter * 4 + (i - 1) * 2 + (j - 1), letter 0 -> e, 1 -> z
    def idx(letter, i, j):
        return letter * 4 + (i - 1) * 2 + (j - 1)

    morphisms = []
    for letter, name in ((0, "e"), (1, "z")):
        for i in (1, 2):
            for j in (1, 2):
                morphisms.append((i, j, idx(letter, j, i), f"{name}{i}{j}"))
    composition = []
    for l1 in (0, 1):
        for i1 in (1, 2):
            for j1 in (1, 2):
                row = []
                for l2 in (0, 1):
                    for i2 in (1, 2):
                        for j2 in (1, 2):
                            row.append(idx(l1 ^ l2, i1, j2) if j1 == i2 else ZERO)
                composition.append(row)
    return Groupoid(2, morphisms, composition)


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)


def validate_axioms(g):
    """Exhaustively check the category axioms on a finite groupoid.

    Checks composability (defined iff target meets source), source/target of
    products, associativity on every triple, a two-sided identity per object,
    and two-sided inverses.  Violations are reported, not raised.
    """
    bad = []
    nm = len(g)
    for f in range(nm):
        m = g.morphisms[f]
        if not (1 <= m.source <= g.n_objects and 1 <= m.target <= g.n_objects):
            bad.append(f"morphism {m.label}: source/target outside object range")
        if not (0 <= m.inverse < nm):
            bad.append(f"missing inverse for {m.label}")
            continue
        inv = g.morphisms[m.inverse]
        if inv.source != m.target or inv.target != m.source:
            bad.append(f"inverse of {m.label} has wrong source/target")
    for f in range(nm):
        for h in range(nm):
            prod = g.compose(f, h)
            defined = g.target(f) == g.source(h)
            if defined and prod is ZERO:
                bad.append(f"composable pair ({g.label(f)}, {g.label(h)}) has no product")
            if not defined and prod is not ZERO:
                bad.append(f"non-composable pair ({g.label(f)}, {g.label(h)}) has a product")
            if defined and prod is not ZERO:
                if g.source(prod) != g.source(f) or g.target(prod) != g.target(h):
                    bad.append(
                        f"product of ({g.label(f)}, {g.label(h)}) has wrong endpoints"
                    )
    for a in range(nm):
        for b in range(nm):
            ab = g.compose(a, b)
            for c in range(nm):
                bc = g.compose(b, c)
                left = g.compose(ab, c) if ab is not ZERO else ZERO
                right = g.compose(a, bc) if bc is not ZERO else ZERO
                if left != right:
                    bad.append(
                        "associativity fails on "
                        f"({g.label(a)}, {g.label(b)}, {g.label(c)})"
                    )
    for obj in range(1, g.n_objects + 1):
        if obj not in g.identities:
            bad.append(f"no identity morphism at object {obj}")
    if not bad:
        for m in range(nm):
            inv = g.inverse(m)
            if g.compose(m, inv) != g.identity_at(g.source(m)):
                bad.append(f"{g.label(m)} composed with its inverse is not an identity")
            if g.compose(inv, m) != g.identity_at(g.target(m)):
                bad.append(f"inverse of {g.label(m)} is not a left inverse")
    return ValidationReport(ok=not bad, violations=bad)


class AlgebraElement:
    """Finite complex combination of morphisms in the groupoid algebra."""

    def __init__(self, groupoid, terms=None):
        self.groupoid = groupoid
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    def convolve(self, other):
        """Algebra product; annihilating morphism pairs drop out."""
        out = {}
        for f, cf in self.terms.items():
            for h, ch in other.terms.items():
                prod = self.groupoid.compose(f, h)
                if prod is not ZERO:
                    out[prod] = out.get(prod, 0) + cf * ch
        return AlgebraElement(self.groupoid, out)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        return all(self.terms.get(k, 0) == other.terms.get(k, 0) for k in keys)

    def __repr__(self):
        parts = [
            f"{c!r}*{self.groupoid.label(m)}" for m, c in sorted(self.terms.items())
        ]
        return " + ".join(parts) or "0"


def central_identity_sum(g):
    """Sum of all identity morphisms; checked central in the groupoid algebra."""
    eta = AlgebraElement(g, {m: 1 for m in g.identities.values()})
    for m in range(len(g)):
        elem = AlgebraElement(g, {m: 1})
        if elem.convolve(eta) != eta.convolve(elem):
            raise AssertionError(
                f"identity sum fails to commute with {g.label(m)}"
            )
    return eta
