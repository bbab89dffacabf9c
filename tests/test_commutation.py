"""Single-face vertex/face operator commutation, enumerated exactly."""

import itertools
from collections import Counter

import pytest

from gtoric.commutation import (
    CORNER_EDGES,
    FaceVertexSpace,
    check_corner_commutation,
    check_summed_commutation,
)
from gtoric.groupoids import (
    ZERO,
    AlgebraElement,
    central_identity_sum,
    make_isotropy_z2_groupoid,
    make_sis_groupoid,
)

GROUPOIDS = {
    "pair-2": make_sis_groupoid(2),
    "pair-3": make_sis_groupoid(3),
    "isotropy-z2": make_isotropy_z2_groupoid(),
}


class TestFaceOperator:
    def test_identity_holonomy_kept(self):
        g = make_sis_groupoid(2)
        space = FaceVertexSpace(g)
        one = g.by_label("x11")
        state = (one, one, one, one)
        assert space.apply_face(one, state) == 1

    def test_mixed_holonomy_kept(self):
        g = make_sis_groupoid(2)
        space = FaceVertexSpace(g)
        x11, x21, x22 = g.by_label("x11"), g.by_label("x21"), g.by_label("x22")
        x12 = g.by_label("x12")
        # holonomy x11 . x11 . x21^-1 . x22^-1 = x12
        state = (x11, x11, x21, x22)
        assert space.apply_face(x12, state) == 1
        assert space.apply_face(x11, state) == 0

    def test_incomposable_killed(self):
        g = make_sis_groupoid(2)
        space = FaceVertexSpace(g)
        a = g.by_label("x12")
        state = (a, a, a, a)
        assert space.apply_face(g.by_label("x11"), state) == 0


class TestVertexOperator:
    def test_identity_fixes_states(self):
        g = make_sis_groupoid(2)
        space = FaceVertexSpace(g)
        for corner in ("NW", "NE", "SE", "SW"):
            for state in space.basis():
                obj_constraints = space.apply_vertex(g.by_label("x11"), corner, state)
                if obj_constraints is not None:
                    assert obj_constraints == state or any(
                        g.source(s) != 1 and g.target(s) != 1 for s in state
                    )

    def test_delta_failure_annihilates(self):
        g = make_sis_groupoid(2)
        space = FaceVertexSpace(g)
        x22 = g.by_label("x22")
        x11 = g.by_label("x11")
        # NW corner: slot 0 incoming must compose with the inverse of g
        assert space.apply_vertex(x22, "NW", (x11, x11, x11, x11)) is None

    def test_transformation_example(self):
        g = make_sis_groupoid(2)
        space = FaceVertexSpace(g)
        x12, x11, x21, x22 = (g.by_label(l) for l in ("x12", "x11", "x21", "x22"))
        # NW with morphism x12: g1 -> g1 . x21, g2 -> x12 . g2
        out = space.apply_vertex(x12, "NW", (x12, x22, x22, x12))
        assert out == (x11, x12, x22, x12)


class TestCornerTheorem:
    @pytest.mark.parametrize("name", sorted(GROUPOIDS))
    @pytest.mark.parametrize("corner", ["NW", "NE", "SE"])
    def test_three_corners_commute(self, name, corner):
        rep = check_corner_commutation(GROUPOIDS[name], corner)
        assert rep.violations == []
        assert rep.max_deviation == 0

    @pytest.mark.parametrize("name", sorted(GROUPOIDS))
    def test_sw_violated_for_noncentral_h(self, name):
        g = GROUPOIDS[name]
        rep = check_corner_commutation(g, "SW")
        assert rep.violations

        def central(label):
            elem = AlgebraElement(g, {g.by_label(label): 1})
            return all(
                elem.convolve(AlgebraElement(g, {m: 1}))
                == AlgebraElement(g, {m: 1}).convolve(elem)
                for m in range(len(g))
            )

        violating_h = {h for _, h, _ in rep.violations}
        assert violating_h  # at least one h fails to commute with some vertex op
        assert all(not central(h) for h in violating_h)

    def test_sw_pair2_single_identity_violates(self):
        # one identity morphism alone is not central; only their sum is
        rep = check_corner_commutation(GROUPOIDS["pair-2"], "SW")
        assert {"x11", "x22"} <= {h for _, h, _ in rep.violations}

    @pytest.mark.parametrize("name", sorted(GROUPOIDS))
    def test_sw_central_sum_commutes(self, name):
        assert check_summed_commutation(GROUPOIDS[name], "SW") == 0

    @pytest.mark.parametrize("name", sorted(GROUPOIDS))
    @pytest.mark.parametrize("corner", ["NW", "NE", "SE", "SW"])
    def test_summed_model_commutes_everywhere(self, name, corner):
        assert check_summed_commutation(GROUPOIDS[name], corner) == 0

    def test_sw_single_identity_fails_where_sum_passes(self):
        g = GROUPOIDS["pair-3"]
        rep = check_corner_commutation(g, "SW")
        # each identity morphism individually clashes with some vertex op ...
        assert {"x11", "x22", "x33"} <= {h for _, h, _ in rep.violations}
        # ... yet their sum commutes
        assert check_summed_commutation(g, "SW") == 0

    def test_report_shape(self):
        g = GROUPOIDS["pair-2"]
        rep = check_corner_commutation(g, "NW")
        data = rep.to_json_dict()
        assert data["corner"] == "NW"
        assert data["pairs_checked"] == 16
        assert data["violations"] == []


# -- per-state reference loops ------------------------------------------------


def reference_face(g, h, state):
    """1 when the face operator for h keeps the state, else 0."""
    g1, g2, g3, g4 = state
    hol = g.compose_chain([g1, g2, g.inverse(g3), g.inverse(g4)])
    if hol is ZERO or hol != h:
        return 0
    return int(g.source(g1) == g.source(h) and g.source(g4) == g.target(h))


def reference_vertex(g, gm, corner, state):
    """Transformed 4-tuple, or None when a composition annihilates."""
    incoming, outgoing = CORNER_EDGES[corner]
    out = list(state)
    for slot in incoming:
        out[slot] = g.compose(out[slot], g.inverse(gm))
        if out[slot] is ZERO:
            return None
    for slot in outgoing:
        out[slot] = g.compose(gm, out[slot])
        if out[slot] is ZERO:
            return None
    return tuple(out)


def reference_violations(g, corner):
    states = list(itertools.product(range(len(g)), repeat=4))
    out = []
    for gm in range(len(g)):
        for h in range(len(g)):
            deviation = 0
            for state in states:
                moved = reference_vertex(g, gm, corner, state)
                ba = moved if (moved is not None and reference_face(g, h, moved)) else None
                ab = moved if (reference_face(g, h, state) and moved is not None) else None
                deviation += ab != ba
            if deviation:
                out.append((g.label(gm), g.label(h), deviation))
    return out


def reference_summed(g, corner, face_element):
    def vertex_sum(counter):
        out = Counter()
        for state, amp in counter.items():
            for gm in range(len(g)):
                moved = reference_vertex(g, gm, corner, state)
                if moved is not None:
                    out[moved] += amp
        return out

    def face_sum(counter):
        out = Counter()
        for state, amp in counter.items():
            weight = sum(c for h, c in face_element.terms.items() if reference_face(g, h, state))
            if weight:
                out[state] += amp * weight
        return out

    deviation = 0
    for state in itertools.product(range(len(g)), repeat=4):
        start = Counter({state: 1})
        ab = {k: v for k, v in vertex_sum(face_sum(start)).items() if v}
        ba = {k: v for k, v in face_sum(vertex_sum(start)).items() if v}
        deviation += ab != ba
    return deviation


REFERENCE_GROUPOIDS = dict(GROUPOIDS, **{"pair-1": make_sis_groupoid(1)})
CORNERS = ["NW", "NE", "SE", "SW"]


class TestAgainstReference:
    """The per-state tables against the per-state loops they replace."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_GROUPOIDS))
    def test_corner_reports(self, name):
        g = REFERENCE_GROUPOIDS[name]
        for corner in CORNERS:
            rep = check_corner_commutation(g, corner)
            assert rep.pairs_checked == len(g) ** 2
            assert rep.violations == reference_violations(g, corner)

    @pytest.mark.parametrize("name,single", [("pair-2", 16), ("pair-3", 81), ("isotropy-z2", 128)])
    def test_summed_deviations(self, name, single):
        g = GROUPOIDS[name]
        identity = AlgebraElement(g, {g.identity_at(1): 1})
        for corner in CORNERS:
            for element in (central_identity_sum(g), identity):
                want = reference_summed(g, corner, element)
                assert check_summed_commutation(g, corner, element) == want
        assert check_summed_commutation(g, "SW", identity) == single
        assert check_summed_commutation(g, "SW") == 0

    @pytest.mark.parametrize("name", ["pair-1", "pair-2", "isotropy-z2"])
    def test_operators_on_every_state(self, name):
        g = REFERENCE_GROUPOIDS[name]
        space = FaceVertexSpace(g)
        for state in space.basis():
            for m in range(len(g)):
                assert space.apply_face(m, state) == reference_face(g, m, state)
                for corner in CORNERS:
                    assert space.apply_vertex(m, corner, state) == reference_vertex(
                        g, m, corner, state
                    )
