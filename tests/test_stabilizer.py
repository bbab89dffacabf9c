"""Stabilizer engine: degeneracy, consistency, logicals, syndromes, strings."""

import logging
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtoric import catalog
from gtoric.catalog import (
    build_hamiltonian,
    cyclic_projector,
    global_shift_symmetry,
)
from gtoric.lattice import Lattice
from gtoric.linalg import _prime_powers, row_group
from gtoric.oracle import trace_product
from gtoric.paulis import OperatorSum, PauliString, _roots, symplectic_phase
from gtoric.stabilizer import (
    InvalidModelError,
    InvalidPathError,
    PathSpec,
    StabilizerModel,
    confinement_profile,
    gsd,
    in_stabilizer_group,
    is_logical,
    logical_basis,
    logical_qudit_count,
    logically_equivalent,
    phase_consistent,
    report,
    string_operator,
    syndrome,
)


def model_for(model_id, topology="torus", m=2, n=2):
    return StabilizerModel.from_hamiltonian(
        build_hamiltonian(model_id, Lattice(topology, m, n))
    )


def bare_model(n, nsites, generators):
    """A model with one single-factor term per (string, target) generator."""
    info = [("term", i) for i in range(len(generators))]
    return StabilizerModel(
        n=n,
        nsites=nsites,
        generators=generators,
        term_members=[[i] for i in range(len(generators))],
        term_info=info,
    )


def first_face_flipped(sm):
    face_idx = next(i for i, (s, _) in enumerate(sm.generators) if len(s.support()) == 6)
    return sm.with_flipped_target(face_idx)


def vertex_x_loop(lat, x, direction="W"):
    """Non-contractible column loop of X operators."""
    x_at = {lat.site_index(lat.site(x, y, direction)): 1 for y in range(lat.n)}
    return PauliString.from_ops(2, lat.n_sites, x_at=x_at)


class TestConstruction:
    def test_generators_commute(self):
        for model_id in ("m1", "m3exp", "zn:3"):
            model_for(model_id).check_commuting()

    def test_noncommuting_rejected(self):
        sm = model_for("m1")
        gens = list(sm.generators)
        lat = sm.lattice
        clash = PauliString.from_ops(2, lat.n_sites, x_at={0: 1}, z_at={1: 1})
        bad = StabilizerModel(
            n=2,
            nsites=lat.n_sites,
            generators=gens + [(clash, 0)],
            term_members=sm.term_members + [[len(gens)]],
            term_info=sm.term_info + [("vertex", (0, 0))],
            lattice=lat,
        )
        with pytest.raises(InvalidModelError):
            bad.check_commuting()
        with pytest.raises(InvalidModelError):
            gsd(bad)

    @pytest.mark.parametrize(
        "n, z, phase",
        [
            pytest.param(2, 1, 0, id="XZ-n2"),  # (XZ)^2 = -1
            pytest.param(4, 1, 0, id="XZ-n4"),  # (XZ)^4 = -1
            pytest.param(3, 0, 1, id="wX-n3"),  # (w X)^3 = w^3 = -1
        ],
    )
    def test_generator_order_checked(self, n, z, phase):
        s = PauliString(n, [1], [z], phase)
        with pytest.raises(ValueError):
            cyclic_projector(s, 0)
        with pytest.raises(InvalidModelError):
            bare_model(n, 1, [(s, 0)])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_order_test_matches_power_loop(self, data):
        """One order test decides s^n = I for the projector and the model:
        both raise exactly when the power loop does not end at I, and the
        projector has the power loop's coefficient and exponent bytes."""
        n = data.draw(st.integers(2, 8))
        nsites = data.draw(st.integers(1, 4))
        digits = st.lists(st.integers(0, n - 1), min_size=nsites, max_size=nsites)
        s = PauliString(n, data.draw(digits), data.draw(digits), data.draw(st.integers(0, 2 * n - 1)))
        target = data.draw(st.integers(0, n - 1))
        power, terms = PauliString.identity(n, nsites), []
        for j in range(n):
            terms.append((_roots(n)[-target * j % n] / n, power))
            power = power * s
        if not power.is_identity():
            with pytest.raises(ValueError):
                cyclic_projector(s, target)
            with pytest.raises(InvalidModelError):
                bare_model(n, nsites, [(s, target)])
            return
        got, want = cyclic_projector(s, target), OperatorSum(terms)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.x.tobytes() == want.x.tobytes() and got.z.tobytes() == want.z.tobytes()
        bare_model(n, nsites, [(s, target)])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_commuting_check_against_dense_form(self, data):
        """``check_commuting`` raises exactly when the dense form ``X Z^T -
        Z X^T (mod n)`` has a nonzero entry, and names its least pair i < j.
        Tables are CSS or not, of sparse strings where one that clashes with
        an earlier string is kept half the time, and may get a planted clash:
        X and Z on one site, at random positions."""
        n = data.draw(st.sampled_from((2, 3, 4, 6)))
        nsites = data.draw(st.integers(1, 6))
        css = data.draw(st.booleans())
        digits = st.lists(st.sampled_from((0, 0, 0) + tuple(range(1, n))), min_size=nsites, max_size=nsites)
        rows = []
        for _ in range(data.draw(st.integers(1, 8))):
            x, z = np.array(data.draw(digits)), np.array(data.draw(digits))
            if css:
                (x if data.draw(st.booleans()) else z)[:] = 0
            if data.draw(st.booleans()) or all((x @ zk - z @ xk) % n == 0 for xk, zk in rows):
                rows.append((x, z))
        if data.draw(st.booleans()):
            site = data.draw(st.integers(0, nsites - 1))
            for part in (0, 1):
                planted = [np.zeros(nsites, dtype=np.int64) for _ in range(2)]
                planted[part][site] = 1
                rows.insert(data.draw(st.integers(0, len(rows))), tuple(planted))
        x, z = (np.array([r[k] for r in rows], dtype=np.int64) for k in (0, 1))
        # phases that give each string order dividing n
        gens = [(PauliString(n, xi, zi, (n - 1) * int(xi @ zi) % 2), 0) for xi, zi in zip(x, z)]
        sm = bare_model(n, nsites, gens)
        assert sm.table.css == (css or not any(xi.any() and zi.any() for xi, zi in zip(x, z)))
        form = np.triu((x @ z.T - z @ x.T) % n, k=1)
        if not form.any():
            sm.check_commuting()
            return
        i, j = np.argwhere(form)[0]
        with pytest.raises(InvalidModelError, match=f"^generators {i} and {j} do not commute$"):
            sm.check_commuting()

    def test_exponent_matrix_shape(self):
        sm = model_for("m1")
        mat = sm.exponent_matrix()
        assert mat.shape == (len(sm.generators), 2 * sm.nsites)


class TestPrimePowerFields:
    """Z_{p^k} models whose packed fields take 1, 2 and 4 bytes meet their
    closed form n^(cells + 1) by both consistency routes."""

    @pytest.mark.parametrize("qdim, m, n", [(81, 2, 2), (128, 2, 2), (3**10, 2, 2), (2**16, 2, 2),
                                            (16, 3, 3), (27, 3, 3)])
    def test_closed_form(self, qdim, m, n):
        sm = model_for(f"zn:{qdim}", m=m, n=n)
        want = qdim ** (m * n + 1)
        assert gsd(sm) == want
        assert report(sm)["k"] == m * n + 1
        sm.analysis()  # the relations route: the Smith form
        assert gsd(sm) == want


class TestInt64Bound:
    """The engine computes in int64 and refuses n unless 4 L n^2 < 2^63,
    L = max(generators, 2 * sites); zn:N on torus:2x2 has L = 32, so N < 2^28."""

    @pytest.mark.parametrize("qdim", [65537, 268435399])  # the largest prime below 2^28
    def test_below_bound_answers(self, qdim):
        sm = StabilizerModel.from_hamiltonian(build_hamiltonian(f"zn:{qdim}", Lattice("torus", 2, 2)))
        assert report(sm)["k"] == 5

    # the smallest prime above 2^28, and one at which n^2 alone overflows
    @pytest.mark.parametrize("qdim", [268435459, 3037000507])
    def test_above_bound_refused(self, qdim):
        with pytest.raises(InvalidModelError, match="too large"):
            StabilizerModel.from_hamiltonian(build_hamiltonian(f"zn:{qdim}", Lattice("torus", 2, 2)))

    @pytest.mark.parametrize("target, expected", [(0, 1), (1, 0)])
    def test_relation_phase_of_large_powers(self, target, expected):
        """s2 = s1^c with c, x.z near n: the relation's phase terms reach n^4
        before reduction, and only the consistent target leaves a ground state."""
        n = 1000000007
        a, b, c = n - 2, n - 3, n - 5
        s1 = PauliString(n, [a], [b])
        s2 = PauliString(n, [c * a], [c * b], c * (c - 1) * a * b)
        assert gsd(bare_model(n, 1, [(s1, 0), (s2, target)])) == expected


class TestDegeneracy:
    def test_m1_sizes(self):
        for (m, n), expect in [((2, 2), 32), ((3, 3), 1024), ((4, 5), 2 * 2**20)]:
            assert gsd(model_for("m1", m=m, n=n)) == expect

    def test_composite_qudit(self):
        assert gsd(model_for("zn:4")) == 4**5

    @pytest.mark.parametrize(
        "build, expect",
        [
            pytest.param(
                lambda: model_for("m1"),
                dict(n=2, sites=16, generators=12, group_order=2048, rank=11, relations=1,
                     consistency=True, gsd=32, k=5),
                id="m1",
            ),
            pytest.param(
                lambda: model_for("zn:3"),
                dict(n=3, sites=16, generators=12, group_order=177147, rank=11, relations=1,
                     consistency=True, gsd=243, k=5),
                id="zn3",
            ),
            pytest.param(
                lambda: model_for("zn:4"),
                dict(n=4, sites=16, generators=12, group_order=4194304, rank=11, relations=1,
                     consistency=True, gsd=1024, k=5),
                id="zn4",
            ),
            pytest.param(
                lambda: model_for("zn:6"),
                dict(n=6, sites=16, generators=12, group_order=362797056, rank=11, relations=1,
                     consistency=True, gsd=7776, k=5),
                id="zn6",
            ),
            pytest.param(
                lambda: model_for("boundary", topology="open"),
                dict(n=2, sites=24, generators=22, group_order=4194304, rank=22, relations=0,
                     consistency=True, gsd=4, k=2),
                id="boundary",
            ),
            pytest.param(
                lambda: first_face_flipped(model_for("m1")),
                dict(n=2, sites=16, generators=12, group_order=2048, rank=11, relations=1,
                     consistency=False, gsd=0, k=0),
                id="m1-frustrated",
            ),
        ],
    )
    def test_report_fields(self, build, expect):
        assert report(build()) == expect



def powered(model_id, m, n, powers):
    """The zn model with generator i replaced by its ``powers[i]``-th power,
    so that some summands of the generated group are smaller than Z_n."""
    sm = model_for(model_id, m=m, n=n)
    gens = [(s ** powers.get(i, 1), t) for i, (s, t) in enumerate(sm.generators)]
    return StabilizerModel(sm.n, sm.nsites, gens, sm.term_members, sm.term_info)


class TestCompositeReports:
    """``report()`` for composite n, pinned to the values of the integer
    Smith form the Z_n decomposition replaced.  Generator 0 takes part in no
    relation of a zn torus model, so flipping its target changes nothing;
    generator 1 takes part in one, so flipping it frustrates the model."""

    # (model, m, n, group_order, rank, gsd, k); every case has one relation
    ZN = [
        ("zn:4", 2, 2, 4194304, 11, 1024, 5),
        ("zn:4", 2, 3, 17179869184, 17, 16384, 7),
        ("zn:4", 3, 3, 4503599627370496, 26, 1048576, 10),
        ("zn:4", 3, 4, 1180591620717411303424, 35, 67108864, 13),
        ("zn:4", 4, 4, 19807040628566084398385987584, 47, 17179869184, 17),
        ("zn:6", 2, 2, 362797056, 11, 7776, 5),
        ("zn:6", 2, 3, 16926659444736, 17, 279936, 7),
        ("zn:6", 3, 3, 170581728179578208256, 26, 60466176, 10),
        ("zn:6", 3, 4, 1719070799748422591028658176, 35, 13060694016, 13),
        ("zn:6", 4, 4, 3742042951225759540014535187298779136, 47, 16926659444736, 17),
        ("zn:8", 2, 2, 8589934592, 11, 32768, 5),
        ("zn:8", 2, 3, 2251799813685248, 17, 2097152, 7),
        ("zn:8", 3, 3, 302231454903657293676544, 26, 1073741824, 10),
        ("zn:8", 3, 4, 40564819207303340847894502572032, 35, 549755813888, 13),
        ("zn:8", 4, 4, 2787593149816327892691964784081045188247552, 47, 2251799813685248, 17),
        ("zn:9", 2, 2, 31381059609, 11, 59049, 5),
        ("zn:9", 2, 3, 16677181699666569, 17, 4782969, 7),
        ("zn:9", 3, 3, 6461081889226673298932241, 26, 3486784401, 10),
        ("zn:9", 3, 4, 2503155504993241601315571986085849, 35, 2541865828329, 13),
        ("zn:9", 4, 4, 706965049015104706497203195837614914543357369, 47, 16677181699666569, 17),
        ("zn:12", 2, 2, 743008370688, 11, 248832, 5),
        ("zn:12", 2, 3, 2218611106740436992, 17, 35831808, 7),
        ("zn:12", 3, 3, 11447545997288281555215581184, 26, 61917364224, 10),
        ("zn:12", 3, 4, 59066822915424320448445358917464096768, 35, 106993205379072, 13),
        ("zn:12", 4, 4, 526645726273272556326827851582324440099950960836608, 47,
         2218611106740436992, 17),
        # int64 edges: 2^28 - 1 = 3 * 5 * 29 * 43 * 113 * 127, and 3^17
        ("zn:268435455", 2, 2, 268435455**11, 11, 268435455**5, 5),
        ("zn:129140163", 3, 3, 129140163**26, 26, 129140163**10, 10),
    ]

    @pytest.mark.parametrize("model_id, m, n, order, rank, g, k", ZN, ids=lambda v: str(v))
    def test_zn_torus(self, model_id, m, n, order, rank, g, k):
        sm = model_for(model_id, m=m, n=n)
        qdim = sm.n
        expect = dict(n=qdim, sites=4 * m * n, generators=3 * m * n, group_order=order, rank=rank,
                      relations=1, consistency=True, gsd=g, k=k)
        assert report(sm) == expect
        assert report(sm.with_flipped_target(0)) == expect
        frustrated = dict(expect, consistency=False, gsd=0, k=0)
        assert report(sm.with_flipped_target(1)) == frustrated

    # (model, m, n, powers, group_order, rank, relations, gsd, k, factors)
    POWERED = [
        ("zn:4", 2, 2, {0: 2, 2: 2}, 1048576, None, None, 4096, 6, {2, 4}),
        ("zn:9", 2, 2, {0: 3, 2: 3}, 3486784401, None, None, 531441, 6, {3, 9}),
        ("zn:12", 2, 2, {0: 2, 2: 2, 4: 3}, 61917364224, None, None, 2985984, 6, {2, 6, 12}),
        ("zn:6", 2, 2, {0: 2, 2: 3}, 60466176, 10, 2, 46656, 6, {6}),
    ]

    @pytest.mark.parametrize("model_id, m, n, powers, order, rank, relations, g, k, factors",
                             POWERED, ids=lambda v: str(v))
    def test_smaller_summands(self, model_id, m, n, powers, order, rank, relations, g, k, factors):
        sm = powered(model_id, m, n, powers)
        expect = dict(n=sm.n, sites=4 * m * n, generators=3 * m * n, group_order=order, rank=rank,
                      relations=relations, consistency=True, gsd=g, k=k)
        assert report(sm) == expect
        assert set(sm.analysis().factors) == factors
        # a generator raised to a power below its order now has a relation of its own
        for i in (0, 1):
            assert report(sm.with_flipped_target(i)) == dict(expect, consistency=False, gsd=0, k=0)

    # (model, m, n, powers, group_order, relation count, gsd): gsd is no power of n
    NOT_QUDITS = [
        ("zn:4", 3, 3, {0: 2, 1: 2}, 2251799813685248, 2, 2097152),
        ("zn:8", 2, 3, {0: 4, 2: 2, 4: 4}, 70368744177664, 4, 67108864),
        ("zn:12", 3, 3, {0: 6, 1: 2}, 1907924332881380259202596864, 2, 371504185344),
        ("zn:6", 2, 2, {0: 2}, 181398528, 2, 15552),
    ]

    @pytest.mark.parametrize("model_id, m, n, powers, order, relations, g", NOT_QUDITS,
                             ids=lambda v: str(v))
    def test_not_a_qudit_power(self, model_id, m, n, powers, order, relations, g):
        sm = powered(model_id, m, n, powers)
        group = sm.analysis()
        assert (group.order, group.rank, len(group.relations)) == (order, None, relations)
        assert gsd(sm) == g
        assert gsd(sm.with_flipped_target(0)) == 0
        # the summary reports no k, as it reports no rank for a group not free over Z_n
        assert report(sm) == dict(n=sm.n, sites=4 * m * n, generators=3 * m * n, group_order=order,
                                  rank=None, relations=None, consistency=True, gsd=g, k=None)
        with pytest.raises(InvalidModelError, match="qudit power"):
            logical_qudit_count(sm)


# at most 1024 amplitudes, so the dense projector product stays small
MAX_SITES = {2: 10, 3: 6, 4: 5, 6: 3}


@st.composite
def commuting_models(draw, n):
    """Sparse generators s with s^n = I, kept when they commute with every
    generator kept before; sometimes one more generator is the product of two
    kept ones, so a relation ties the targets.  Targets are random."""
    nsites = draw(st.integers(1, MAX_SITES[n]))
    exps = st.dictionaries(st.integers(0, nsites - 1), st.integers(1, n - 1), max_size=3)
    strings = []
    for _ in range(draw(st.integers(1, 6))):
        s = PauliString.from_ops(n, nsites, x_at=draw(exps), z_at=draw(exps))
        # the phase parity that makes s^n = I
        s = PauliString(n, s.x, s.z, 2 * draw(st.integers(0, n - 1)) + (n - 1) * int(s.x @ s.z))
        if all(symplectic_phase(s, t) == 0 for t in strings):
            strings.append(s)
    if len(strings) > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(strings), min_size=2, max_size=2))
        strings.append(a * b)
    targets = draw(st.lists(st.integers(0, n - 1), min_size=len(strings), max_size=len(strings)))
    return bare_model(n, nsites, list(zip(strings, targets)))


class TestDenseAgreement:
    """The stabilizer engine against the exact trace of the projector product."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_commuting_models(self, n, data):
        sm = data.draw(commuting_models(n))
        projectors = [cyclic_projector(s, t) for s, t in sm.generators]
        dense = trace_product(projectors, SimpleNamespace(n_sites=sm.nsites), n)
        assert abs(dense - gsd(sm)) < 1e-6
        powers = data.draw(
            st.lists(st.integers(0, n - 1), min_size=len(sm.generators), max_size=len(sm.generators))
        )
        element = PauliString.identity(n, sm.nsites)
        for (s, _), k in zip(sm.generators, powers):
            element = element * s**k
        assert in_stabilizer_group(sm, element)


def reference_flips(m, p):
    """Per-generator eigenvalue shifts, one ``symplectic_phase`` per generator."""
    return [symplectic_phase(p, s) for s, _ in m.generators]


def reference_equivalent(m, p, q):
    diff = PauliString(m.n, p.x - q.x, p.z - q.z)
    return not any(reference_flips(m, diff)) and in_stabilizer_group(m, diff)


def assert_matches_reference(m, strings):
    """syndrome, is_logical and logically_equivalent against the per-generator
    loop; consecutive strings form the equivalence pairs."""
    for p in strings:
        flips = reference_flips(m, p)
        violated = [
            info for members, info in zip(m.term_members, m.term_info)
            if any(flips[i] for i in members)
        ]
        syn = syndrome(m, p)
        assert syn.flips == flips and all(type(f) is int for f in syn.flips)
        assert syn.violated == violated
        assert syn.energy == len(violated)
        if any(flips):
            assert is_logical(m, p) == "detectable"
        else:
            assert is_logical(m, p) == ("stabilizer" if in_stabilizer_group(m, p) else "logical")
    for p, q in zip(strings, strings[1:]):
        assert logically_equivalent(m, p, q) == reference_equivalent(m, p, q)


def group_element(m, powers):
    element = PauliString.identity(m.n, m.nsites)
    for (s, _), k in zip(m.generators, powers):
        element = element * s**k
    return element


class TestTablePath:
    """Syndromes, classes and equivalence read the exponent table; the
    per-generator loop they replaced is the reference."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_commuting_models(self, n, data):
        sm = data.draw(commuting_models(n))
        digits = st.lists(st.integers(0, n - 1), min_size=sm.nsites, max_size=sm.nsites)
        gens = st.lists(st.integers(0, n - 1), min_size=len(sm.generators), max_size=len(sm.generators))
        errors = [PauliString(n, data.draw(digits), data.draw(digits)) for _ in range(3)]
        element = group_element(sm, data.draw(gens))
        strings = [errors[0], element, errors[0] * element, errors[1], errors[1] * element, errors[2]]
        assert_matches_reference(sm, strings)
        flipped = sm.with_flipped_target(data.draw(st.integers(0, len(sm.generators) - 1)))
        assert flipped.exponent_table is sm.exponent_table
        assert flipped.term_incidence is sm.term_incidence
        assert_matches_reference(flipped, strings)

    @pytest.mark.parametrize(
        "model, topology, size",
        [("m1", "torus", 3), ("mnondeg", "torus", 3), ("zn:3", "torus", 3), ("boundary", "open", 2)],
    )
    def test_catalog_models(self, model, topology, size):
        sm = model_for(model, topology, size, size)
        rng = np.random.default_rng(7)
        logicals = [p for pair in logical_basis(sm)[1] for p in pair]
        strings = []
        for _ in range(12):
            sparse = rng.random((2, sm.nsites)) < 0.1
            error = PauliString(sm.n, *(rng.integers(1, sm.n, (2, sm.nsites)) * sparse))
            element = group_element(sm, rng.integers(0, sm.n, len(sm.generators)))
            strings += [error, error * element, element]
            if logicals:
                strings += [logicals[rng.integers(len(logicals))] * element]
        want = {"detectable", "stabilizer"} | ({"logical"} if logicals else set())
        assert {is_logical(sm, p) for p in strings} == want
        assert_matches_reference(sm, strings)

    @pytest.mark.parametrize(
        "query",
        [syndrome, is_logical, in_stabilizer_group,
         lambda m, p: logically_equivalent(m, m.generators[0][0], p)],
        ids=["syndrome", "is_logical", "in_stabilizer_group", "logically_equivalent"],
    )
    @pytest.mark.parametrize("n, nsites", [(3, 16), (2, 15)], ids=["dimension", "sites"])
    def test_mismatched_string_rejected(self, query, n, nsites):
        sm = model_for("m1")
        with pytest.raises(ValueError, match="dimension or site-count mismatch"):
            query(sm, PauliString.from_ops(n, nsites, x_at={0: 1}))


class TestPhaseConsistency:
    def test_m1_consistent(self):
        assert phase_consistent(model_for("m1"))

    def test_flipped_face_target_frustrates(self):
        flipped = first_face_flipped(model_for("m1"))
        assert not phase_consistent(flipped)
        assert gsd(flipped) == 0


def reference_joint(m):
    """Order, factors, relation count and gsd from one ``row_group`` on the
    whole dense ``[x|z]`` matrix and the quadratic phase formula over every
    generator: the joint analysis the per-block one replaced."""
    n = m.n
    mat = np.array([np.concatenate((s.x, s.z)) for s, _ in m.generators], dtype=np.int64)
    group = row_group(mat, n)
    rel = group.relations % n
    xz = mat[:, : m.nsites] @ mat[:, m.nsites :].T % n  # [i, j] = x_i.z_j
    phases, targets = np.array([(s.phase, t) for s, t in m.generators], dtype=np.int64).T
    cross = ((np.tril(xz, k=-1) @ rel.T).T % n * rel).sum(axis=1)  # sum_{i<j} r_i r_j x_j.z_i
    doubled = ((rel * (rel - 1) // 2) % n @ np.diag(xz) + cross) % n
    consistent = not ((rel @ (phases - 2 * targets) + 2 * doubled) % (2 * n)).any()
    return group, (n**m.nsites // group.order if consistent else 0)


@st.composite
def css_models(draw, n):
    """Pure X and pure Z generators, each Z kept when it commutes with every
    X; sometimes one more generator of a kind is a combination of two kept
    ones, so that a relation ties their targets.  Phases are even, as
    s^n = I asks of a pure string; targets are random."""
    nsites = draw(st.integers(1, 7))
    exps = st.dictionaries(st.integers(0, nsites - 1), st.integers(1, n - 1), min_size=1, max_size=3)
    xs = [PauliString.from_ops(n, nsites, x_at=draw(exps)) for _ in range(draw(st.integers(0, 4)))]
    zs = []
    for _ in range(draw(st.integers(0, 4))):
        z = PauliString.from_ops(n, nsites, z_at=draw(exps))
        if all(symplectic_phase(x, z) == 0 for x in xs):
            zs.append(z)
    for kind in (xs, zs):
        if len(kind) > 1 and draw(st.booleans()):
            a, b = draw(st.lists(st.sampled_from(kind), min_size=2, max_size=2))
            kind.append(a ** draw(st.integers(1, n - 1)) * b ** draw(st.integers(0, n - 1)))
    strings = draw(st.permutations(xs + zs))
    strings = [PauliString(n, s.x, s.z, 2 * draw(st.integers(0, n - 1))) for s in strings]
    if not strings:
        strings = [PauliString.identity(n, nsites)]
    targets = draw(st.lists(st.integers(0, n - 1), min_size=len(strings), max_size=len(strings)))
    return bare_model(n, nsites, list(zip(strings, targets)))


def assert_counts_match(sm, group, want_gsd):
    rep = report(sm)
    assert rep["group_order"] == group.order and rep["rank"] == group.rank
    assert rep["relations"] == (None if group.rank is None else len(group.relations))
    assert gsd(sm) == want_gsd == rep["gsd"]


def assert_matches_joint(sm):
    """gsd and report against the joint reference twice: on a fresh model,
    where a CSS table counts from one transform-free elimination per block
    and forms no relation, and again after ``analysis()`` has built them."""
    group, want_gsd = reference_joint(sm)
    assert sm._route() == ("span" if sm.table.css else "relations")
    assert_counts_match(sm, group, want_gsd)
    got = sm.analysis()
    assert sm._route() == "relations"
    assert_counts_match(sm, group, want_gsd)
    assert got.order == group.order
    assert sorted(got.factors) == sorted(group.factors)
    assert got.rank == group.rank
    # the placed block relations generate every relation among the generators;
    # they are as many as the joint ones unless n has two primes, whose
    # parts of two blocks can merge into one Z_n summand (Z_2 + Z_3 is Z_6)
    if len(_prime_powers(sm.n)) == 1:
        assert len(got.relations) == len(group.relations)
    assert len(got.relations) >= len(group.relations)
    mat = sm.exponent_matrix()
    assert not (got.relations @ mat % sm.n).any()
    assert row_group(got.relations, sm.n).order * got.order == sm.n ** len(sm.generators)


class TestBlocksAgainstJoint:
    """Per-block analysis against one joint elimination of the whole table."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_css_models(self, n, data):
        sm = data.draw(css_models(n))
        assert sm.table.css
        assert [b.label for b in sm._blocks.blocks] == ["X", "Z"]
        assert_matches_joint(sm)
        # membership of group elements and of random strings, against the joint group
        group = reference_joint(sm)[0]
        digits = st.lists(st.integers(0, n - 1), min_size=sm.nsites, max_size=sm.nsites)
        gens = st.lists(st.integers(0, n - 1), min_size=len(sm.generators), max_size=len(sm.generators))
        for p in (PauliString(n, data.draw(digits), data.draw(digits)), group_element(sm, data.draw(gens))):
            assert in_stabilizer_group(sm, p) == group.contains(np.concatenate((p.x, p.z)))
        for index in range(len(sm.generators)):
            flipped = sm.with_flipped_target(index, data.draw(st.integers(1, n - 1)))
            assert flipped._split is sm._split
            want = reference_joint(flipped)[1]
            assert gsd(flipped) == want
            # the same targets on a fresh model take the span route
            fresh = replace(sm, generators=flipped.generators)
            assert fresh._route() == "span"
            assert gsd(fresh) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12])
    def test_frustrated_catalog_model(self, n):
        """zn:N with one face target moved: frustrated, on both routes."""
        sm = model_for(f"zn:{n}")
        targets = list(sm.generators)
        s, t = targets[-1]
        targets[-1] = (s, (t + 1) % n)
        frustrated = replace(sm, generators=targets)
        assert reference_joint(frustrated)[1] == 0
        assert_matches_joint(frustrated)
        assert_matches_joint(model_for(f"zn:{n}"))

    @pytest.mark.parametrize("targets", [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    def test_mixed_model_is_one_block(self, targets):
        """X0 X1, Z0 Z1 and X0 Z0 X1 Z1 = -Y0 Y1: the third generator has both
        parts, so the table is one joint block and the phase of the relation
        among the three decides which targets leave a ground state."""
        xx = PauliString(2, [1, 1], [0, 0])
        zz = PauliString(2, [0, 0], [1, 1])
        xzxz = PauliString(2, [1, 1], [1, 1])
        sm = bare_model(2, 2, list(zip((xx, zz, xzxz), targets)))
        assert not sm.table.css
        assert [b.label for b in sm._blocks.blocks] == ["XZ"]
        assert_matches_joint(sm)
        assert gsd(sm) in (0, 1)


class TestNoOperatorAlgebra:
    """Stabilizer answers read the terms' (string, target) factors only."""

    @pytest.fixture()
    def no_products(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("operator product formed on the stabilizer path")

        monkeypatch.setattr(catalog, "product_of_projectors", refuse)
        monkeypatch.setattr(OperatorSum, "__mul__", refuse)
        monkeypatch.setattr(PauliString, "__mul__", refuse)

    @pytest.mark.parametrize(
        "model, size",
        [pytest.param("m1", 4, id="m1"), pytest.param("zn:3", 3, id="zn3"),
         pytest.param("zn:4", 3, id="zn4")],
    )
    def test_answers_from_factors(self, no_products, model, size):
        lat = Lattice("torus", size, size)
        sm = StabilizerModel.from_hamiltonian(build_hamiltonian(model, lat))
        assert report(sm)["consistency"]
        error = PauliString.from_ops(sm.n, sm.nsites, x_at={0: 1})
        assert syndrome(sm, error).energy > 0
        assert is_logical(sm, error) == "detectable"
        assert is_logical(sm, sm.generators[0][0]) == "stabilizer"
        assert logically_equivalent(sm, sm.generators[0][0], sm.generators[1][0])
        flipped = [gsd(sm.with_flipped_target(i)) for i in range(len(sm.generators))]
        assert 0 in flipped

    def test_opsum_expanded_once(self, monkeypatch):
        calls = []
        expand = catalog.product_of_projectors

        def counting(*args):
            calls.append(args)
            return expand(*args)

        monkeypatch.setattr(catalog, "product_of_projectors", counting)
        term = build_hamiltonian("m1", Lattice("torus", 2, 2)).terms[0]
        assert not calls
        assert term.opsum is term.opsum
        assert len(calls) == 1
        assert (term.opsum * term.opsum).approx_equal(term.opsum)


class TestLogicalStructure:
    def test_basis_pairing(self):
        sm = model_for("m1", m=2, n=2)
        k, basis = logical_basis(sm)
        assert k == 5
        assert 2**k == gsd(sm)
        for u, v in basis:
            # conjugate pairs realize the minimal clock/shift commutation
            assert symplectic_phase(u, v) % 2 == 1
            for s, _ in sm.generators:
                assert symplectic_phase(u, s) % 2 == 0
                assert symplectic_phase(v, s) % 2 == 0
        # distinct pairs commute
        flat = [p for pair in basis for p in pair]
        for i, (u, v) in enumerate(basis):
            for j, (w, z) in enumerate(basis):
                if i != j:
                    assert symplectic_phase(u, w) % 2 == 0
                    assert symplectic_phase(u, z) % 2 == 0

    @pytest.mark.parametrize(
        "model_id,m,n,k",
        [("m1", 2, 2, 5), ("m1", 3, 3, 10), ("mhoriz", 3, 2, 8), ("zn:3", 2, 2, 5)],
    )
    def test_conjugate_pairs(self, model_id, m, n, k):
        sm = model_for(model_id, m=m, n=n)
        got_k, pairs = logical_basis(sm)
        assert got_k == k
        assert len(pairs) == k
        for p, q in pairs:
            assert not any(syndrome(sm, p).flips)
            assert not any(syndrome(sm, q).flips)
            assert symplectic_phase(p, q) == 1
        for i, (p, q) in enumerate(pairs):
            for r, s in pairs[i + 1 :]:
                for a in (p, q):
                    for b in (r, s):
                        assert symplectic_phase(a, b) == 0

    def test_classifications(self):
        sm = model_for("m1")
        lat = sm.lattice
        s0, _ = sm.generators[0]
        assert is_logical(sm, s0) == "stabilizer"
        assert is_logical(sm, global_shift_symmetry(lat, 2)) == "logical"
        single_x = PauliString.from_ops(2, lat.n_sites, x_at={0: 1})
        assert is_logical(sm, single_x) == "detectable"

    def test_membership(self):
        sm = model_for("m1")
        s0, _ = sm.generators[0]
        s1, _ = sm.generators[1]
        assert in_stabilizer_group(sm, s0 * s1)
        assert not in_stabilizer_group(sm, global_shift_symmetry(sm.lattice, 2))


class TestSyndromes:
    def test_stabilizer_invariance(self):
        sm = model_for("m1", m=3, n=3)
        lat = sm.lattice
        err = PauliString.from_ops(2, lat.n_sites, z_at={3: 1})
        s0, _ = sm.generators[0]
        assert syndrome(sm, err).flips == syndrome(sm, err * s0).flips

    def test_immobility(self):
        # any single-site Z costs 1; Z's at two different vertices cost 2
        sm = model_for("m1", m=3, n=3)
        lat = sm.lattice
        for s in lat.sites():
            err = PauliString.from_ops(2, lat.n_sites, z_at={lat.site_index(s): 1})
            assert syndrome(sm, err).energy == 1
        err2 = PauliString.from_ops(
            2,
            lat.n_sites,
            z_at={
                lat.site_index(lat.site(0, 0, "E")): 1,
                lat.site_index(lat.site(1, 1, "E")): 1,
            },
        )
        assert syndrome(sm, err2).energy == 2

    def test_corner_pair_x_excites_two_faces(self):
        sm = model_for("m1", m=3, n=3)
        lat = sm.lattice
        err = PauliString.from_ops(
            2,
            lat.n_sites,
            x_at={
                lat.site_index(lat.site(1, 1, "W")): 1,
                lat.site_index(lat.site(1, 1, "S")): 1,
            },
        )
        syn = syndrome(sm, err)
        assert syn.energy == 2
        assert all(kind == "face" for kind, _ in syn.violated)


class TestStringOperators:
    def test_closed_column_is_logical(self):
        sm = model_for("m1", m=2, n=3)
        lat = sm.lattice
        path = PathSpec([((0, y), "I") for y in range(3)])
        loop = string_operator(lat, path, 2)
        assert syndrome(sm, loop).energy == 0
        assert is_logical(sm, loop) == "logical"

    def test_deformed_loop_equivalent(self):
        sm = model_for("m1", m=2, n=3)
        lat = sm.lattice
        plain = string_operator(lat, PathSpec([((0, y), "I") for y in range(3)]), 2)
        detour_steps = [((0, 0), "I"), ((0, 1), "II"), ((0, 1), "IV"), ((0, 2), "I")]
        detour = string_operator(lat, PathSpec(detour_steps), 2)
        assert is_logical(sm, detour) == "logical"
        assert logically_equivalent(sm, plain, detour)

    def test_parallel_loops_inequivalent(self):
        sm = model_for("m1", m=3, n=3)
        lat = sm.lattice
        a = vertex_x_loop(lat, 0)
        b = vertex_x_loop(lat, 1)
        assert is_logical(sm, a) == "logical"
        assert is_logical(sm, b) == "logical"
        assert not logically_equivalent(sm, a, b)

    def test_invalid_paths(self):
        with pytest.raises(InvalidPathError):
            PathSpec([((0, 0), "III"), ((0, 0), "IV")]).validate()
        with pytest.raises(InvalidPathError):
            PathSpec([((0, 0), "I"), ((0, 0), "I")]).validate()


class TestConfinement:
    def test_m1_profiles(self):
        sm = model_for("m1", m=5, n=5)
        assert confinement_profile(sm, "allowed", range(1, 5)) == [2, 2, 2, 2]
        assert confinement_profile(sm, "forbidden-vertical", range(1, 4)) == [2, 4, 6]
        assert confinement_profile(sm, "forbidden-horizontal", range(1, 4)) == [2, 4, 6]

    def test_mhoriz_profiles(self):
        sm = model_for("mhoriz", m=5, n=5)
        assert confinement_profile(sm, "allowed", [3]) == [2]
        forb = confinement_profile(sm, "forbidden-vertical", range(1, 4))
        assert forb == sorted(forb) and forb[0] < forb[-1]

    def test_path_exceeds_lattice(self):
        sm = model_for("m1", m=2, n=2)
        with pytest.raises(InvalidPathError):
            confinement_profile(sm, "forbidden-vertical", [3])


class TestLogging:
    @pytest.mark.parametrize(
        "model, span_path, relations_path, x_order, z_order",
        [("m1", "GF(2) bitset", "GF(2) bitset", 2**4, 2**7),
         ("zn:3", "GF(3) packed", "GF(3) packed", 3**4, 3**7),
         ("zn:5", "GF(5) packed", "GF(5) packed", 5**4, 5**7),
         ("zn:4", "Z_4 packed", "CRT Smith form: Z_4 packed", 4**4, 4**7),
         ("zn:6", "GF(2) bitset + GF(3) packed", "CRT Smith form: GF(2) bitset + GF(3) packed", 6**4, 6**7)],
        ids=["m1", "zn:3", "zn:5", "zn:4", "zn:6"],
    )
    def test_count_reports_blocks_and_stages(self, caplog, model, span_path, relations_path, x_order, z_order):
        caplog.set_level(logging.DEBUG, logger="gtoric.stabilizer")
        sm = model_for(model)
        report(sm)
        sm.analysis()
        report(sm)
        span, relations = [r for r in caplog.records if r.name == "gtoric.stabilizer"]
        # torus:2x2: four vertex X rows, and four vertex and four face Z rows,
        # on 16 sites; the span route names each part's kernel, forms no
        # Smith form, and counts the relations the relations route forms
        for rec, route, path in ((span, "span", span_path), (relations, "relations", relations_path)):
            assert rec.levelno == logging.DEBUG
            assert rec.blocks == [
                {"block": "X", "shape": (4, 16), "path": path, "order": x_order, "route": route, "relations": 0},
                {"block": "Z", "shape": (8, 16), "path": path, "order": z_order, "route": route, "relations": 1},
            ]
            assert set(rec.seconds) == {"table", "check", "eliminations", "consistency"}
            assert all(v >= 0 for v in rec.seconds.values())
            assert f"Z 8x16 by {path}: order" in rec.getMessage()
            assert f"consistency by {route}, 1 relations" in rec.getMessage()

    def test_silent_by_default(self, capfd):
        report(model_for("zn:6"))
        assert capfd.readouterr() == ("", "")
