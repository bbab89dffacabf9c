"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the next task starts when
the previous one returns.  ``tasks(ctx, seed)`` builds the workload's fixed
task list.  The tasks, their order and every input they carry come from the
seed alone, so two commits given the same seed receive identical inputs.
Every call builds fresh task objects, and every task carries its own
reference answer.

Tasks call gtoric through module attributes (``stabilizer.report(...)``),
in the order the ``gtoric`` command calls them, so that the tracer in
``spans.py`` sees every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gtoric import catalog, commutation, groupoids, oracle, paulis, stabilizer
from gtoric.lattice import Lattice


@dataclass
class Task:
    kind: str
    inputs: dict  # JSON description of every generated input, for the digest
    call: Callable[[], object]
    check: Callable[[object], bool]


def _shuffled(tasks, seed):
    random.Random(f"order/{seed}").shuffle(tasks)
    return tasks


def _np_rng(seed, salt):
    return np.random.default_rng([seed, salt])


def _string_digest(x, z):
    return hashlib.sha256(np.ascontiguousarray(x).tobytes() + np.ascontiguousarray(z).tobytes()).hexdigest()[:16]


def closed_form_gsd(model, m, n):
    """Ground-space dimension of a torus model on torus:MxN, as in
    ``tests/test_acceptance.py``."""
    cells = m * n
    if model.startswith("zn:"):
        return int(model[3:]) ** (cells + 1)
    return {
        "m1": 2 * 2**cells,
        "m2": 2 * 2**cells,
        "m3exp": 2 ** (2 * cells),
        "mhoriz": 2**n * 2**cells,
        "mvert": 2**m * 2**cells,
        "mnondeg": 1,
    }[model]


def _qudit_dim(model):
    return int(model[3:]) if model.startswith("zn:") else 2


def _log(value, base):
    k = 0
    while value > 1:
        value //= base
        k += 1
    return k


def _build(model, spec, n=2):
    return catalog.build_hamiltonian(model, Lattice.from_spec(spec), n)


# -- gsd-ladder ---------------------------------------------------------------

# rungs of (model, face columns, face rows).  The median and the tail (the
# eleventh-dearest of 28) both fall inside the group of eight rungs that cost
# about 80 ms (5x5, 4x6 and 6x4 of the n=2 models, and mnondeg 3x3); the
# next dearer group costs 70% more, so the tail never sits on a step between
# two groups.  Most stop at 6x6: a short list gives each task more rounds in
# a run, and so more samples for its median.  m1 8x8 keeps one large rung.
LADDER = (
    ("m1", 3, 3), ("m1", 4, 4), ("m1", 6, 6), ("m1", 8, 8),
    ("m2", 3, 3), ("m2", 4, 4), ("m2", 6, 6),
    ("m3exp", 4, 4), ("m3exp", 5, 5), ("m3exp", 6, 6),
    ("mhoriz", 4, 6), ("mhoriz", 5, 5), ("mhoriz", 6, 4), ("mhoriz", 6, 6),
    ("mvert", 4, 6), ("mvert", 5, 5), ("mvert", 6, 4),
    ("mnondeg", 3, 3), ("mnondeg", 4, 4),
    ("zn:3", 3, 3), ("zn:3", 4, 4), ("zn:3", 6, 6),
    ("zn:4", 3, 3), ("zn:4", 4, 4),
    ("zn:5", 3, 3), ("zn:5", 4, 4),
    ("zn:6", 3, 3), ("zn:6", 4, 4),
)


def _report_task(model, m, n):
    spec = f"torus:{m}x{n}"
    want = closed_form_gsd(model, m, n)
    k = _log(want, _qudit_dim(model))

    def call():
        h = _build(model, spec)
        return stabilizer.report(stabilizer.StabilizerModel.from_hamiltonian(h))

    def check(rep):
        return rep["gsd"] == want and rep["k"] == k and rep["consistency"] is True

    return Task("gsd", {"model": model, "lattice": spec}, call, check)


class GsdLadder:
    """`gtoric gsd --method stabilizer` over a ladder of models and sizes."""

    def setup(self, seed):
        return None

    def tasks(self, ctx, seed):
        return _shuffled([_report_task(*rung) for rung in LADDER], seed)


# -- query-mix ----------------------------------------------------------------

# sizes at which an is_logical read costs about the same on each model, so
# that the median read does not sit on a step between two models' costs
QUERY_MODELS = (("m1", 9, 9), ("mhoriz", 10, 10), ("zn:4", 5, 5))

# reads per model.  `gtoric excite` is the one command that reads a built
# model: it takes the syndrome and, when no term is violated, the is_logical
# class.  Its error strings come a third from each class, so two thirds of
# the excite reads go on to an elimination, as every energy-0 error does.  No
# command issues the other reads; each model gets a few so that their paths
# stay measured, and one confinement read per direction with a closed form.
EXCITE_READS = 24
EQUIVALENCE_READS = 4
FLIPPED_READS = 2
CLASSES = ("stabilizer", "logical", "detectable")

# confinement closed forms: deconfined strings cost 2, confined ones 2 per step
CONFINEMENT = {
    "m1": ("allowed", "forbidden-vertical", "forbidden-horizontal"),
    "mhoriz": ("allowed", "forbidden-vertical"),
}


@dataclass
class QueryModel:
    model: str
    lattice: Lattice
    sm: stabilizer.StabilizerModel
    gx: np.ndarray  # generator X exponents, one row per generator
    gz: np.ndarray
    loops: list  # X exponent vectors of known non-contractible logical loops
    flippable: list  # generator indices whose target flip frustrates the model


def _loops(model, lat):
    """X loops that commute with every term and lie outside the stabilizer
    group: W-site columns for m1 and zn:N, S-site rows for the horizontally
    deconfined mhoriz."""
    loops = []
    if model == "mhoriz":
        for y in range(lat.n):
            loops.append([lat.site_index(lat.site(x, y, "S")) for x in range(lat.m)])
    else:
        for x in range(lat.m):
            loops.append([lat.site_index(lat.site(x, y, "W")) for y in range(lat.n)])
    out = []
    for sites in loops:
        vec = np.zeros(lat.n_sites, dtype=np.int64)
        vec[sites] = 1
        out.append(vec)
    return out


def _query_model(model, m, n):
    lat = Lattice.from_spec(f"torus:{m}x{n}")
    sm = stabilizer.StabilizerModel.from_hamiltonian(catalog.build_hamiltonian(model, lat))
    gx = np.array([s.x for s, _ in sm.generators], dtype=np.int64)
    gz = np.array([s.z for s, _ in sm.generators], dtype=np.int64)
    # every Z-only check of these models sits in a relation with a unit
    # coefficient, so flipping its target by one leaves no ground state
    flippable = [i for i in range(len(gx)) if not gx[i].any()]
    return QueryModel(model, lat, sm, gx, gz, _loops(model, lat), flippable)


def _pauli(qm, x, z):
    return paulis.PauliString(qm.sm.n, x, z)


def _stabilizer_element(rng, qm):
    """Exponents of a product of about a tenth of the generators."""
    coeffs = rng.integers(0, qm.sm.n, len(qm.gx)) * (rng.random(len(qm.gx)) < 0.1)
    return (coeffs @ qm.gx) % qm.sm.n, (coeffs @ qm.gz) % qm.sm.n


def _classified_string(rng, qm, cls):
    """A string whose is_logical class is known by construction."""
    n = qm.sm.n
    x, z = _stabilizer_element(rng, qm)
    if cls == "logical" or (cls == "detectable" and rng.random() < 0.5):
        x = (x + qm.loops[rng.integers(len(qm.loops))]) % n
    if cls == "detectable":
        # every site carries a vertex X term, which a lone Z^e does not commute with
        site = rng.integers(qm.lattice.n_sites)
        z[site] = (z[site] + rng.integers(1, n)) % n
    return x, z


def _excite_read_task(rng, qm, cls):
    """`gtoric excite` without a seed config: the syndrome, then the
    is_logical class at energy 0."""
    n = qm.sm.n
    x, z = _classified_string(rng, qm, cls)
    p = _pauli(qm, x, z)
    flips = (x @ qm.gz.T - z @ qm.gx.T) % n
    energy = sum(1 for members in qm.sm.term_members if flips[members].any())
    want = None if cls == "detectable" else cls

    def call():
        syn = stabilizer.syndrome(qm.sm, p)
        return syn, stabilizer.is_logical(qm.sm, p) if syn.energy == 0 else None

    def check(answer):
        syn, found = answer
        return ([int(f) for f in syn.flips] == flips.tolist() and syn.energy == energy
                and (energy == 0) == (want is not None) and found == want)

    inputs = {"kind": "excite", "model": qm.model, "class": cls, "string": _string_digest(x, z)}
    return Task("excite", inputs, call, check)


def _equivalent_task(rng, qm, same):
    n = qm.sm.n
    loop = qm.loops[rng.integers(len(qm.loops))]
    px, pz = _stabilizer_element(rng, qm)
    qx, qz = _stabilizer_element(rng, qm)
    px = (px + loop) % n
    if same:
        qx = (qx + loop) % n
    p, q = _pauli(qm, px, pz), _pauli(qm, qx, qz)
    inputs = {
        "kind": "logically_equivalent",
        "model": qm.model,
        "strings": [_string_digest(px, pz), _string_digest(qx, qz)],
    }
    return Task(
        "logically_equivalent",
        inputs,
        lambda: stabilizer.logically_equivalent(qm.sm, p, q),
        lambda a: a == same,
    )


def _confinement_task(rng, qm, direction):
    lat = qm.lattice
    vertical = direction == "forbidden-vertical" or (direction == "allowed" and qm.model != "mhoriz")
    limit = (lat.n if vertical else lat.m) - 1
    lengths = list(range(1, int(rng.integers(2, limit + 1)) + 1))
    want = [2] * len(lengths) if direction == "allowed" else [2 * k for k in lengths]
    inputs = {"kind": "confinement_profile", "model": qm.model, "direction": direction,
              "lengths": lengths}
    return Task(
        "confinement_profile",
        inputs,
        lambda: stabilizer.confinement_profile(qm.sm, direction, lengths),
        lambda a: a == want,
    )


def _flipped_task(rng, qm):
    index = int(rng.choice(qm.flippable))
    inputs = {"kind": "flipped_gsd", "model": qm.model, "generator": index}
    return Task(
        "flipped_gsd",
        inputs,
        lambda: stabilizer.gsd(qm.sm.with_flipped_target(index)),
        lambda a: a == 0,
    )


class QueryMix:
    """Many `gtoric excite`-style reads against a few models built once."""

    def setup(self, seed):
        return [_query_model(*spec) for spec in QUERY_MODELS]

    def tasks(self, ctx, seed):
        tasks = []
        for k, qm in enumerate(ctx):
            rng = _np_rng(seed, k)
            tasks += [_excite_read_task(rng, qm, CLASSES[i % len(CLASSES)])
                      for i in range(EXCITE_READS)]
            tasks += [_equivalent_task(rng, qm, i % 2 == 0) for i in range(EQUIVALENCE_READS)]
            tasks += [_confinement_task(rng, qm, direction)
                      for direction in CONFINEMENT.get(qm.model, ())]
            tasks += [_flipped_task(rng, qm) for _ in range(FLIPPED_READS)]
        return _shuffled(tasks, seed)


# -- dense-oracle -------------------------------------------------------------

# torus:2x2 models (65536 amplitudes), each traced in every task list.
# mnondeg is left out, and so is ground_space_dimension on the torus: each
# takes about as long as the rest of the list together.
DENSE_MODELS = ("m1", "m2", "m3exp", "mhoriz", "mvert", "zn:2")
# boundary model lattices: 256 amplitudes take the full eigensolve,
# 16384 the projector trace with probes
SMALL_LATTICE = "open:1x1"
LARGE_LATTICE = "open:1x2"
# seven tasks take 0.4 to 1 s (the six traces and the open:1x2 count) and
# the open:1x1 count about 30 ms; the excites take about 12 ms.  Both the
# median (15th of 29) and the tail (the 19th, ten below the top, so the
# third-dearest excite) then fall among the excites, not on a step between
# two tasks of unlike cost, where a run's figure would hop between the two.
EXCITES = 21


def _dense_count_task(model, spec):
    def call():
        h = _build(model, spec)
        dense = oracle.ground_space_dimension(h)
        return dense, stabilizer.gsd(stabilizer.StabilizerModel.from_hamiltonian(h))

    return Task("dense_count", {"model": model, "lattice": spec}, call, lambda a: a[0] == a[1])


def _trace_task(model, spec, want):
    """`gtoric gsd --method both`: stabilizer report, then the dense trace."""

    def call():
        h = _build(model, spec)
        rep = stabilizer.report(stabilizer.StabilizerModel.from_hamiltonian(h))
        return rep["gsd"], oracle.trace_product([t.opsum for t in h.terms], h.lattice, h.n)

    def check(answer):
        stab, trace = answer
        return abs(trace - stab) < 1e-9 and stab == want

    return Task("trace", {"model": model, "lattice": spec}, call, check)


@dataclass
class ExciteModel:
    spec: str
    lattice: Lattice
    zrows: np.ndarray  # Z exponents of the Z-only generators
    rhs: np.ndarray  # (2 * target - phase) mod 2n of those generators


def _excite_model(spec):
    h = _build("boundary", spec)
    sm = stabilizer.StabilizerModel.from_hamiltonian(h)
    rows = [(s, t) for s, t in sm.generators if not s.x.any()]
    zrows = np.array([s.z for s, _ in rows], dtype=np.int64)
    rhs = np.array([(2 * t - s.phase) % (2 * h.n) for s, t in rows], dtype=np.int64)
    return ExciteModel(spec, h.lattice, zrows, rhs)


def _seed_levels(rng, em):
    """Random levels 1..2 meeting every Z-only target, so that the vertex
    projections of construct_ground_state cannot annihilate the seed."""
    while True:
        levels = rng.integers(1, 3, size=(4096, em.lattice.n_sites))
        ok = np.all((2 * (levels @ em.zrows.T)) % 4 == em.rhs, axis=1)
        if ok.any():
            return levels[int(np.argmax(ok))]


def _excite_task(rng, em):
    """`gtoric excite --seed-config`: stabilizer syndrome, then the dense
    energy of the error applied to a seeded ground state."""
    sites = em.lattice.sites()
    seed_text = " ".join(f"{s}={int(v)}" for s, v in zip(sites, _seed_levels(rng, em)))
    picks = rng.choice(len(sites), size=rng.integers(1, 3), replace=False)
    op_text = " ".join(f"{'XZ'[rng.integers(2)]}@{sites[i]}" for i in picks)

    def call():
        h = _build("boundary", em.spec)
        err = paulis.pauli_from_text(op_text, h.lattice, h.n)
        syn = stabilizer.syndrome(stabilizer.StabilizerModel.from_hamiltonian(h), err)
        state = oracle.construct_ground_state(h, oracle.parse_seed_config(seed_text, h.lattice, h.n))
        excited = oracle.apply_pauli_to_state(err, state)
        dense = sum(1 for v in oracle.measure_syndrome(h, excited) if v < 0.5)
        return syn.energy, dense

    inputs = {"lattice": em.spec, "seed_config": seed_text, "op": op_text}
    return Task("excite", inputs, call, lambda a: a[0] == a[1])


class DenseOracle:
    """`gtoric gsd --method both` and `gtoric excite --seed-config` on the
    lattices small enough for dense vectors."""

    def setup(self, seed):
        return _excite_model(SMALL_LATTICE)

    def tasks(self, ctx, seed):
        tasks = [_trace_task(model, "torus:2x2", closed_form_gsd(model, 2, 2))
                 for model in DENSE_MODELS]
        tasks += [_dense_count_task("boundary", spec) for spec in (SMALL_LATTICE, LARGE_LATTICE)]
        rng = _np_rng(seed, 0)
        tasks += [_excite_task(rng, ctx) for _ in range(EXCITES)]
        return _shuffled(tasks, seed)


# -- validate-algebra ---------------------------------------------------------

# the 2x2 models but mnondeg, whose check costs as much as ten other tasks
VALIDATE_MODELS = (
    ("m1", 2),
    ("m2", 2),
    ("m3exp", 2),
    ("mhoriz", 2),
    ("mvert", 2),
    ("zn:2", 2),
    ("zn:3", 3),
)
VERTEX_PAIRS = 9
# corners checked per groupoid: every corner on sis:2, and SW, whose per-pair
# violations the summed check cancels, on all three; a clean corner on sis:3
# or isotropy-z2 costs as much as ten other tasks
CORNERS = {
    "sis:2": ("NW", "NE", "SE", "SW"),
    "sis:3": ("SW",),
    "isotropy-z2": ("SW",),
}
TOL = 1e-10


def _intertwiner_deviation(g):
    """Largest entry of encoding . action - qubit image . encoding."""
    enc = catalog.edge_encoding_matrix(g)
    worst = 0.0
    for m in range(len(g)):
        for side, action in (("left", catalog.left_action), ("right", catalog.right_action)):
            target = enc @ action(g, m) @ np.conj(enc.T)
            got = catalog.qubit_image_of_action(g, m, side).dense_matrix()
            worst = max(worst, float(np.abs(got - target).max()))
    return worst


def _model_task(model, n):
    """`gtoric validate --model` on torus:2x2."""

    def call():
        h = _build(model, "torus:2x2", n)
        sm = stabilizer.StabilizerModel.from_hamiltonian(h)
        sm.check_commuting()
        consistent = stabilizer.phase_consistent(sm)
        bad = sum(1 for t in h.terms if not (t.opsum * t.opsum).approx_equal(t.opsum))
        pairs_bad = sum(
            1
            for i, a in enumerate(h.terms)
            for b in h.terms[i + 1 :]
            if not a.opsum.commutator(b.opsum).is_zero(TOL)
        )
        dev = _intertwiner_deviation(groupoids.make_sis_groupoid(2)) if n == 2 else 0.0
        return consistent, bad, pairs_bad, dev

    def check(answer):
        consistent, bad, pairs_bad, dev = answer
        return consistent and bad == 0 and pairs_bad == 0 and dev <= 1e-12

    return Task("validate_model", {"model": model, "n": n}, call, check)


def _vertex_pair_task(family, i, j):
    """One product of the n=3 vertex family: zero for i != j, idempotent for i == j."""

    def call():
        prod = family[i] * family[j]
        return (prod - family[i] if i == j else prod).is_zero(TOL)

    return Task("vertex_pair", {"pair": [i, j]}, call, bool)


def _face_family_task(lat):
    def call():
        fam = list(catalog.face_projector_family(lat, (0, 0), 2).values())
        ok = True
        for i, p in enumerate(fam):
            ok = ok and (p * p - p).is_zero(TOL)
            for q in fam[i + 1 :]:
                ok = ok and (p * q).is_zero(TOL)
        total = fam[0]
        for p in fam[1:]:
            total = total + p
        return ok and (total - paulis.OperatorSum.identity(2, lat.n_sites)).is_zero(TOL)

    return Task("face_family", {"lattice": lat.spec}, call, bool)


def _corner_task(name, g, corner):
    def check(rep):
        if rep.pairs_checked != len(g) ** 2:
            return False
        if corner == "SW":
            return bool(rep.violations) and rep.max_deviation > 0
        return rep.violations == []

    return Task(
        "corner",
        {"groupoid": name, "corner": corner},
        lambda: commutation.check_corner_commutation(g, corner),
        check,
    )


def _summed_task(name, g):
    """Axioms plus the SW corner against the central identity sum."""

    def call():
        return groupoids.validate_axioms(g).ok, commutation.check_summed_commutation(g, "SW")

    return Task("summed", {"groupoid": name}, call, lambda a: a == (True, 0))


@dataclass
class AlgebraContext:
    lattice: Lattice
    vertex_family: list
    groupoids: dict


class ValidateAlgebra:
    """`gtoric validate --model` and `gtoric validate --appendix-b`."""

    def setup(self, seed):
        lat = Lattice.from_spec("torus:2x2")
        return AlgebraContext(
            lat,
            catalog.vertex_projector_family(lat, (0, 0), 3),
            {"sis:2": groupoids.make_sis_groupoid(2),
             "sis:3": groupoids.make_sis_groupoid(3),
             "isotropy-z2": groupoids.make_isotropy_z2_groupoid()},
        )

    def tasks(self, ctx, seed):
        tasks = [_model_task(model, n) for model, n in VALIDATE_MODELS]
        rng = random.Random(f"pairs/{seed}")
        size = len(ctx.vertex_family)
        pairs = [tuple(rng.sample(range(size), 2)) for _ in range(VERTEX_PAIRS)]
        same = rng.randrange(size)
        tasks += [_vertex_pair_task(ctx.vertex_family, i, j) for i, j in pairs + [(same, same)]]
        tasks.append(_face_family_task(ctx.lattice))
        for name, g in ctx.groupoids.items():
            tasks += [_corner_task(name, g, corner) for corner in CORNERS[name]]
        tasks += [_summed_task(name, g) for name, g in ctx.groupoids.items()]
        return _shuffled(tasks, seed)


WORKLOADS = {
    "gsd-ladder": GsdLadder(),
    "query-mix": QueryMix(),
    "dense-oracle": DenseOracle(),
    "validate-algebra": ValidateAlgebra(),
}
