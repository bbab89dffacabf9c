"""Command-line front end: build models, verify their algebra, compute
ground-space dimensions, and report error syndromes.

Commands
--------
validate   groupoid axioms, projector families, commutation and mapping checks
gsd        ground-space dimension (stabilizer engine, dense oracle, or both)
excite     syndrome and classification of a Pauli error string
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from . import catalog, commutation, groupoids, linalg, oracle, stabilizer
from .lattice import Lattice, MissingSiteError
from .paulis import PauliParseError, pauli_from_text, pauli_to_text


def _load_groupoid(spec):
    kind, _, arg = spec.partition(":")
    try:
        if spec == "isotropy-z2":
            return groupoids.make_isotropy_z2_groupoid()
        if kind == "sis":
            return groupoids.make_sis_groupoid(int(arg))
        if kind == "file":
            with open(arg) as fh:
                return groupoids.Groupoid.from_json(fh.read())
    except (OSError, TypeError, ValueError) as exc:  # a TypeError: data of the wrong shape
        raise click.UsageError(f"bad groupoid spec {spec!r}: {exc}")
    raise click.UsageError(f"unknown groupoid spec {spec!r}")


def _build(model, lattice_spec):
    """The model's Hamiltonian on the lattice; the model id fixes n."""
    try:
        return catalog.build_hamiltonian(model, Lattice.from_spec(lattice_spec))
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _stabilizer_model(spec):
    """The Hamiltonian's stabilizer model; a model the engine refuses is a usage error."""
    try:
        return stabilizer.StabilizerModel.from_hamiltonian(spec)
    except stabilizer.InvalidModelError as exc:
        raise click.UsageError(str(exc))


def _budget_is_usage(command):
    """Report a refused or malformed amplitude budget as a usage error."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (oracle.BudgetExceededError, oracle.InvalidBudgetError) as exc:
            raise click.UsageError(str(exc))

    return wrapper


def _emit(data, fmt):
    # an exact count can have more decimal digits than Python converts by
    # default: m1 on torus:128x128 has gsd 2^16385, 4,933 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            click.echo(json.dumps(data, indent=2, default=str))
        else:
            for key, value in data.items():
                click.echo(f"{key}: {value}")
    finally:
        sys.set_int_max_str_digits(limit)


def _sorted_counts(spec):
    return dict(sorted(spec.term_counts().items()))


@click.group()
def main():
    """Groupoid toric code construction and verification toolkit."""


@main.command()
@click.option("--model", default=None, help="model id, e.g. m1 or zn:3")
@click.option("--lattice", "lattice_spec", default="torus:2x2", show_default=True)
@click.option("--groupoid", "groupoid_spec", default=None, help="sis:N | isotropy-z2 | file:PATH")
@click.option("--appendix-b", "corner_checks", is_flag=True, help="run the corner commutation enumeration")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@_budget_is_usage
def validate(model, lattice_spec, groupoid_spec, corner_checks, fmt):
    """Run the verification suites for a groupoid and/or a model."""
    failures = []
    data = {}

    if groupoid_spec is not None or corner_checks:
        g = _load_groupoid(groupoid_spec or "sis:2")
        axioms = groupoids.validate_axioms(g)
        data["groupoid"] = groupoid_spec or "sis:2"
        data["axioms"] = "pass" if axioms.ok else "fail"
        if not axioms.ok:
            failures.extend(axioms.violations)
            data["axiom_violations"] = axioms.violations
        if corner_checks:
            corners = {}
            for corner in ("NW", "NE", "SE", "SW"):
                rep = commutation.check_corner_commutation(g, corner)
                corners[corner] = rep.to_json_dict()
                if corner != "SW" and rep.violations:
                    failures.append(f"{corner} corner commutator violated")
            central_dev = commutation.check_summed_commutation(g, "SW")
            corners["SW_central_sum"] = {"deviation": central_dev}
            if central_dev:
                failures.append("SW corner violated for the central identity sum")
            data["corners"] = corners

    if model is not None:
        spec = _build(model, lattice_spec)
        data["model"] = spec.model
        data["lattice"] = spec.lattice.spec
        data["terms"] = _sorted_counts(spec)
        sm = _stabilizer_model(spec)
        try:
            sm.check_commuting()
            data["terms_commute"] = True
        except stabilizer.InvalidModelError as exc:
            data["terms_commute"] = False
            failures.append(str(exc))
        else:
            if not stabilizer.phase_consistent(sm):
                failures.append("phase-inconsistent stabilizer targets")
        # symbolic projector/commutation checks on the expanded terms
        bad = 0
        for t in spec.terms:
            if not (t.opsum * t.opsum).approx_equal(t.opsum):
                bad += 1
        if bad:
            failures.append(f"{bad} terms are not projectors")
        data["terms_projectors"] = bad == 0
        pairs_bad = _noncommuting_pairs(spec.terms)
        if pairs_bad:
            failures.append(f"{pairs_bad} term pairs fail to commute")
        if spec.n == 2 and spec.lattice.topology == "torus":
            sis = groupoids.make_sis_groupoid(2)
            dev = _intertwiner_deviation(sis)
            data["action_intertwiner_error"] = dev
            if dev > 1e-12:
                failures.append("morphism action mapping mismatch")

    data["status"] = "pass" if not failures else "fail"
    if failures:
        data["failures"] = failures
    _emit(data, fmt)
    if failures:
        sys.exit(1)


def _noncommuting_pairs(terms):
    """How many pairs of terms have a nonzero symbolic commutator.  Terms on
    disjoint sites act on different tensor factors and commute exactly, so
    only the pairs that share a site are checked: the entries of the term x
    site incidence joined with themselves on site (``linalg.key_pairs``)."""
    supports = [np.flatnonzero(np.any([s.x | s.z for s, _ in t.factors], axis=0)) for t in terms]
    term = np.repeat(np.arange(len(supports)), [len(sites) for sites in supports])
    site = np.concatenate(supports)
    e, f = linalg.key_pairs(site, site, int(site.max(initial=-1)) + 1)
    first, second = term[e], term[f]
    pairs = np.sort((first * len(terms) + second)[first < second])
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # each pair once
    return sum(
        1
        for i, j in zip(*np.divmod(pairs, len(terms)))
        if not terms[i].opsum.commutator(terms[j].opsum).is_zero(1e-10)
    )


def _intertwiner_deviation(g):
    enc = catalog.edge_encoding_matrix(g)
    worst = 0.0
    for m in range(len(g)):
        for side, action in (("left", catalog.left_action), ("right", catalog.right_action)):
            target = enc @ action(g, m) @ np.conj(enc.T)
            got = catalog.qubit_image_of_action(g, m, side).dense_matrix()
            worst = max(worst, float(np.abs(got - target).max()))
    return worst


@main.command()
@click.option("--model", required=True)
@click.option("--lattice", "lattice_spec", default="torus:2x2", show_default=True)
@click.option("--method", type=click.Choice(["stabilizer", "dense", "both"]), default="stabilizer", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@_budget_is_usage
def gsd(model, lattice_spec, method, fmt):
    """Ground-space dimension of a model."""
    spec = _build(model, lattice_spec)
    data = {"model": spec.model, "lattice": spec.lattice.spec, "n": spec.n}
    data["terms"] = _sorted_counts(spec)
    sm = _stabilizer_model(spec)
    if method in ("stabilizer", "both"):
        rep = stabilizer.report(sm)
        data["gsd"] = rep["gsd"]
        data["k"] = rep["k"]
        data["rank"] = rep["rank"]
        data["consistency"] = rep["consistency"]
    if method in ("dense", "both"):
        count = oracle.ground_space_dimension(spec)
        data["dense_trace"] = count
        if method == "both":
            data["agree"] = count == data["gsd"]
            if not data["agree"]:
                _emit(data, fmt)
                sys.exit(1)
        else:
            data["gsd"] = count
    _emit(data, fmt)


@main.command()
@click.option("--model", required=True)
@click.option("--lattice", "lattice_spec", default="torus:3x3", show_default=True)
@click.option("--op", "op_text", required=True, help="Pauli string, e.g. 'Z@(1,1).E'")
@click.option("--seed-config", "seed_text", default=None,
              help="product-state seed, e.g. 'all=1 (0,0).E=2'; cross-checks the syndrome densely")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@_budget_is_usage
def excite(model, lattice_spec, op_text, seed_text, fmt):
    """Apply an error string and report the violated terms."""
    spec = _build(model, lattice_spec)
    try:
        err = pauli_from_text(op_text, spec.lattice, spec.n)
    except PauliParseError as exc:
        raise click.UsageError(str(exc))
    sm = _stabilizer_model(spec)
    syn = stabilizer.syndrome(sm, err)
    data = {
        "model": spec.model,
        "lattice": spec.lattice.spec,
        "op": pauli_to_text(err, spec.lattice),
        "energy": syn.energy,
        "violated": [f"{kind} {loc}" for kind, loc in sorted(syn.violated, key=str)],
    }
    if syn.energy == 0:  # every generator is a term's factor, so no flip is nonzero
        data["classification"] = "stabilizer" if stabilizer.in_stabilizer_group(sm, err) else "logical"
    if seed_text is not None:
        try:
            digits = oracle.parse_seed_config(seed_text, spec.lattice, spec.n)
            state = oracle.construct_ground_state(spec, digits)
        except (ValueError, MissingSiteError, oracle.SeedViolatesFaceTermError,
                oracle.SeedAnnihilatedError) as exc:
            raise click.UsageError(str(exc))
        excited = oracle.apply_pauli_to_state(err, state)
        expectations = oracle.measure_syndrome(spec, excited)
        dense_energy = sum(1 for v in expectations if v < 0.5)
        data["dense_energy"] = dense_energy
        data["dense_agrees"] = dense_energy == syn.energy
        if not data["dense_agrees"]:
            _emit(data, fmt)
            sys.exit(1)
    _emit(data, fmt)


if __name__ == "__main__":
    main()
