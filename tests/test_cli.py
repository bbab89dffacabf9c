"""End-to-end tests for the ``gtoric`` command line interface."""

import decimal
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import gtoric
from gtoric.catalog import Term, build_hamiltonian
from gtoric.cli import _noncommuting_pairs, main
from gtoric.groupoids import make_sis_groupoid
from gtoric.lattice import Lattice
from gtoric.paulis import lattice_string


@pytest.fixture()
def runner():
    return CliRunner()


def sis2_json(change):
    """The sis:2 groupoid file after ``change`` edits its JSON data."""
    data = make_sis_groupoid(2).to_json_dict()
    change(data)
    return json.dumps(data)


class TestValidate:
    def test_model_m1_passes(self, runner):
        res = runner.invoke(main, ["validate", "--model", "m1"])
        assert res.exit_code == 0
        assert "status: pass" in res.output
        assert "terms_commute: True" in res.output
        assert "terms_projectors: True" in res.output

    def test_appendix_b_enumeration(self, runner):
        res = runner.invoke(
            main,
            ["validate", "--groupoid", "sis:3", "--appendix-b", "--format", "json"],
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["axioms"] == "pass"
        corners = data["corners"]
        for corner in ("NW", "NE", "SE"):
            assert corners[corner]["violations"] == []
        assert corners["SW"]["violations"]  # SW needs the summed element
        assert corners["SW"]["pairs_checked"] == 81

    def test_boundary_model_requires_open_lattice(self, runner):
        res = runner.invoke(main, ["validate", "--model", "boundary"])
        assert res.exit_code != 0
        assert "open lattice" in res.output

    def test_boundary_model_on_open_lattice(self, runner):
        res = runner.invoke(
            main, ["validate", "--model", "boundary", "--lattice", "open:2x2"]
        )
        assert res.exit_code == 0
        assert "status: pass" in res.output

    def test_intertwiner_exact(self, runner):
        # the sis:2 action images are exact: their roots of unity are +-1
        res = runner.invoke(main, ["validate", "--model", "m1", "--format", "json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["action_intertwiner_error"] == 0.0

    def test_intertwiner_over_budget(self, runner):
        # the two-site action images have 16 dense entries
        res = runner.invoke(main, ["validate", "--model", "m1"], env={"GTORIC_BUDGET": "8"})
        assert res.exit_code == 2
        assert "budget" in res.output

    def test_unknown_model(self, runner):
        res = runner.invoke(main, ["validate", "--model", "nope"])
        assert res.exit_code != 0


    @pytest.mark.parametrize("content, message", [
        pytest.param(None, "No such file", id="missing-file"),
        pytest.param("{not json", "Expecting", id="invalid-json"),
        pytest.param('{"morphisms": [], "composition": []}', "n_objects", id="no-n-objects"),
        pytest.param('{"n_objects": 1, "composition": []}', "morphisms", id="no-morphisms"),
        pytest.param('{"n_objects": 1, "morphisms": []}', "composition", id="no-composition"),
        pytest.param(sis2_json(lambda d: d["morphisms"][1].pop("source")), "source",
                     id="morphism-without-source"),
        pytest.param(sis2_json(lambda d: d["composition"][0].__setitem__(0, 7)),
                     "composition entry 7", id="entry-out-of-range"),
        pytest.param(sis2_json(lambda d: d.update(composition=[])), "4x4", id="empty-table"),
        pytest.param(sis2_json(lambda d: d.update(composition=[1, 2, 3, 4])), "not iterable",
                     id="rows-not-lists"),
        pytest.param(sis2_json(lambda d: d.update(n_objects="two")), "not supported",
                     id="n-objects-not-integer"),
        pytest.param(sis2_json(lambda d: d.update(morphisms=4)), "not iterable",
                     id="morphisms-not-a-list"),
        pytest.param(sis2_json(lambda d: d["morphisms"][0].update(source="a")), "integer source",
                     id="source-not-integer"),
    ])
    def test_malformed_groupoid_file(self, runner, tmp_path, content, message):
        path = tmp_path / "groupoid.json"
        if content is not None:
            path.write_text(content)
        res = runner.invoke(main, ["validate", "--groupoid", f"file:{path}"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)  # a usage error, not a traceback
        assert message in res.output

    def test_malformed_sis_order(self, runner):
        res = runner.invoke(main, ["validate", "--groupoid", "sis:abc"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "sis:abc" in res.output

    def test_groupoid_file_round_trip(self, runner, tmp_path):
        path = tmp_path / "groupoid.json"
        path.write_text(make_sis_groupoid(2).to_json())
        res = runner.invoke(main, ["validate", "--groupoid", f"file:{path}"])
        assert res.exit_code == 0
        assert "axioms: pass" in res.output

def all_pairs(terms):
    """Non-commuting term pairs counted over every pair, the reference."""
    return sum(
        1
        for i, a in enumerate(terms)
        for b in terms[i + 1 :]
        if not a.opsum.commutator(b.opsum).is_zero(1e-10)
    )


class TestCommutingPairs:
    def test_overlapping_pairs_match_all_pairs(self):
        terms = build_hamiltonian("m1", Lattice("torus", 4, 4)).terms
        assert _noncommuting_pairs(terms) == all_pairs(terms) == 0

    def test_injected_term_fails_once(self):
        # Z on (0,0).W fails to commute only with the X check of vertex (0,0)
        spec = build_hamiltonian("m1", Lattice("torus", 4, 4))
        z = lattice_string(spec.lattice, 2, z=[((0, 0, "W"), 1)])
        terms = list(spec.terms) + [Term("probe", (0, 0), [(z, 0)])]
        assert _noncommuting_pairs(terms) == all_pairs(terms) == 1


class TestGsd:
    def test_python_m_gtoric(self):
        path = [os.path.dirname(os.path.dirname(gtoric.__file__)), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        res = subprocess.run(
            [sys.executable, "-m", "gtoric", "gsd", "--model", "m1", "--format", "json"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["gsd"] == 32

    def test_m1_4x4(self, runner):
        res = runner.invoke(main, ["gsd", "--model", "m1", "--lattice", "torus:4x4"])
        assert res.exit_code == 0
        assert "gsd: 131072" in res.output

    def test_zn3(self, runner):
        res = runner.invoke(main, ["gsd", "--model", "zn:3"])
        assert res.exit_code == 0
        assert "gsd: 243" in res.output

    def test_method_both_agrees(self, runner):
        res = runner.invoke(
            main, ["gsd", "--model", "m1", "--method", "both", "--format", "json"]
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["gsd"] == 32
        assert data["dense_trace"] == pytest.approx(32.0)
        assert data["agree"] is True

    def test_count_past_the_default_int_digit_limit(self, runner):
        # m1 torus:128x128 has gsd 2^16385, 4,933 decimal digits: more than
        # Python converts between int and text by default
        limit = sys.get_int_max_str_digits()
        res = runner.invoke(main, ["gsd", "--model", "m1", "--lattice", "torus:128x128", "--format", "json"])
        assert res.exit_code == 0, res.output
        data = json.loads(res.output, parse_int=decimal.Decimal)
        assert data["k"] == 16385
        assert data["gsd"] == decimal.Context(prec=5000).power(2, 16385)
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("method", ["both", "dense"])
    def test_dense_count_is_an_exact_int(self, runner, method):
        # the dense count is oracle.ground_space_dimension's verified integer
        res = runner.invoke(
            main, ["gsd", "--model", "mnondeg", "--method", method, "--format", "json"]
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert isinstance(data["dense_trace"], int)
        assert data["dense_trace"] == data["gsd"] == 1

    def test_json_fields(self, runner):
        res = runner.invoke(
            main, ["gsd", "--model", "mnondeg", "--format", "json"]
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["gsd"] == 1
        assert data["consistency"] is True
        assert data["terms"] == {"face": 4, "vertex": 4}

    @pytest.mark.parametrize("command", ["gsd", "validate"])
    def test_modulus_too_large_for_int64(self, runner, command):
        res = runner.invoke(main, [command, "--model", "zn:3037000507", "--lattice", "torus:2x2"])
        assert res.exit_code == 2
        assert "too large" in res.output

    @pytest.mark.parametrize("model", ["zn:x", "zn:1", "zn:"])
    def test_malformed_zn_id(self, runner, model):
        res = runner.invoke(main, ["gsd", "--model", model])
        assert res.exit_code == 2
        assert repr(model) in res.output
        assert "zn:N with integer N >= 2" in res.output

    def test_sparse_product_over_budget(self, runner):
        # 2^24 amplitudes fit the default budget; the projector product's
        # fill-in on the 2^18-state sector does not, and is refused before
        # it is formed
        res = runner.invoke(
            main, ["gsd", "--model", "m3exp", "--lattice", "torus:3x2", "--method", "both"]
        )
        assert res.exit_code == 2
        assert "budget" in res.output

    @pytest.mark.parametrize("command", [
        pytest.param(["gsd", "--model", "m1", "--method", "dense"], id="gsd"),
        pytest.param(["excite", "--model", "m1", "--lattice", "torus:2x2", "--op", "Z@(1,1).E",
                      "--seed-config", "all=1 E=2 W=2"], id="excite"),
        pytest.param(["validate", "--model", "m1"], id="validate"),
    ])
    def test_malformed_budget(self, runner, command):
        res = runner.invoke(main, command, env={"GTORIC_BUDGET": "lots"})
        assert res.exit_code == 2
        assert "GTORIC_BUDGET" in res.output


@pytest.mark.parametrize("spec", ["torus:1x1", "foo"])
@pytest.mark.parametrize("command", [
    ["gsd", "--model", "m1"],
    ["excite", "--model", "m1", "--op", "Z@(1,1).E"],
    ["validate", "--model", "m1"],
], ids=["gsd", "excite", "validate"])
def test_malformed_lattice(runner, command, spec):
    res = runner.invoke(main, command + ["--lattice", spec])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # a usage error, not a traceback
    assert "Usage" in res.output


class TestExcite:
    def test_single_error_energy(self, runner):
        res = runner.invoke(main, ["excite", "--model", "m1", "--op", "Z@(1,1).E"])
        assert res.exit_code == 0
        assert "energy: 1" in res.output
        assert "vertex (1, 1)" in res.output

    def test_closed_loop_is_invisible(self, runner):
        op = "X@(0,0).W X@(0,1).W X@(0,2).W"
        res = runner.invoke(
            main,
            ["excite", "--model", "m1", "--op", op, "--format", "json"],
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["energy"] == 0
        assert data["violated"] == []

    @pytest.mark.parametrize(
        "op, faces",
        [
            pytest.param("X@(1,0).N X@(1,0).E X@(2,0).W", ["face (0, 0)", "face (1, 0)"], id="one-step"),
            pytest.param("X@(1,0).N X@(1,0).E X@(2,0).W X@(2,0).N X@(2,0).E X@(3,0).W",
                         ["face (0, 0)", "face (2, 0)"], id="two-steps"),
        ],
    )
    def test_m1_faces_move_horizontally_at_no_cost(self, runner, op, faces):
        """Constituent IV then I moves m1's face pair along a row at energy 2,
        though the forbidden-horizontal chain, X on N sites, costs 2 a step:
        the chain names describe the chains, not the model."""
        res = runner.invoke(main, ["excite", "--model", "m1", "--lattice", "torus:5x5", "--op", op,
                                   "--format", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert (data["energy"], data["violated"]) == (2, faces)

    def test_seed_config_dense_crosscheck(self, runner):
        res = runner.invoke(
            main,
            [
                "excite",
                "--model",
                "m1",
                "--lattice",
                "torus:2x2",
                "--op",
                "Z@(1,1).E",
                "--seed-config",
                "all=1 E=2 W=2",
                "--format",
                "json",
            ],
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["energy"] == 1
        assert data["dense_energy"] == 1
        assert data["dense_agrees"] is True

    def test_seed_config_missing_site(self, runner):
        # open:1x1 has no W site at (0,0): a usage error that names the site
        res = runner.invoke(
            main,
            ["excite", "--model", "boundary", "--lattice", "open:1x1", "--op", "X@(0,0).E",
             "--seed-config", "(0,0).W=1"],
        )
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)  # a usage error, not a traceback
        assert "(0, 0, 'W')" in res.output

    def test_annihilated_seed(self, runner):
        # the face term holds, and the corner vertex's projection zeroes the seed
        res = runner.invoke(
            main,
            ["excite", "--model", "boundary", "--lattice", "open:1x1", "--op", "Z@(0,0).N",
             "--seed-config", "all=1 (0,0).N=2 (0,0).E=2 (1,0).W=2"],
        )
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)  # a usage error, not a traceback
        assert "annihilated by the corner-vertex term at (0, 0)" in res.output

    def test_bad_pauli_token(self, runner):
        res = runner.invoke(main, ["excite", "--model", "m1", "--op", "Q@(1,1).E"])
        assert res.exit_code != 0
        assert "bad token" in res.output

    def test_seed_over_budget(self, runner):
        res = runner.invoke(
            main,
            ["excite", "--model", "m1", "--op", "Z@(1,1).E",
             "--seed-config", "all=1 E=2 W=2"],
        )
        assert res.exit_code != 0
        assert "budget" in res.output
