"""End-to-end tests for the ``gtoric`` command line interface."""

import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import gtoric
from gtoric.cli import main
from gtoric.groupoids import make_sis_groupoid


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
        # fill-in does not, and is refused before it is formed
        res = runner.invoke(
            main, ["gsd", "--model", "boundary", "--lattice", "open:2x2", "--method", "both"]
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
