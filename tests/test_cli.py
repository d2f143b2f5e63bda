"""End-to-end tests of the command line front end.

The runner is invoked in process through main(argv); golden files under
tests/golden/ pin the exact output bytes of the displayed examples."""

import io
import json
import sys
from pathlib import Path

import pytest

from chiraltorus.cli import RunConfig, CliError, dump_json, main
from chiraltorus.fockq import load_model, one_dim_model, partition_function
from chiraltorus.jetcalc import parse_expr

GOLDEN = Path(__file__).parent / "golden"


def invoke(args, capsys, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            rc = main(list(args))
        finally:
            sys.stdin = old
    else:
        rc = main(list(args))
    out, err = capsys.readouterr()
    return rc, out, err


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(CliError):
            RunConfig.from_dict({"subcommand": "bracket", "colour": "red"})

    def test_bad_format(self):
        with pytest.raises(CliError):
            RunConfig(subcommand="bracket", format="yaml")

    def test_negative_counts(self):
        for field in ("cutoff", "level", "order"):
            with pytest.raises(CliError):
                RunConfig(subcommand="spectrum", **{field: -1})

    def test_bool_is_not_a_count(self):
        with pytest.raises(CliError):
            RunConfig(subcommand="spectrum", cutoff=True)

    def test_sign_must_be_nonzero_rational(self):
        with pytest.raises(CliError):
            RunConfig(subcommand="bracket", sign="0")
        with pytest.raises(CliError):
            RunConfig(subcommand="bracket", sign="two")

    def test_csv_only_for_tables(self):
        with pytest.raises(CliError):
            RunConfig(subcommand="bracket", format="csv")
        RunConfig(subcommand="spectrum", format="csv")

    def test_unknown_subcommand(self):
        with pytest.raises(CliError):
            RunConfig(subcommand="frobnicate")


class TestNoether:
    def test_dt_circle_golden(self, capsys):
        rc, out, err = invoke(["noether", "--generator", "dt"], capsys)
        assert rc == 0
        assert out == golden("noether_dt_circle.json")

    def test_dt_charge_is_the_energy_density(self, capsys):
        rc, out, _ = invoke(["noether", "--generator", "dt"], capsys)
        data = json.loads(out)
        want = parse_expr("-1/2*i*(dt.x1^2 - ds.x1^2)")
        assert parse_expr(data["charge_integrand"]) == want
        assert data["charge_integrand"] == data["current"]["ds"]

    def test_conformal_circle_golden(self, capsys):
        rc, out, _ = invoke(["noether", "--generator", "conformal"], capsys)
        assert rc == 0
        assert out == golden("noether_conformal_circle.json")
        data = json.loads(out)
        assert parse_expr(data["charge_integrand"]) == parse_expr("-i*f*dz.x1^2")

    def test_torus_translation(self, capsys):
        rc, out, _ = invoke(
            ["noether", "--lagrangian", "torus",
             "--metric", "[[1,0],[0,2]]", "--bfield", "[[0,1],[-1,0]]",
             "--generator", "x2"],
            capsys,
        )
        assert rc == 0
        data = json.loads(out)
        assert parse_expr(data["charge_integrand"]) == parse_expr(
            "-ds.x1 - 2*i*dt.x2"
        )

    def test_unknown_generator_exit1(self, capsys):
        rc, _, err = invoke(["noether", "--generator", "bogus"], capsys)
        assert rc == 1 and "generator" in err

    def test_torus_needs_metric(self, capsys):
        rc, _, err = invoke(["noether", "--lagrangian", "torus"], capsys)
        assert rc == 1 and "--metric" in err

    def test_asymmetric_metric_exit1(self, capsys):
        rc, _, err = invoke(
            ["noether", "--lagrangian", "torus", "--metric", "[[1,1],[0,1]]"],
            capsys,
        )
        assert rc == 1


class TestFm:
    MU_ID = {"mu": [["1", "0"], ["0", "1"]]}
    CLS = {
        "n": 2,
        "lambda": {"degree": 3, "dim": 2, "entries": []},
        "nu": {"degree": 2, "dim": 2, "valdim": 2,
               "entries": [{"idx": [1, 2], "val": ["1/2", "0"]}]},
    }

    def _write(self, tmp_path, name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def test_identity_echoes_class(self, tmp_path, capsys):
        mu = self._write(tmp_path, "mu.json", self.MU_ID)
        cls = self._write(tmp_path, "cls.json", self.CLS)
        rc, out, _ = invoke(["fm", "--mu", mu, "--input", cls], capsys)
        assert rc == 0
        assert json.loads(out) == self.CLS

    def test_stdin_input_same_bytes(self, tmp_path, capsys):
        mu = self._write(tmp_path, "mu.json", self.MU_ID)
        cls = self._write(tmp_path, "cls.json", self.CLS)
        rc1, out1, _ = invoke(["fm", "--mu", mu, "--input", cls], capsys)
        rc2, out2, _ = invoke(["fm", "--mu", mu], capsys,
                              stdin=json.dumps(self.CLS))
        assert (rc1, rc2) == (0, 0)
        assert out1 == out2

    def test_linear_is_negated_inverse(self, tmp_path, capsys):
        mu = self._write(tmp_path, "mu.json", self.MU_ID)
        a = self._write(tmp_path, "a.json", [["2", "0"], ["0", "1"]])
        rc, out, _ = invoke(
            ["fm", "--kind", "linear", "--mu", mu, "--input", a], capsys
        )
        assert rc == 0
        assert json.loads(out) == [["-1/2", "0"], ["0", "-1"]]

    def test_tdo_on_mu_gives_inverse(self, tmp_path, capsys):
        mu = self._write(tmp_path, "mu.json", {"mu": [["2", "0"], ["0", "4"]]})
        tdo = self._write(tmp_path, "tdo.json", {
            "c": [["2", "0"], ["0", "4"]],
            "omega": {"degree": 2, "dim": 2, "entries": []},
        })
        rc, out, _ = invoke(
            ["fm", "--kind", "tdo", "--mu", mu, "--input", tdo], capsys
        )
        assert rc == 0
        assert json.loads(out)["c"] == [["1/2", "0"], ["0", "1/4"]]

    def test_singular_mu_exit2(self, tmp_path, capsys):
        mu = self._write(tmp_path, "mu.json", {"mu": [["1", "1"], ["1", "1"]]})
        a = self._write(tmp_path, "a.json", [["1", "0"], ["0", "1"]])
        rc, _, err = invoke(
            ["fm", "--kind", "linear", "--mu", mu, "--input", a], capsys
        )
        assert rc == 2 and "nondegenerate" in err

    def test_broken_json_exit1_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        mu = self._write(tmp_path, "mu.json", self.MU_ID)
        rc, _, err = invoke(["fm", "--mu", str(bad), "--input", mu], capsys)
        assert rc == 1 and "bad.json:1:" in err

    def test_missing_field_exit1(self, tmp_path, capsys):
        mu = self._write(tmp_path, "mu.json", self.MU_ID)
        cls = self._write(tmp_path, "cls.json", {"n": 2})
        rc, _, err = invoke(["fm", "--mu", mu, "--input", cls], capsys)
        assert rc == 1

    def test_missing_file_exit1(self, tmp_path, capsys):
        rc, _, err = invoke(
            ["fm", "--mu", str(tmp_path / "absent.json")], capsys
        )
        assert rc == 1 and "absent.json" in err


class TestBracket:
    def test_heisenberg_constant(self, capsys):
        rc, out, _ = invoke(["bracket", "heis+:3", "heis+:-3"], capsys)
        assert rc == 0
        assert json.loads(out) == {"bracket": "-3/2*i", "is_zero": False}

    def test_vir_pair_golden(self, capsys):
        rc, out, _ = invoke(["bracket", "vir+:2", "vir+:-1"], capsys)
        assert rc == 0
        assert out == golden("bracket_vir_2_m1.json")

    def test_opposite_chiralities_commute(self, capsys):
        rc, out, _ = invoke(["bracket", "vir+:2", "vir-:3"], capsys)
        assert rc == 0
        assert json.loads(out)["is_zero"] is True

    def test_sign_override_flips(self, capsys):
        rc, out, _ = invoke(
            ["bracket", "heis+:3", "heis+:-3", "--sign-convention", "1"],
            capsys,
        )
        assert rc == 0
        assert json.loads(out)["bracket"] == "3/2*i"

    def test_expressions_from_stdin(self, capsys):
        rc, out, _ = invoke(["bracket"], capsys, stdin="heis+:3\nheis+:-3\n")
        assert rc == 0
        assert json.loads(out)["bracket"] == "-3/2*i"

    def test_grammar_error_exit1(self, capsys):
        rc, _, err = invoke(["bracket", "x1 +", "p1"], capsys)
        assert rc == 1

    def test_non_density_exit2(self, capsys):
        rc, _, err = invoke(["bracket", "x1*dt.dt.x1", "p1"], capsys)
        assert rc == 2

    def test_text_format(self, capsys):
        rc, out, _ = invoke(
            ["bracket", "heis+:3", "heis+:-3", "--format", "text"], capsys
        )
        assert rc == 0 and out == "[-3/2*i]\n"


class TestJacobi:
    def test_untwisted_zero(self, capsys):
        rc, out, _ = invoke(["jacobi", "x1^2", "p1*ds.x1", "p1^2"], capsys)
        assert rc == 0
        assert json.loads(out) == {"residual": "0", "is_zero": True}

    def test_nonclosed_twist_obstructs(self, tmp_path, capsys):
        tw = tmp_path / "twist.json"
        tw.write_text(json.dumps({"1,2,3": "x4"}), encoding="utf-8")
        rc, out, _ = invoke(
            ["jacobi", "--twist", str(tw), "e(1)*p1", "e(1)*p2", "e(1)*p3"],
            capsys,
        )
        assert rc == 0
        assert json.loads(out) == {
            "residual": "3*i*e(3)*x4", "is_zero": False,
        }

    def test_constant_twist_closes(self, tmp_path, capsys):
        tw = tmp_path / "twist.json"
        tw.write_text(json.dumps({"1,2,3": "1"}), encoding="utf-8")
        rc, out, _ = invoke(
            ["jacobi", "--twist", str(tw), "e(2)*p1", "e(1)*p2", "e(-3)*p3"],
            capsys,
        )
        assert rc == 0
        assert json.loads(out)["is_zero"] is True

    def test_bad_twist_key_exit1(self, tmp_path, capsys):
        tw = tmp_path / "twist.json"
        tw.write_text(json.dumps({"1,2": "1"}), encoding="utf-8")
        rc, _, err = invoke(["jacobi", "--twist", str(tw), "p1", "p2", "p3"],
                            capsys)
        assert rc == 1 and "triple" in err

    def test_decreasing_twist_key_exit1(self, tmp_path, capsys):
        tw = tmp_path / "twist.json"
        tw.write_text(json.dumps({"2,1,3": "1"}), encoding="utf-8")
        rc, _, err = invoke(["jacobi", "--twist", str(tw), "p1", "p2", "p3"],
                            capsys)
        assert rc == 1


MODEL_B = {
    "n": 2,
    "g": [["1", "0"], ["0", "1"]],
    "B": [["0", "1/2"], ["-1/2", "0"]],
    "L": [["1", "0"], ["0", "1"]],
}


def write_model(tmp_path, obj=None):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj or MODEL_B), encoding="utf-8")
    return str(path)


class TestSpectrumStates:
    def test_spectrum_csv_golden(self, capsys):
        rc, out, _ = invoke(
            ["spectrum", "--radius-unit", "1", "--cutoff", "1",
             "--format", "csv"],
            capsys,
        )
        assert rc == 0
        assert out == golden("spectrum_circle_cutoff1.csv")

    def test_spectrum_json_vacuum(self, capsys):
        rc, out, _ = invoke(["spectrum", "--radius-unit", "1"], capsys)
        data = json.loads(out)
        assert data["sectors"] == [{
            "l": [0], "lstar": [0], "p_plus": ["0"], "p_minus": ["0"],
        }]

    def test_states_level_counts(self, tmp_path, capsys):
        path = write_model(tmp_path)
        rc, out, _ = invoke(
            ["states", "--model", path, "--cutoff", "0", "--level", "3"],
            capsys,
        )
        assert rc == 0
        data = json.loads(out)
        assert data["level_counts"] == [1, 2, 5, 10]
        # the vacuum sector has zero weight: an empty coefficient table
        assert data["sectors"][0]["h"] == {}

    def test_states_csv_has_weights(self, tmp_path, capsys):
        path = write_model(tmp_path)
        rc, out, _ = invoke(
            ["states", "--model", path, "--cutoff", "1", "--format", "csv"],
            capsys,
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "l,lstar,a_plus,a_minus,h,hbar"
        assert len(lines) == 1 + 81

    def test_bad_coordinates_exit2(self, capsys):
        rc, _, err = invoke(
            ["character", "--radius-unit", "1", "--l", "1/2"], capsys
        )
        assert rc == 2 and "integer" in err


class TestLocality:
    def test_report_all_integral(self, tmp_path, capsys):
        path = write_model(tmp_path)
        rc, out, _ = invoke(
            ["locality", "--model", path, "--cutoff", "1"], capsys
        )
        assert rc == 0
        data = json.loads(out)
        assert data["all_integral"] is True
        assert len(data["pairs"]) == 81 * 81

    def test_text_summary(self, capsys):
        rc, out, _ = invoke(
            ["locality", "--radius-unit", "4/7", "--cutoff", "1",
             "--format", "text"],
            capsys,
        )
        assert rc == 0
        assert out == (
            "cutoff: 1\npairs checked: 81\n"
            "all exponent differences integral: yes\n"
        )


class TestTdual:
    def test_roundtrip_byte_identical(self, tmp_path, capsys):
        dual = tmp_path / "dual.json"
        rc1 = main(["tdual", "--radius-unit", "1/2", "--out", str(dual)])
        rc2, out, _ = invoke(["tdual", "--model", str(dual)], capsys)
        assert (rc1, rc2) == (0, 0)
        assert out == dump_json(one_dim_model("1/2").to_json())

    def test_dual_model_reparses(self, tmp_path, capsys):
        rc, out, _ = invoke(["tdual", "--radius-unit", "1/2"], capsys)
        assert rc == 0
        model = load_model(json.loads(out))
        assert model.to_json() == json.loads(out)

    def test_float_radius_in_model_file_exit1(self, tmp_path, capsys):
        path = write_model(tmp_path, {"radius_unit": 0.1})
        rc, out, err = invoke(["spectrum", "--model", path], capsys)
        assert rc == 1 and out == ""
        assert "radius_unit must be an exact rational, got 0.1" in err
        assert "Traceback" not in err

    def test_b_field_exit2(self, tmp_path, capsys):
        path = write_model(tmp_path)
        rc, _, err = invoke(["tdual", "--model", path], capsys)
        assert rc == 2 and "B = 0" in err


class TestChiralCharacter:
    def test_selfdual_chiral_diagonal(self, capsys):
        rc, out, _ = invoke(
            ["chiral", "--radius-unit", "1", "--cutoff", "2"], capsys
        )
        assert rc == 0
        data = json.loads(out)
        pairs = [(tuple(r["l"]), tuple(r["lstar"])) for r in data["sectors"]]
        assert pairs == [((-2,), (2,)), ((-1,), (1,)), ((0,), (0,)),
                         ((1,), (-1,)), ((2,), (-2,))]

    def test_generic_radius_vacuum_only(self, tmp_path, capsys):
        path = write_model(tmp_path, {"radius_unit": None})
        rc, out, _ = invoke(
            ["chiral", "--model", path, "--cutoff", "3"], capsys
        )
        data = json.loads(out)
        assert [r["l"] for r in data["sectors"]] == [[0]]

    def test_character_series(self, capsys):
        rc, out, _ = invoke(
            ["character", "--radius-unit", "1", "--l", "1", "--lstar", "-1",
             "--order", "2"],
            capsys,
        )
        assert rc == 0
        data = json.loads(out)
        assert data["series"] == {"-1": "1", "0": "1", "1": "2"}

    def test_partition_function_matches_library(self, tmp_path, capsys):
        rc, out, _ = invoke(
            ["character", "--radius-unit", "1", "--cutoff", "1",
             "--order", "1"],
            capsys,
        )
        assert rc == 0
        data = json.loads(out)
        want = partition_function(one_dim_model(1), 1, 1)
        assert data["series"] == want.to_json()

    def test_formal_unit_exit2(self, tmp_path, capsys):
        path = write_model(tmp_path, {"radius_unit": None})
        rc, _, err = invoke(
            ["character", "--model", path, "--l", "1", "--order", "1"], capsys
        )
        assert rc == 2


class TestLatticeGoldens:
    """Byte-exact output of every lattice subcommand on an n = 2 model
    with B and a non-identity basis, and on the circle with u = 1/2."""

    MODEL = str(GOLDEN / "lattice_model_n2.json")
    CASES = (
        (["states", "--model", MODEL, "--cutoff", "1", "--level", "2",
          "--format", "json"], "states_n2_cutoff1.json"),
        (["locality", "--model", MODEL, "--cutoff", "1", "--format", "csv"],
         "locality_n2_cutoff1.csv"),
        (["chiral", "--model", MODEL, "--cutoff", "2", "--format", "csv"],
         "chiral_n2_cutoff2.csv"),
        (["spectrum", "--model", MODEL, "--cutoff", "1", "--format", "text"],
         "spectrum_n2_cutoff1.txt"),
        (["character", "--model", MODEL, "--l=1,-1", "--lstar=0,1",
          "--order", "4", "--format", "json"], "character_n2_sector.json"),
        (["character", "--model", MODEL, "--cutoff", "1", "--order", "2",
          "--format", "text"], "partition_n2_cutoff1.txt"),
        (["states", "--radius-unit", "1/2", "--cutoff", "2", "--level", "3",
          "--format", "csv"], "states_circle_half_cutoff2.csv"),
        (["locality", "--radius-unit", "1/2", "--cutoff", "1",
          "--format", "json"], "locality_circle_half_cutoff1.json"),
    )

    @pytest.mark.parametrize("args,name", CASES, ids=[c[1] for c in CASES])
    def test_golden(self, args, name, capsys):
        rc, out, err = invoke(args, capsys)
        assert (rc, err) == (0, "")
        assert out == golden(name)

    def test_locality_text_streams_the_same_verdict(self, capsys):
        rc, out, _ = invoke(
            ["locality", "--model", self.MODEL, "--cutoff", "1",
             "--format", "text"], capsys)
        assert rc == 0
        assert out == (
            "cutoff: 1\npairs checked: 6561\n"
            "all exponent differences integral: yes\n"
        )


class TestDeterminism:
    CASES = (
        ["noether", "--generator", "ds"],
        ["bracket", "vir-:1", "vir-:2"],
        ["spectrum", "--radius-unit", "2", "--cutoff", "1"],
        ["states", "--radius-unit", "2", "--cutoff", "1", "--level", "2"],
        ["locality", "--radius-unit", "2", "--cutoff", "1"],
        ["tdual", "--radius-unit", "2"],
        ["chiral", "--radius-unit", "1", "--cutoff", "1"],
        ["character", "--radius-unit", "1", "--cutoff", "1", "--order", "1"],
    )

    def test_repeat_runs_are_byte_identical(self, capsys):
        for args in self.CASES:
            rc1, out1, _ = invoke(args, capsys)
            rc2, out2, _ = invoke(args, capsys)
            assert (rc1, rc2) == (0, 0)
            assert out1 == out2

    def test_emitted_json_is_canonical(self, capsys):
        # parsing and re-serializing the output reproduces it exactly
        for args in self.CASES:
            rc, out, _ = invoke(args, capsys)
            assert rc == 0
            assert dump_json(json.loads(out)) == out

    def test_out_flag_writes_same_bytes(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        args = ["locality", "--radius-unit", "2", "--cutoff", "1"]
        rc1, out, _ = invoke(args, capsys)
        rc2 = main(args + ["--out", str(target)])
        assert (rc1, rc2) == (0, 0)
        assert target.read_text(encoding="utf-8") == out


class TestArgHandling:
    def test_unknown_flag_exit1(self, capsys):
        rc, _, err = invoke(["noether", "--frobnicate"], capsys)
        assert rc == 1

    def test_unknown_subcommand_exit1(self, capsys):
        rc, _, err = invoke(["transmogrify"], capsys)
        assert rc == 1

    def test_missing_model_exit1(self, capsys):
        rc, _, err = invoke(["spectrum"], capsys)
        assert rc == 1 and "--model" in err

    def test_csv_for_bracket_exit1(self, capsys):
        rc, _, err = invoke(
            ["bracket", "x1", "p1", "--format", "csv"], capsys
        )
        assert rc == 1

    def test_cutoff_must_parse_exit1(self, capsys):
        rc, _, err = invoke(
            ["spectrum", "--radius-unit", "1", "--cutoff", "soon"], capsys
        )
        assert rc == 1
