"""End-to-end tests of the command line front end.

The runner is invoked in process through main(argv); golden files under
tests/golden/ pin the exact output bytes of the displayed examples."""

import ast
import inspect
import io
import json
import sys
from pathlib import Path
from types import ModuleType

import pytest

import chiraltorus
from chiraltorus import chiral_fm, cli, coisson, exactlin, fockq, jetcalc
from chiraltorus.cli import dump_json, main
from chiraltorus.fockq import load_model, one_dim_model, partition_function, t_dual
from chiraltorus.jetcalc import parse_expr

GOLDEN = Path(__file__).parent / "golden"
# inputs nested deeper than the interpreter's recursion limit
DEEP_EXPR = "(" * 300 + "x1" + ")" * 300
DEEP_JSON = "[" * 2000 + "]" * 2000


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
    """The invocation checks main runs before any runner: each is refused
    with exit 1 and its message, with nothing on stdout."""

    def refused(self, args, capsys):
        rc, out, err = invoke(args, capsys)
        assert (rc, out) == (1, "")
        return err

    def test_bad_format(self, capsys):
        err = self.refused(["bracket", "x1", "p1", "--format", "yaml"], capsys)
        assert err == "error: --format must be one of json, csv, text\n"

    def test_negative_counts(self, capsys):
        for sub, flag in (("spectrum", "cutoff"), ("states", "level"),
                          ("character", "order")):
            err = self.refused(
                [sub, "--radius-unit", "1", f"--{flag}", "-1"], capsys)
            assert err == f"error: --{flag} must be a nonnegative integer\n"

    def test_bool_is_not_a_count(self, capsys):
        err = self.refused(
            ["spectrum", "--radius-unit", "1", "--cutoff", "True"], capsys)
        assert "--cutoff" in err

    def test_sign_must_be_nonzero_rational(self, capsys):
        for sub, exprs in (("bracket", ["x1", "p1"]),
                           ("jacobi", ["p1", "p2", "p3"])):
            err = self.refused(
                [sub, "--sign-convention", "0", *exprs], capsys)
            assert err == "error: --sign-convention must be nonzero\n"
            err = self.refused(
                [sub, "--sign-convention", "two", *exprs], capsys)
            assert err.startswith("error: --sign-convention: ")

    def test_csv_only_for_tables(self, capsys):
        for sub, args in (("bracket", ["x1", "p1"]),
                          ("tdual", ["--radius-unit", "1"])):
            err = self.refused([sub, *args, "--format", "csv"], capsys)
            assert err == f"error: csv output is not available for {sub!r}\n"
        rc, _, _ = invoke(
            ["spectrum", "--radius-unit", "1", "--format", "csv"], capsys)
        assert rc == 0

    def test_unknown_subcommand(self, capsys):
        err = self.refused(["frobnicate"], capsys)
        assert err.startswith(
            "error: argument subcommand: invalid choice: 'frobnicate'")


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

    def test_anticonformal_circle_text(self, capsys):
        rc, out, err = invoke(
            ["noether", "--generator", "anticonformal", "--format", "text"], capsys)
        assert (rc, out, err) == (0, (
            "current dt: -1/4*g*ds.x1^2 + 1/2*i*g*ds.x1*dt.x1 + 1/4*g*dt.x1^2\n"
            "current ds: 1/4*i*g*ds.x1^2 + 1/2*g*ds.x1*dt.x1 - 1/4*i*g*dt.x1^2\n"
            "charge integrand: 1/4*i*g*ds.x1^2 + 1/2*g*ds.x1*dt.x1 "
            "- 1/4*i*g*dt.x1^2\n"), "")
        # the conformal charge with f -> g and d_z -> d_zbar
        charge = out.splitlines()[2].removeprefix("charge integrand: ")
        assert parse_expr(charge) == parse_expr("-i*g*dzb.x1^2")

    # every generator at B != 0 on a metric with an off-diagonal entry
    TORUS_N2 = ["--lagrangian", "torus", "--metric", "[[2,1],[1,3]]",
                "--bfield", '[[0,"1/2"],["-1/2",0]]', "--format", "text"]

    @pytest.mark.parametrize("generator", ["dt", "ds", "x1", "conformal", "anticonformal"])
    def test_torus_b_field_golden(self, generator, capsys):
        rc, out, err = invoke(["noether", *self.TORUS_N2, "--generator", generator], capsys)
        assert (rc, out, err) == (0, golden(f"noether_torus_n2_{generator}.txt"), "")

    def test_unknown_generator_exit1(self, capsys):
        rc, _, err = invoke(["noether", "--generator", "bogus"], capsys)
        assert rc == 1 and "generator" in err

    def test_torus_needs_metric(self, capsys):
        rc, _, err = invoke(["noether", "--lagrangian", "torus"], capsys)
        assert rc == 1 and "--metric" in err

    def test_asymmetric_metric_exit2(self, capsys):
        rc, out, err = invoke(
            ["noether", "--lagrangian", "torus", "--metric", "[[1,1],[0,1]]"],
            capsys,
        )
        assert (rc, out, err) == (2, "", "error: metric must be symmetric\n")


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

    def test_text_format(self, tmp_path, capsys):
        mu = self._write(tmp_path, "mu.json", self.MU_ID)
        cls = self._write(tmp_path, "cls.json", self.CLS)
        rc, out, err = invoke(
            ["fm", "--mu", mu, "--input", cls, "--format", "text"], capsys)
        assert (rc, out, err) == (0, json.dumps(self.CLS, sort_keys=True) + "\n", "")

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

    def test_rational_sign_scales_bytes(self, capsys):
        rc, out, err = invoke(
            ["bracket", "heis+:3", "heis+:-3", "--sign-convention=-2/3"],
            capsys,
        )
        assert (rc, out, err) == (
            0, '{\n  "bracket": "-i",\n  "is_zero": false\n}\n', "")

    def test_expressions_from_stdin(self, capsys):
        rc, out, _ = invoke(["bracket"], capsys, stdin="heis+:3\nheis+:-3\n")
        assert rc == 0
        assert json.loads(out)["bracket"] == "-3/2*i"

    def test_dash_takes_the_next_stdin_line(self, capsys):
        rc, out, err = invoke(["bracket", "heis+:3", "-"], capsys,
                              stdin="\n heis+:-3 \n")
        assert (rc, out, err) == (
            0, '{\n  "bracket": "-3/2*i",\n  "is_zero": false\n}\n', "")

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

    def test_sign_scales_twisted_residual(self, tmp_path, capsys):
        tw = tmp_path / "twist.json"
        tw.write_text(json.dumps({"1,2,3": "x4"}), encoding="utf-8")
        rc, out, err = invoke(
            ["jacobi", "--twist", str(tw), "e(1)*p1", "e(1)*p2", "e(1)*p3",
             "--sign-convention", "2", "--format", "text"],
            capsys,
        )
        assert (rc, out, err) == (0, "[-6*i*e(3)*x4]\n", "")

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

    def test_spectrum_builds_each_sector_once(self, capsys, monkeypatch):
        built = []
        init = fockq.Sector.__init__
        monkeypatch.setattr(fockq.Sector, "__init__",
                            lambda self, *a: built.append(1) or init(self, *a))
        rc, out, _ = invoke(
            ["spectrum", "--radius-unit", "1", "--cutoff", "1",
             "--format", "csv"],
            capsys,
        )
        assert rc == 0
        assert out == golden("spectrum_circle_cutoff1.csv")
        assert len(built) == len(out.splitlines()) - 1

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

    def test_text_format(self, capsys):
        rc, out, err = invoke(
            ["tdual", "--radius-unit", "3/2", "--format", "text"], capsys)
        assert (rc, out, err) == (0, (
            '{"B": [["0"]], "L": [["4/9"]], "g": [["1"]], "n": 1, '
            '"u_square": "9/4", "unit_exponent": 1}\n'), "")

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

    def test_b_field_dual_exit0_and_involution(self, tmp_path, capsys):
        path = write_model(tmp_path)
        model = load_model(MODEL_B)
        rc, out, err = invoke(["tdual", "--model", path], capsys)
        assert (rc, out, err) == (0, dump_json(t_dual(model).to_json()), "")
        dual = tmp_path / "dual.json"
        dual.write_text(out, encoding="utf-8")
        rc, out, _ = invoke(["tdual", "--model", str(dual)], capsys)
        assert rc == 0 and load_model(json.loads(out)) == model


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
    with B and a non-identity basis, and on the circle with u = 1/2.
    Two locality reports pin exponents with every part a printed value
    can carry: a formal-unit circle (u^-2, u^0 and u^2) and an n = 1
    model with a Gaussian basis (imaginary parts)."""

    MODEL = str(GOLDEN / "lattice_model_n2.json")
    FORMAL_CIRCLE = str(GOLDEN / "lattice_model_circle_formal.json")
    GAUSSIAN = str(GOLDEN / "lattice_model_n1_gaussian.json")
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
        (["spectrum", "--model", MODEL, "--cutoff", "1", "--format", "json"],
         "spectrum_n2_cutoff1.json"),
        (["states", "--model", MODEL, "--cutoff", "1", "--level", "2",
          "--format", "text"], "states_n2_cutoff1.txt"),
        (["chiral", "--model", MODEL, "--cutoff", "2", "--format", "json"],
         "chiral_n2_cutoff2.json"),
        (["chiral", "--model", MODEL, "--cutoff", "2", "--format", "text"],
         "chiral_n2_cutoff2.txt"),
        (["character", "--model", MODEL, "--l=1,-1", "--lstar=0,1",
          "--order", "4", "--format", "text"], "character_n2_sector.txt"),
        (["character", "--model", MODEL, "--cutoff", "1", "--order", "2",
          "--format", "json"], "partition_n2_cutoff1.json"),
        (["locality", "--model", FORMAL_CIRCLE, "--cutoff", "2", "--format", "csv"],
         "locality_circle_formal_cutoff2.csv"),
        (["locality", "--model", GAUSSIAN, "--cutoff", "2", "--format", "json"],
         "locality_n1_gaussian_cutoff2.json"),
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


class TestErrorBytes:
    """Exact (exit code, stderr) of the errors raised under a named input
    source: a usage error is prefixed with the source, a precondition
    failure passes through with exit code 2."""

    FILES = {
        "mu_id.json": {"mu": [["1", "0"], ["0", "1"]]},
        "mu_bad.json": [["x"]],
        "mu_sing.json": {"mu": [["1", "1"], ["1", "1"]]},
        "sing.json": [["1", "1"], ["1", "1"]],
        "no_L.json": {"n": 1, "g": [["1"]], "B": [["0"]]},
        "no_g.json": {"n": 1, "B": [["0"]], "L": [["1"]]},
        "tdo_no_omega.json": {"c": [["1", "0"], ["0", "1"]]},
        "neg_g.json": {"n": 1, "g": [["-1"]], "B": [["0"]], "L": [["1"]]},
        "twist_p.json": {"1,2,3": "p1"},
        "twist_zero.json": {"1,2,3": "1/0"},
        "g_zero.json": {"n": 1, "g": [["1/0"]], "B": [["0"]], "L": [["1"]]},
        "mu_zero.json": [["1/0"]],
        "radius_zero.json": {"radius_unit": "1/0"},
        "g_asym.json": {"n": 2, "g": [["1", "1"], ["0", "1"]],
                        "B": [["0", "0"], ["0", "0"]],
                        "L": [["1", "0"], ["0", "1"]]},
        "u_decimal.json": {"n": 1, "g": [["1"]], "B": [["0"]], "L": [["1"]],
                           "unit_exponent": 1, "u_square": "0.5"},
        "n_str.json": {"n": "2", "g": [["1"]], "B": [["0"]], "L": [["1"]]},
        "n_float.json": {"n": 1.5, "g": [["1"]], "B": [["0"]], "L": [["1"]]},
        "n_bool.json": {"n": True, "g": [["1"]], "B": [["0"]], "L": [["1"]]},
        "cdo_dim_str.json": {
            "n": 2, "lambda": {"degree": 3, "dim": "2", "entries": []},
            "nu": {"degree": 2, "dim": 2, "valdim": 2, "entries": []}},
        "cdo_valdim_bool.json": {
            "n": 2, "lambda": {"degree": 3, "dim": 2, "entries": []},
            "nu": {"degree": 2, "dim": 2, "valdim": True, "entries": []}},
        "cdo_n_str.json": {
            "n": "2", "lambda": {"degree": 3, "dim": 2, "entries": []},
            "nu": {"degree": 2, "dim": 2, "valdim": 2, "entries": []}},
        "cdo_n_bool.json": {
            "n": True, "lambda": {"degree": 3, "dim": 1, "entries": []},
            "nu": {"degree": 2, "dim": 1, "valdim": 1, "entries": []}},
        "unit_float.json": {"n": 1, "g": [["1"]], "B": [["0"]], "L": [["1"]],
                            "unit_exponent": 1.0},
        "unit_bool.json": {"n": 1, "g": [["1"]], "B": [["0"]], "L": [["1"]],
                           "unit_exponent": True},
        "idx_float.json": {
            "n": 2, "lambda": {"degree": 3, "dim": 2, "entries": []},
            "nu": {"degree": 2, "dim": 2, "valdim": 2,
                   "entries": [{"idx": [1.5, 2], "val": ["1", "0"]}]}},
        "idx_bool.json": {
            "n": 2, "lambda": {"degree": 3, "dim": 2, "entries": []},
            "nu": {"degree": 2, "dim": 2, "valdim": 2,
                   "entries": [{"idx": [True, 2], "val": ["1", "0"]}]}},
        "complex_weight.json": {"n": 1, "g": [["1"]], "B": [["0"]],
                                "L": [["1+1 i"]]},
        "cdo_bare_value.json": {
            "n": 2, "lambda": {"degree": 3, "dim": 2, "entries": []},
            "nu": {"degree": 2, "dim": 2, "valdim": 2,
                   "entries": [{"idx": [1, 2], "val": "1"}]}},
        "mu_unnamed.json": {"nu": [["1"]]},
        "twist_list.json": [["1,2,3", "1"]],
        "twist_key.json": {"1,x,3": "1"},
        "twist_pair.json": {"1,2": "1"},
        "twist_number.json": {"1,2,3": 1},
        # a str is written as it is: json.dumps cannot nest this deep
        "deep.json": DEEP_JSON,
    }
    # (args, stdin, exit code, stderr); {name} is a file from FILES
    CASES = {
        "density-usage": (
            ["bracket", "x1^1.5", "p1"], None, 1,
            "error: expression 'x1^1.5': trailing input near '.'\n"),
        "density-precondition": (
            ["bracket", "x1*dt.dt.x1", "p1"], None, 2,
            "error: densities carry x- and p-jets only (tau-order 0 or 1)\n"),
        "model-usage": (
            ["spectrum", "--model", "{no_L.json}"], None, 1,
            "error: {no_L.json}: missing field 'L'\n"),
        "model-missing-g": (
            ["tdual", "--model", "{no_g.json}"], None, 1,
            "error: {no_g.json}: missing field 'g'\n"),
        "tdo-missing-omega": (
            ["fm", "--kind", "tdo", "--mu", "{mu_id.json}", "--input",
             "{tdo_no_omega.json}"], None, 1,
            "error: {tdo_no_omega.json}: missing field 'omega'\n"),
        "model-precondition": (
            ["spectrum", "--model", "{neg_g.json}"], None, 2,
            "error: leading minor 1 is not positive\n"),
        # sector (1, 0) of this model has h = -1/2 i: neither a one-sector
        # character nor the partition function has an exponent for it
        "character-complex-weight": (
            ["character", "--model", "{complex_weight.json}", "--l", "1"],
            None, 2, "error: complex weight has no character exponent\n"),
        "partition-complex-weight": (
            ["character", "--model", "{complex_weight.json}", "--cutoff", "1",
             "--format", "text"],
            None, 2, "error: complex weight has no character exponent\n"),
        "mu-usage": (
            ["fm", "--mu", "{mu_bad.json}", "--input", "{mu_id.json}"], None, 1,
            "error: {mu_bad.json}: not a Gaussian rational literal: 'x'\n"),
        "mu-precondition": (
            ["fm", "--mu", "{mu_sing.json}", "--input", "{mu_id.json}"], None,
            2, "error: mu must be nondegenerate\n"),
        "fm-stdin-malformed": (
            ["fm", "--mu", "{mu_id.json}"], "{oops", 1,
            "error: stdin:1:2: Expecting property name enclosed in double "
            "quotes\n"),
        "fm-stdin-missing-field": (
            ["fm", "--mu", "{mu_id.json}", "--input", "-"], '{"n": 2}', 1,
            "error: stdin: missing field 'lambda'\n"),
        "fm-precondition": (
            ["fm", "--kind", "linear", "--mu", "{mu_id.json}",
             "--input", "{sing.json}"], None, 2,
            "error: matrix has zero determinant\n"),
        "metric-asymmetric": (
            ["noether", "--lagrangian", "torus", "--metric", "[[1,2],[3,4]]"],
            None, 2, "error: metric must be symmetric\n"),
        "metric-asymmetric-model": (
            ["spectrum", "--model", "{g_asym.json}"], None, 2,
            "error: metric must be symmetric\n"),
        "metric-not-square": (
            ["noether", "--lagrangian", "torus", "--metric", "[[1,0]]"],
            None, 2, "error: model matrices must be n x n\n"),
        "bfield-not-antisymmetric": (
            ["noether", "--lagrangian", "torus", "--metric", "[[1,0],[0,1]]",
             "--bfield", "[[0,1],[1,0]]"], None, 2,
            "error: B must equal -B^T\n"),
        "metric-literal": (
            ["noether", "--lagrangian", "torus", "--metric", '[["x"]]'],
            None, 1,
            "error: --metric/--bfield: not a Gaussian rational literal: "
            "'x'\n"),
        "twist-not-polynomial": (
            ["jacobi", "--twist", "{twist_p.json}", "p1", "p2", "p3"], None, 1,
            "error: --twist: twist coefficients must be polynomials in bare "
            "x\n"),
        "twist-zero-division": (
            ["jacobi", "--twist", "{twist_zero.json}", "p1", "p2", "p3"],
            None, 1, "error: --twist: zero denominator in '1/0'\n"),
        "model-zero-division": (
            ["spectrum", "--model", "{g_zero.json}"], None, 1,
            "error: {g_zero.json}: zero denominator in '1/0'\n"),
        "radius-zero-division": (
            ["spectrum", "--model", "{radius_zero.json}"], None, 1,
            "error: {radius_zero.json}: radius_unit: zero denominator in "
            "'1/0'\n"),
        "radius-unit-decimal": (
            ["tdual", "--radius-unit", "0.5"], None, 1,
            "error: --radius-unit: '0.5' is not a rational\n"),
        "radius-unit-arabic-indic": (
            ["tdual", "--radius-unit", "\u0663/\u0662"], None, 1,
            "error: --radius-unit: '\u0663/\u0662' is not a rational\n"),
        "l-exponent-notation": (
            ["character", "--radius-unit", "1", "--l", "1e-1"], None, 1,
            "error: --l: '1e-1' is not a rational\n"),
        "u-square-decimal": (
            ["spectrum", "--model", "{u_decimal.json}"], None, 1,
            "error: {u_decimal.json}: u_square: not a Gaussian rational "
            "literal: '0.5'\n"),
        "mu-zero-division": (
            ["fm", "--mu", "{mu_zero.json}", "--input", "{mu_id.json}"], None,
            1, "error: {mu_zero.json}: zero denominator in '1/0'\n"),
        "metric-zero-division": (
            ["noether", "--lagrangian", "torus", "--metric", '[["1/0"]]'],
            None, 1, "error: --metric/--bfield: zero denominator in '1/0'\n"),
        "density-zero-division": (
            ["bracket", "1/0*p1", "x1"], None, 1,
            "error: expression '1/0*p1': zero denominator in '1/0'\n"),
        "sign-zero-division": (
            ["bracket", "--sign-convention", "1/0", "x1", "p1"], None, 1,
            "error: --sign-convention: zero denominator in '1/0'\n"),
        "metric-row-not-list": (
            ["noether", "--lagrangian", "torus", "--metric", "[1]"], None, 1,
            "error: --metric: expected a list of rows\n"),
        "bfield-row-not-list": (
            ["noether", "--lagrangian", "torus", "--metric", "[[1]]",
             "--bfield", "[0]"], None, 1,
            "error: --bfield: expected a list of rows\n"),
        "model-n-string": (
            ["spectrum", "--model", "{n_str.json}"], None, 1,
            "error: {n_str.json}: model size n must be an integer, got '2'\n"),
        "model-n-float": (
            ["spectrum", "--model", "{n_float.json}"], None, 1,
            "error: {n_float.json}: model size n must be an integer, got "
            "1.5\n"),
        "model-n-bool": (
            ["spectrum", "--model", "{n_bool.json}"], None, 1,
            "error: {n_bool.json}: model size n must be an integer, got "
            "True\n"),
        "exponent-above-limit": (
            ["bracket", "x1^99999999999999999999", "p1"], None, 1,
            "error: expression 'x1^99999999999999999999': exponent "
            "99999999999999999999 is above the limit 64\n"),
        "exponent-superscript": (
            ["bracket", "x1^\u00b2", "p1"], None, 1,
            "error: expression 'x1^\u00b2': unexpected character '\u00b2' in "
            "expression\n"),
        "field-index-zero": (
            ["bracket", "p0", "x0"], None, 1,
            "error: expression 'p0': unknown name 'p0' in expression\n"),
        "name-arabic-digit": (
            ["bracket", "x\u0661*p1", "p1"], None, 1,
            "error: expression 'x\u0661*p1': unexpected character '\u0661' "
            "in expression\n"),
        "tensor-dim-string": (
            ["fm", "--mu", "{mu_id.json}", "--input", "{cdo_dim_str.json}"],
            None, 1,
            "error: {cdo_dim_str.json}: tensor dim must be an integer, got "
            "'2'\n"),
        "tensor-valdim-bool": (
            ["fm", "--mu", "{mu_id.json}", "--input", "{cdo_valdim_bool.json}"],
            None, 1,
            "error: {cdo_valdim_bool.json}: tensor valdim must be an integer, "
            "got True\n"),
        "tensor-bare-value": (
            ["fm", "--mu", "{mu_id.json}", "--input", "{cdo_bare_value.json}"],
            None, 1,
            "error: {cdo_bare_value.json}: vector-valued tensor entry must be "
            "a sequence, got '1'\n"),
        "cdo-n-string": (
            ["fm", "--mu", "{mu_id.json}", "--input", "{cdo_n_str.json}"],
            None, 1,
            "error: {cdo_n_str.json}: CDO class size n must be an integer, "
            "got '2'\n"),
        "cdo-n-bool": (
            ["fm", "--mu", "{mu_id.json}", "--input", "{cdo_n_bool.json}"],
            None, 1,
            "error: {cdo_n_bool.json}: CDO class size n must be an integer, "
            "got True\n"),
        "model-unit-exponent-float": (
            ["states", "--model", "{unit_float.json}", "--cutoff", "1",
             "--format", "text"], None, 1,
            "error: {unit_float.json}: unit exponent must be an integer, got "
            "1.0\n"),
        "model-unit-exponent-bool": (
            ["tdual", "--model", "{unit_bool.json}"], None, 1,
            "error: {unit_bool.json}: unit exponent must be an integer, got "
            "True\n"),
        "tensor-index-float": (
            ["fm", "--mu", "{mu_id.json}", "--input", "{idx_float.json}"],
            None, 1,
            "error: {idx_float.json}: tensor index must be an integer, got "
            "1.5\n"),
        "tensor-index-bool": (
            ["fm", "--mu", "{mu_id.json}", "--input", "{idx_bool.json}"],
            None, 1,
            "error: {idx_bool.json}: tensor index must be an integer, got "
            "True\n"),
        # invocation checks, refused before any input is read
        "format-unknown": (
            ["bracket", "x1", "p1", "--format", "yaml"], None, 1,
            "error: --format must be one of json, csv, text\n"),
        "cutoff-negative": (
            ["spectrum", "--radius-unit", "1", "--cutoff", "-1"], None, 1,
            "error: --cutoff must be a nonnegative integer\n"),
        "level-negative": (
            ["states", "--radius-unit", "1", "--level", "-1"], None, 1,
            "error: --level must be a nonnegative integer\n"),
        "order-negative": (
            ["character", "--radius-unit", "1", "--order", "-1"], None, 1,
            "error: --order must be a nonnegative integer\n"),
        "cutoff-bool": (
            ["spectrum", "--radius-unit", "1", "--cutoff", "True"], None, 1,
            "error: argument --cutoff: invalid int value: 'True'\n"),
        "kind-unknown": (
            ["fm", "--kind", "bogus"], None, 1,
            "error: --kind must be cdo, tdo or linear\n"),
        "lagrangian-unknown": (
            ["noether", "--lagrangian", "sphere"], None, 1,
            "error: --lagrangian must be circle or torus\n"),
        "sign-zero": (
            ["bracket", "--sign-convention", "0", "x1", "p1"], None, 1,
            "error: --sign-convention must be nonzero\n"),
        "sign-not-rational": (
            ["bracket", "--sign-convention", "two", "x1", "p1"], None, 1,
            "error: --sign-convention: not a Gaussian rational literal: "
            "'two'\n"),
        "jacobi-sign-zero": (
            ["jacobi", "--sign-convention", "0", "p1", "p2", "p3"], None, 1,
            "error: --sign-convention must be nonzero\n"),
        "csv-bracket": (
            ["bracket", "x1", "p1", "--format", "csv"], None, 1,
            "error: csv output is not available for 'bracket'\n"),
        "csv-tdual": (
            ["tdual", "--radius-unit", "1", "--format", "csv"], None, 1,
            "error: csv output is not available for 'tdual'\n"),
        "kind-before-csv": (
            ["fm", "--kind", "bogus", "--format", "csv"], None, 1,
            "error: --kind must be cdo, tdo or linear\n"),
        "format-before-cutoff": (
            ["spectrum", "--format", "yaml", "--cutoff", "-1"], None, 1,
            "error: --format must be one of json, csv, text\n"),
        "cutoff-before-model-file": (
            ["spectrum", "--model", "absent.json", "--cutoff", "-1"], None, 1,
            "error: --cutoff must be a nonnegative integer\n"),
        "expression-too-deep": (
            ["bracket", "-", "p1"], DEEP_EXPR + "\n", 1,
            f"error: expression {DEEP_EXPR!r}: nesting is too deep\n"),
        "model-too-deep": (
            ["spectrum", "--model", "{deep.json}"], None, 1,
            "error: {deep.json}: nesting is too deep\n"),
        "stdin-too-deep": (
            ["fm", "--mu", "{mu_id.json}"], DEEP_JSON, 1,
            "error: stdin: nesting is too deep\n"),
        "metric-too-deep": (
            ["noether", "--lagrangian", "torus", "--metric", DEEP_JSON], None,
            1, "error: --metric: nesting is too deep\n"),
        "l-non-ascii-space": (
            ["character", "--radius-unit", "1", "--l", "\u00a01"], None, 1,
            "error: --l: '\\xa01' is not a rational\n"),
        "generator-index-out-of-range": (
            ["noether", "--generator", "x9"], None, 1,
            "error: --generator: index in 'x9' out of range 1..1\n"),
        "generator-index-not-an-integer": (
            ["noether", "--generator", "xfoo"], None, 1,
            "error: --generator: index in 'xfoo' out of range 1..1\n"),
        # the output path runs through a file, so it cannot be opened
        "out-not-writable": (
            ["tdual", "--radius-unit", "3/2", "--out", "{mu_id.json}/dual.json"], None, 1,
            "error: {mu_id.json}/dual.json: Not a directory\n"),
        "metric-bad-json": (
            ["noether", "--lagrangian", "torus", "--metric", "[[1,0],[0,1]"],
            None, 1, "error: --metric: Expecting ',' delimiter\n"),
        "twist-not-object": (
            ["jacobi", "--twist", "{twist_list.json}", "p1", "p2", "p3"], None,
            1, "error: {twist_list.json}: twist table must be an object\n"),
        "twist-key-not-integers": (
            ["jacobi", "--twist", "{twist_key.json}", "p1", "p2", "p3"], None,
            1, "error: {twist_key.json}: twist key '1,x,3' is not an index "
            "triple\n"),
        "twist-key-not-triple": (
            ["jacobi", "--twist", "{twist_pair.json}", "p1", "p2", "p3"], None,
            1, "error: {twist_pair.json}: twist key '1,2' is not a triple\n"),
        "twist-value-not-string": (
            ["jacobi", "--twist", "{twist_number.json}", "p1", "p2", "p3"],
            None, 1, "error: {twist_number.json}: twist value for '1,2,3' "
            "must be a string\n"),
        "stdin-too-few-lines": (
            ["bracket", "-", "-"], "x1\n", 1,
            "error: stdin: not enough expression lines\n"),
        "stdin-dash-and-too-many": (
            ["bracket", "x1", "-", "p1"], "x1\n", 1,
            "error: expected 2 expression(s), got 3\n"),
        "stdin-surplus-after-dash": (
            ["bracket", "heis+:3", "-"], "heis+:-3\nx1\n", 1,
            "error: expected 2 expression(s), got 3\n"),
        "stdin-wrong-count": (
            ["bracket"], "x1\n\np1\nx2\n", 1,
            "error: expected 2 expression(s), got 3\n"),
        "family-mode-not-integer": (
            ["bracket", "vir+:x", "p1"], None, 1,
            "error: 'vir+:x': mode must be an integer\n"),
        "fm-without-mu": (
            ["fm"], None, 1, "error: fm requires --mu\n"),
        "mu-missing-field": (
            ["fm", "--mu", "{mu_unnamed.json}"], None, 1,
            "error: {mu_unnamed.json}: missing field 'mu'\n"),
        "subcommand-unknown": (
            ["transmogrify"], None, 1,
            "error: argument subcommand: invalid choice: 'transmogrify' "
            "(choose from 'fm', 'noether', 'bracket', 'jacobi', 'spectrum', "
            "'states', 'locality', 'chiral', 'tdual', 'character')\n"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_bytes(self, case, tmp_path, capsys):
        args, stdin, want_rc, want_err = self.CASES[case]
        for name, obj in self.FILES.items():
            text = obj if isinstance(obj, str) else json.dumps(obj)
            (tmp_path / name).write_text(text, encoding="utf-8")

        def fill(text):
            for name in self.FILES:
                text = text.replace("{" + name + "}", str(tmp_path / name))
            return text

        rc, out, err = invoke([fill(a) for a in args], capsys, stdin=stdin)
        assert (rc, out, err) == (want_rc, "", fill(want_err))


class TestExitCodes:
    """Each exception class carries the exit code the command line reports
    for it."""

    # the code each class was reported with before the codes moved onto
    # the classes, plus the three bases of the hierarchy
    WANT = {
        "ChiraltorusError": 1,
        "PreconditionError": 2,
        "InvariantError": 3,
        "UnknownFamily": 1,
        "SingularMatrix": 2,
        "DimensionMismatch": 2,
        "NotFirstOrder": 2,
        "NotASymmetry": 2,
        "NonLinearEL": 2,
        "NotADensity": 2,
        "NotPositiveDefinite": 2,
        "NotAntisymmetric": 2,
        "SingularLattice": 2,
        "NotInLattice": 2,
        "CutoffExceeded": 2,
        "ModelMismatch": 2,
        "FormalUnitValue": 2,
    }
    MODULES = (exactlin, chiral_fm, jetcalc, coisson, fockq)

    def test_every_class_is_a_value_error_with_its_code(self):
        found = {
            name: obj
            for mod in self.MODULES
            for name, obj in vars(mod).items()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
            and obj.__module__ == mod.__name__
        }
        assert set(found) == set(self.WANT)
        for name, cls in found.items():
            assert issubclass(cls, ValueError), name
            assert issubclass(cls, exactlin.ChiraltorusError), name
            assert cls.exit_code == self.WANT[name], name
        for name in ("ChiraltorusError", "PreconditionError", "InvariantError"):
            assert getattr(chiraltorus, name) is getattr(exactlin, name)
            assert name in chiraltorus.__all__

    def test_star_import_binds_exactly_all(self):
        names = {}
        exec("from chiraltorus import *", names)
        del names["__builtins__"]
        assert sorted(names) == sorted(set(chiraltorus.__all__))
        assert len(chiraltorus.__all__) == len(names)
        for name, obj in names.items():
            assert not isinstance(obj, ModuleType), name
            assert obj.__module__.startswith("chiraltorus."), name

    def test_library_raises_no_bare_value_error(self):
        src = Path(chiraltorus.__file__).parent
        bare = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                exc = node.exc if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    bare.append(f"{path.name}:{node.lineno}")
        assert bare == []

    def test_invariant_failure_exits_3(self, monkeypatch, capsys):
        def broken(cfg):
            raise exactlin.InvariantError("internal: check failed")

        monkeypatch.setitem(cli.RUNNERS, "tdual", broken)
        rc, out, err = invoke(["tdual", "--radius-unit", "1"], capsys)
        assert (rc, out, err) == (3, "", "error: internal: check failed\n")

    def test_failed_noether_certificate_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(jetcalc, "_wave_table", lambda table: {jetcalc.UNIT_MONO: [1, 0]})
        rc, out, err = invoke(["noether", "--generator", "dt"], capsys)
        assert (rc, out, err) == (
            3, "", "error: internal: on-shell certificate failed for the computed current\n")

    @pytest.mark.parametrize("flags,message", [
        (["--metric", "[[1.5]]"], "cannot coerce 1.5 to ExactScalar"),
        (["--metric", "[[1]]", "--bfield", "[[0.5]]"],
         "cannot coerce 0.5 to ExactScalar"),
        (["--metric", "[[true]]"], "ExactScalar needs exact parts, got True and 0"),
    ])
    def test_inexact_matrix_entry_exit1(self, flags, message, capsys):
        rc, out, err = invoke(
            ["noether", "--lagrangian", "torus", *flags], capsys
        )
        assert (rc, out) == (1, "")
        assert err == f"error: --metric/--bfield: {message}\n"
        assert "Traceback" not in err


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_flag_value_leaks_between_calls(self, capsys):
        model = str(GOLDEN / "lattice_model_n2.json")
        spectrum = ["spectrum", "--model", model]
        cli.build_parser.cache_clear()
        fresh = invoke(spectrum, capsys)
        invoke(["states", "--model", model, "--level", "2"], capsys)
        again = invoke(spectrum, capsys)
        assert fresh[0] == 0
        assert again == fresh


class TestNegativeFlagValues:
    """argparse takes a flag value that starts with "-" for an option
    unless it is a plain negative number, so such a value needs the
    --flag=value form."""

    MODEL = str(GOLDEN / "lattice_model_n2.json")
    CHARACTER = (
        '{\n  "kind": "character",\n  "l": [\n    "-1",\n    "0"\n  ],\n'
        '  "lstar": [\n    "0",\n    "0"\n  ],\n  "order": 0,\n'
        '  "series": {\n    "-2/3": "1"\n  }\n}\n')
    BRACKET = '{\n  "bracket": "-i",\n  "is_zero": false\n}\n'

    def test_separate_value_is_refused(self, capsys):
        assert invoke(["character", "--model", self.MODEL, "--l", "-1,0"], capsys) == (
            1, "", "error: argument --l: expected one argument\n")
        assert invoke(["bracket", "heis+:3", "heis+:-3", "--sign-convention", "-2/3"],
                      capsys) == (
            1, "", "error: argument --sign-convention: expected one argument\n")

    def test_equals_form_is_accepted(self, capsys):
        assert invoke(["character", "--model", self.MODEL, "--l=-1,0"], capsys) == (
            0, self.CHARACTER, "")
        assert invoke(["bracket", "heis+:3", "heis+:-3", "--sign-convention=-2/3"],
                      capsys) == (0, self.BRACKET, "")


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
