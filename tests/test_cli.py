import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mcft.cli import _mesh, main
from mcft.dsl import parse
from mcft.numeric import damped_wave, integrate_damped_wave

MODEL = str(pathlib.Path(__file__).resolve().parents[1] / "models" / "string.mcft")


def run_cli(*argv):
    """In-process CLI invocation capturing stdout."""
    import contextlib
    import io

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestDerive:
    def test_theta_line(self):
        code, out, _ = run_cli("derive", MODEL)
        assert code == 0
        assert (
            "Theta_L = (rho*y_t^2/2 - tau*y_x^2/2 + gamma*s_t) dt^dx + tau*y_x dt^dy"
            " + dt^ds_x + rho*y_t dx^dy - dx^ds_t" in out
        )
        assert "sigma_L = gamma dt" in out
        assert "rho*gamma*y_t + rho*y_tt - tau*y_xx = 0" in out

    def test_hamiltonian_outputs(self):
        code, out, _ = run_cli("derive", "--hamiltonian", MODEL)
        assert code == 0
        assert "H = p_t^2/(2*rho) - p_x^2/(2*tau) + gamma*s_t" in out
        assert "p_t = rho*y_t" in out and "p_x = -tau*y_x" in out

    def test_zero_lagrangian_theta(self, tmp_path):
        # L = 0 keeps only the action block: Theta_L = ds_t^dx - ds_x^dt
        p = tmp_path / "zero.mcft"
        p.write_text("coords t x\nfields y\nlagrangian 0*dy[t]\n")
        code, out, _ = run_cli("derive", str(p))
        assert code == 0
        assert "Theta_L = dt^ds_x - dx^ds_t" in out

    def test_parse_error_exit_2(self, tmp_path):
        p = tmp_path / "bad.mcft"
        p.write_text("coords t x\nlagrangian 1\n")
        code, _, err = run_cli("derive", str(p))
        assert code == 2
        assert "field" in err

    def test_singular_exit_3(self, tmp_path):
        p = tmp_path / "sing.mcft"
        p.write_text("coords t x\nfields y\nlagrangian dy[t]\n")
        code, _, err = run_cli("derive", "--hamiltonian", str(p))
        assert code == 3

    def test_missing_file_exit_2(self):
        code, _, err = run_cli("derive", "/nonexistent/file.mcft")
        assert code == 2

    def test_file_not_utf8_exit_2(self, tmp_path):
        p = tmp_path / "latin1.mcft"
        p.write_bytes(b"coords t x\nfields y\nlagrangian \xff\n")
        code, _, err = run_cli("derive", str(p))
        assert code == 2
        assert err.startswith(f"error: cannot read {p}: ")


class TestCheckSymmetry:
    def test_field_shift(self):
        code, out, _ = run_cli("check-symmetry", MODEL, "Y")
        assert code == 0
        assert "strong-noether" in out
        assert "-tau*y_x dt - rho*y_t dx" in out

    def test_action_shift_damped(self):
        code, out, _ = run_cli("check-symmetry", MODEL, "S")
        assert code == 1
        assert "not-noether" in out
        assert "witness" in out

    def test_action_shift_undamped(self, tmp_path):
        p = tmp_path / "undamped.mcft"
        p.write_text(
            "coords t x\nfields y\nparams rho=1 tau=1\n"
            "lagrangian 0.5*(rho*dy[t]^2 - tau*dy[x]^2)\nsymmetry S: d/ds[t]\n"
        )
        code, out, _ = run_cli("check-symmetry", str(p), "S")
        assert code == 0
        assert "strong-noether" in out

    def test_unknown_name_exit_2(self):
        code, _, err = run_cli("check-symmetry", MODEL, "nope")
        assert code == 2


class TestCurrent:
    def test_current_output(self):
        code, out, _ = run_cli("current", MODEL, "Y")
        assert code == 0
        assert "xi_Y = -tau*y_x dt - rho*y_t dx" in out

    def test_warns_for_non_noether_but_still_computes(self):
        code, out, _ = run_cli("current", MODEL, "S")
        assert code == 0
        assert "xi_S = dx" in out
        assert "warning" in out


class TestSopde:
    def test_family(self):
        code, out, _ = run_cli("sopde", MODEL)
        assert code == 0
        assert "free component functions: A5, A7, B4, B5, B6, B7" in out
        assert "A4 = tau*B5/rho - gamma*y_t" in out

    def test_singular_exit_3(self, tmp_path):
        p = tmp_path / "sing.mcft"
        p.write_text("coords t x\nfields y\nlagrangian dy[t]\n")
        code, _, err = run_cli("sopde", str(p))
        assert code == 3


class TestVerifyLaw:
    def test_main_scenario_passes(self):
        code, out, _ = run_cli("verify-law", MODEL, "Y", "main")
        assert code == 0
        assert "PASS" in out

    def test_json_verdict(self):
        code, out, _ = run_cli("--json", "--seed", "1", "verify-law", MODEL, "Y", "main")
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["passed"] is True
        assert abs(rep["outputs"]["decay_fit"] - 0.1) <= 1e-3
        for r in rep["outputs"]["convergence_ratios"]:
            assert 3.2 <= r <= 4.8

    def test_zero_data_all_norms_zero(self, tmp_path):
        p = tmp_path / "quiet.mcft"
        p.write_text(
            "coords t x\nfields y\nparams rho=1 tau=1 gamma=0.1\n"
            "lagrangian 0.5*(rho*dy[t]^2 - tau*dy[x]^2) - gamma*s[t]\n"
            "symmetry Y: d/dy\n"
            "scenario quiet { bc periodic; grid nx=16 t=0.5; init y0 = 0; init v0 = 0; }\n"
        )
        code, out, _ = run_cli("--json", "verify-law", str(p), "Y", "quiet")
        assert code == 0
        rep = json.loads(out)
        assert all(n["l2"] == 0.0 for n in rep["outputs"]["norms"])

    def test_cfl_violation_exit_3(self, tmp_path):
        p = tmp_path / "cfl.mcft"
        p.write_text(
            "coords t x\nfields y\nparams rho=1 tau=1 gamma=0\n"
            "lagrangian 0.5*(rho*dy[t]^2 - tau*dy[x]^2)\nsymmetry Y: d/dy\n"
            "scenario hot { bc periodic; grid nx=16 cfl=2 t=1; init y0 = 0; init v0 = 0; }\n"
        )
        code, _, err = run_cli("verify-law", str(p), "Y", "hot")
        assert code == 3

    def test_unknown_scenario_exit_2(self):
        code, _, _ = run_cli("verify-law", MODEL, "Y", "nope")
        assert code == 2

    def test_non_noether_candidate_fails(self):
        code, out, _ = run_cli("verify-law", MODEL, "S", "main")
        assert code == 1
        assert "FAIL" in out


class TestSimulate:
    def test_summary_and_csv(self, tmp_path):
        csv = tmp_path / "traj.csv"
        code, out, _ = run_cli("--json", "simulate", MODEL, "main", "--csv", str(csv))
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["momentum"]["initial"] > 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,x,value"
        model = parse(pathlib.Path(MODEL).read_text(encoding="utf-8"))
        scenario = model.scenarios["main"]
        bindings = model.param_defaults()
        wave = damped_wave(model.system(), bindings)
        grid, y0, v0 = _mesh(wave, scenario, bindings, scenario.nx)
        traj = integrate_damped_wave(wave.params, y0, v0, grid)
        nt, nx = traj.y.shape
        assert nt == rep["outputs"]["grid"]["nt"] + 1
        assert len(lines) == nt * nx + 1
        cells = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(cells[:, 0], np.repeat(traj.t, nx))
        assert np.array_equal(cells[:, 1], np.tile(traj.x, nt))
        assert np.array_equal(cells[:, 2], traj.y.ravel())


PARAMETRIC_N2 = pathlib.Path(__file__).resolve().parent / "goldens" / "parametric_n2.mcft"


def test_sopde_self_check_error_is_bounded(monkeypatch):
    # a solve that drops one term of its first solved unknown leaves a residual
    # of inverted sums: exit 3 with a per-component summary instead of the
    # full nested expressions
    from mcft import lagrangian
    from mcft.algebra import AffineSolution, solve_affine
    from mcft.expr import Expr

    def dropping(equations, unknowns):
        sol = solve_affine(equations, unknowns)
        (s, e), *_ = sol.solved.items()
        return AffineSolution({**sol.solved, s: Expr(e.terms[1:])}, sol.free)

    monkeypatch.setattr(lagrangian, "solve_affine", dropping)
    code, out, err = run_cli("--json", "sopde", str(PARAMETRIC_N2))
    assert code == 3
    assert out == ""
    assert err.startswith("error: solved family does not annihilate ")
    assert "dt: " in err and " terms: " in err
    assert len(err.encode()) < 4096


@pytest.mark.parametrize("model", ["parametric_n2", "coupled_n3"])
def test_sopde_passes_its_self_check_on_inverted_sums(model):
    # the solved family's residuals hold inverted sums that cancel only once
    # their denominators are cleared
    code, out, err = run_cli("--json", "sopde", str(PARAMETRIC_N2.parent / f"{model}.mcft"))
    assert (code, err) == (0, "")
    assert json.loads(out)["command"] == "sopde"


# a regular Lagrangian with inverted sums in two kinetic coefficients and in
# the u_t-v_x coupling
INVERTED_SUMS = (
    "coords t x\nfields u v\nparams a b\nlagrangian 1/2*du[t]^2/(1+u^2) + a*du[t]*dv[x]/(b+v) - 1/2*du[x]^2"
    " + 1/2*dv[t]^2 - 1/2*dv[x]^2/(1+a*u) + du[x]*dv[t]*v - s[t]/10\n"
)


# the same with sin/exp factors: on u_x^2 and v_t^2, or on u_t^2 and the coupling
FUNCTION_ATOMS = {
    "kinetic": INVERTED_SUMS.replace("- 1/2*du[x]^2 + 1/2*dv[t]^2", "- 1/2*du[x]^2*exp(u) + 1/2*dv[t]^2*sin(v)"),
    "coupling": INVERTED_SUMS.replace("du[t]^2/", "du[t]^2*exp(u)/").replace("dv[x]/(b+v)", "dv[x]*sin(v)/(b+v)"),
}


def test_sopde_leftover_equations_that_cancel_are_consistent(tmp_path):
    # the equations left over after elimination hold inverted sums that cancel
    # only once their denominators are cleared: the zero test reads them zero
    p = tmp_path / "inverted_sums.mcft"
    for text in (INVERTED_SUMS, *FUNCTION_ATOMS.values()):
        p.write_text(text)
        code, out, err = run_cli("--json", "sopde", str(p))
        assert (code, err) == (0, ""), text
        assert json.loads(out)["outputs"]["free"] == ["A7", "A8", "A10", "B5", "B6", "B7", "B8", "B9", "B10"]


@pytest.mark.parametrize("case", sorted(FUNCTION_ATOMS))
def test_sopde_zero_tests_over_function_atoms_are_exact(tmp_path, monkeypatch, case):
    # the leftovers and the self-check's coefficients clear to no terms, so
    # neither needs the probing that sin/exp atoms used to send them to
    from mcft import algebra, expr, forms

    verdicts = []

    def recording(e, *args, **kwargs):
        verdicts.append(expr.is_zero(e, *args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(algebra, "is_zero", recording)
    monkeypatch.setattr(forms, "is_zero", recording)
    p = tmp_path / "function_atoms.mcft"
    p.write_text(FUNCTION_ATOMS[case])
    assert run_cli("--json", "sopde", str(p))[0] == 0
    assert len(verdicts) == 6 and set(verdicts) == {expr.ZeroCheck.ZERO}


def run_subprocess(*argv):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "mcft.cli", *argv], capture_output=True, text=True, env=env)


ONE_STEP = (
    "coords t x\nfields y\nparams rho=1 tau=1 gamma=0.1\n"
    "lagrangian 0.5*(rho*dy[t]^2 - tau*dy[x]^2) - gamma*s[t]\nsymmetry Y: d/dy\n"
    "scenario one { bc periodic; grid cfl=0.5 lx=1 nx=16 t=0.01; init y0 = sin(2*pi*x); init v0 = 0; }\n"
)


@pytest.mark.parametrize("verb", [["simulate"], ["verify-law", "Y"]], ids=["simulate", "verify-law"])
def test_one_step_scenario_exit_2(tmp_path, verb):
    # nt = 1 leaves two time levels, too few for the one-sided d/dt
    p = tmp_path / "one.mcft"
    p.write_text(ONE_STEP)
    r = run_subprocess(verb[0], str(p), *verb[1:], "one")
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "two time steps" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("name, generator", [("T", "d/dt"), ("X", "d/dx")])
def test_verify_law_current_with_action_coordinate(tmp_path, name, generator):
    # the translations' currents carry s_t, so the stream must integrate it
    p = tmp_path / "translations.mcft"
    p.write_text(pathlib.Path(MODEL).read_text(encoding="utf-8") + f"symmetry {name}: {generator}\n")
    r = run_subprocess("--json", "verify-law", str(p), name, "main")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)["outputs"]
    assert "s_t" in out["current"]
    assert out["passed"]
    assert out["decay_fit"] == pytest.approx(out["gamma"], rel=1e-3)


def test_division_by_zero_in_model_exit_2(tmp_path):
    p = tmp_path / "div0.mcft"
    p.write_text("coords t x\nfields y\nlagrangian 0.5*dy[t]^2 + 1/(y-y)\n")
    r = run_subprocess("derive", str(p))
    assert r.returncode == 2
    assert r.stderr == f"error: {p}: line 3, col 27: division by zero\n"


def test_superscript_digit_exit_2(tmp_path):
    p = tmp_path / "superscript.mcft"
    p.write_text("coords t x\nfields y\nlagrangian \u00b2*dy[t]^2\n", encoding="utf-8")
    r = run_subprocess("derive", str(p))
    assert r.returncode == 2
    assert r.stderr == f"error: {p}: line 3, col 12: bad number '\u00b2'\n"


DEGENERATE = {
    "nx0": ("grid cfl=0.5 lx=1 nx=0 t=1; init y0 = 0", "at least 8 spatial points"),
    "lx0": ("grid cfl=0.5 lx=0 nx=16 t=1; init y0 = 0", "domain length must be positive"),
    "pole": ("grid cfl=0.5 lx=1 nx=16 t=1; init y0 = 1/x", "initial data y0 is not finite"),
    # past the largest float: an OverflowError in the conversion, not a traceback
    "lx1e400": ("grid cfl=0.5 lx=1e400 nx=16 t=1; init y0 = 0", "grid lx, cfl or t is too large for a float"),
    "t1e400": ("grid cfl=0.5 lx=1 nx=16 t=1e400; init y0 = 0", "grid lx, cfl or t is too large for a float"),
    # a float, but t/dt = 3.2e301 steps is no array length
    "t1e300": ("grid cfl=0.5 lx=1 nx=16 t=1e300; init y0 = 0", "exceeds the largest array length"),
    # initial data past the largest float, as a constant and as a coefficient
    "y0_1e400": ("grid cfl=0.5 lx=1 nx=16 t=1; init y0 = 1e400", "a model coefficient is too large for a float"),
    "y0_1e400x": ("grid cfl=0.5 lx=1 nx=16 t=1; init y0 = 1e400*x", "a model coefficient is too large for a float"),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
@pytest.mark.parametrize("verb", [["simulate"], ["verify-law", "Y"]], ids=["simulate", "verify-law"])
def test_degenerate_scenario_exit_2(tmp_path, verb, case):
    body, message = DEGENERATE[case]
    p = tmp_path / "degenerate.mcft"
    p.write_text(ONE_STEP.split("scenario")[0] + f"scenario bad {{ bc periodic; {body}; init v0 = 0; }}\n")
    r = run_subprocess(verb[0], str(p), *verb[1:], "bad")
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and message in r.stderr
    assert "Traceback" not in r.stderr and "Warning" not in r.stderr


# model numbers past the largest float, each in its own conversion: edits to ONE_STEP
OVERFLOWS = {
    "parameter": ([("rho=1 ", "rho=1e400 ")], "parameter 'rho' is too large for a float"),
    "lagrangian": ([("gamma*s[t]\n", "gamma*s[t] + 1e400*x^2\n")], "a model coefficient is too large for a float"),
    "damping": ([("gamma*s[t]", "1e400*s[t]")], "a value is too large for a float"),
    "v0": ([("init v0 = 0", "init v0 = 1e400")], "a model coefficient is too large for a float"),
    "power": ([("rho=1 ", "rho=1 k=1e200 "), ("sin(2*pi*x)", "k^2")], "a value is too large for a float"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
@pytest.mark.parametrize("verb", [["simulate"], ["verify-law", "Y"]], ids=["simulate", "verify-law"])
def test_model_number_past_float_range_exit_2(tmp_path, verb, case):
    edits, message = OVERFLOWS[case]
    text = ONE_STEP.replace("t=0.01", "t=1")
    for old, new in edits:
        text = text.replace(old, new, 1)
    p = tmp_path / "overflow.mcft"
    p.write_text(text)
    r = run_subprocess(verb[0], str(p), *verb[1:], "one")
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and message in r.stderr and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr
    assert run_cli("derive", str(p))[0] == 0


@pytest.mark.parametrize(
    "names", ["coords t x\nfields s", "coords t x\nfields y y_t", "coords t s_t\nfields y"], ids=["s", "y_t", "s_t"]
)
def test_colliding_coordinate_names_exit_2(tmp_path, names):
    # a field s has the velocity s_t of the action s_t; a field y_t is the velocity of y
    p = tmp_path / "collision.mcft"
    p.write_text(names + "\nlagrangian 1\n")
    r = run_subprocess("derive", str(p))
    assert r.returncode == 2
    assert r.stderr.startswith(f"error: {p}: line 2, col 1: duplicate coordinate names in [")
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr


@pytest.mark.parametrize("name", ["W", "Z"])
@pytest.mark.parametrize(
    "verb", [["check-symmetry"], ["current"], ["verify-law", "one"]], ids=["check-symmetry", "current", "verify-law"]
)
def test_non_projectable_candidate_exit_2(tmp_path, verb, name):
    # W's field component reads a velocity, Z's base component a field:
    # neither is a configuration vector field, which is a usage error, not "not Noether"
    p = tmp_path / "non_projectable.mcft"
    p.write_text(ONE_STEP + "symmetry W: dy[t]*d/dy\nsymmetry Z: y*d/dt\n")
    r = run_subprocess(verb[0], str(p), name, *verb[1:])
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith(f"error: symmetry candidate '{name}': ") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr


PAST_FLOAT_ZERO_TEST = (
    "coords t x\nfields y\nlagrangian 0.5*dy[t]^2 - 0.5*dy[x]^2 + 1e400*sin(y)\n"
    "symmetry Y: d/dy\nsymmetry T: d/dt\n"
    "scenario one { bc periodic; grid cfl=0.5 lx=1 nx=16 t=0.01; init y0 = 0; init v0 = 0; }\n"
)


@pytest.mark.parametrize(
    "verb", [["check-symmetry"], ["current"], ["verify-law", "one"]], ids=["check-symmetry", "current", "verify-law"]
)
def test_zero_test_past_float_range_exit_2(tmp_path, verb):
    # L_Y Theta holds 1e400*cos(y), whose probe cannot convert the coefficient
    # at any point: one error, not a resample
    p = tmp_path / "past_float.mcft"
    p.write_text(PAST_FLOAT_ZERO_TEST)
    r = run_subprocess(verb[0], str(p), "Y", *verb[1:])
    assert r.returncode == 2, r.stderr
    assert r.stderr == "error: zero test: a value is too large for a float\n"
    for argv in (["check-symmetry", str(p), "T"], ["derive", str(p)], ["sopde", str(p)]):
        assert run_cli(*argv)[0] == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9", "abc"])
def test_tol_that_is_not_positive_and_finite_exit_2(tmp_path, tol):
    # a NaN or infinite tol read every probe as zero, 0 or less every probe as nonzero
    p = tmp_path / "sin.mcft"
    p.write_text("coords t x\nfields y\nlagrangian 0.5*dy[t]^2 - 0.5*dy[x]^2 + sin(y)\nsymmetry Y: d/dy\n")
    r = run_subprocess("--tol", tol, "check-symmetry", str(p), "Y")
    assert r.returncode == 2 and "argument --tol" in r.stderr and r.stdout == ""
    code, out, _ = run_cli("--tol", "1e-6", "check-symmetry", str(p), "Y")
    assert code == 1 and "classification: not-noether" in out


class TestDeterminism:
    def test_identical_seeds_byte_identical_json(self):
        _, a, _ = run_cli("--json", "--seed", "42", "check-symmetry", MODEL, "Y")
        _, b, _ = run_cli("--json", "--seed", "42", "check-symmetry", MODEL, "Y")
        assert a == b
        _, c, _ = run_cli("--json", "--seed", "42", "verify-law", MODEL, "Y", "main")
        _, d, _ = run_cli("--json", "--seed", "42", "verify-law", MODEL, "Y", "main")
        assert c == d

    def test_subprocess_byte_identical(self):
        cmd = [sys.executable, "-m", "mcft.cli", "--json", "--seed", "7", "derive", MODEL]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a == b

    def test_schema_validation(self):
        import jsonschema

        schema = json.loads(
            (pathlib.Path(__file__).resolve().parents[1] / "src" / "mcft" / "schema" / "report.schema.json").read_text()
        )
        for argv in (
            ["--json", "derive", MODEL],
            ["--json", "derive", "--hamiltonian", MODEL],
            ["--json", "check-symmetry", MODEL, "Y"],
            ["--json", "current", MODEL, "Y"],
            ["--json", "sopde", MODEL],
            ["--json", "verify-law", MODEL, "Y", "main"],
            ["--json", "simulate", MODEL, "main"],
        ):
            _, out, _ = run_cli(*argv)
            jsonschema.validate(json.loads(out), schema)


def test_reused_parser_carries_no_state(tmp_path, monkeypatch):
    import argparse

    from mcft import cli

    lifted = tmp_path / "lifted.mcft"
    lifted.write_text(
        "coords t x\nfields y\nparams rho=1 tau=1\n"
        "lagrangian 0.5*(rho*dy[t]^2 - tau*dy[x]^2)\nsymmetry T: t*d/dy\n"
    )
    csv = str(tmp_path / "traj.csv")
    pairs = [
        (["--seed", "5", "check-symmetry", MODEL, "Y"], ["check-symmetry", MODEL, "Y"]),
        (["--paper-sign", "check-symmetry", str(lifted), "T"], ["check-symmetry", str(lifted), "T"]),
        (["--tol", "1e-6", "check-symmetry", MODEL, "S"], ["check-symmetry", MODEL, "S"]),
        (["simulate", MODEL, "main", "--csv", csv], ["simulate", MODEL, "main"]),
    ]
    # each option is followed by its absence and the absence by the option
    calls = [["--json", *argv] for with_, without in pairs for argv in (with_, without, with_)]
    fresh = getattr(cli.build_parser, "__wrapped__", cli.build_parser)
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", fresh)
        want = [run_cli(*argv)[:2] for argv in calls]
    assert [run_cli(*argv)[:2] for argv in calls] == want
    assert json.loads(want[0][1])["seed"] == 5 and json.loads(want[1][1])["seed"] is None
    assert want[3] != want[4]  # --paper-sign flips a prolonged component of T
    assert json.loads(want[-3][1])["outputs"]["csv"] == csv and json.loads(want[-2][1])["outputs"]["csv"] is None

    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    assert run_cli("--json", "derive", MODEL)[0] == 0
    assert not built, "main() built a parser again"


class TestPaperSign:
    def test_flag_flips_prolonged_component(self, tmp_path):
        p = tmp_path / "lifted.mcft"
        p.write_text(
            "coords t x\nfields y\nparams rho=1 tau=1\n"
            "lagrangian 0.5*(rho*dy[t]^2 - tau*dy[x]^2)\nsymmetry T: t*d/dy\n"
        )
        _, out_flow, _ = run_cli("check-symmetry", str(p), "T")
        _, out_paper, _ = run_cli("--paper-sign", "check-symmetry", str(p), "T")
        assert "t d/dy + d/dy_t" in out_flow
        assert "t d/dy - d/dy_t" in out_paper


ZERO_PARAM = (
    "coords t x\nfields y\nparams rho=1 tau=1 a=0\n"
    "lagrangian 0.5*(rho*dy[t]^2 - tau*dy[x]^2) + {term}\nsymmetry Y: d/dy\nsymmetry T: t/a*d/dy\n"
    "scenario main {{ bc periodic; grid cfl=0.5 lx=1 nx=16 t=1; init y0 = sin(2*pi*x); init v0 = 1; }}\n"
)


# at a = 0: dL/ds_t = 1/a, the action coordinate's t/a, the current's t/a
@pytest.mark.parametrize(
    "term, verb",
    [
        ("s[t]/a", ["simulate"]),
        ("s[t]/a", ["verify-law", "Y"]),
        ("t/a", ["simulate"]),
        ("t", ["verify-law", "T"]),
    ],
    ids=["simulate-source", "verify-law-source", "simulate-action", "verify-law-current"],
)
def test_parameter_dividing_by_zero_exit_2(tmp_path, term, verb):
    p = tmp_path / "a0.mcft"
    p.write_text(ZERO_PARAM.format(term=term))
    r = run_subprocess(verb[0], str(p), *verb[1:], "main")
    assert r.returncode == 2
    assert r.stderr.startswith("error: cannot evaluate the model at its parameter values") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr


def test_blowup_in_simulate_leaves_no_csv(tmp_path):
    p = tmp_path / "grow.mcft"
    p.write_text(ONE_STEP.replace("gamma=0.1", "gamma=-50").replace("t=0.01", "t=60"))
    csv = tmp_path / "traj.csv"
    code, _, err = run_cli("simulate", str(p), "one", "--csv", str(csv))
    assert code == 2 and err.startswith("error: non-finite values at step ")
    assert not csv.exists()


def _imported_after(argv, modules):
    """Which of ``modules`` a fresh interpreter holds after ``mcft --json`` runs ``argv``."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = (
        "import contextlib, io, sys\n"
        "from mcft.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['--json', {argv[0]!r}, {MODEL!r}, *{argv[1:]!r}]) == 0\n"
        f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return r.stdout.strip()


@pytest.mark.parametrize(
    "argv", [["derive"], ["check-symmetry", "Y"], ["current", "Y"], ["sopde"]], ids=lambda a: a[0]
)
def test_symbolic_verbs_do_not_import_numpy(argv):
    # nor dataclasses, whose inspect/ast/dis chain a one-shot verb would pay for at import
    assert _imported_after(argv, ("numpy", "mcft.numeric", "dataclasses", "inspect")) == "[]"


@pytest.mark.parametrize("argv", [["verify-law", "Y", "main"], ["simulate", "main"]], ids=lambda a: a[0])
def test_numeric_verbs_do_not_import_dataclasses(argv):
    # numpy itself loads inspect
    assert _imported_after(argv, ("dataclasses",)) == "[]"


@pytest.mark.parametrize(
    "argv",
    [["--json", "check-symmetry", MODEL, "Y"], ["--json", "derive", "--hamiltonian", MODEL], ["sopde", MODEL]],
    ids=["check-symmetry", "derive-hamiltonian", "sopde-human"],
)
def test_closed_stdout_exit_2_without_traceback(argv):
    # the reader closes the pipe before the program writes, as `| head -c 10` may
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mcft.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2, err
    assert "Traceback" not in err and "BrokenPipeError" not in err
