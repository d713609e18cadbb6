import decimal
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcft import cli
from mcft.cli import main
from mcft.dsl import DslError, ModelFile, parse, render, tokenize
from mcft.expr import ExprError
from mcft.numeric import NumericError, damped_wave, integrate_damped_wave, scenario_mesh as _mesh

MODEL = str(pathlib.Path(__file__).resolve().parents[1] / "models" / "string.mcft")
MODEL_TEXT = pathlib.Path(MODEL).read_text(encoding="utf-8")


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

    def test_undamped_momentum_is_conserved_and_gated(self, tmp_path):
        # gamma = 0 with a uniform drift: the momentum is conserved, and the
        # conservation gate, not the decay fit alone, decides the verdict
        p = tmp_path / "undamped.mcft"
        p.write_text(MODEL_TEXT.replace("gamma=0.1", "gamma=0"))
        code, out, err = run_cli("--json", "verify-law", str(p), "Y", "main")
        assert code == 0, err
        outputs = json.loads(out)["outputs"]
        assert outputs["passed"] is True
        drift = outputs["conservation_drift"]
        assert isinstance(drift, float) and drift <= outputs["thresholds"]["conservation_tol"]
        code, out, err = run_cli("verify-law", str(p), "Y", "main")
        assert code == 0, err
        assert f"conservation drift: {drift:.3e}\n" in out and out.endswith("PASS\n")

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


def run_subprocess(*argv, timeout=None):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "mcft.cli", *argv], capture_output=True, text=True, env=env, timeout=timeout)


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


def test_leading_byte_order_mark_is_dropped(tmp_path):
    # a file saved with a UTF-8 byte-order mark is the model after it, with the same model_hash
    p = tmp_path / "bom.mcft"
    p.write_text("\ufeff" + MODEL_TEXT, encoding="utf-8")
    code, out, _ = run_cli("--json", "derive", str(p))
    assert (code, out) == run_cli("--json", "derive", MODEL)[:2]


@pytest.mark.parametrize(
    "old, new, line, col",
    [("#", "\ufeff#", 1, 1), ("coords", "\ufeffcoords", 2, 1), ("coords t", "coords t\ufeff", 2, 9)],
    ids=["second-mark", "line-start", "mid-line"],
)
def test_byte_order_mark_past_the_first_character_exit_2(tmp_path, old, new, line, col):
    p = tmp_path / "bom.mcft"
    p.write_text("\ufeff" + MODEL_TEXT.replace(old, new, 1), encoding="utf-8")
    code, out, err = run_cli("derive", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: {p}: line {line}, col {col}: unexpected character '\\ufeff'\n"


DEGENERATE = {
    "nx0": ("grid cfl=0.5 lx=1 nx=0 t=1; init y0 = 0", "at least 8 spatial points"),
    "lx0": ("grid cfl=0.5 lx=0 nx=16 t=1; init y0 = 0", "domain length must be positive"),
    "pole": ("grid cfl=0.5 lx=1 nx=16 t=1; init y0 = 1/x", "initial data y0 is not finite"),
    # past the largest float: an OverflowError in the conversion, not a traceback
    "lx1e400": ("grid cfl=0.5 lx=1e400 nx=16 t=1; init y0 = 0", "grid lx, cfl or t is too large for a float"),
    "t1e400": ("grid cfl=0.5 lx=1 nx=16 t=1e400; init y0 = 0", "grid lx, cfl or t is too large for a float"),
    # an integer past the largest float: lx / nx cannot convert it
    "nx1281e400": ("grid cfl=0.5 lx=1 nx=1281e400 t=1; init y0 = 0", "grid size nx is too large for a float"),
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


# integers past the interpreter's default 4300-digit limit on str <-> int
# conversion, from the model (a literal) and from the computation (the
# Hessian determinant squares 1e2500)
LONG_INTEGERS = {
    "literal": ("rho=1 ", "rho=" + "9" * 5000 + " "),
    "term": ("- gamma*s[t]", "- gamma*s[t] + 1e5000*y"),
    "determinant": ("- gamma*s[t]", "- gamma*s[t] + 1e2500*dy[t]*dy[x]"),
}


@pytest.mark.parametrize(
    "case, argv, code, digits",
    [
        ("literal", ["derive"], 0, None),
        ("term", ["derive"], 0, "1" + "0" * 5000),
        ("term", ["sopde"], 0, "1" + "0" * 5000),
        # 1e5000*y breaks the shift: a not-noether verdict whose witness holds 1e5000
        ("term", ["check-symmetry", "Y"], 1, "1" + "0" * 5000),
        ("determinant", ["derive"], 0, "1" + "0" * 5000),
    ],
    ids=["literal-derive", "term-derive", "term-sopde", "term-check-symmetry", "determinant-derive"],
)
def test_integers_past_the_str_digit_limit_print_in_full(tmp_path, case, argv, code, digits):
    old, new = LONG_INTEGERS[case]
    p = tmp_path / "long.mcft"
    p.write_text(MODEL_TEXT.replace(old, new, 1))
    r = run_subprocess("--json", argv[0], str(p), *argv[1:])
    assert r.returncode == code, r.stderr
    assert r.stderr == "" and json.loads(r.stdout)["command"] == argv[0]
    if digits is not None:
        assert digits in r.stdout


# a number literal's numerator and denominator may have at most
# dsl.MAX_DIGITS (10000) digits: at the bound the value prints in full, past
# it the parse stops at the literal, before the value is built
AT_DIGIT_BOUND = {
    "digits": ("9" * 10000, "9" * 10000),
    "exponent": ("1e9999", "1" + "0" * 9999),
    "denominator": ("1e-9999", "/1" + "0" * 9999),
    "fraction": ("2e-10000", "/5" + "0" * 9999),
}


@pytest.mark.parametrize("literal, printed", AT_DIGIT_BOUND.values(), ids=AT_DIGIT_BOUND)
def test_number_literal_at_the_digit_bound_prints_in_full(tmp_path, literal, printed):
    p = tmp_path / "bound.mcft"
    p.write_text(MODEL_TEXT.replace("- gamma*s[t]", f"- gamma*s[t] + {literal}*y", 1))
    r = run_subprocess("--json", "derive", str(p))
    assert r.returncode == 0, r.stderr
    assert r.stderr == "" and printed in r.stdout


PAST_DIGIT_BOUND = {
    "digits": "9" * 10001,
    "exponent": "1e10000",
    "denominator": "1e-10000",
    "huge": "1e1000000",
    "tiny": "1e-1000000",
}


@pytest.mark.parametrize("literal", PAST_DIGIT_BOUND.values(), ids=PAST_DIGIT_BOUND)
@pytest.mark.parametrize(
    "old, new", [("- gamma*s[t]", "- gamma*s[t] + {}*y"), ("rho=1 ", "rho=1/{} ")], ids=["term", "param"]
)
def test_number_literal_past_the_digit_bound_exits_2_at_its_position(tmp_path, literal, old, new):
    text = MODEL_TEXT.replace(old, new.format(literal), 1)
    p = tmp_path / "bound.mcft"
    p.write_text(text)
    start = text.index(new.format(literal)) + new.index("{")
    line = text.count("\n", 0, start) + 1
    col = start - text.rfind("\n", 0, start)
    r = run_subprocess("derive", str(p))
    assert r.returncode == 2
    assert r.stderr == f"error: {p}: line {line}, col {col}: number literal needs more than 10000 digits\n"
    assert r.stdout == ""


def test_constant_power_within_the_digit_bound_prints_in_full(tmp_path):
    # 7^11000 has 9297 digits
    p = tmp_path / "power.mcft"
    p.write_text(MODEL_TEXT.replace("- gamma*s[t]", "- gamma*s[t] + 7^11000*y", 1))
    r = run_subprocess("--json", "derive", str(p))
    assert r.returncode == 0, r.stderr
    with decimal.localcontext() as ctx:
        ctx.prec = 10000  # exact: str(int) stops at 4300 digits by default
        digits = str(decimal.Decimal(7) ** 11000)
    assert r.stderr == "" and len(digits) == 9297 and digits in r.stdout


def test_power_of_a_symbol_is_not_bounded_by_its_exponent(tmp_path):
    # y^k*y is y^(10^400): an exponent past a float's range, on a base that
    # does not grow
    p = tmp_path / "power.mcft"
    p.write_text(MODEL_TEXT.replace("- gamma*s[t]", "- gamma*s[t] + y^" + "9" * 400 + "*y", 1))
    r = run_subprocess("--json", "derive", str(p))
    assert r.returncode == 0, r.stderr
    assert r.stderr == "" and "y^1" + "0" * 400 in r.stdout


# a power of a constant is bounded like a literal, before it is built: 7^100000
# has 84510 digits, 7^-100000 as many in its denominator, (2/3)^30000 has 9031
# in its numerator but 14314 in its denominator, 2^(10^400 - 1) has an
# exponent past a float's range, and a sum under a negative power is one
# inverted sum whose coefficient is its lead coefficient to that power
@pytest.mark.parametrize(
    "power",
    ["7^100000", "7^-100000", "(2/3)^30000", "2^" + "9" * 400, "(2+2*y)^-" + "9" * 400],
    ids=["7^100000", "7^-100000", "(2/3)^30000", "2^(10^400-1)", "(2+2*y)^-(10^400-1)"],
)
def test_constant_power_past_the_digit_bound_exits_2_at_its_caret(tmp_path, power):
    term = f"- gamma*s[t] + {power}*y"
    text = MODEL_TEXT.replace("- gamma*s[t]", term, 1)
    p = tmp_path / "power.mcft"
    p.write_text(text)
    start = text.index(term) + term.index("^")
    line = text.count("\n", 0, start) + 1
    col = start - text.rfind("\n", 0, start)
    r = run_subprocess("derive", str(p))
    assert r.returncode == 2
    assert r.stderr == f"error: {p}: line {line}, col {col}: power needs more than 10000 digits\n"
    assert r.stdout == ""


# a power of a sum is bounded by the size it would expand into, before it is
# expanded: (2+3*y)^3000 into 3001 terms of up to 2097 digits, (1+y)^2000
# into 2001 terms of up to 603
@pytest.mark.parametrize("power", ["(2+3*y)^3000", "(1+y)^2000"])
def test_power_of_a_sum_past_the_size_bound_exits_2_at_its_caret(tmp_path, power):
    term = f"- gamma*s[t] + {power}"
    text = MODEL_TEXT.replace("- gamma*s[t]", term, 1)
    p = tmp_path / "power.mcft"
    p.write_text(text)
    start = text.index(term) + term.index("^")
    line = text.count("\n", 0, start) + 1
    col = start - text.rfind("\n", 0, start)
    r = run_subprocess("derive", str(p))
    assert r.returncode == 2
    assert r.stderr == f"error: {p}: line {line}, col {col}: expanded power of a sum needs more than 100000 digits\n"
    assert r.stdout == ""


# (1+y+y^2)^100 has 201 terms of at most 48 digits, though three summands in
# three atoms would have C(102, 2) = 5151
@pytest.mark.parametrize(
    "power, shown",
    [("(1+y)^50", [f"{math.comb(50, 25)}*y^25", "y^50"]), ("(1+y+y^2)^100", ["y^200"])],
    ids=["(1+y)^50", "(1+y+y^2)^100"],
)
def test_power_of_a_sum_within_the_size_bound_prints_in_full(tmp_path, power, shown):
    p = tmp_path / "power.mcft"
    p.write_text(MODEL_TEXT.replace("- gamma*s[t]", f"- gamma*s[t] + {power}", 1))
    code, out, err = run_cli("derive", str(p))
    assert code == 0, err
    assert all(s in out for s in shown)


# a product of powers of sums is bounded as one power is, at each * or / before
# the product is expanded: (1+y)^300 twice expands as (1+y)^600 would, into 601
# terms of up to 181 digits (seven factors took seconds and printed megabytes),
# and dividing by an inverted sum to the power k expands that sum to the power k
@pytest.mark.parametrize(
    "product, at",
    [("(1+y)^300*" * 7 + "y", 9), ("(1+y)^300*(1+y)^300", 9), ("y*(1+y)^300/(1+y)^-300", 11),
     ("y/(1+y)^-3000", 1), ("y/(1+y)^-" + "9" * 400, 1), ("y/((1+y)^-300*(1+dy[x])^-300)", 1)],
    ids=["seven-factors", "two-factors", "over-an-inverted-sum", "inverse", "inverse-10^400", "inverse-of-two"],
)
def test_product_of_sums_past_the_size_bound_exits_2_at_its_operator(tmp_path, product, at):
    term = f"- gamma*s[t] + {product}"
    text = MODEL_TEXT.replace("- gamma*s[t]", term, 1)
    p = tmp_path / "product.mcft"
    p.write_text(text)
    start = text.index(term) + term.index(product) + at
    assert text[start] in "*/"
    line = text.count("\n", 0, start) + 1
    col = start - text.rfind("\n", 0, start)
    r = run_subprocess("derive", str(p), timeout=60)
    assert r.returncode == 2
    assert r.stderr == f"error: {p}: line {line}, col {col}: expanded product of sums needs more than 100000 digits\n"
    assert r.stdout == ""


@pytest.mark.parametrize(
    "product", ["(1+y+y^2)^100*(1+y)^10", "(1+y)^150*(1+y)^150*y", "(1+y)^250/(1+y)", "y/(1+y)^-200"])
def test_product_of_sums_within_the_size_bound_prints_in_full(tmp_path, product):
    p = tmp_path / "product.mcft"
    p.write_text(MODEL_TEXT.replace("- gamma*s[t]", f"- gamma*s[t] + {product}", 1))
    code, out, err = run_cli("derive", str(p))
    assert code == 0, err
    assert "y^" in out


def test_momentum_named_like_a_base_exits_2(tmp_path):
    # one field's momentum along t is p_t, the name of the second base here
    p = tmp_path / "momentum.mcft"
    p.write_text("coords t p_t\nfields y\nlagrangian 0.5*dy[t]^2 - 0.5*dy[p_t]^2\n")
    assert run_cli("derive", str(p))[0] == 0
    r = run_subprocess("derive", "--hamiltonian", str(p))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == ("error: Hamiltonian chart: duplicate coordinate names in "
                        "['t', 'p_t', 'y', 'p_t', 'p_p_t', 's_t', 's_p_t']\n")


WAVE_HEAD = "coords t x\nfields y\n"


@pytest.mark.parametrize(
    "verb, text, message",
    [
        # sopde substituted its solved unknown A4 into the parameter A4 and failed its self-check
        (["sopde"], WAVE_HEAD + "params A4=2\nlagrangian 0.5*A4*dy[t]^2 - 0.5*dy[x]^2 - s[t]/10\n",
         "line 3, col 8: parameter 'A4' is named like an ansatz unknown"),
        (["sopde"], "coords t x\nfields A4\nlagrangian 0.5*dA4[t]^2 - 0.5*dA4[x]^2 - 0.5*A4^2 - s[t]/10\n",
         "line 2, col 1: 'A4' names both a coordinate and an ansatz unknown"),
        # H printed as p_t^2/(2*p_t), one p_t the parameter and the other the momentum
        (["derive", "--hamiltonian"], WAVE_HEAD + "params p_t=2\nlagrangian 0.5*p_t*dy[t]^2 - 0.5*dy[x]^2 - s[t]/10\n",
         "line 3, col 8: parameter 'p_t' is named like a coordinate"),
        # EL[y] printed the parameter times the placeholder for d^2y/dtdx, both as y_tx
        (["derive"], WAVE_HEAD + "params y_tx=2\nlagrangian 0.5*dy[t]^2 - 0.5*dy[x]^2 + y_tx*y*dy[t]*dy[x]\n",
         "line 3, col 8: parameter 'y_tx' is named like a section derivative"),
        # y_tt named both d^2y/dt^2 and the velocity dy[tt]; s_t_t both ds_t/dt and the action s[t_t]
        (["derive"], "coords t tt\nfields y\nlagrangian 0.5*dy[t]^2 - 0.5*dy[tt]^2 + y*dy[tt]\n",
         "line 2, col 1: 'y_tt' names both a coordinate and a section derivative"),
        (["derive"], "coords t t_t\nfields y\nlagrangian 0.5*dy[t]^2 - 0.5*dy[t_t]^2 - s[t_t]\n",
         "line 2, col 1: 's_t_t' names both a coordinate and a section derivative"),
        # y_uvw named both d^2y/du dvw and d^2y/duv dw, which cancelled in EL[y]
        (["derive"], "coords u uv vw w\nfields y\nlagrangian 0.5*dy[u]^2 + dy[u]*dy[vw] - dy[uv]*dy[w]\n",
         "line 2, col 1: 'y_uvw' names both a section derivative and a section derivative"),
    ],
    ids=["parameter-A4", "field-A4", "parameter-p_t", "parameter-y_tx", "bases-t-tt", "bases-t-t_t", "bases-u-uv-vw-w"],
)
def test_name_of_two_symbols_exits_2_at_parse(tmp_path, verb, text, message):
    p = tmp_path / "named.mcft"
    p.write_text(text)
    assert run_cli(verb[0], str(p), *verb[1:]) == (2, "", f"error: {p}: {message}\n")


def test_field_named_p_has_no_hamiltonian_picture(tmp_path):
    # the slope p_t of a field p is named like its momentum p_t: substituting
    # the velocity p_t by name zeroed the momentum too, and H printed as 0
    p = tmp_path / "field-p.mcft"
    p.write_text("coords t x\nfields p\nlagrangian 0.5*dp[t]^2 - 0.5*dp[x]^2\n")
    assert run_cli("derive", str(p))[0] == 0
    assert run_cli("derive", "--hamiltonian", str(p)) == (
        2, "", "error: Hamiltonian chart: 'p_t' names both a coordinate and a section derivative\n")


@pytest.mark.parametrize("name", ["k", "A1", "yt"])
def test_parameter_apart_from_every_derived_name_solves(tmp_path, name):
    # for m = 2, n = 1 the ansatz unknowns are A4..A7 and B4..B7, so A1 is free to take
    from mcft.dsl import render

    text = WAVE_HEAD + f"params {name}=2\nlagrangian 0.5*{name}*dy[t]^2 - 0.5*dy[x]^2 - s[t]/10\n"
    p = tmp_path / "named.mcft"
    p.write_text(text)
    code, out, _ = run_cli("sopde", str(p))
    assert code == 0 and "free component functions: A5, A7, B4, B5, B6, B7\n" in out
    assert f"(B5/{name} - y_t/10) d/dy_t" in out
    m = parse(text)
    assert parse(render(m)) == m


# long division that fails takes a step per degree of the numerator's lead
# before it finds a term it cannot divide: solving p_t = (1+y) y_t + y^k for
# y_t gives up within the quotient budget and keeps 1/(1 + y)
@pytest.mark.parametrize("k", ["1000000", "9" * 400], ids=["10^6", "10^400-1"])
def test_failing_long_division_in_the_legendre_map_ends(tmp_path, k):
    p = tmp_path / "division.mcft"
    p.write_text(MODEL_TEXT.replace("0.5*(rho*dy[t]^2 - tau*dy[x]^2) - gamma*s[t]",
                                    f"0.5*(1+y)*dy[t]^2 - 0.5*tau*dy[x]^2 + y^{k}*dy[t]", 1))
    r = run_subprocess("derive", "--hamiltonian", str(p), timeout=60)
    assert r.returncode == 0, r.stderr
    assert f"- y^{k}*p_t/(1 + y) + " in r.stdout


NONPOW2 = str(pathlib.Path(__file__).resolve().parent / "goldens" / "nonpow2.mcft")


def renamed(text, names):
    """A model's text with each coordinate name in ``names`` replaced where it
    stands as a whole word, and not as the grid key ``t=``."""
    pattern = r"\b(%s)\b(?!\s*=)" % "|".join(sorted(names, key=len, reverse=True))
    return re.sub(pattern, lambda m: names[m.group(1)], text)


RENAMED = {"t": "tt", "x": "xx", "y": "w", "dt": "dtt", "dx": "dxx", "dy": "dw"}
SWAPPED = {"t": "x", "x": "t", "dt": "dx", "dx": "dt"}  # time is the first base, whatever its name


def numeric_outputs(path):
    """The --json outputs of simulate for every scenario and of verify-law for
    every candidate and scenario, without the current's text, which names
    coordinates, as text that holds every float's bits."""
    model = parse(pathlib.Path(path).read_text(encoding="utf-8"))
    runs = [["simulate", path, sc] for sc in model.scenarios]
    runs += [["verify-law", path, name, sc] for name in model.symmetries for sc in model.scenarios]
    reports = []
    for argv in runs:
        code, out, err = run_cli("--json", *argv)
        outputs = json.loads(out)["outputs"]
        outputs.pop("current", None)
        reports.append((argv[0], *argv[2:], code, err, json.dumps(outputs, sort_keys=True)))
    return reports


@pytest.mark.parametrize(
    "path, names",
    [(MODEL, RENAMED), (NONPOW2, RENAMED), (MODEL, SWAPPED)],
    ids=["string-tt-xx-w", "nonpow2-tt-xx-w", "string-x-t"],
)
def test_coordinates_named_otherwise_give_the_same_numbers(tmp_path, path, names):
    p = tmp_path / "renamed.mcft"
    p.write_text(renamed(pathlib.Path(path).read_text(encoding="utf-8"), names))
    assert numeric_outputs(str(p)) == numeric_outputs(path)


def test_legendre_lists_the_momenta_alone(tmp_path):
    # a base named pos begins with p, as the momenta do
    p = tmp_path / "pos.mcft"
    p.write_text(renamed(MODEL_TEXT, {"x": "pos", "dx": "dpos"}))
    code, out, _ = run_cli("--json", "derive", "--hamiltonian", str(p))
    assert code == 0
    assert json.loads(out)["outputs"]["legendre"] == {"p_pos": "-tau*y_pos", "p_t": "rho*y_t"}
    code, out, _ = run_cli("derive", "--hamiltonian", str(p))
    assert code == 0 and "legendre: p_pos = -tau*y_pos, p_t = rho*y_t\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", MODEL],
        ["derive", "--hamiltonian", MODEL],
        ["check-symmetry", MODEL, "Y"],
        ["current", MODEL, "Y"],
        ["sopde", MODEL],
        ["verify-law", MODEL, "Y", "main"],
        ["simulate", MODEL, "main"],
    ],
    ids=lambda argv: "-".join(a for a in argv if a != MODEL),
)
def test_unexpected_exception_exits_4_with_its_traceback(monkeypatch, argv):
    # a crash is not a verdict: 4, not the 1 of not-noether
    def crash(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_load_model", crash)
    code, out, err = run_cli("--json", *argv)
    assert code == 4 and out == ""
    first, *rest = err.splitlines()
    assert first == "error: internal error"
    assert rest[0] == "Traceback (most recent call last):" and rest[-1] == "RuntimeError: boom"


def test_verbs_that_print_no_hessian_determinant_never_take_it(tmp_path, monkeypatch):
    from mcft import lagrangian

    argvs = [["check-symmetry", MODEL, "Y"], ["current", MODEL, "Y"], ["verify-law", MODEL, "Y", "main"],
             ["simulate", MODEL, "main"]]
    unpatched = [run_cli("--json", *argv)[:2] for argv in argvs]

    def no_det(matrix):
        raise AssertionError("det taken")

    monkeypatch.setattr(lagrangian, "det", no_det)
    assert [run_cli("--json", *argv)[:2] for argv in argvs] == unpatched

    def no_hessian(system):
        raise AssertionError("Hessian built")

    # the symbolic verbs that print no determinant build no Hessian either
    monkeypatch.setattr(lagrangian.LagrangianSystem, "hessian", property(no_hessian))
    assert [run_cli("--json", *argv)[:2] for argv in argvs[:2]] == unpatched[:2]
    # 4 fields over 4 bases: a 16x16 constant Hessian, whose det was most of check-symmetry's time
    velocities = [f"d{f}[{b}]" for f in "uvqr" for b in "txwz"]
    kinetic = " + ".join(f"{1 if v.endswith('[t]') else -1}/2*{v}^2" for v in velocities)
    coupling = " + ".join(f"1/{k + 3}*{a}*{b}" for k, (a, b) in enumerate(zip(velocities, velocities[1:])))
    p = tmp_path / "kg44.mcft"
    p.write_text(f"coords t x w z\nfields u v q r\nlagrangian {kinetic} + {coupling} - s[t]/10\nsymmetry U: d/du\n")
    code, out, err = run_cli("check-symmetry", str(p), "U")
    assert code == 0 and "classification: strong-noether" in out, err


# ---------------------------------------------------------------------------
# Property: a model mutated by one token parses or is refused, and never crashes a verb.


def _corpus_text(entry) -> str:
    """An ``mcft.corpus`` system as model text, with its unprolonged candidates."""
    chart = entry.system.chart
    names = [[chart.coords[i].name for i in axes] for axes in (chart.base_axes, chart.field_axes)]
    symmetries = {f"C{i}": {chart.coords[axis].name: c for axis, c in mv.factors[0].items()}
                  for i, (label, mv) in enumerate(entry.candidates) if not label.startswith("lift")}
    return render(ModelFile(*names, [], entry.system.lagrangian, symmetries, {}, chart))


def _mutation_seeds() -> list:
    from mcft.corpus import corpus

    paths = [pathlib.Path(MODEL), *sorted(PARAMETRIC_N2.parent.glob("*.mcft"))]
    return [p.read_text(encoding="utf-8") for p in paths] + [_corpus_text(e) for e in corpus(size=3)]


MUTATION_SEEDS = _mutation_seeds()
# small tokens of each kind: a replacement grows no number and no grid past what the seeds hold
SMALL_TOKENS = {"ident": ["y", "t", "x", "d", "s", "pi", "sin", "fields", "symmetry", "grid", "nx", "p_t"],
                "number": ["0", "2", "0.5"], "op": sorted("=*+-/^()[]{}:;,")}


@st.composite
def mutants(draw):
    """A seed model with one token deleted, duplicated, swapped with another or replaced by one of another kind."""
    toks = tokenize(draw(st.sampled_from(MUTATION_SEEDS)))[:-1]
    texts = [t.text for t in toks]
    i = draw(st.integers(0, len(toks) - 1))
    how = draw(st.sampled_from(["delete", "duplicate", "swap", "replace"]))
    if how == "delete":
        del texts[i]
    elif how == "duplicate":
        texts.insert(i, texts[i])
    elif how == "swap":
        j = draw(st.integers(0, len(toks) - 1))
        texts[i], texts[j] = texts[j], texts[i]
    else:
        texts[i] = draw(st.sampled_from([t for kind, ts in SMALL_TOKENS.items() if kind != toks[i].kind for t in ts]))
    return " ".join(texts)


def _finest_cells(model, scenario) -> int:
    """nx * nt of verify-law's finest mesh of ``scenario``, or 0 where the verbs refuse it before integrating."""
    try:
        bindings = model.param_defaults()
        grid = _mesh(damped_wave(model.system(), bindings), scenario, bindings, 4 * scenario.nx)[0]
    except (NumericError, ExprError):  # EvalError is an ExprError, CflError a NumericError
        return 0
    return grid.nx * grid.nt


def _smallest_scenario(model):
    """The scenario with the fewest cells, and its count."""
    return min(((_finest_cells(model, sc), name) for name, sc in model.scenarios.items()), default=(0, None))


SHIPPED_CELLS = max(_smallest_scenario(parse(text))[0] for text in MUTATION_SEEDS)


@given(mutants())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_token_mutants_parse_or_are_refused(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "mutant.mcft"
    path.write_text(text, encoding="utf-8")
    try:
        model = parse(text)
    except DslError:
        model = None
    verbs = [["derive"]]
    if model is not None:
        shown = render(model)
        again = parse(shown)
        assert again == model and render(again) == shown
        name = next(iter(model.symmetries), "Y")
        verbs += [["derive", "--hamiltonian"], ["sopde"], ["check-symmetry", name], ["current", name]]
        # the numeric verbs only on a grid no larger than one a seed ships with
        cells, scenario = _smallest_scenario(model)
        if scenario is not None and cells <= SHIPPED_CELLS:
            verbs += [["verify-law", name, scenario], ["simulate", scenario]]
    for verb, *rest in verbs:
        code = run_cli(verb, str(path), *rest)[0]
        assert code in (0, 1, 2, 3) and (model is not None or code == 2), (verb, code)
