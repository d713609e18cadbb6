"""Command-line front end.

One verb per pipeline stage:

    mcft derive [--hamiltonian] MODEL     structures + field equations
    mcft check-symmetry MODEL NAME        Noether classification
    mcft current MODEL NAME               dissipated current xi_Y
    mcft sopde MODEL                      solved multivector family
    mcft verify-law MODEL NAME SCENARIO   discrete dissipation-law check
    mcft simulate MODEL SCENARIO          integrate and dump/summarize

Exit codes: 0 success, 1 failed check / not-noether, 2 usage, parse,
numeric or I/O errors (stdout closed early too), 3 singular Lagrangian
(with --hamiltonian, or for sopde), failed sopde self-check or CFL
violation, 4 internal error (an unexpected exception; its traceback
follows the error line on stderr).
JSON reports (--json) are deterministic for a fixed --seed: no wall-clock
content; timing goes to stderr in human mode only.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time

from .charts import ChartError
from .dsl import DslError, ModelFile, parse
from .expr import EvalError, ExprError, to_text
from .forms import form_to_json, form_to_text, vector_to_text
from .hamiltonian import LegendreError, hdw_residuals, legendre
from .lagrangian import (
    LagrangianError,
    herglotz_el_residuals,
    solve_sopde_family,
)
from .symmetry import NOT_NOETHER, SymmetryError, classify, jet_lift

# numpy and mcft.numeric are imported by verify-law and simulate only, so
# that the symbolic verbs start without them


class CliFailure(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_model(path: str) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliFailure(f"cannot read {path}: {exc}", 2) from exc
    try:
        return parse(text)
    except DslError as exc:
        raise CliFailure(f"{path}: {exc}", 2) from exc


def _emit(report: dict, args, human_lines) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(", ", ": ")))
    else:
        for line in human_lines:
            print(line)


def _report(command: str, model: ModelFile, args, outputs: dict) -> dict:
    return {
        "command": command,
        "model_hash": model.model_hash(),
        "seed": args.seed,
        "outputs": outputs,
    }


def _classified(model: ModelFile, sys_, args):
    """The classification of candidate ``args.name``; exits 2 for a candidate
    that is not projectable or a zero test that cannot evaluate the model."""
    if args.name not in model.symmetries:
        raise CliFailure(f"unknown symmetry candidate {args.name!r}", 2)
    try:
        Y = jet_lift(model.candidate(args.name, sys_.chart), paper_sign=args.paper_sign)
    except SymmetryError as exc:
        raise CliFailure(f"symmetry candidate {args.name!r}: {exc}", 2) from exc
    try:
        return classify(Y, sys_, seed=args.seed or 0, tol=args.tol)
    except ExprError as exc:
        raise CliFailure(f"zero test: {exc}", 2) from exc


def cmd_derive(args) -> int:
    model = _load_model(args.model)
    sys_ = model.system()
    res = herglotz_el_residuals(sys_)
    outputs = {
        "Theta_L": form_to_json(sys_.theta),
        "Theta_L_text": form_to_text(sys_.theta),
        "sigma_L": form_to_text(sys_.sigma),
        "E_L": to_text(sys_.energy),
        "omega": form_to_text(sys_.omega),
        "regularity": sys_.regularity.value,
        "hessian_det": to_text(sys_.hessian_det),
        "el_residuals": [to_text(r) for r in res.fields],
        "action_residual": to_text(res.action),
    }
    lines = [
        f"Theta_L = {outputs['Theta_L_text']}",
        f"sigma_L = {outputs['sigma_L']}",
        f"E_L = {outputs['E_L']}",
        f"omega = {outputs['omega']}",
        f"regularity: {outputs['regularity']} (Hessian det = {outputs['hessian_det']})",
    ]
    for fname, r in zip(model.fields, outputs["el_residuals"]):
        lines.append(f"EL[{fname}]: {r} = 0")
    lines.append(f"action: {outputs['action_residual']} = 0")
    if args.hamiltonian:
        try:
            lt = legendre(sys_)
        except LegendreError as exc:
            raise CliFailure(str(exc), 3) from exc
        except ChartError as exc:  # a base or field named like a momentum or its slope, such as a base p_t
            raise CliFailure(f"Hamiltonian chart: {exc}", 2) from exc
        hs = lt.hamiltonian_system
        hres = hdw_residuals(hs)
        momenta = sorted(c.name for c in hs.chart.coords if c.role == "momentum")
        outputs.update(
            {
                "legendre": {k: to_text(lt.forward[k]) for k in momenta},
                "H": to_text(hs.hamiltonian),
                "Theta_H": form_to_json(hs.theta),
                "Theta_H_text": form_to_text(hs.theta),
                "sigma_H": form_to_text(hs.sigma),
                "hdw_residuals": {
                    "fields": [to_text(r) for r in hres.fields],
                    "momenta": [to_text(r) for r in hres.momenta],
                    "action": to_text(hres.action),
                },
            }
        )
        lines.append("legendre: " + ", ".join(f"{k} = {v}" for k, v in outputs["legendre"].items()))
        lines.append(f"H = {outputs['H']}")
        lines.append(f"Theta_H = {outputs['Theta_H_text']}")
        lines.append(f"sigma_H = {outputs['sigma_H']}")
        for r in outputs["hdw_residuals"]["fields"]:
            lines.append(f"HDW field: {r} = 0")
        for r in outputs["hdw_residuals"]["momenta"]:
            lines.append(f"HDW momentum: {r} = 0")
        lines.append(f"HDW action: {outputs['hdw_residuals']['action']} = 0")
    _emit(_report("derive", model, args, outputs), args, lines)
    return 0


def cmd_check_symmetry(args) -> int:
    model = _load_model(args.model)
    sys_ = model.system()
    rep = _classified(model, sys_, args)
    outputs = rep.to_json()
    lines = [
        f"candidate {args.name}: {outputs['candidate']}",
        f"classification: {rep.classification}",
        f"sigma-invariant: {rep.sigma_invariant}",
        f"current xi_Y = {form_to_text(rep.current)}",
    ]
    if rep.witnesses:
        for idx, c in rep.witnesses:
            lines.append(f"witness: L_Y Theta[{'^'.join(idx)}] = {to_text(c)}")
    if rep.numerically_certified:
        lines.append("note: zero decided by numeric probing, not canonical form")
    _emit(_report("check-symmetry", model, args, outputs), args, lines)
    return 0 if rep.classification != NOT_NOETHER else 1


def cmd_current(args) -> int:
    model = _load_model(args.model)
    sys_ = model.system()
    rep = _classified(model, sys_, args)
    xi = rep.current
    outputs = {"current": form_to_json(xi), "current_text": form_to_text(xi), "classification": rep.classification}
    lines = [f"xi_{args.name} = {outputs['current_text']}"]
    if rep.classification == NOT_NOETHER:
        lines.append(f"warning: {args.name} is not a Noether symmetry; the current obeys no dissipation law")
    _emit(_report("current", model, args, outputs), args, lines)
    return 0


def cmd_sopde(args) -> int:
    model = _load_model(args.model)
    sys_ = model.system()
    try:
        fam = solve_sopde_family(sys_)
    except LagrangianError as exc:
        raise CliFailure(str(exc), 3) from exc
    outputs = {
        "factors": [vector_to_text(f, sys_.chart) for f in fam.factors],
        "free": [s.name for s in fam.free],
        "solved": {s.name: to_text(e) for s, e in sorted(fam.solved.items(), key=lambda kv: kv[0].name)},
    }
    lines = [f"X_{i+1} = {t}" for i, t in enumerate(outputs["factors"])]
    lines.append("free component functions: " + ", ".join(outputs["free"]))
    for k, v in outputs["solved"].items():
        lines.append(f"solved: {k} = {v}")
    _emit(_report("sopde", model, args, outputs), args, lines)
    return 0


def _scenario(model: ModelFile, name: str):
    if name not in model.scenarios:
        raise CliFailure(f"unknown scenario {name!r}", 2)
    return model.scenarios[name]


@contextlib.contextmanager
def _numeric_failures():
    """Exit 3 for a CFL violation, 2 for any other numeric error, such as
    a parameter default past the largest float."""
    from .numeric import CflError, NumericError

    try:
        yield
    except CflError as exc:
        raise CliFailure(str(exc), 3) from exc
    except (NumericError, EvalError) as exc:
        raise CliFailure(str(exc), 2) from exc


def cmd_verify_law(args) -> int:
    from .numeric import CONSERVATION_TOL, GAMMA_FIT_TOL, RATIO_BAND, check_law, damped_wave, scenario_mesh

    model = _load_model(args.model)
    sys_ = model.system()
    scenario = _scenario(model, args.scenario)
    rep = _classified(model, sys_, args)
    with _numeric_failures():
        bindings = model.param_defaults()
        wave = damped_wave(sys_, bindings)
        meshes = [scenario_mesh(wave, scenario, bindings, k * scenario.nx) for k in (1, 2, 4)]
        law = check_law(rep.current, wave, bindings, meshes)
    outputs = {
        "classification": rep.classification,
        "current": form_to_text(rep.current),
        "gamma": wave.gamma,
        **law._asdict(),
        "thresholds": {
            "ratio_band": list(RATIO_BAND),
            "gamma_fit_tol": GAMMA_FIT_TOL,
            "conservation_tol": CONSERVATION_TOL,
        },
        "passed": law.passed and rep.classification != NOT_NOETHER,
    }
    fit = law.decay_fit
    lines = [
        f"current xi = {outputs['current']}",
        f"residual L2 norms: " + ", ".join(f"nx={n['nx']}: {n['l2']:.3e}" for n in law.norms),
        f"convergence ratios: {['%.2f' % r if r is not None else 'n/a' for r in law.convergence_ratios]}",
        f"decay fit: {'%.6f' % fit if fit is not None else 'none, ' + law.decay_fit_reason} (gamma = {wave.gamma})",
    ]
    if law.conservation_drift is not None:
        lines.append(f"conservation drift: {law.conservation_drift:.3e}")
    lines.append("PASS" if outputs["passed"] else "FAIL")
    _emit(_report("verify-law", model, args, outputs), args, lines)
    return 0 if outputs["passed"] else 1


@contextlib.contextmanager
def _csv_file(path):
    """The open --csv file, or None; a run that fails midway removes it."""
    if path is None:
        yield None
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CliFailure(f"cannot write {path}: {exc}", 2) from exc
    try:
        with fh:
            fh.write("t,x,value\n")
            yield fh
    except BaseException:
        os.remove(path)
        raise


def _write_csv_rows(fh, traj) -> None:
    # plain float reprs (numpy 2 scalars repr as np.float64(...)); one block per time level
    xs = [repr(xv) for xv in traj.x.tolist()]
    for tv, row in zip(traj.t[traj.core].tolist(), traj.y[traj.core]):
        t = repr(tv)
        fh.write("".join(f"{t},{xv},{yv!r}\n" for xv, yv in zip(xs, row.tolist())))


def cmd_simulate(args) -> int:
    import numpy as np

    from .numeric import damped_wave, energy_series, momentum_series, scenario_mesh, stream_damped_wave

    model = _load_model(args.model)
    sys_ = model.system()
    scenario = _scenario(model, args.scenario)
    with _numeric_failures():
        bindings = model.param_defaults()
        wave = damped_wave(sys_, bindings)
        grid, y0, v0 = scenario_mesh(wave, scenario, bindings, scenario.nx)
        windows = stream_damped_wave(wave.params, y0, v0, grid, wave.action)
        P, E = np.empty(grid.nt + 1), np.empty(grid.nt + 1)
        with _csv_file(args.csv) as fh:
            for w in windows:
                P[w.levels] = momentum_series(w)
                E[w.levels] = energy_series(w)
                if fh is not None:
                    _write_csv_rows(fh, w)
    outputs = {
        "grid": {"nx": grid.nx, "dt": grid.dt, "nt": grid.nt, "bc": grid.bc},
        "momentum": {"initial": float(P[0]), "final": float(P[-1])},
        "energy": {"initial": float(E[0]), "final": float(E[-1])},
        "action_final_mean": float(np.mean(w.s_t[-1])),
        "csv": args.csv,
    }
    lines = [
        f"grid: nx={grid.nx} dt={grid.dt:.6g} nt={grid.nt} bc={grid.bc}",
        f"momentum: {P[0]:.6e} -> {P[-1]:.6e}",
        f"energy:   {E[0]:.6e} -> {E[-1]:.6e}",
        f"mean s_t(T): {outputs['action_final_mean']:.6e}",
    ]
    if args.csv:
        lines.append(f"trajectory written to {args.csv}")
    _emit(_report("simulate", model, args, outputs), args, lines)
    return 0


def positive_finite(text: str) -> float:
    """A ``--tol`` value: a float that is positive and finite."""
    tol = float(text)
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, not {text!r}")
    return tol


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; each ``parse_args`` call
    fills a new namespace, so no call's options carry over. Do not modify it."""
    p = argparse.ArgumentParser(prog="mcft", description="multicontact field-theory workbench")
    p.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    p.add_argument("--paper-sign", action="store_true", help="use the published sign for prolonged velocity components")
    p.add_argument("--seed", type=int, default=None, help="seed for zero-test probing")
    p.add_argument("--tol", type=positive_finite, default=1e-9, help="positive, finite probing tolerance for zero tests")
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("derive", help="derive the multicontact structures and field equations")
    d.add_argument("model")
    d.add_argument("--hamiltonian", action="store_true")
    d.set_defaults(fn=cmd_derive)

    c = sub.add_parser("check-symmetry", help="classify a symmetry candidate")
    c.add_argument("model")
    c.add_argument("name")
    c.set_defaults(fn=cmd_check_symmetry)

    cu = sub.add_parser("current", help="dissipated current of a candidate")
    cu.add_argument("model")
    cu.add_argument("name")
    cu.set_defaults(fn=cmd_current)

    s = sub.add_parser("sopde", help="solve the multivector-field family")
    s.add_argument("model")
    s.set_defaults(fn=cmd_sopde)

    v = sub.add_parser("verify-law", help="verify the dissipation law along a numeric solution")
    v.add_argument("model")
    v.add_argument("name")
    v.add_argument("scenario")
    v.set_defaults(fn=cmd_verify_law)

    si = sub.add_parser("simulate", help="integrate a scenario and summarize")
    si.add_argument("model")
    si.add_argument("scenario")
    si.add_argument("--csv", default=None, help="write the trajectory as CSV (t, x, value)")
    si.set_defaults(fn=cmd_simulate)
    return p


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # exact output is the point: a model's integers, and those the
        # computation builds from them, print whatever their length
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # stdout closed early (`| head`): exit 2; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except Exception:
        import traceback

        print("error: internal error", file=sys.stderr)
        traceback.print_exc()
        return 4
    if not args.json:
        print(f"[{1000.0 * (time.perf_counter() - t0):.0f} ms]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
