"""Benchmark operations and their checks.

An operation is one user-level call: an in-process ``mcft.cli.main`` verb
on one model file, or the library calls the scripts make (build a
system, solve its family, classify-plus-law on one candidate).  Each
``Op`` has a ``call`` (timed) and a ``check`` (not timed) that compares
the output with a known answer from ``known.py`` or a golden captured at
the seed commit.

Library calls go through module attributes (``symmetry.classify``), so
that the tracer's patches see them.
"""
from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import known

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "goldens")
SHIPPED_MODEL = os.path.join(GOLDEN_DIR, "string.mcft")  # copy of models/string.mcft at the seed commit

NORM_RTOL = 1e-5  # string-mesh residual norms against amplitude x seed-commit value
SIMULATE_RTOL = 1e-8  # simulate energy/momentum/action against amplitude^k x seed-commit value

# argv (after --json) of the shipped-model goldens; file names in goldens/shipped/
SHIPPED_VERBS = {
    "derive": ["derive", "{model}"],
    "derive-hamiltonian": ["derive", "--hamiltonian", "{model}"],
    "check-symmetry-Y": ["check-symmetry", "{model}", "Y"],
    "check-symmetry-S": ["check-symmetry", "{model}", "S"],
    "current-Y": ["current", "{model}", "Y"],
    "current-S": ["current", "{model}", "S"],
    "sopde": ["sopde", "{model}"],
}

# Known defects, recorded as failed operations with these reason codes.
KNOWN_DEFECTS = {
    "dirichlet-wall": "verify-law FAILs on smooth Dirichlet data: the right wall sits at lx-dx (ratios 0.70)",
    "roundoff-decay-fit": "verify-law fits a decay to round-off momentum of a standing wave (P[0]~1e-15)",
    "sopde-self-check": "solve_sopde_family rejects its own solution: inverted sums do not cancel structurally",
}


class CheckError(Exception):
    """A check could not run (missing golden, broken reference)."""


class Upstream(Exception):
    """An earlier operation on the same model failed."""


@dataclass
class Outcome:
    ok: bool
    reason: Optional[str] = None
    verdicts: int = 0  # classification and law verdicts produced
    uncertain: int = 0  # of which decided by probing


@dataclass
class Op:
    label: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], Outcome]
    group: str  # ops of one group share a state dict within a pass
    known_defect: Optional[str] = None  # reason code this op is known to fail with


def fail(reason: str) -> Outcome:
    return Outcome(False, reason)


# ---------------------------------------------------------------------------
# CLI plumbing


def run_cli(argv: list) -> tuple:
    from mcft import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def cli_json(result, want_code: int = 0):
    """(outputs dict, None) or (None, failure Outcome)."""
    code, out, err = result
    if code != want_code:
        return None, fail(f"exit-{code}")
    try:
        return json.loads(out)["outputs"], None
    except (ValueError, KeyError):
        return None, fail("bad-json")


def read_golden(name: str) -> str:
    path = os.path.join(GOLDEN_DIR, name)
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CheckError(f"golden {name} unreadable: {exc}") from exc


# ---------------------------------------------------------------------------
# library ops shared by corpus and parametric


def classify_outcome(model, cand: str, rep, law) -> Outcome:
    from mcft.expr import ZeroCheck

    verdicts = 1 + (law is not None)
    uncertain = int(bool(rep.numerically_certified))
    if law is not None and law.certainty is ZeroCheck.PROBABLY_ZERO:
        uncertain += 1
    want = known.expected_verdict(model, cand)
    got = (rep.classification, rep.sigma_invariant)
    if got != want:
        return Outcome(False, "classification", verdicts, uncertain)
    if law is not None and not law.holds:
        return Outcome(False, "law-fails", verdicts, uncertain)
    return Outcome(True, None, verdicts, uncertain)


def classify_call(cand: str, key_system: str, key_family: str, lift_name: str):
    def call(state):
        from mcft import symmetry

        if key_family not in state:
            raise Upstream(cand)
        mf, system, fam = state["model"], state[key_system], state[key_family]
        Y = getattr(symmetry, lift_name)(mf.candidate(cand, system.chart))
        rep = symmetry.classify(Y, system)
        law = None
        if rep.classification != symmetry.NOT_NOETHER:
            law = symmetry.check_dissipative(rep.current, fam, system.sigma)
        return rep, law

    return call


# ---------------------------------------------------------------------------
# corpus


def corpus_ops(models, paths) -> list:
    ops = []
    for m in models:
        if m.kind == "quadratic":
            ops += quadratic_ops(m)
        else:
            ops += klein_gordon_ops(m, paths[m.name])
    for name, argv in SHIPPED_VERBS.items():
        ops.append(shipped_op(name, argv))
    return ops


def quadratic_ops(m) -> list:
    n, dim = len(m.fields), len(m.bases)

    def build(state):
        from mcft import dsl

        state["model"] = dsl.parse(m.text)
        state["system"] = state["model"].system()
        return state["system"]

    def check_build(system, state):
        det = system.hessian_det
        if not det.is_rational or det.as_rational() != known.hessian_det(m):
            return fail("hessian-det")
        return Outcome(True)

    def sopde(state):
        from mcft import lagrangian

        if "system" not in state:
            raise Upstream("build")
        state["family"] = lagrangian.solve_sopde_family(state["system"])
        return state["family"]

    def check_sopde(fam, state):
        ok = len(fam.free) == known.free_component_count(n, dim)
        return Outcome(True) if ok else fail("free-count")

    ops = [
        Op(f"{m.name} build", build, check_build, m.name),
        Op(f"{m.name} sopde", sopde, check_sopde, m.name),
    ]
    for cand in m.candidates:
        ops.append(
            Op(
                f"{m.name} classify {cand}",
                classify_call(cand, "system", "family", "jet_lift"),
                lambda res, state, cand=cand: classify_outcome(m, cand, *res),
                m.name,
            )
        )
    return ops


def klein_gordon_ops(m, path: str) -> list:
    def check_derive(res, state):
        out, bad = cli_json(res)
        if bad:
            return bad
        if out.get("regularity") != "regular":
            return fail("regularity")
        try:
            det = Fraction(out.get("hessian_det", ""))
        except ValueError:
            return fail("bad-json")
        if det != known.hessian_det(m):
            return fail("hessian-det")
        return Outcome(True)

    def check_symmetry(res, state, cand):
        want_label, want_sigma = known.expected_verdict(m, cand)
        out, bad = cli_json(res, 1 if want_label == known.NOT else 0)
        if bad:
            return Outcome(False, bad.reason, 1)
        got = (out.get("classification"), out.get("sigma_invariant"))
        uncertain = int(bool(out.get("numerically_certified")))
        if got != (want_label, want_sigma):
            return Outcome(False, "classification", 1, uncertain)
        return Outcome(True, None, 1, uncertain)

    ops = [Op(f"{m.name} derive", lambda state: run_cli(["--json", "derive", path]), check_derive, m.name)]
    for cand in m.candidates:
        ops.append(
            Op(
                f"{m.name} check-symmetry {cand}",
                lambda state, cand=cand: run_cli(["--json", "check-symmetry", path, cand]),
                lambda res, state, cand=cand: check_symmetry(res, state, cand),
                m.name,
            )
        )
    return ops


def shipped_op(name: str, argv: list) -> Op:
    args = ["--json"] + [a.format(model=SHIPPED_MODEL) for a in argv]

    def check(res, state):
        want = read_golden(os.path.join("shipped", f"{name}.json"))
        code, out, _err = res
        golden = json.loads(want)
        if code != golden["exit"]:
            return fail(f"exit-{code}")
        if out != golden["stdout"]:
            return fail("golden-mismatch")
        return Outcome(True)

    return Op(f"shipped {name}", lambda state: run_cli(args), check, "shipped")


# ---------------------------------------------------------------------------
# parametric


def parametric_ops(models, paths, seed: int) -> list:
    ops = []
    for m in models:
        ops += parametric_model_ops(m, paths[m.name], seed)
    return ops


def parametric_model_ops(m, path: str, seed: int) -> list:
    n, dim = len(m.fields), len(m.bases)

    def check_derive(res, state):
        out, bad = cli_json(res)
        if bad:
            return bad
        try:
            mismatch = known.check_hamiltonian(m, out["H"], seed)
        except (known.TextEvalError, KeyError, ZeroDivisionError, OverflowError):
            return fail("bad-H-text")
        return fail("H-reference") if mismatch else Outcome(True)

    def check_sopde(res, state):
        code, _out, err = res
        if code == 3 and "does not annihilate" in err:
            return fail("sopde-self-check")
        out, bad = cli_json(res)
        if bad:
            return bad
        ok = len(out.get("free", [])) == known.free_component_count(n, dim)
        return Outcome(True) if ok else fail("free-count")

    def family(state):
        from mcft import dsl, hamiltonian

        state["model"] = dsl.parse(m.text)
        lt = hamiltonian.legendre(state["model"].system())
        state["hsystem"] = lt.hamiltonian_system
        state["hfamily"] = hamiltonian.hdw_multivector(state["hsystem"])
        return state["hfamily"]

    def check_family(fam, state):
        ok = len(fam.free) == known.free_component_count(n, dim)
        return Outcome(True) if ok else fail("free-count")

    ops = [
        Op(
            f"{m.name} derive-hamiltonian",
            lambda state: run_cli(["--json", "derive", "--hamiltonian", path]),
            check_derive,
            m.name,
        ),
        Op(
            f"{m.name} sopde",
            lambda state: run_cli(["--json", "sopde", path]),
            check_sopde,
            m.name,
            known_defect="sopde-self-check",
        ),
        Op(f"{m.name} hdw-family", family, check_family, m.name),
    ]
    for cand in m.candidates:
        ops.append(
            Op(
                f"{m.name} ham-classify {cand}",
                classify_call(cand, "hsystem", "hfamily", "hamiltonian_lift"),
                lambda res, state, cand=cand: classify_outcome(m, cand, *res),
                m.name,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# string-mesh


def string_mesh_ops(models, paths) -> list:
    (m,) = models
    path = paths[m.name]
    amp = float(m.coeffs["amplitude"])
    golden = json.loads(read_golden("string_mesh.json"))
    ops = []
    for scenario, defect in (("main", None), ("standing2", "roundoff-decay-fit"), ("dirichlet", "dirichlet-wall")):
        ops.append(
            Op(
                f"verify-law {scenario}",
                lambda state, sc=scenario: run_cli(["--json", "verify-law", path, "Y", sc]),
                lambda res, state, sc=scenario, d=defect: check_verify(res, golden["verify-law"].get(sc), amp, d),
                "string",
                known_defect=defect,
            )
        )
    for scenario in ("main", "standing"):
        ops.append(
            Op(
                f"simulate {scenario}",
                lambda state, sc=scenario: run_cli(["--json", "simulate", path, sc]),
                lambda res, state, sc=scenario: check_simulate(res, golden["simulate"][sc], amp),
                "string",
            )
        )
    return ops


def check_verify(res, golden_norms, amp: float, defect: Optional[str]) -> Outcome:
    """Known answer: PASS.  Scenarios that pass at the seed commit also
    keep their residual norms (scaled by the amplitude)."""
    code, out, _err = res
    try:
        outputs = json.loads(out)["outputs"] if out else None
    except (ValueError, KeyError):
        return fail("bad-json")
    if code == 1 and outputs is not None and outputs.get("passed") is False:
        return fail(defect or "verify-law-fail")
    if code != 0 or outputs is None or outputs.get("passed") is not True:
        return fail(f"exit-{code}")
    if golden_norms is not None:
        got = [n["l2"] for n in outputs["norms"]]
        want = [amp * g for g in golden_norms]
        if len(got) != len(want) or not all(math.isclose(a, b, rel_tol=NORM_RTOL) for a, b in zip(got, want)):
            return fail("norms")
    return Outcome(True)


def check_simulate(res, golden: dict, amp: float) -> Outcome:
    out, bad = cli_json(res)
    if bad:
        return bad
    pairs = [
        (out["energy"]["initial"], amp**2 * golden["energy_initial"]),
        (out["energy"]["final"], amp**2 * golden["energy_final"]),
        (out["action_final_mean"], amp**2 * golden["action_final_mean"]),
    ]
    if golden.get("momentum_initial") is not None:
        pairs += [
            (out["momentum"]["initial"], amp * golden["momentum_initial"]),
            (out["momentum"]["final"], amp * golden["momentum_final"]),
        ]
    ok = all(math.isclose(a, b, rel_tol=SIMULATE_RTOL) for a, b in pairs)
    return Outcome(True) if ok else fail("simulate-values")


def build_ops(workload: str, models, paths, seed: int) -> list:
    if workload == "corpus":
        return corpus_ops(models, paths)
    if workload == "parametric":
        return parametric_ops(models, paths, seed)
    return string_mesh_ops(models, paths)
