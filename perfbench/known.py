"""Known answers, computed without the program under test.

* Classification labels follow from the generator's coefficients: every
  generated density is y-independent, quadratic in the velocities with a
  nonzero kinetic coefficient per velocity, affine in s and polynomial in
  the base coordinates, so each candidate kind has a closed-form verdict.
  The rules reproduce the labels the program printed at the seed commit.
* The Hamiltonian of a parametric model is rebuilt in numpy from the
  generator's coefficient matrix, v = K^-1 (p - b), H = p.v - L, and
  compared with the program's ``H`` at random points.
* Program text output is read by a small evaluator over Python's ``ast``
  that admits only numbers, names, + - * / ** and unary minus.
"""
from __future__ import annotations

import ast
import math
import random
from fractions import Fraction

import numpy as np

STRONG = "strong-noether"
NOT = "not-noether"

H_RTOL = 1e-9  # relative tolerance of the program's H against the numpy reference
H_POINTS = 4  # random evaluation points per model


def expected_verdict(model, cand: str) -> tuple:
    """(classification, sigma_invariant) for a generated candidate."""
    kind, arg = model.candidates[cand]
    co = model.coeffs
    act = co.get("act", {})
    if kind == "field-shift":
        label = NOT if co.get("mass") else STRONG
    elif kind == "translation":
        label = NOT if co.get("src", {}).get(arg) else STRONG
    elif kind == "action-shift":
        label = NOT if act.get(arg) else STRONG
    elif kind in ("boost", "dilation", "field-scaling"):
        label = NOT
    else:
        raise ValueError(f"no known answer for candidate kind {kind!r}")
    sigma_invariant = not (kind == "dilation" and act.get(arg))
    return label, sigma_invariant


def free_component_count(n: int, m: int) -> int:
    """Free symbols of the solved semi-holonomic family: m factors with
    n*m velocity and m action unknowns each, fixed by n field equations
    and one action equation."""
    return m * (n * m + m) - (n + 1)


def hessian_det(model) -> Fraction:
    """Hessian determinant of a diagonal constant-coefficient model."""
    out = Fraction(1)
    for k in model.coeffs["kin"].values():
        out *= k
    return out


# ---------------------------------------------------------------------------
# Evaluating program text.

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a**b,
}


class TextEvalError(ValueError):
    pass


def eval_text(text: str, env: dict) -> float:
    """Evaluate an expression printed by ``mcft.expr.to_text``."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise TextEvalError(f"cannot parse program output {text[:80]!r}") from exc

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.Name):
            if node.id not in env:
                raise TextEvalError(f"unbound name {node.id!r} in program output")
            return env[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        raise TextEvalError(f"unexpected syntax {type(node).__name__} in program output")

    return ev(tree)


# ---------------------------------------------------------------------------
# Hamiltonian reference for parametric models.


def momentum_name(model, field: str, base: str) -> str:
    return f"p_{base}" if len(model.fields) == 1 else f"p_{field}_{base}"


def reference_h(model, env: dict) -> float:
    """H = p.v - L(v) at v = K^-1 (p - b), from the generator's data."""
    co = model.coeffs
    vel = co["velocities"]
    k = len(vel)
    K = np.zeros((k, k))
    for (i, j), c in co["K"].items():
        val = env[c] if isinstance(c, str) else float(c)
        K[i, j] = K[j, i] = val
    b = np.array([float(c) for c in co["lin"]])
    p = np.array([env[momentum_name(model, f, base)] for f, base in vel])
    v = np.linalg.solve(K, p - b)
    s_term = sum(float(c) * env[f"s_{base}"] for base, c in co["act"].items())
    src = sum(float(c) * env[base] ** 2 for base, c in co["src"].items())
    L = 0.5 * v @ K @ v + b @ v - s_term + src
    return float(p @ v - L)


def check_hamiltonian(model, h_text: str, seed: int) -> str | None:
    """None if the program's H matches the reference at random points,
    else a short reason."""
    rng = random.Random(f"H:{model.name}:{seed}")
    names = ["t", "x", "s_t", "s_x"] + [f for f in model.fields]
    names += [momentum_name(model, f, base) for f, base in model.coeffs["velocities"]]
    for _ in range(H_POINTS):
        env = {n: rng.uniform(-2.0, 2.0) for n in names}
        # diagonal parameters away from 0 and small coupling parameters keep K
        # well conditioned
        for (i, j), c in model.coeffs["K"].items():
            if isinstance(c, str):
                env[c] = rng.uniform(1.5, 3.0) if i == j else rng.uniform(0.1, 0.4)
        want = reference_h(model, env)
        got = eval_text(h_text, env)
        if not math.isclose(got, want, rel_tol=H_RTOL, abs_tol=H_RTOL):
            return f"H differs from reference: {got!r} vs {want!r}"
    return None
