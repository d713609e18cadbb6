"""Exact linear algebra over the expression field.

Used for solving the contraction equations of semi-holonomic multivector
ansatze, inverting Legendre relations, and Hessian determinant tests.
Systems are affine in the unknown symbols; coefficients are arbitrary
expressions.  Elimination follows the declared unknown order, so the
earliest unknowns become the dependent ones and later unknowns stay
free, which pins the parametrization of solution families.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .expr import (
    Expr,
    ExprError,
    Symbol,
    add,
    const,
    div_exact,
    mul,
    free_symbols,
)

ZERO = const(0)


class NonlinearSystemError(ExprError):
    pass


class InconsistentSystemError(ExprError):
    def __init__(self, residuals):
        self.residuals = residuals
        super().__init__(f"inconsistent linear system; leftover equations: {[str(r) for r in residuals]}")


def decompose_affine(e: Expr, unknowns: Sequence[Symbol]):
    """Split ``e`` into (coefficient map unknown -> Expr, constant Expr).

    Raises NonlinearSystemError if any term is quadratic or higher in the
    unknowns.
    """
    uset = {u for u in unknowns}
    coeffs: dict = {u: ZERO for u in unknowns}
    const_terms = []
    for mono, c in e.terms:
        hit = None
        rest = []
        for a, k in mono:
            if isinstance(a, Symbol) and a in uset:
                if hit is not None or k != 1:
                    raise NonlinearSystemError(f"nonlinear in unknowns: {e}")
                hit = a
            else:
                rest.append((a, k))
        piece = Expr(((tuple(rest), c),))
        if free_symbols(piece) & uset:
            # an unknown buried inside a function or inverted-sum atom
            raise NonlinearSystemError(f"nonlinear in unknowns: {e}")
        if hit is None:
            const_terms.append(piece)
        else:
            coeffs[hit] = add(coeffs[hit], piece)
    return coeffs, (add(*const_terms) if const_terms else ZERO)


@dataclass
class AffineSolution:
    solved: dict  # Symbol -> Expr over the free unknowns and other symbols
    free: list  # Symbols left free
    unknowns: list


def _pivot_quality(c: Expr) -> tuple:
    # prefer rational constants, then single-term monomials, then anything
    if c.is_rational:
        return (0, len(c.terms))
    if len(c.terms) == 1:
        return (1, 1)
    return (2, len(c.terms))


def solve_affine(equations: Sequence[Expr], unknowns: Sequence[Symbol]) -> AffineSolution:
    """Gauss-Jordan elimination of ``equations == 0`` over the unknowns."""
    unknowns = list(unknowns)
    rows = []
    for e in equations:
        coeffs, konst = decompose_affine(e, unknowns)
        if any(coeffs[u].terms for u in unknowns) or konst.terms:
            rows.append((coeffs, konst))
    pivots: dict = {}  # unknown -> row index
    used = set()
    for u in unknowns:
        candidates = [i for i, (cf, _) in enumerate(rows) if i not in used and cf[u].terms]
        if not candidates:
            continue
        i = min(candidates, key=lambda i: (_pivot_quality(rows[i][0][u]), i))
        cf, konst = rows[i]
        p = cf[u]
        ncf = {v: (const(1) if v is u else div_exact(c, p)) for v, c in cf.items()}
        nk = div_exact(konst, p)
        rows[i] = (ncf, nk)
        for j, (cf2, k2) in enumerate(rows):
            if j == i or not cf2[u].terms:
                continue
            f = cf2[u]
            cf3 = {v: add(c, mul(const(-1), f, ncf[v])) for v, c in cf2.items()}
            k3 = add(k2, mul(const(-1), f, nk))
            rows[j] = (cf3, k3)
        pivots[u] = i
        used.add(i)
    residuals = []
    for j, (cf, k) in enumerate(rows):
        if j in used:
            continue
        if any(cf[u].terms for u in unknowns):
            # unknown with no usable pivot left in an unreduced row: should
            # not happen after a full sweep
            raise InconsistentSystemError([k])
        if k.terms:
            residuals.append(k)
    if residuals:
        raise InconsistentSystemError(residuals)
    free = [u for u in unknowns if u not in pivots]
    solved = {}
    for u, i in pivots.items():
        cf, k = rows[i]
        expr = mul(const(-1), k)
        for v in free:
            if cf[v].terms:
                expr = add(expr, mul(const(-1), cf[v], v))
        solved[u] = expr
    return AffineSolution(solved=solved, free=free, unknowns=unknowns)


def det(matrix: Sequence[Sequence[Expr]]) -> Expr:
    n = len(matrix)
    if n == 0:
        return const(1)
    if n == 1:
        return matrix[0][0]
    parts = []
    for j in range(n):
        c = matrix[0][j]
        if not c.terms:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        parts.append(mul(const((-1) ** j), c, det(minor)))
    return add(*parts) if parts else ZERO
