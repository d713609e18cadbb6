"""Exact linear algebra over the expression field.

Used for solving the contraction equations of semi-holonomic multivector
ansatze, inverting Legendre relations, and Hessian determinant tests.
Systems are affine in the unknown symbols; coefficients are arbitrary
expressions.  Each row is first multiplied by the monomial that clears
the negative exponents of its coefficients, so that they are
polynomials; an equation's constant part rides along as it is.

``solve_affine`` runs a fraction-free (Bareiss) Gauss-Jordan
elimination, ``_eliminate`` (E. H. Bareiss, Math. Comp. 22, 1968).
Columns follow the declared unknown order, so the earliest unknowns
become the dependent ones and later unknowns stay free, which pins the
parametrization of solution families.  A column's pivot row is the
unused one whose entry is rational, else has the fewest terms, else
comes first.  Every other row becomes (p*row - f*pivot_row)/prev, an
exact division by the previous pivot.  Each pivot row ends holding the
last pivot, so ``affine_numerators`` gives every solved unknown as one
numerator over it (for a Legendre inverse, an adjugate row over the
Hessian determinant); a leftover equation is inconsistent when the zero
test reads it nonzero.  ``solve_affine`` calls it once per block of
unknowns, two unknowns sharing a block when an equation holds both, and
divides by that block's own last pivot: a velocity of a block-diagonal
Hessian is over its own block's determinant, and no pivot of one block
multiplies the rows of another.

``det`` is the one expansion by minors, and it divides nothing: it
builds each minor of the first k cleared rows from those of the first
k - 1.  A minor of cleared rows is a polynomial, whose canonical form is
unique, so ``det`` returns the expression that elimination would,
without its exact divisions by each previous pivot.  ``minors`` (a
decomposable multivector's table in ``forms``) is ``det`` on each set of
columns.
"""
from __future__ import annotations

from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from .expr import (
    Expr,
    ExprError,
    FuncAtom,
    Symbol,
    add,
    clear_denominators,
    const,
    div_exact,
    mul,
    is_zero,
    pow_,
    _from_dict,
)

ZERO = const(0)
ONE = const(1)
MINUS_ONE = const(-1)


class NonlinearSystemError(ExprError):
    pass


class InconsistentSystemError(ExprError):
    def __init__(self, residuals):
        self.residuals = residuals
        super().__init__(f"inconsistent linear system; leftover equations: {[str(r) for r in residuals]}")


def _affine_row(e: Expr, column: dict) -> list:
    """The coefficients of ``e`` in the unknowns (``column`` maps each to
    its index), then its constant part.

    Raises NonlinearSystemError if any term is quadratic or higher in the
    unknowns, or if a function or inverted-sum atom holds one.
    """
    atoms = {a for mono, _ in e.terms for a, _k in mono if not isinstance(a, Symbol)}
    if any(not column.keys().isdisjoint((a.arg if isinstance(a, FuncAtom) else a.expr).symbols) for a in atoms):
        raise NonlinearSystemError(f"nonlinear in unknowns: {e}")
    # distinct terms of e leave distinct monomials in each column, so each
    # column's {monomial: coefficient} is filled without adding
    parts = [{} for _ in range(len(column) + 1)]
    for mono, c in e.terms:
        hits = [(a, k) for a, k in mono if a in column]
        if len(hits) > 1 or (hits and hits[0][1] != 1):
            raise NonlinearSystemError(f"nonlinear in unknowns: {e}")
        parts[column[hits[0][0]] if hits else -1][tuple(ak for ak in mono if ak[0] not in column)] = c
    return [_from_dict(p) if p else ZERO for p in parts]


class AffineSolution(NamedTuple):
    solved: dict  # Symbol -> Expr over the free unknowns and other symbols
    free: list  # Symbols left free


def _eliminate(rows: list, ncols: int):
    """Eliminate ``rows`` in place over their first ``ncols`` columns, whose
    entries are polynomials.  Returns the (column, row) pivots in order and the last pivot,
    which every pivot row then holds in its own column."""
    pivots, taken, prev = [], set(), ONE
    for c in range(ncols):
        live = [i for i, row in enumerate(rows) if i not in taken and row[c].terms]
        if not live:
            continue
        r = min(live, key=lambda i: (not rows[i][c].is_rational, len(rows[i][c].terms), i))
        top, p = rows[r], rows[r][c]
        # a monomial prev divides p and f once, a sum every new entry
        by_sum = len(prev.terms) > 1
        inv = ONE if by_sum else pow_(prev, -1)
        a, same = mul(p, inv), p.terms == prev.terms
        for j, row in enumerate(rows):
            if j == r or (same and not row[c].terms):
                continue
            b = mul(MINUS_ONE, row[c], inv)
            new = [add(mul(a, x), mul(b, y)) if x.terms or y.terms else x for x, y in zip(row, top)]
            new[c] = ZERO
            rows[j] = [div_exact(e, prev) for e in new] if by_sum else new
        pivots.append((c, r))
        taken.add(r)
        prev = p
    return pivots, prev


def affine_numerators(equations: Sequence[Expr], unknowns: Sequence[Symbol]):
    """Eliminate ``equations == 0`` by ``_eliminate``: ({solved unknown:
    numerator}, free unknowns, D), each solved unknown its numerator / D."""
    unknowns = list(unknowns)
    column = {u: i for i, u in enumerate(unknowns)}
    rows = [_affine_row(e, column) for e in equations]
    rows = [clear_denominators(row[:-1], row[-1:])[0] for row in rows if any(x.terms for x in row)]
    pivots, last = _eliminate(rows, len(unknowns))
    used = {r for _, r in pivots}
    residuals = [row[-1] for i, row in enumerate(rows) if i not in used and not is_zero(row[-1])]
    if residuals:
        raise InconsistentSystemError(residuals)
    solved_cols = {c for c, _ in pivots}
    free = [(c, u) for c, u in enumerate(unknowns) if c not in solved_cols]
    numerators = {unknowns[c]: mul(MINUS_ONE, add(rows[r][-1], *(mul(rows[r][f], u) for f, u in free))) for c, r in pivots}
    return numerators, [u for _, u in free], last


def solve_affine(equations: Sequence[Expr], unknowns: Sequence[Symbol]) -> AffineSolution:
    """Solve ``equations == 0`` for the unknowns, each block over its own
    pivot; solved and free unknowns keep the declared order."""
    unknowns = list(unknowns)
    root = {u: u for u in unknowns}

    def find(u):
        while root[u] is not u:
            u = root[u]
        return u

    for e in equations:
        held = [find(u) for u in e.symbols if u in root]
        for u in held[1:]:
            root[u] = held[0]
    blocks, solved = {}, {}
    for e in equations:
        blocks.setdefault(next((find(u) for u in e.symbols if u in root), None), []).append(e)
    for r, block in blocks.items():
        numerators, _free, pivot = affine_numerators(block, [u for u in unknowns if find(u) is r])
        solved.update((u, div_exact(n, pivot)) for u, n in numerators.items())
    free = [u for u in unknowns if u not in solved]
    return AffineSolution(solved={u: solved[u] for u in unknowns if u in solved}, free=free)


def det(matrix: Sequence[Sequence[Expr]]) -> Expr:
    """The determinant of the square ``matrix``.  The minors of its first k
    cleared rows over each k-subset of columns, keyed by column bitmask,
    come from those of the first k - 1: entry times minor, signed by the
    chosen columns right of the entry's.  The one minor of all n rows is
    then divided by the monomials that cleared the rows."""
    n = len(matrix)
    if set(map(len, matrix)) - {n}:
        raise ValueError(f"det of a non-square matrix with {n} rows")
    table, inverses = {0: ONE}, []
    for row in matrix:
        cleared, inverse = clear_denominators(row)
        inverses.append(inverse)
        parts: dict = {}
        for cols, minor in table.items():
            for j, x in enumerate(cleared):
                if x.terms and not cols >> j & 1:
                    sign = MINUS_ONE if (cols >> j).bit_count() & 1 else ONE
                    parts.setdefault(cols | 1 << j, []).append(mul(sign, x, minor))
        table = {cols: minor for cols, p in parts.items() if (minor := add(*p)).terms}
    return mul(table[(1 << n) - 1], *inverses) if table else ZERO


def minors(rows: Sequence[Mapping[int, Expr]]) -> dict:
    """Every nonzero maximal minor of ``rows``, each a {column: Expr},
    keyed by its increasing column tuple: ``det`` on those columns."""
    columns = sorted({j for row in rows for j in row})
    out = {}
    for cols in combinations(columns, len(rows)):
        if (minor := det([[row.get(j, ZERO) for j in cols] for row in rows])).terms:
            out[cols] = minor
    return out
