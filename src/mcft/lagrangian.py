"""Multicontact Lagrangian structure and its field equations.

From a Lagrangian function L on a jet chart (x^mu, y^a, y^a_mu, s^mu)
this module constructs

    Theta_L = -dL/dy^a_mu dy^a ^ d^{m-1}x_mu + E_L d^m x + ds^mu ^ d^{m-1}x_mu
    E_L     = dL/dy^a_mu y^a_mu - L
    sigma_L = -dL/ds^mu dx^mu
    omega   = d^m x

derives the Herglotz-Euler-Lagrange residuals for holonomic sections,
and solves the contraction equations

    i_X Theta_L = 0,   i_X bar_d Theta_L = 0,   i_X omega = 1

for semi-holonomic multivector fields exactly, returning the solved
family with its free component functions.  The solution is checked in
the contraction coefficients already formed for the ansatz: contraction
is a polynomial in the components, affine in the ansatz unknowns, so
substituting the solution there tests the same identities as contracting
the solved family again.  A system derives d Theta and bar_d Theta
once, on first use, for ``solve_sopde_family`` and
``verify_sigma_property``; ``symmetry.classify`` takes Lie derivatives of
Theta, omega and sigma directly.

The Theta construction (``multicontact_theta``), the solution family
and its ansatz are shared with the Hamiltonian picture, which passes
the p-coordinates and H where this module passes dL/dy^a_mu and E_L.
"""
from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import NamedTuple
from .algebra import InconsistentSystemError, det, solve_affine
from .charts import Chart
from .expr import (
    Expr,
    Symbol,
    add,
    const,
    diff,
    diff_held,
    free_symbols,
    mul,
    substitute,
    to_text,
    var,
)
from .forms import (
    CheckResult,
    Form,
    Multivector,
    contract,
    ext_d,
    form_zero_check,
    one_form,
    volume_form,
    wedge,
    _merge_sign,
)


class LagrangianError(Exception):
    pass


class Regularity(Enum):
    REGULAR = "regular"
    REGULAR_GENERICALLY = "regular-generically"
    SINGULAR = "singular"


def check_symbols(chart: Chart, e: Expr, what: str):
    allowed = {s.key for s in chart.symbols}
    for s in free_symbols(e):
        if s.key not in allowed and s.role != "param":
            raise LagrangianError(f"{what} references unknown symbol {s.name!r}")


def multicontact_theta(chart: Chart, momenta: dict, energy: Expr) -> Form:
    """Theta = -p^mu_a dy^a ^ d^{m-1}x_mu + E d^m x + ds^mu ^ d^{m-1}x_mu
    for momenta p^mu_a keyed by (field, base) and the energy E, written
    as one table: d^{m-1}x_mu = i_{d/dx^mu} d^m x is (-1)^mu times the
    base axes without x^mu, and a wedge with it adds its merge sign."""
    base = chart.base_axes
    table = {tuple(base): energy}
    rests = [(const((-1) ** mu), tuple(base[:mu] + base[mu + 1 :])) for mu in range(chart.base_dim)]
    for a, fa in enumerate(chart.field_axes):
        for mu, (sign, rest) in enumerate(rests):
            merge, idx = _merge_sign((fa,), rest)
            table[idx] = mul(sign, merge, const(-1), momenta[(a, mu)])
    for mu, (sign, rest) in enumerate(rests):
        merge, idx = _merge_sign((chart.action_axis(mu),), rest)
        table[idx] = mul(sign, merge)
    return Form(chart, chart.base_dim, table)


class MulticontactSystem:
    """(Theta, sigma, omega) on a jet or Hamiltonian chart, with
    sigma = sign * d density/ds^mu dx^mu."""

    def __init__(self, chart: Chart, momenta: dict, energy: Expr, density: Expr, sign: int):
        self.chart = chart
        self.m = chart.base_dim
        self.n = len(chart.field_axes)
        self.omega = volume_form(chart)
        self.theta = multicontact_theta(chart, momenta, energy)
        sigma = Form.zero(chart, 1)
        for mu in range(self.m):
            d_ds = diff_held(density, chart.symbols[chart.action_axis(mu)])
            sigma = sigma + one_form(chart, chart.coords[chart.base_axes[mu]].name).scale(mul(const(sign), d_ds))
        self.sigma = sigma

    @cached_property
    def d_theta(self) -> Form:
        return ext_d(self.theta)

    @cached_property
    def _bar_d_theta(self) -> Form:
        return self.d_theta + wedge(self.sigma, self.theta)

    def bar_d_theta(self) -> Form:
        return self._bar_d_theta


class LagrangianSystem(MulticontactSystem):
    """Jet chart + Lagrangian with all derived multicontact data cached."""

    def __init__(self, chart: Chart, L):
        from .expr import _coerce

        L = _coerce(L)
        if not chart.field_axes:
            raise LagrangianError("chart has no field coordinates")
        check_symbols(chart, L, "Lagrangian")
        self.lagrangian = L
        m = chart.base_dim
        n = len(chart.field_axes)
        self.momenta = {
            (a, mu): diff(L, chart.symbols[chart.velocity_axis(a, mu)])
            for a in range(n)
            for mu in range(m)
        }
        self.energy = add(
            *[
                mul(self.momenta[(a, mu)], chart.coord(chart.coords[chart.velocity_axis(a, mu)].name))
                for a in range(n)
                for mu in range(m)
            ],
            mul(const(-1), L),
        )
        super().__init__(chart, self.momenta, self.energy, L, -1)
        self.hessian = [
            [diff_held(self.momenta[(a, mu)], chart.symbols[chart.velocity_axis(b, nu)]) for b in range(n) for nu in range(m)]
            for a in range(n)
            for mu in range(m)
        ]
        self.hessian_det = det(self.hessian)
        if not self.hessian_det.terms:
            self.regularity = Regularity.SINGULAR
        elif self.hessian_det.is_rational:
            self.regularity = Regularity.REGULAR
        else:
            self.regularity = Regularity.REGULAR_GENERICALLY

    @property
    def is_regular(self) -> bool:
        return self.regularity is not Regularity.SINGULAR

    def __repr__(self):
        return f"LagrangianSystem(L={self.lagrangian})"


def build_lagrangian_system(chart: Chart, L) -> LagrangianSystem:
    return LagrangianSystem(chart, L)


# ---------------------------------------------------------------------------
# Herglotz-Euler-Lagrange residuals over total-derivative placeholders.


def second_derivative_symbol(chart: Chart, field: int, mu: int, nu: int) -> Expr:
    """Placeholder for d^2 y^a / dx^mu dx^nu (symmetric, e.g. y_tx)."""
    lo, hi = sorted((mu, nu))
    fname = chart.coords[chart.field_axes[field]].name
    b = [chart.coords[i].name for i in chart.base_axes]
    return var(f"{fname}_{b[lo]}{b[hi]}", "aux")


def slope_symbol(chart: Chart, axis: int, mu: int) -> Expr:
    """Placeholder for d z / dx^mu along a section, z the coordinate on
    ``axis`` (e.g. s_t_t, p_t_t, y_t)."""
    zname = chart.coords[axis].name
    bname = chart.coords[chart.base_axes[mu]].name
    return var(f"{zname}_{bname}", "aux")


def total_derivative(e: Expr, chart: Chart, mu: int) -> Expr:
    """Total derivative D_mu along holonomic sections, with second-order
    jet and action derivatives as placeholder symbols."""
    parts = [diff_held(e, chart.symbols[chart.base_axes[mu]])]
    for a in range(len(chart.field_axes)):
        fa = chart.field_axes[a]
        d = diff_held(e, chart.symbols[fa])
        if d.terms:
            parts.append(mul(chart.coord(chart.coords[chart.velocity_axis(a, mu)].name), d))
        for nu in range(chart.base_dim):
            dv = diff_held(e, chart.symbols[chart.velocity_axis(a, nu)])
            if dv.terms:
                parts.append(mul(second_derivative_symbol(chart, a, mu, nu), dv))
    for nu in range(chart.base_dim):
        ds = diff_held(e, chart.symbols[chart.action_axis(nu)])
        if ds.terms:
            parts.append(mul(slope_symbol(chart, chart.action_axis(nu), mu), ds))
    return add(*parts)


class EulerLagrangeResiduals(NamedTuple):
    """One residual per field (Herglotz-EL) plus the action residual
    sum_mu d s^mu/dx^mu - L."""

    fields: list
    action: Expr


def herglotz_el_residuals(sys: LagrangianSystem) -> EulerLagrangeResiduals:
    chart = sys.chart
    out = []
    for a in range(sys.n):
        lhs = add(*[total_derivative(sys.momenta[(a, mu)], chart, mu) for mu in range(sys.m)])
        dLdy = diff(sys.lagrangian, chart.symbols[chart.field_axes[a]])
        coupling = add(
            *[
                mul(diff(sys.lagrangian, chart.symbols[chart.action_axis(mu)]), sys.momenta[(a, mu)])
                for mu in range(sys.m)
            ]
        )
        out.append(add(lhs, mul(const(-1), dLdy), mul(const(-1), coupling)))
    action = add(
        *[slope_symbol(chart, chart.action_axis(mu), mu) for mu in range(sys.m)],
        mul(const(-1), sys.lagrangian),
    )
    return EulerLagrangeResiduals(fields=out, action=action)


# ---------------------------------------------------------------------------
# Semi-holonomic multivector solution families.


class SolutionFamily(NamedTuple):
    """Solved semi-holonomic family: factor components with the linear
    constraints already substituted; leftover component functions appear
    as free symbols."""

    system: object
    factors: list  # list of dicts axis -> Expr
    free: list  # free component Symbols
    solved: dict  # Symbol -> Expr

    @classmethod
    def solve(cls, system, factors: list, unknowns: list, equations: list) -> "SolutionFamily":
        """Solve the affine ``equations`` for the ansatz unknowns and
        substitute the solution into the factors."""
        sol = solve_affine(equations, unknowns)
        solved_factors = [{i: substitute(c, sol.solved) for i, c in f.items()} for f in factors]
        return cls(system=system, factors=solved_factors, free=sol.free, solved=sol.solved)

    def multivector(self) -> Multivector:
        return Multivector(self.system.chart, len(self.factors), factors=self.factors)

    def instantiate(self, values: dict) -> Multivector:
        """Substitute values for (some of) the free symbols."""
        subs = {s: values.get(s.name, var(s.name, "aux")) for s in self.free}
        factors = [{i: substitute(c, subs) for i, c in f.items()} for f in self.factors]
        return Multivector(self.system.chart, len(self.factors), factors=factors)


def semi_holonomic_ansatz(sys: MulticontactSystem, field_component, conjugate_axis):
    """Factors X_mu = d/dx^mu + field_component(a, mu) d/dy^a + unknowns
    along the conjugate axes conjugate_axis(a, nu) (velocities or momenta)
    and the action axes.

    Unknowns are named per the factor letter and 1-based axis position:
    factor 1 components A1..AN, factor 2 components B1..BN, so that the
    degrees of freedom match the worked conventions (A4, B5, ...).
    """
    chart = sys.chart
    factors = []
    unknowns = []
    for mu in range(sys.m):
        letter = chr(ord("A") + mu)
        comp = {chart.base_axes[mu]: const(1)}
        for a in range(sys.n):
            comp[chart.field_axes[a]] = field_component(a, mu)
        axes = [conjugate_axis(a, nu) for a in range(sys.n) for nu in range(sys.m)]
        axes += [chart.action_axis(nu) for nu in range(sys.m)]
        for ax in axes:
            u = Symbol(f"{letter}{ax + 1}", "aux")
            unknowns.append(u)
            comp[ax] = var(u.name, "aux")
        factors.append(comp)
    return factors, unknowns


def solve_sopde_family(sys: LagrangianSystem) -> SolutionFamily:
    """Solve i_X Theta_L = 0 and i_X bar_d Theta_L = 0 over the
    semi-holonomic ansatz, then substitute the solution into the
    coefficients of both contractions of the ansatz; a coefficient that is
    not structurally zero afterwards fails the check."""
    if not sys.is_regular:
        raise LagrangianError("singular Lagrangian: the ansatz equations need not be solvable")
    chart = sys.chart
    factors, unknowns = semi_holonomic_ansatz(
        sys,
        lambda a, mu: chart.coord(chart.coords[chart.velocity_axis(a, mu)].name),
        chart.velocity_axis,
    )
    X = Multivector(chart, sys.m, factors=factors)
    eqs = []
    c0 = contract(X, sys.theta)
    eqs.extend(c for _, c in c0.items())
    c1 = contract(X, sys.bar_d_theta())
    eqs.extend(c for _, c in c1.items())
    try:
        fam = SolutionFamily.solve(sys, factors, unknowns, eqs)
    except InconsistentSystemError as exc:
        raise LagrangianError(f"contraction equations are inconsistent: {exc}") from exc
    for label, formed in (("i_X Theta_L", c0), ("i_X bar_d Theta_L", c1)):
        f = Form(chart, formed.degree, {i: substitute(c, fam.solved) for i, c in formed.table.items()})
        if f.table:
            raise LagrangianError(f"solved family does not annihilate {label}: {_residual_summary(f)}")
    return fam


def _residual_summary(f: Form) -> str:
    """Each nonzero component's index, term count and first 200 characters;
    the full residuals of inverted-sum families run to hundreds of kilobytes."""
    parts = []
    for idx, c in f.items():
        text = to_text(c)
        if len(text) > 200:
            text = text[:200] + "..."
        index = "^".join(f"d{f.chart.coords[i].name}" for i in idx) or "1"
        parts.append(f"{index}: {len(c.terms)} terms: {text}")
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# Dissipation-form defining property.


def verify_sigma_property(sys, R: Multivector, seed: int = 0, tol: float = 1e-9) -> CheckResult:
    """Check the defining property of the dissipation form,
    sigma ^ i_R Theta = i_R d Theta, for a candidate Reeb field R."""
    lhs = wedge(sys.sigma, contract(R, sys.theta))
    rhs = contract(R, sys.d_theta)
    return form_zero_check(lhs - rhs, seed=seed, tol=tol)
