"""Legendre transform and the multicontact Hamiltonian structure.

For a regular Lagrangian the fiber derivative p^mu_a = dL/dy^a_mu is
inverted exactly.  The relations are affine in the velocities, p = K v + b
with K the Hessian, so ``solve_affine`` returns each velocity as its
numerator divided exactly by the pivot of its Hessian block, +-det of
that block (+-det(K) when K does not split).  L is quadratic in v, so H
is a polynomial plus one numerator over each block's determinant:

    H       = (p - b).v/2 - L|_{v=0}
    Theta_H = -p^mu_a dy^a ^ d^{m-1}x_mu + H d^m x + ds^mu ^ d^{m-1}x_mu
    sigma_H = dH/ds^mu dx^mu

The Herglotz-Hamilton-de Donder-Weyl data comes in two shapes: residuals
for sections (over derivative placeholder symbols) and the decomposable
multivector family with the trace constraints imposed.  Both read the
partial derivatives of H from the system, which takes each one once.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple
from .algebra import ZERO, InconsistentSystemError, NonlinearSystemError, solve_affine
from .charts import Chart, ham_chart
from .expr import (
    Expr,
    add,
    const,
    diff,
    mul,
    substitute,
)
from .lagrangian import (
    LagrangianSystem,
    MulticontactSystem,
    SolutionFamily,
    check_symbols,
    semi_holonomic_ansatz,
)


class LegendreError(Exception):
    def __init__(self, message, unsolved=None):
        super().__init__(message)
        self.unsolved = unsolved or []


class HamiltonianSystem(MulticontactSystem):
    """Hamiltonian chart + H with the multicontact data and the partial
    derivatives of H cached."""

    def __init__(self, chart: Chart, H):
        from .expr import _coerce

        H = _coerce(H)
        check_symbols(chart, H, "Hamiltonian")
        self.hamiltonian = H
        momenta = {
            (a, mu): chart.exprs[chart.momentum_axis(a, mu)]
            for a in range(len(chart.field_axes))
            for mu in range(chart.base_dim)
        }
        super().__init__(chart, momenta, H, H, 1)
        self._dH: dict = {}

    def dH(self, axis: int) -> Expr:
        """dH/dz for the coordinate z on ``axis``, differentiated on first use."""
        if axis not in self._dH:
            self._dH[axis] = diff(self.hamiltonian, self.chart.symbols[axis])
        return self._dH[axis]

    def __repr__(self):
        return f"HamiltonianSystem(H={self.hamiltonian})"


class LegendreTransform(NamedTuple):
    """The fiber derivative between a Lagrangian system and its
    Hamiltonian picture.

    ``forward`` maps each momentum name to its expression over the jet
    chart; ``inverse`` maps each velocity name to its expression over the
    Hamiltonian chart.  Both include the shared coordinates identically.
    """

    lagrangian_system: LagrangianSystem
    hamiltonian_system: HamiltonianSystem
    forward: dict  # ham coordinate name -> Expr over jet chart
    inverse: dict  # jet coordinate name -> Expr over ham chart


def legendre(sys: LagrangianSystem) -> LegendreTransform:
    if not sys.is_regular:
        raise LegendreError("singular Lagrangian has no Legendre inverse")
    chart = sys.chart
    bases = [chart.coords[i].name for i in chart.base_axes]
    fields = [chart.coords[i].name for i in chart.field_axes]
    hchart = ham_chart(bases, fields)
    vel_syms = [chart.symbols[chart.velocity_axis(a, mu)] for a in range(sys.n) for mu in range(sys.m)]
    equations = []
    for a in range(sys.n):
        for mu in range(sys.m):
            p = hchart.exprs[hchart.momentum_axis(a, mu)]
            equations.append(add(sys.momenta[(a, mu)], mul(const(-1), p)))
    try:
        sol = solve_affine(equations, vel_syms)
    except NonlinearSystemError as exc:
        raise LegendreError(
            f"velocity-momentum relations are not linear in the velocities: {exc}", unsolved=equations
        ) from exc
    except InconsistentSystemError as exc:
        raise LegendreError(f"velocity-momentum relations are not invertible: {exc}", unsolved=equations) from exc
    if sol.free:
        raise LegendreError(
            f"velocity-momentum relations leave velocities undetermined: {[s.name for s in sol.free]}",
            unsolved=equations,
        )
    inverse = {s.name: e for s, e in sol.solved.items()}
    forward = {}
    for i, c in enumerate(hchart.coords):
        if c.role == "momentum":
            forward[c.name] = sys.momenta[(c.field, c.base)]
        else:
            forward[c.name] = chart.coord(c.name)
    for i, c in enumerate(chart.coords):
        if c.role == "velocity":
            continue
        inverse.setdefault(c.name, hchart.coord(c.name))
    # L is quadratic in v: with b, L0 the momenta and L at v = 0, E_L = v.K.v/2 - L0 = (p - b).v/2 - L0,
    # and each equation at v = 0 is b - p
    at_rest = {s: ZERO for s in vel_syms}
    b_minus_p_v = add(*(mul(substitute(e, at_rest), sol.solved[s]) for e, s in zip(equations, vel_syms)))
    H = add(mul(const(Fraction(-1, 2)), b_minus_p_v), mul(const(-1), substitute(sys.lagrangian, at_rest)))
    hsys = HamiltonianSystem(hchart, H)
    return LegendreTransform(sys, hsys, forward=forward, inverse=inverse)


# ---------------------------------------------------------------------------
# Herglotz-Hamilton-de Donder-Weyl data.


def _dH_dp(hsys: HamiltonianSystem, a: int, mu: int) -> Expr:
    return hsys.dH(hsys.chart.momentum_axis(a, mu))


def momentum_trace_rhs(hsys: HamiltonianSystem, a: int) -> Expr:
    """-(dH/dy^a + p^mu_a dH/ds^mu)"""
    chart = hsys.chart
    parts = [hsys.dH(chart.field_axes[a])]
    for mu in range(hsys.m):
        p = chart.exprs[chart.momentum_axis(a, mu)]
        parts.append(mul(p, hsys.dH(chart.action_axis(mu))))
    return mul(const(-1), add(*parts))


def action_trace_rhs(hsys: HamiltonianSystem) -> Expr:
    """p^mu_a dH/dp^mu_a - H"""
    chart = hsys.chart
    parts = []
    for a in range(hsys.n):
        for mu in range(hsys.m):
            p = chart.exprs[chart.momentum_axis(a, mu)]
            parts.append(mul(p, _dH_dp(hsys, a, mu)))
    return add(*parts, mul(const(-1), hsys.hamiltonian))


def hdw_multivector(hsys: HamiltonianSystem) -> SolutionFamily:
    """Decomposable solution family: y-components fixed to dH/dp,
    momentum and action components free up to the trace constraints."""
    chart = hsys.chart
    factors, unknowns = semi_holonomic_ansatz(hsys, lambda a, mu: _dH_dp(hsys, a, mu), chart.momentum_axis)
    equations = []
    for a in range(hsys.n):
        trace = add(*[factors[mu][chart.momentum_axis(a, mu)] for mu in range(hsys.m)])
        equations.append(add(trace, mul(const(-1), momentum_trace_rhs(hsys, a))))
    trace = add(*[factors[mu][chart.action_axis(mu)] for mu in range(hsys.m)])
    equations.append(add(trace, mul(const(-1), action_trace_rhs(hsys))))
    return SolutionFamily.solve(hsys, factors, unknowns, equations)


class HdwResiduals(NamedTuple):
    """Section-equation residuals over derivative placeholder symbols
    (named ``<coord>_<base>``, e.g. y_t, p_t_t, s_t_t)."""

    fields: list  # one per (field, base): dy^a/dx^mu - dH/dp^mu_a
    momenta: list  # one per field: sum_mu dp^mu_a/dx^mu + dH/dy^a + p dH/ds
    action: Expr  # sum_mu ds^mu/dx^mu - (p dH/dp - H)


def hdw_residuals(hsys: HamiltonianSystem) -> HdwResiduals:
    chart = hsys.chart
    fields = []
    for a in range(hsys.n):
        for mu in range(hsys.m):
            fields.append(add(chart.slope(chart.field_axes[a], mu), mul(const(-1), _dH_dp(hsys, a, mu))))
    momenta = []
    for a in range(hsys.n):
        parts = [chart.slope(chart.momentum_axis(a, mu), mu) for mu in range(hsys.m)]
        momenta.append(add(*parts, mul(const(-1), momentum_trace_rhs(hsys, a))))
    action_parts = [chart.slope(chart.action_axis(mu), mu) for mu in range(hsys.m)]
    action = add(*action_parts, mul(const(-1), action_trace_rhs(hsys)))
    return HdwResiduals(fields=fields, momenta=momenta, action=action)
