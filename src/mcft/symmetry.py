"""Canonical lifts, Noether classification, and dissipated currents.

A configuration vector field lives on the base/field/action axes of a
jet or Hamiltonian chart, with the projectability conditions

    f^mu = f^mu(x),   F^a = F^a(x, y, s),   g^mu = g^mu(s).

``jet_lift`` prolongs it to the velocities with the flow-consistent
total-derivative formula

    (Y^1)^a_mu = D_mu F^a - y^a_nu df^nu/dx^mu,
    D_mu F^a   = dF^a/dx^mu + y^b_mu dF^a/dy^b,

optionally negated (``paper_sign=True``) for comparison against the
opposite sign convention.  ``hamiltonian_lift`` uses the momentum-side
formula

    (Y*)^mu_a = df^mu/dx^nu p^nu_a - df^nu/dx^nu p^mu_a - dF^b/dy^a p^mu_b.

Classification checks L_Y Theta = 0 (Noether) and additionally
L_Y omega = 0 (strong), attaches the dissipated current xi_Y = i_Y Theta,
and records sigma-invariance.
"""
from __future__ import annotations

from typing import NamedTuple

from .charts import Chart
from .expr import (
    Expr,
    ZeroCheck,
    add,
    const,
    diff_held,
    free_symbols,
    mul,
    to_text,
)
from .forms import (
    CheckResult,
    Form,
    Multivector,
    bar_d,
    contract,
    form_to_json,
    form_zero_check,
    lie_derivative,
    vector_to_text,
)


class SymmetryError(Exception):
    pass


def _component_symbol_check(chart: Chart, e: Expr, allowed_roles, what: str):
    allowed = {s.key for i, s in enumerate(chart.symbols) if chart.coords[i].role in allowed_roles}
    for s in free_symbols(e):
        if s.role == "param":
            continue
        if s.key not in allowed:
            raise SymmetryError(f"{what} may only depend on {sorted(allowed_roles)}; found {s.name!r}")


def _config_components(Y: Multivector):
    if Y.degree != 1 or not Y.decomposable:
        raise SymmetryError("expected a vector field")
    chart = Y.chart
    comp = Y.factors[0]
    f = {}
    F = {}
    for i, c in comp.items():
        role = chart.coords[i].role
        if role == "base":
            _component_symbol_check(chart, c, ("base",), "a base component f^mu")
            f[i] = c
        elif role == "field":
            _component_symbol_check(chart, c, ("base", "field", "action"), "a field component F^a")
            F[i] = c
        elif role == "action":
            _component_symbol_check(chart, c, ("action",), "an action component g^mu")
        elif c.terms:
            raise SymmetryError(
                f"configuration vector field has a {role} component along {chart.coords[i].name}"
            )
    return f, F


def jet_lift(Y: Multivector, paper_sign: bool = False) -> Multivector:
    """Prolong a configuration vector field on a jet chart to the
    velocity axes."""
    chart = Y.chart
    f, F = _config_components(Y)
    comp = dict(Y.factors[0])
    m = chart.base_dim
    for a, fa in enumerate(chart.field_axes):
        Fa = F.get(fa)
        for mu in range(m):
            bmu = chart.base_axes[mu]
            parts = [diff_held(Fa, chart.symbols[bmu])]
            for b, fb in enumerate(chart.field_axes):
                dF = diff_held(Fa, chart.symbols[fb])
                if dF.terms:
                    parts.append(mul(chart.exprs[chart.velocity_axis(b, mu)], dF))
            for nu in range(m):
                dfn = diff_held(f.get(chart.base_axes[nu]), chart.symbols[bmu])
                if dfn.terms:
                    parts.append(mul(const(-1), chart.exprs[chart.velocity_axis(a, nu)], dfn))
            phi = add(*parts)
            if paper_sign:
                phi = mul(const(-1), phi)
            if phi.terms:
                comp[chart.velocity_axis(a, mu)] = phi
    return Multivector(chart, 1, factors=[comp])


def hamiltonian_lift(Y: Multivector) -> Multivector:
    """Canonical lift of a configuration vector field on a Hamiltonian
    chart to the momentum axes."""
    chart = Y.chart
    f, F = _config_components(Y)
    comp = dict(Y.factors[0])
    m = chart.base_dim
    for a, fa in enumerate(chart.field_axes):
        for mu in range(m):
            parts = []
            bmu = chart.base_axes[mu]
            fmu = f.get(bmu)
            for nu in range(m):
                bnu = chart.base_axes[nu]
                dfmu = diff_held(fmu, chart.symbols[bnu])
                if dfmu.terms:
                    p_nu_a = chart.exprs[chart.momentum_axis(a, nu)]
                    parts.append(mul(dfmu, p_nu_a))
            div_f = add(
                *[
                    diff_held(f.get(chart.base_axes[nu]), chart.symbols[chart.base_axes[nu]])
                    for nu in range(m)
                ]
            )
            p_mu_a = chart.exprs[chart.momentum_axis(a, mu)]
            if div_f.terms:
                parts.append(mul(const(-1), div_f, p_mu_a))
            for b, fb in enumerate(chart.field_axes):
                dF = diff_held(F.get(fb), chart.symbols[fa])
                if dF.terms:
                    p_mu_b = chart.exprs[chart.momentum_axis(b, mu)]
                    parts.append(mul(const(-1), dF, p_mu_b))
            comp_val = add(*parts)
            if comp_val.terms:
                comp[chart.momentum_axis(a, mu)] = comp_val
    return Multivector(chart, 1, factors=[comp])


# ---------------------------------------------------------------------------
# Classification.

STRONG_NOETHER = "strong-noether"
NOETHER = "noether"
NOT_NOETHER = "not-noether"


class SymmetryReport(NamedTuple):
    candidate: Multivector
    classification: str
    sigma_invariant: bool
    lemma_consistent: bool  # strong implies sigma-invariant
    current: Form
    witnesses: list
    numerically_certified: bool

    def to_json(self) -> dict:
        return {
            "candidate": vector_to_text(self.candidate.factors[0], self.candidate.chart),
            "classification": self.classification,
            "sigma_invariant": self.sigma_invariant,
            "current": form_to_json(self.current),
            "witnesses": [
                {"index": list(idx), "coeff": to_text(c)} for idx, c in self.witnesses
            ],
            "numerically_certified": self.numerically_certified,
        }


def classify(Y: Multivector, system, seed: int = 0, tol: float = 1e-9) -> SymmetryReport:
    """Classify a vector field against the system's multicontact
    structure (Theta, omega) by L_Y Theta and L_Y omega, record
    sigma-invariance by L_Y sigma, and attach the current i_Y Theta."""
    if Y.chart != system.chart:
        raise SymmetryError("candidate lives on a different chart than the system")
    zt, zw, zs = (
        form_zero_check(lie_derivative(Y, f), seed=seed, tol=tol) for f in (system.theta, system.omega, system.sigma)
    )
    if not zt.holds:
        classification = NOT_NOETHER
    elif not zw.holds:
        classification = NOETHER
    else:
        classification = STRONG_NOETHER
    probing = ZeroCheck.PROBABLY_ZERO in (zt.certainty, zw.certainty, zs.certainty)
    return SymmetryReport(
        candidate=Y,
        classification=classification,
        sigma_invariant=zs.holds,
        lemma_consistent=(classification != STRONG_NOETHER) or zs.holds,
        current=noether_current(Y, system),
        witnesses=zt.witnesses,
        numerically_certified=probing,
    )


def noether_current(Y: Multivector, system) -> Form:
    """The dissipated (m-1)-form xi_Y = i_Y Theta attached to a
    symmetry candidate."""
    return contract(Y, system.theta)


def check_dissipative(xi: Form, family, sigma: Form, seed: int = 0, tol: float = 1e-9) -> CheckResult:
    """i_X bar_d xi = 0 over the whole family, free symbols symbolic."""
    X = family.multivector() if hasattr(family, "multivector") else family
    if xi.degree != X.degree - 1:
        raise SymmetryError(f"dissipative-form check needs degree {X.degree - 1}, got {xi.degree}")
    return form_zero_check(contract(X, bar_d(xi, sigma)), seed=seed, tol=tol)
