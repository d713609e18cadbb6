"""Symbolic + numeric workbench for action-dependent (multicontact)
classical field theories."""

from .charts import Chart, generic_chart, ham_chart, jet_chart
from .expr import (
    Expr,
    Symbol,
    ZeroCheck,
    add,
    canon,
    const,
    cos,
    diff,
    evaluate,
    exp,
    free_symbols,
    is_zero,
    mul,
    pow_,
    sin,
    substitute,
    sym,
    to_text,
    var,
)
from .forms import (
    Form,
    Multivector,
    bar_d,
    contract,
    ext_d,
    form_to_json,
    form_to_text,
    lie_bracket,
    lie_derivative,
    one_form,
    pullback_along,
    schouten,
    volume_form,
    wedge,
)
from .lagrangian import (
    LagrangianSystem,
    Regularity,
    SolutionFamily,
    build_lagrangian_system,
    herglotz_el_residuals,
    solve_sopde_family,
    verify_sigma_property,
)
from .hamiltonian import (
    HamiltonianSystem,
    LegendreTransform,
    hdw_multivector,
    hdw_residuals,
    legendre,
)
from .symmetry import (
    SymmetryReport,
    check_dissipative,
    classify,
    hamiltonian_lift,
    jet_lift,
    noether_current,
)
from .dsl import ModelFile, parse, render

__version__ = "0.1.0"
