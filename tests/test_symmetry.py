import random
from fractions import Fraction

import pytest

from mcft.charts import jet_chart
from mcft.corpus import corpus
from mcft.dsl import parse
from mcft.expr import ZeroCheck, const, to_text, var
from mcft.forms import Form, Multivector, contract, lie_derivative, one_form, schouten
from mcft.hamiltonian import hdw_multivector, legendre
from mcft.lagrangian import build_lagrangian_system, solve_sopde_family
from mcft.symmetry import (
    NOETHER,
    NOT_NOETHER,
    STRONG_NOETHER,
    SymmetryError,
    check_dissipative,
    classify,
    hamiltonian_lift,
    jet_lift,
    noether_current,
)


class TestJetLift:
    def test_constant_field_shift(self, string_chart):
        Y = Multivector.vector(string_chart, {"y": 1})
        assert jet_lift(Y) == Y

    def test_time_varying_shift(self, string_chart):
        # flow y -> y + eps t prolongs to y_t -> y_t + eps
        Y = Multivector.vector(string_chart, {"y": string_chart.coord("t")})
        want = Multivector.vector(string_chart, {"y": string_chart.coord("t"), "y_t": 1})
        assert jet_lift(Y) == want

    def test_base_dilation(self, string_chart):
        # flow x -> e^eps x prolongs with y_x -> e^-eps y_x
        Y = Multivector.vector(string_chart, {"x": string_chart.coord("x")})
        want = Multivector.vector(
            string_chart, {"x": string_chart.coord("x"), "y_x": -string_chart.coord("y_x")}
        )
        assert jet_lift(Y) == want

    def test_paper_sign_mode(self, string_chart):
        Y = Multivector.vector(string_chart, {"y": string_chart.coord("t")})
        lifted = jet_lift(Y, paper_sign=True)
        assert lifted.component(0, "y_t") == const(-1)

    def test_action_component_passthrough(self, string_chart):
        Y = Multivector.vector(string_chart, {"s_t": string_chart.coord("s_t")})
        assert jet_lift(Y) == Y

    def test_projectability_enforced(self, string_chart):
        # base component depending on a field is not projectable
        Y = Multivector.vector(string_chart, {"t": string_chart.coord("y")})
        with pytest.raises(SymmetryError):
            jet_lift(Y)
        # action component depending on x is not projectable
        Y2 = Multivector.vector(string_chart, {"s_t": string_chart.coord("x")})
        with pytest.raises(SymmetryError):
            jet_lift(Y2)
        # velocity components may not be prescribed
        Y3 = Multivector.vector(string_chart, {"y_t": 1})
        with pytest.raises(SymmetryError):
            jet_lift(Y3)


@pytest.fixture(scope="module")
def hchart(string_system):
    return legendre(string_system).hamiltonian_system.chart


@pytest.fixture(scope="module")
def entries():
    return corpus(seed=20240, size=6)


class TestHamiltonianLift:
    def test_constant_field_shift(self, hchart):
        Y = Multivector.vector(hchart, {"y": 1})
        assert hamiltonian_lift(Y) == Y

    def test_base_dilation(self, hchart):
        # f = (0, x): momentum components (df^mu/dx^nu) p^nu - (div f) p^mu
        Y = Multivector.vector(hchart, {"x": hchart.coord("x")})
        lifted = hamiltonian_lift(Y)
        assert lifted.component(0, "p_t") == -hchart.coord("p_t")
        assert lifted.component(0, "p_x") == const(0)

    def test_field_dilation(self, hchart):
        # F = y: momentum components -dF/dy p^mu = -p^mu
        Y = Multivector.vector(hchart, {"y": hchart.coord("y")})
        lifted = hamiltonian_lift(Y)
        assert lifted.component(0, "p_t") == -hchart.coord("p_t")
        assert lifted.component(0, "p_x") == -hchart.coord("p_x")


class TestClassify:
    def test_field_shift_strong(self, string_system, params):
        rho, tau = params["rho"], params["tau"]
        rep = classify(Multivector.vector(string_system.chart, {"y": 1}), string_system)
        assert rep.classification == STRONG_NOETHER
        assert rep.sigma_invariant and rep.lemma_consistent
        ch = string_system.chart
        want = one_form(ch, "x").scale(-rho * ch.coord("y_t")) + one_form(ch, "t").scale(-tau * ch.coord("y_x"))
        assert rep.current == want
        assert not rep.witnesses

    def test_action_shift_not_noether_when_damped(self, string_system, params):
        rep = classify(Multivector.vector(string_system.chart, {"s_t": 1}), string_system)
        assert rep.classification == NOT_NOETHER
        assert rep.witnesses == [(("t", "x"), params["gamma"])]

    def test_action_shift_strong_when_undamped(self, undamped_system):
        rep = classify(Multivector.vector(undamped_system.chart, {"s_t": 1}), undamped_system)
        assert rep.classification == STRONG_NOETHER

    def test_time_translation_strong(self, string_system):
        rep = classify(Multivector.vector(string_system.chart, {"t": 1}), string_system)
        assert rep.classification == STRONG_NOETHER

    def test_report_json_shape(self, string_system):
        rep = classify(Multivector.vector(string_system.chart, {"y": 1}), string_system)
        j = rep.to_json()
        assert set(j) == {"candidate", "classification", "sigma_invariant", "current", "witnesses", "numerically_certified"}

    def test_hamiltonian_side(self, string_system):
        hs = legendre(string_system).hamiltonian_system
        rep = classify(Multivector.vector(hs.chart, {"y": 1}), hs)
        assert rep.classification == STRONG_NOETHER
        want = one_form(hs.chart, "x").scale(-hs.chart.coord("p_t")) + one_form(hs.chart, "t").scale(hs.chart.coord("p_x"))
        assert rep.current == want

    def test_probing_path_flags_report(self, string_chart):
        # a Pythagorean zero in the y-coefficient defeats the canonical
        # form; classification must hold via probing and say so
        from fractions import Fraction

        from mcft.expr import cos, sin
        from mcft.lagrangian import build_lagrangian_system

        x_ = string_chart.coord("x")
        L = (
            Fraction(1, 2) * string_chart.coord("y_t") ** 2
            - Fraction(1, 2) * string_chart.coord("y_x") ** 2
            + (sin(x_) ** 2 + cos(x_) ** 2 - 1) * string_chart.coord("y")
        )
        sys_ = build_lagrangian_system(string_chart, L)
        Y = Multivector.vector(string_chart, {"y": 1})
        assert not lie_derivative(Y, sys_.theta).is_structurally_zero()
        rep = classify(Y, sys_)
        assert rep.classification == STRONG_NOETHER
        assert rep.numerically_certified


class TestChecks:
    def test_noether_theorem_string(self, string_system):
        fam = solve_sopde_family(string_system)
        xi = noether_current(Multivector.vector(string_system.chart, {"y": 1}), string_system)
        assert check_dissipative(xi, fam, string_system.sigma).holds

    def test_closed_base_form(self, string_system, undamped_system):
        fam0 = solve_sopde_family(undamped_system)
        dx = one_form(undamped_system.chart, "x")
        assert check_dissipative(dx, fam0, undamped_system.sigma).holds
        fam = solve_sopde_family(string_system)
        chk = check_dissipative(dx, fam, string_system.sigma)
        assert not chk.holds  # sigma ^ dx contracts to gamma

    def test_y_dx_fails(self, string_system):
        fam = solve_sopde_family(string_system)
        xi = one_form(string_system.chart, "x").scale(string_system.chart.coord("y"))
        chk = check_dissipative(xi, fam, string_system.sigma)
        assert not chk.holds and chk.witnesses

    def test_conserved_vs_dissipative(self, string_system, undamped_system, params):
        Y = Multivector.vector(string_system.chart, {"y": 1})
        fam = solve_sopde_family(string_system)
        xi = noether_current(Y, string_system)
        chk = check_dissipative(xi, fam, Form.zero(string_system.chart, 1))
        assert not chk.holds
        assert chk.witnesses[0][1] == params["gamma"] * params["rho"] * string_system.chart.coord("y_t")
        fam0 = solve_sopde_family(undamped_system)
        xi0 = noether_current(Multivector.vector(undamped_system.chart, {"y": 1}), undamped_system)
        assert check_dissipative(xi0, fam0, Form.zero(undamped_system.chart, 1)).holds

    def test_zero_current(self, string_system):
        # Theta_L carries no dy_t or dy_x factor, so the velocity
        # directions contract to zero currents
        for name in ("y_t", "y_x"):
            Y = Multivector.vector(string_system.chart, {name: 1})
            assert noether_current(Y, string_system).is_structurally_zero()

    def test_degree_guard(self, string_system):
        fam = solve_sopde_family(string_system)
        with pytest.raises(SymmetryError):
            check_dissipative(Form.function(string_system.chart, 1), fam, string_system.sigma)

    def test_sum_rule(self, string_system):
        # xi1, xi2 dissipative => xi1 + xi2 dissipative
        fam = solve_sopde_family(string_system)
        Y = Multivector.vector(string_system.chart, {"y": 1})
        T = Multivector.vector(string_system.chart, {"t": 1})
        xi1 = noether_current(Y, string_system)
        xi2 = noether_current(T, string_system)
        assert check_dissipative(xi1, fam, string_system.sigma).holds
        if check_dissipative(xi2, fam, string_system.sigma).holds:
            assert check_dissipative(xi1 + xi2, fam, string_system.sigma).holds
        assert check_dissipative(xi1 + xi1, fam, string_system.sigma).holds


class TestCorpus:
    def test_noether_theorem_mechanized(self, entries):
        for e in entries:
            fam = solve_sopde_family(e.system)
            for label, Y in e.candidates:
                rep = classify(Y, e.system)
                if rep.classification in (STRONG_NOETHER, NOETHER):
                    chk = check_dissipative(rep.current, fam, e.system.sigma)
                    assert chk.holds, (e.name, label, chk.witnesses)
                    assert chk.certainty.name == "ZERO"  # exact, not probed

    def test_strong_implies_sigma_and_omega_invariance(self, entries):
        for e in entries:
            for label, Y in e.candidates:
                rep = classify(Y, e.system)
                if rep.classification == STRONG_NOETHER:
                    assert rep.sigma_invariant, (e.name, label)
                    assert lie_derivative(Y, e.system.omega).is_structurally_zero()

    def test_bracket_closure_of_strong_pairs(self, entries):
        for e in entries:
            strong = [Y for _, Y in e.candidates if classify(Y, e.system).classification == STRONG_NOETHER]
            for i, Y1 in enumerate(strong):
                for Y2 in strong[i:]:
                    B = schouten(Y1, Y2)
                    if B.is_structurally_zero():
                        continue
                    assert classify(B, e.system).classification == STRONG_NOETHER

    def test_coverage(self, entries):
        kinds = set()
        for e in entries:
            for label, Y in e.candidates:
                kinds.add(classify(Y, e.system).classification)
        assert STRONG_NOETHER in kinds and NOT_NOETHER in kinds


def test_weighted_scaling_is_plain_noether_on_both_sides():
    # L = y_t^2/2 scales by e^-eps under t -> e^eps t, y -> e^(eps/2) y, so
    # L_Y Theta = 0 while L_Y omega = dt != 0
    model = parse("coords t\nfields y\nlagrangian 1/2*dy[t]^2\nsymmetry D: t*d/dt + 1/2*y*d/dy\n")
    sys_ = model.system()
    hs = legendre(sys_).hamiltonian_system
    currents = []
    for system, Y, family in (
        (sys_, jet_lift(model.candidate("D", sys_.chart)), solve_sopde_family(sys_)),
        (hs, hamiltonian_lift(model.candidate("D", hs.chart)), hdw_multivector(hs)),
    ):
        rep = classify(Y, system)
        assert rep.classification == NOETHER and rep.sigma_invariant
        assert check_dissipative(rep.current, family, system.sigma).certainty is ZeroCheck.ZERO
        currents.append(to_text(rep.current.coeff()))
    assert currents == ["t*y_t^2/2 - y*y_t/2", "t*p_t^2/2 - y*p_t/2"]
