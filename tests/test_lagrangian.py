import random
from fractions import Fraction

import pytest

from mcft.charts import ham_chart, jet_chart
from mcft.expr import ZeroCheck, add, const, evaluate, free_symbols, mul, substitute, to_text, var
from mcft.forms import Form, Multivector, contract, one_form, volume_form, wedge
from mcft.lagrangian import (
    LagrangianError,
    Regularity,
    build_lagrangian_system,
    herglotz_el_residuals,
    multicontact_theta,
    semi_holonomic_ansatz,
    solve_sopde_family,
    verify_sigma_property,
)
from mcft.symmetry import check_dissipative, jet_lift, noether_current


class TestBuild:
    def test_theta_coordinate_form(self, string_system, params):
        ch = string_system.chart
        rho, tau, gamma = params["rho"], params["tau"], params["gamma"]
        yt, yx, st = ch.coord("y_t"), ch.coord("y_x"), ch.coord("s_t")
        dt, dx, dy, dst, dsx = (one_form(ch, n) for n in ("t", "x", "y", "s_t", "s_x"))
        want = (
            wedge(dy, dx).scale(-rho * yt)
            + wedge(dy, dt).scale(-tau * yx)
            + wedge(dt, dx).scale(Fraction(1, 2) * rho * yt**2 - Fraction(1, 2) * tau * yx**2 + gamma * st)
            + wedge(dst, dx)
            - wedge(dsx, dt)
        )
        assert string_system.theta == want

    def test_sigma_from_defining_formula(self, string_system, params):
        # sigma = -dL/ds^mu dx^mu; for L = ... - gamma s_t this is +gamma dt,
        # the unique one-form with sigma ^ i_R Theta = i_R dTheta (checked in
        # TestSigmaProperty)
        ch = string_system.chart
        assert string_system.sigma == one_form(ch, "t").scale(params["gamma"])

    def test_energy(self, string_system, params):
        ch = string_system.chart
        rho, tau, gamma = params["rho"], params["tau"], params["gamma"]
        yt, yx, st = ch.coord("y_t"), ch.coord("y_x"), ch.coord("s_t")
        assert string_system.energy == Fraction(1, 2) * rho * yt**2 - Fraction(1, 2) * tau * yx**2 + gamma * st

    def test_omega(self, string_system):
        assert string_system.omega == volume_form(string_system.chart)

    def test_regularity_generic(self, string_system, params):
        assert string_system.regularity is Regularity.REGULAR_GENERICALLY
        assert string_system.hessian_det == -params["rho"] * params["tau"]

    def test_regularity_numeric_hessian_agreement(self, string_system):
        rng = random.Random(4)
        for _ in range(10):
            b = {"rho": rng.uniform(0.5, 2), "tau": rng.uniform(0.5, 2), "gamma": rng.uniform(0, 1)}
            num = evaluate(string_system.hessian_det, b)
            assert abs(num - (-b["rho"] * b["tau"])) < 1e-12
            assert num != 0

    def test_rational_regularity(self):
        ch = jet_chart(["t", "x"], ["y"])
        L = Fraction(1, 2) * ch.coord("y_t") ** 2 - Fraction(1, 2) * ch.coord("y_x") ** 2
        sys_ = build_lagrangian_system(ch, L)
        assert sys_.regularity is Regularity.REGULAR

    def test_singular(self):
        ch = jet_chart(["t", "x"], ["y"])
        sys_ = build_lagrangian_system(ch, ch.coord("y_t"))
        assert sys_.regularity is Regularity.SINGULAR

    def test_unknown_symbol_rejected(self):
        ch = jet_chart(["t", "x"], ["y"])
        with pytest.raises(LagrangianError):
            build_lagrangian_system(ch, var("q"))

    def test_variational_condition(self, string_system):
        # i_X i_Y Theta = 0 for X, Y among the ker-omega directions
        ch = string_system.chart
        vertical = ["y", "y_t", "y_x", "s_t", "s_x"]
        for a in vertical:
            for b in vertical:
                X = Multivector.vector(ch, {a: 1})
                Y = Multivector.vector(ch, {b: 1})
                assert contract(Y, contract(X, string_system.theta)).is_structurally_zero()


def _reference_theta(chart, momenta, energy):
    """Theta from its defining wedges, with d^{m-1}x_mu = i_{d/dx^mu} d^m x."""

    def d_minus_one_x(mu):
        return contract(Multivector(chart, 1, factors=[{chart.base_axes[mu]: const(1)}]), volume_form(chart))

    theta = wedge(volume_form(chart), Form.function(chart, energy))
    for a, fa in enumerate(chart.field_axes):
        dy = one_form(chart, chart.coords[fa].name)
        for mu in range(chart.base_dim):
            theta = theta + wedge(dy, d_minus_one_x(mu)).scale(mul(const(-1), momenta[(a, mu)]))
    for mu in range(chart.base_dim):
        theta = theta + wedge(one_form(chart, chart.coords[chart.action_axis(mu)].name), d_minus_one_x(mu))
    return theta


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("make", [jet_chart, ham_chart], ids=["jet", "ham"])
def test_theta_table_matches_wedge_contract_reference(make, m, n):
    chart = make(["t", "x", "r", "q"][:m], ["u", "v", "w"][:n])
    slot = chart.velocity_axis if make is jet_chart else chart.momentum_axis
    momenta = {}
    for a, fa in enumerate(chart.field_axes):
        for mu in range(m):
            z = chart.coord(chart.coords[slot(a, mu)].name)
            p = add(mul(const(a + mu + 1), z), chart.symbols[fa])
            # one zero momentum, which leaves its index out of both tables
            momenta[(a, mu)] = const(0) if (a, mu) == (n - 1, m - 1) else p
    energy = const(0) if n == 2 else add(*(mul(p, p) for p in momenta.values()), chart.symbols[0])
    got, want = multicontact_theta(chart, momenta, energy), _reference_theta(chart, momenta, energy)
    assert [(i, c.terms) for i, c in got.items()] == [(i, c.terms) for i, c in want.items()]
    assert list(got.table) == list(want.table)  # the order later layers iterate in


def test_coord_is_one_shared_expr_per_name():
    chart = jet_chart(["t", "x"], ["y", "z"])
    for c, s in zip(chart.coords, chart.symbols):
        e = chart.coord(c.name)
        assert e is chart.coord(c.name)
        assert e == var(c.name, s.role, s.order) and e.single_symbol is s


def test_one_chart_per_names_and_role(monkeypatch):
    from mcft import charts, expr
    from mcft.charts import ChartError

    assert jet_chart(["t", "x"], ["y"]) is jet_chart(("t", "x"), ("y",))
    assert ham_chart(["t", "x"], ["y"]) is ham_chart(["t", "x"], ["y"])
    jet, ham = jet_chart(["t", "x"], ["y"]), ham_chart(["t", "x"], ["y"])
    assert jet != ham and jet.names() == ["t", "x", "y", "y_t", "y_x", "s_t", "s_x"]
    assert ham.names() == ["t", "x", "y", "p_t", "p_x", "s_t", "s_x"]
    # a chart that fails is not stored: it fails on every call
    for _ in range(3):
        with pytest.raises(ChartError, match="duplicate coordinate names"):
            ham_chart(["t", "p_t"], ["y"])
        with pytest.raises(ChartError, match="not an identifier"):
            jet_chart(["t", "1x"], ["y"])
    assert ("momentum", ("t", "p_t"), ("y",)) not in charts._CHARTS
    assert ("velocity", ("t", "1x"), ("y",)) not in charts._CHARTS
    # the registry is cleared when full, as the kernel's memo tables are, and
    # a chart built again equals the one it replaces
    monkeypatch.setattr(charts, "_CHARTS", {})
    monkeypatch.setattr(expr, "_TABLE_BOUND", 8)
    first, most = [jet_chart(["t", f"x{i}"], ["y"]) for i in range(20)], 0
    for i in range(40):
        chart = jet_chart(["t", f"x{i % 20}"], ["y"])
        assert chart == first[i % 20] and chart is jet_chart(["t", f"x{i % 20}"], ["y"])
        most = max(most, len(charts._CHARTS))
    assert most == 8


class TestResiduals:
    def test_damped_string(self, string_system, params):
        rho, tau, gamma = params["rho"], params["tau"], params["gamma"]
        res = herglotz_el_residuals(string_system)
        ytt, yxx, yt = var("y_tt", "aux"), var("y_xx", "aux"), string_system.chart.coord("y_t")
        assert res.fields == [rho * ytt - tau * yxx + gamma * rho * yt]

    def test_undamped_limit(self, undamped_system, params):
        rho, tau = params["rho"], params["tau"]
        res = herglotz_el_residuals(undamped_system)
        assert res.fields == [rho * var("y_tt", "aux") - tau * var("y_xx", "aux")]

    def test_action_residual(self, string_system):
        res = herglotz_el_residuals(string_system)
        want = var("s_t_t", "aux") + var("s_x_x", "aux") - string_system.lagrangian
        assert res.action == want


class TestSopde:
    def test_string_family_parametrization(self, string_system, params):
        rho, tau, gamma = params["rho"], params["tau"], params["gamma"]
        ch = string_system.chart
        fam = solve_sopde_family(string_system)
        assert [s.name for s in fam.free] == ["A5", "A7", "B4", "B5", "B6", "B7"]
        solved = {s.name: e for s, e in fam.solved.items()}
        assert set(solved) == {"A4", "A6"}
        assert solved["A4"] == tau / rho * var("B5", "aux") - gamma * ch.coord("y_t")
        assert solved["A6"] == string_system.lagrangian - var("B7", "aux")
        # SOPDE shape of the factors
        assert fam.factors[0][ch.axis("t")] == const(1)
        assert fam.factors[1][ch.axis("x")] == const(1)
        assert fam.factors[0][ch.axis("y")] == ch.coord("y_t")
        assert fam.factors[1][ch.axis("y")] == ch.coord("y_x")

    def test_contractions_vanish_symbolically(self, string_system):
        fam = solve_sopde_family(string_system)
        X = fam.multivector()
        assert contract(X, string_system.theta).is_structurally_zero()
        assert contract(X, string_system.bar_d_theta()).is_structurally_zero()
        assert contract(X, string_system.omega) == Form.function(string_system.chart, 1)

    def test_random_free_symbol_assignments(self, string_system):
        rng = random.Random(99)
        fam = solve_sopde_family(string_system)
        for _ in range(5):
            subs = {s: const(rng.randint(-3, 3)) for s in fam.free}
            factors = [{i: substitute(c, subs) for i, c in f.items()} for f in fam.factors]
            X = Multivector(string_system.chart, len(factors), factors=factors)
            assert contract(X, string_system.theta).is_structurally_zero()
            assert contract(X, string_system.bar_d_theta()).is_structurally_zero()

    def test_mechanics_degenerate_case(self):
        # m = 1: damped oscillator L = v^2/2 - y^2/2 - gamma s
        ch = jet_chart(["t"], ["y"])
        gamma = var("gamma", "param", 0)
        v, q, s = ch.coord("y_t"), ch.coord("y"), ch.coord("s_t")
        L = Fraction(1, 2) * v**2 - Fraction(1, 2) * q**2 - gamma * s
        sys_ = build_lagrangian_system(ch, L)
        fam = solve_sopde_family(sys_)
        assert not fam.free
        comp = fam.factors[0]
        assert comp[ch.axis("y_t")] == -q - gamma * v  # Herglotz EOM
        assert comp[ch.axis("s_t")] == L  # s-dot = L

    def test_singular_rejected(self):
        ch = jet_chart(["t", "x"], ["y"])
        sys_ = build_lagrangian_system(ch, ch.coord("y_t") * ch.coord("y_x"))
        # hessian [[0,1],[1,0]]: regular, fine; a truly singular one:
        sys2 = build_lagrangian_system(ch, ch.coord("y_t"))
        with pytest.raises(LagrangianError):
            solve_sopde_family(sys2)

    def test_base_dimension_three_and_four(self):
        # damped massless Klein-Gordon field over m = 3 and m = 4 base axes
        for m in (3, 4):
            ch = jet_chart(["t", "x", "w", "z"][:m], ["y"])
            L = Fraction(1, 2) * ch.coord("y_t") ** 2 - Fraction(1, 10) * ch.coord("s_t")
            for b in ["x", "w", "z"][: m - 1]:
                L = L - Fraction(3, 2) * ch.coord(f"y_{b}") ** 2
            sys_ = build_lagrangian_system(ch, L)
            fam = solve_sopde_family(sys_)
            n = 1
            assert len(fam.free) == m * (n * m + m) - (n + 1)
            X = fam.multivector()
            assert contract(X, sys_.theta).is_structurally_zero()
            assert contract(X, sys_.bar_d_theta()).is_structurally_zero()
            assert contract(X, sys_.omega) == Form.function(ch, 1)
            xi = noether_current(jet_lift(Multivector.vector(ch, {"y": 1})), sys_)
            assert check_dissipative(xi, fam, sys_.sigma).certainty is ZeroCheck.ZERO


class TestSigmaProperty:
    def test_reeb_candidate_holds(self, string_system):
        R = Multivector.vector(string_system.chart, {"s_t": 1})
        assert verify_sigma_property(string_system, R).holds

    def test_second_reeb_direction(self, string_system):
        R = Multivector.vector(string_system.chart, {"s_x": 1})
        assert verify_sigma_property(string_system, R).holds

    def test_non_reeb_fails_with_witness(self, string_system):
        R = Multivector.vector(string_system.chart, {"y": 1})
        chk = verify_sigma_property(string_system, R)
        assert not chk.holds
        assert chk.witnesses

    def test_sigma_zero_system(self, undamped_system):
        R = Multivector.vector(undamped_system.chart, {"s_t": 1})
        chk = verify_sigma_property(undamped_system, R)
        assert chk.holds
        assert undamped_system.sigma.is_structurally_zero()
