import pathlib
import random
from fractions import Fraction

import pytest

from mcft.algebra import affine_numerators
from mcft.charts import jet_chart, momentum_name
from mcft.corpus import corpus
from mcft.dsl import parse
from mcft.expr import ExprError, ZeroCheck, add, const, free_symbols, mul, substitute, sym, to_text, var
from mcft.forms import Form, Multivector, contract, form_zero_check, one_form, pullback_along, volume_form, wedge
from mcft.hamiltonian import (
    HamiltonianSystem,
    LegendreError,
    hdw_multivector,
    hdw_residuals,
    legendre,
)
from mcft.lagrangian import build_lagrangian_system, herglotz_el_residuals
from mcft.symmetry import check_dissipative, classify, hamiltonian_lift


@pytest.fixture(scope="module")
def string_legendre(string_system):
    return legendre(string_system)


class TestLegendre:
    def test_momentum_map(self, string_legendre, string_system, params):
        rho, tau = params["rho"], params["tau"]
        ch = string_system.chart
        assert string_legendre.forward["p_t"] == rho * ch.coord("y_t")
        assert string_legendre.forward["p_x"] == -tau * ch.coord("y_x")

    def test_hamiltonian_function(self, string_legendre, params):
        # H = (FL^-1)* E_L; the s-term sign follows from E_L = ... + gamma s_t
        rho, tau, gamma = params["rho"], params["tau"], params["gamma"]
        hch = string_legendre.hamiltonian_system.chart
        pt, px, st = hch.coord("p_t"), hch.coord("p_x"), hch.coord("s_t")
        assert string_legendre.hamiltonian_system.hamiltonian == pt**2 / (2 * rho) - px**2 / (2 * tau) + gamma * st

    def test_inverse_map(self, string_legendre, params):
        rho, tau = params["rho"], params["tau"]
        hch = string_legendre.hamiltonian_system.chart
        assert string_legendre.inverse["y_t"] == hch.coord("p_t") / rho
        assert string_legendre.inverse["y_x"] == -hch.coord("p_x") / tau

    def test_round_trip(self, string_legendre, string_system):
        ch = string_system.chart
        hch = string_legendre.hamiltonian_system.chart
        fwd = {hch.symbol(n): e for n, e in string_legendre.forward.items()}
        for name, e in string_legendre.inverse.items():
            assert substitute(e, fwd) == ch.coord(name)
        inv = {ch.symbol(n): e for n, e in string_legendre.inverse.items()}
        for name, e in string_legendre.forward.items():
            assert substitute(e, inv) == hch.coord(name)

    def test_theta_h_coordinate_form(self, string_legendre, params):
        rho, tau, gamma = params["rho"], params["tau"], params["gamma"]
        hs = string_legendre.hamiltonian_system
        hch = hs.chart
        pt, px, st = hch.coord("p_t"), hch.coord("p_x"), hch.coord("s_t")
        dt, dx, dy, dst, dsx = (one_form(hch, n) for n in ("t", "x", "y", "s_t", "s_x"))
        want = (
            wedge(dy, dx).scale(-pt)
            + wedge(dy, dt).scale(px)
            + wedge(dt, dx).scale(pt**2 / (2 * rho) - px**2 / (2 * tau) + gamma * st)
            + wedge(dst, dx)
            - wedge(dsx, dt)
        )
        assert hs.theta == want

    def test_sigma_h(self, string_legendre, params):
        hs = string_legendre.hamiltonian_system
        assert hs.sigma == one_form(hs.chart, "t").scale(params["gamma"])

    def test_pullback_consistency(self, string_legendre, string_system):
        # FL* Theta_H = Theta_L coefficient by coefficient
        pulled = pullback_along(string_legendre.forward, string_legendre.hamiltonian_system.theta, string_system.chart)
        assert pulled == string_system.theta

    def test_free_particle_mechanics(self):
        ch = jet_chart(["t"], ["y"])
        L = Fraction(1, 2) * ch.coord("y_t") ** 2
        lt = legendre(build_lagrangian_system(ch, L))
        hch = lt.hamiltonian_system.chart
        assert lt.forward["p_t"] == ch.coord("y_t")
        assert lt.hamiltonian_system.hamiltonian == hch.coord("p_t") ** 2 / 2

    def test_singular_rejected(self):
        ch = jet_chart(["t", "x"], ["y"])
        sys_ = build_lagrangian_system(ch, ch.coord("y_t"))
        with pytest.raises(LegendreError):
            legendre(sys_)

    def test_nonlinear_relations_reported(self):
        ch = jet_chart(["t"], ["y"])
        sys_ = build_lagrangian_system(ch, ch.coord("y_t") ** 4)
        with pytest.raises(LegendreError) as exc:
            legendre(sys_)
        assert exc.value.unsolved or "velocity" in str(exc.value) or "nonlinear" in str(exc.value).lower()


class TestHdw:
    def test_field_components(self, string_legendre, params):
        rho, tau = params["rho"], params["tau"]
        hs = string_legendre.hamiltonian_system
        fam = hdw_multivector(hs)
        hch = hs.chart
        assert fam.factors[0][hch.axis("y")] == hch.coord("p_t") / rho
        assert fam.factors[1][hch.axis("y")] == -hch.coord("p_x") / tau

    def test_trace_constraints(self, string_legendre, params):
        # momentum trace: -(dH/dy + p dH/ds) = -gamma p_t  (H carries +gamma s_t);
        # action trace:   p dH/dp - H = L o FL^-1
        rho, tau, gamma = params["rho"], params["tau"], params["gamma"]
        hs = string_legendre.hamiltonian_system
        fam = hdw_multivector(hs)
        hch = hs.chart
        pt, px, st = hch.coord("p_t"), hch.coord("p_x"), hch.coord("s_t")
        mom_trace = fam.factors[0][hch.axis("p_t")] + fam.factors[1][hch.axis("p_x")]
        assert mom_trace == -gamma * pt
        act_trace = fam.factors[0][hch.axis("s_t")] + fam.factors[1][hch.axis("s_x")]
        assert act_trace == pt**2 / (2 * rho) - px**2 / (2 * tau) - gamma * st

    def test_contraction_equations_hold_for_all_free_symbols(self, string_legendre):
        hs = string_legendre.hamiltonian_system
        fam = hdw_multivector(hs)
        X = fam.multivector()
        assert contract(X, hs.theta).is_structurally_zero()
        assert contract(X, hs.bar_d_theta()).is_structurally_zero()
        assert contract(X, hs.omega) == Form.function(hs.chart, 1)

    def test_residuals(self, string_legendre, params):
        rho, tau, gamma = params["rho"], params["tau"], params["gamma"]
        hs = string_legendre.hamiltonian_system
        hch = hs.chart
        res = hdw_residuals(hs)
        yt, yx = var("y_t", "aux"), var("y_x", "aux")
        assert res.fields[0] == yt - hch.coord("p_t") / rho
        assert res.fields[1] == yx + hch.coord("p_x") / tau
        ptt, pxx = var("p_t_t", "aux"), var("p_x_x", "aux")
        assert res.momenta[0] == ptt + pxx + gamma * hch.coord("p_t")

    def test_no_s_dependence_drops_coupling(self):
        ch = jet_chart(["t", "x"], ["y"])
        L = Fraction(1, 2) * (ch.coord("y_t") ** 2 - ch.coord("y_x") ** 2)
        lt = legendre(build_lagrangian_system(ch, L))
        res = hdw_residuals(lt.hamiltonian_system)
        assert res.momenta[0] == var("p_t_t", "aux") + var("p_x_x", "aux")

    def test_equivalence_with_herglotz_el(self, string_legendre, string_system, params):
        # eliminate momenta from the HDW momentum residual via the Legendre
        # map; it must reproduce the Herglotz-EL residual exactly
        rho, tau = params["rho"], params["tau"]
        hs = string_legendre.hamiltonian_system
        hch = hs.chart
        el = herglotz_el_residuals(string_system).fields[0]
        mom = hdw_residuals(hs).momenta[0]
        subs = {
            hch.symbol("p_t"): string_legendre.forward["p_t"],
            hch.symbol("p_x"): string_legendre.forward["p_x"],
            var("p_t_t", "aux").single_symbol: rho * var("y_tt", "aux"),
            var("p_x_x", "aux").single_symbol: -tau * var("y_xx", "aux"),
        }
        assert substitute(mom, subs) == el

    def test_random_quadratic_hdw_solves_equations(self):
        rng = random.Random(12)
        from mcft.corpus import random_quadratic_system

        for i in range(4):
            entry = random_quadratic_system(rng, i)
            lt = legendre(entry.system)
            hs = lt.hamiltonian_system
            fam = hdw_multivector(hs)
            X = fam.multivector()
            assert contract(X, hs.theta).is_structurally_zero()
            assert contract(X, hs.bar_d_theta()).is_structurally_zero()


# ---------------------------------------------------------------------------
# Symbolic-parameter Legendre transforms against sympy.

GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"
PARAMETRIC_MODELS = [GOLDENS / "parametric_n2.mcft", GOLDENS / "coupled_n3.mcft"]


def _sympy(e):
    sp = pytest.importorskip("sympy")
    names = {s.name: sp.Symbol(s.name) for s in free_symbols(e)}
    return sp.parse_expr(to_text(e).replace("^", "**"), local_dict=names)


def _names(sys_, a, mu):
    ch = sys_.chart
    bases = [ch.coords[i].name for i in ch.base_axes]
    fields = [ch.coords[i].name for i in ch.field_axes]
    return ch.symbols[ch.velocity_axis(a, mu)], momentum_name(bases, fields, a, mu)


def _integer_points(model, sys_, count=3):
    """``count`` random integer parameter values where the Hessian is invertible."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(7)
    points = []
    while len(points) < count:
        at = {sym(n): const(rng.randint(-6, 6)) for n, _ in model.params}
        if sp.Matrix([[_sympy(substitute(k, at)) for k in row] for row in sys_.hessian]).det() != 0:
            points.append(at)
    return points


@pytest.fixture(scope="module", params=PARAMETRIC_MODELS, ids=[p.stem for p in PARAMETRIC_MODELS])
def parametric_legendre(request):
    model = parse(request.param.read_text(encoding="utf-8"))
    sys_ = model.system()
    return sys_, legendre(sys_), _integer_points(model, sys_)


def test_legendre_inverse_solves_momentum_relations(parametric_legendre):
    # the momenta are K v + b with K the Hessian: the inverse must solve K v = p - b
    sp = pytest.importorskip("sympy")
    sys_, lt, points = parametric_legendre
    keys = [(a, mu) for a in range(sys_.n) for mu in range(sys_.m)]
    vel = [_names(sys_, a, mu)[0] for a, mu in keys]
    for at in points:
        v = [_sympy(substitute(lt.inverse[s.name], at)) for s in vel]
        for row, (a, mu) in zip(sys_.hessian, keys):
            b = substitute(sys_.momenta[(a, mu)], {**at, **{s: 0 for s in vel}})
            kv = sum(_sympy(substitute(k, at)) * vj for k, vj in zip(row, v))
            assert sp.expand(kv - sp.Symbol(_names(sys_, a, mu)[1]) + _sympy(b)) == 0


def test_hamiltonian_matches_sympy_at_integer_parameters(parametric_legendre):
    # H = p.v - L with v solved from p = dL/dv by sympy
    sp = pytest.importorskip("sympy")
    sys_, lt, points = parametric_legendre
    names = [_names(sys_, a, mu) for a in range(sys_.n) for mu in range(sys_.m)]
    v = [sp.Symbol(s.name) for s, _ in names]
    p = [sp.Symbol(n) for _, n in names]
    for at in points:
        L = _sympy(substitute(sys_.lagrangian, at))
        K, rhs = sp.linear_eq_to_matrix([sp.diff(L, vj) - pj for vj, pj in zip(v, p)], v)
        sol = dict(zip(v, K.LUsolve(rhs)))
        want = sum(pj * sol[vj] for vj, pj in zip(v, p)) - L.subs(sol)
        assert sp.expand(_sympy(substitute(lt.hamiltonian_system.hamiltonian, at)) - want) == 0


def test_time_translation_law_is_decided_exactly():
    # the family's coefficients carry no denominator, so its solved
    # components keep H's inverted sums as they are and the law cancels
    # structurally instead of by probing
    model = parse(PARAMETRIC_MODELS[0].read_text(encoding="utf-8") + "symmetry T: d/dt\n")
    hs = legendre(model.system()).hamiltonian_system
    rep = classify(hamiltonian_lift(model.candidate("T", hs.chart)), hs)
    law = check_dissipative(rep.current, hdw_multivector(hs), hs.sigma)
    assert law.holds and law.certainty is ZeroCheck.ZERO


# ---------------------------------------------------------------------------
# The Legendre transform over one denominator, checked exactly: every
# comparison evaluates at random rational points in Fraction arithmetic.


def _legendre_cases():
    cases = [(e.name, e.system) for e in corpus(seed=11, size=6)]
    return cases + [(p.stem, parse(p.read_text(encoding="utf-8")).system()) for p in PARAMETRIC_MODELS]


LEGENDRE_CASES = _legendre_cases()


def _rational_values(rng, *exprs, count=3):
    """``count`` evaluations of ``exprs`` at random rational points where
    they are all defined, each a tuple of Fractions."""
    symbols = sorted({s for e in exprs for s in free_symbols(e)}, key=lambda s: s.key)
    out = []
    for _ in range(20 * count):
        at = {s: const(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for s in symbols}
        try:
            values = [substitute(e, at) for e in exprs]
        except ExprError:  # a denominator vanished at this point
            continue
        out.append(tuple(v.as_rational() for v in values))
        if len(out) == count:
            return out
    raise AssertionError("no point where every expression is defined")


def _velocity_map(sys_, lt):
    return {sys_.chart.symbol(n): e for n, e in lt.inverse.items() if n in sys_.chart._axis}


@pytest.mark.parametrize("name, sys_", LEGENDRE_CASES, ids=[n for n, _ in LEGENDRE_CASES])
def test_hamiltonian_equals_energy_through_the_inverse(name, sys_):
    # H = E_L o FL^-1, the substitute-based construction, as a reference
    lt = legendre(sys_)
    reference = substitute(sys_.energy, _velocity_map(sys_, lt))
    for h, want in _rational_values(random.Random(name), lt.hamiltonian_system.hamiltonian, reference):
        assert h == want


@pytest.mark.parametrize("name, sys_", LEGENDRE_CASES, ids=[n for n, _ in LEGENDRE_CASES])
def test_legendre_forward_after_inverse_is_identity(name, sys_):
    lt = legendre(sys_)
    hch = lt.hamiltonian_system.chart
    rng = random.Random(name)
    for p, e in lt.forward.items():
        back = substitute(e, _velocity_map(sys_, lt))
        for got, want in _rational_values(rng, back, hch.coord(p), count=2):
            assert got == want
    fwd = {hch.symbol(n): e for n, e in lt.forward.items()}
    for v, e in lt.inverse.items():
        for got, want in _rational_values(rng, substitute(e, fwd), sys_.chart.coord(v), count=2):
            assert got == want


@pytest.mark.parametrize("path", PARAMETRIC_MODELS, ids=[p.stem for p in PARAMETRIC_MODELS])
def test_elimination_numerators_are_the_adjugate(path):
    # K num = D (p - b) with D = +-det K, that is det(K) K^-1 = adj(K);
    # the Hessians here are polynomial, so the identity is exact and structural
    sys_ = parse(path.read_text(encoding="utf-8")).system()
    hch = legendre(sys_).hamiltonian_system.chart
    keys = [(a, mu) for a in range(sys_.n) for mu in range(sys_.m)]
    vel = [_names(sys_, a, mu)[0] for a, mu in keys]
    p_minus_b = [
        hch.coord(_names(sys_, a, mu)[1]) - substitute(sys_.momenta[(a, mu)], {s: 0 for s in vel}) for a, mu in keys
    ]
    numerators, free, D = affine_numerators([sys_.momenta[k] - hch.coord(_names(sys_, *k)[1]) for k in keys], vel)
    assert not free and D in (sys_.hessian_det, -sys_.hessian_det)
    for row, pb in zip(sys_.hessian, p_minus_b):
        assert not add(*(mul(k, numerators[s]) for k, s in zip(row, vel)), -D * pb).terms


@pytest.mark.parametrize("path", PARAMETRIC_MODELS, ids=[p.stem for p in PARAMETRIC_MODELS])
def test_hdw_family_annihilates_theta_h_at_rational_parameters(path):
    model = parse(path.read_text(encoding="utf-8"))
    hs = legendre(model.system()).hamiltonian_system
    X = hdw_multivector(hs).multivector()
    rng = random.Random(path.stem)
    for form in (contract(X, hs.theta), contract(X, hs.bar_d_theta())):
        for _ in range(2):
            # at rational parameters det K is a number, so each coefficient is
            # a polynomial and zero is decided by its canonical form
            at = {n: const(Fraction(rng.randint(1, 9), rng.randint(1, 5))) for n, _ in model.params}
            assert all(not substitute(c, at).terms for _, c in form.items())


@pytest.mark.parametrize("path", PARAMETRIC_MODELS, ids=[p.stem for p in PARAMETRIC_MODELS])
def test_legendre_pulls_theta_h_back_to_theta_l_exactly(path):
    # FL* Theta_H and Theta_L differ in form (H keeps inverted sums), so
    # their difference is decided by the exact zero test, not by ==
    sys_ = parse(path.read_text(encoding="utf-8")).system()
    lt = legendre(sys_)
    pulled = pullback_along(lt.forward, lt.hamiltonian_system.theta, sys_.chart)
    assert form_zero_check(pulled - sys_.theta).certainty is ZeroCheck.ZERO


def test_coupled_n3_hamiltonian_within_twice_sympy_size():
    # sympy writes the same H as N/D with N of 182 terms
    sys_ = parse(PARAMETRIC_MODELS[1].read_text(encoding="utf-8")).system()
    assert len(legendre(sys_).hamiltonian_system.hamiltonian.terms) <= 364
