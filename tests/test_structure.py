"""The candidate-independent structure a system derives once: dTheta,
dsigma, domega and bar_d Theta; and the classification by L_Y Theta,
L_Y omega and L_Y sigma, checked against Cartan's formula built from
the public contraction and exterior derivative."""
import pathlib
from collections import Counter
from fractions import Fraction

import pytest

from mcft import forms, hamiltonian, lagrangian
from mcft.corpus import corpus
from mcft.dsl import parse
from mcft.expr import ZeroCheck, diff, is_zero
from mcft.forms import bar_d, contract, ext_d, lie_derivative
from mcft.hamiltonian import hdw_multivector, hdw_residuals, legendre
from mcft.lagrangian import build_lagrangian_system
from mcft.symmetry import NOETHER, NOT_NOETHER, STRONG_NOETHER, classify, hamiltonian_lift

PARAMETRIC_N2 = pathlib.Path(__file__).resolve().parent / "goldens" / "parametric_n2.mcft"


def string_lagrangian(chart, params, damped: bool):
    yt, yx, st = chart.coord("y_t"), chart.coord("y_x"), chart.coord("s_t")
    L = Fraction(1, 2) * (params["rho"] * yt**2 - params["tau"] * yx**2)
    return L - params["gamma"] * st if damped else L


@pytest.fixture(params=["lagrangian", "hamiltonian"])
def fresh_system(request, string_chart, params):
    sys_ = build_lagrangian_system(string_chart, string_lagrangian(string_chart, params, damped=True))
    return sys_ if request.param == "lagrangian" else legendre(sys_).hamiltonian_system


def test_cached_forms_equal_fresh_derivatives(fresh_system):
    s = fresh_system
    assert s.d_theta == ext_d(s.theta) and not s.d_theta.is_structurally_zero()
    assert s.bar_d_theta() == bar_d(s.theta, s.sigma)


def test_cached_forms_are_built_once(fresh_system):
    s = fresh_system
    assert s.d_theta is s.d_theta
    assert s.bar_d_theta() is s.bar_d_theta()


def test_bar_d_theta_reuses_the_cached_d_theta(monkeypatch, string_text):
    # reading d Theta and bar_d Theta takes ext_d(Theta) once between them
    calls = []

    def counting_ext_d(a):
        calls.append(a)
        return ext_d(a)

    monkeypatch.setattr(forms, "ext_d", counting_ext_d)
    monkeypatch.setattr(lagrangian, "ext_d", counting_ext_d)
    s = parse(string_text).system()
    s.d_theta, s.bar_d_theta()
    assert len(calls) == 1


def test_hdw_data_differentiates_H_once_per_coordinate(monkeypatch, string_text):
    # the HDW residuals and multivector family read dH/dp, dH/dy and dH/ds
    # from the system, which takes each derivative on first use
    hsys = legendre(parse(string_text).system()).hamiltonian_system
    calls = []

    def counting_diff(e, v):
        calls.append(v)
        return diff(e, v)

    monkeypatch.setattr(hamiltonian, "diff", counting_diff)
    hdw_residuals(hsys), hdw_multivector(hsys), hdw_residuals(hsys)
    chart = hsys.chart
    coordinates = [chart.momentum_axis(0, mu) for mu in range(hsys.m)] + [chart.field_axes[0]]
    coordinates += [chart.action_axis(mu) for mu in range(hsys.m)]
    assert Counter(calls) == Counter(chart.symbols[i] for i in coordinates)


def test_systems_built_back_to_back_share_no_cache(string_chart, params):
    damped = build_lagrangian_system(string_chart, string_lagrangian(string_chart, params, damped=True))
    first = (damped.d_theta, damped.bar_d_theta())
    undamped = build_lagrangian_system(string_chart, string_lagrangian(string_chart, params, damped=False))
    assert undamped.d_theta == ext_d(undamped.theta) != first[0]
    assert undamped.bar_d_theta() == bar_d(undamped.theta, undamped.sigma) != first[1]
    assert undamped.sigma.is_structurally_zero()
    assert (damped.d_theta, damped.bar_d_theta()) == first


def cartan_oracle(X, a):
    """L_X a = d i_X a + i_X d a for a vector field X."""
    right = contract(X, ext_d(a))
    return right if a.degree == 0 else ext_d(contract(X, a)) + right


def reference_report(Y, system):
    """classify's verdict rebuilt from the Cartan oracle, coefficient by coefficient."""
    checks = []
    for f in (system.theta, system.omega, system.sigma):
        lie = cartan_oracle(Y, f)
        verdicts = [(idx, c, is_zero(c)) for idx, c in lie.items()]
        nonzero = [(tuple(lie.chart.coords[i].name for i in idx), c) for idx, c, z in verdicts if z is ZeroCheck.NONZERO]
        probed = not nonzero and any(z is ZeroCheck.PROBABLY_ZERO for _, _, z in verdicts)
        checks.append((nonzero, probed))
    (wt, _), (ww, _), (ws, _) = checks
    label = NOT_NOETHER if wt else NOETHER if ww else STRONG_NOETHER
    return label, not ws, wt, any(p for _, p in checks), contract(Y, system.theta)


def corpus_cases():
    for entry in corpus(seed=11, size=6):
        for label, Y in entry.candidates:
            yield f"{entry.name}:{label}", Y, entry.system
    model = parse(PARAMETRIC_N2.read_text(encoding="utf-8"))
    hs = legendre(model.system()).hamiltonian_system
    for name in ("Z", "D"):
        yield f"parametric_n2:ham:{name}", hamiltonian_lift(model.candidate(name, hs.chart)), hs


def test_classify_matches_reference_over_corpus_and_hamiltonian_side():
    labels = set()
    for case, Y, system in corpus_cases():
        rep = classify(Y, system)
        got = (rep.classification, rep.sigma_invariant, rep.witnesses, rep.numerically_certified, rep.current)
        assert got == reference_report(Y, system), case
        labels.add(rep.classification)
    # both verdicts these theories reach, so neither branch goes unchecked
    assert {NOT_NOETHER, STRONG_NOETHER} <= labels


def test_vector_lie_derivative_matches_cartan_oracle_on_structure_forms():
    for case, Y, system in corpus_cases():
        for f in (system.theta, system.omega, system.sigma):
            assert lie_derivative(Y, f) == cartan_oracle(Y, f), case


def test_classify_tests_each_coefficient_once(monkeypatch):
    model = parse(PARAMETRIC_N2.read_text(encoding="utf-8"))
    hs = legendre(model.system()).hamiltonian_system
    Y = hamiltonian_lift(model.candidate("D", hs.chart))
    probed = []

    def counting_is_zero(e, **kwargs):
        probed.append(e)
        return is_zero(e, **kwargs)

    monkeypatch.setattr(forms, "is_zero", counting_is_zero)
    rep = classify(Y, hs)
    assert rep.classification == NOT_NOETHER and rep.witnesses
    coefficients = [c for f in (hs.theta, hs.omega, hs.sigma) for _, c in lie_derivative(Y, f).items()]
    assert Counter(probed) == Counter(coefficients)
