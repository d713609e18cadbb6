import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mcft.charts import jet_chart
from mcft.expr import diff, evaluate, var
from mcft.forms import Multivector, one_form
from mcft.lagrangian import build_lagrangian_system
from mcft.numeric import (
    BCS,
    BlowupError,
    CflError,
    Grid1p1,
    Trajectory,
    _d2x,
    NumericError,
    ResidualNorms,
    compile_expr,
    damped_wave,
    decay_fit,
    dissipation_residual,
    energy_series,
    evaluate_current,
    integrate_action_coordinate,
    integrate_damped_wave,
    make_grid,
    momentum_series,
)
from mcft.symmetry import noether_current

PR = {"rho": 1.0, "tau": 1.0, "gamma": 0.1}
BINDINGS = {"rho": 1.0, "tau": 1.0, "gamma": 0.1}
K = 2 * math.pi


def sine_ic(grid, amp=1.0):
    return amp * np.sin(K * grid.x), np.zeros(grid.nx)


class TestGrid:
    def test_cfl_enforced(self):
        with pytest.raises(CflError):
            make_grid(64, 1.0, 1.5, 1.0, 1.0)

    def test_cfl_on_construction(self):
        from mcft.numeric import Grid1p1

        with pytest.raises(CflError):
            Grid1p1(nx=64, lx=1.0, dt=0.1, nt=10, bc="periodic", wave_speed=2.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"nx": 4}, "need at least 8 spatial points"),
            ({"bc": "neumann"}, "unknown boundary condition 'neumann'"),
            ({"nt": 1}, "need positive dt and at least two time steps"),
            # a negative dx, a ZeroDivisionError in the CFL check, a negative CFL number
            ({"lx": -1.0}, "domain length must be positive and finite, got -1.0"),
            ({"lx": 0.0}, "domain length must be positive and finite, got 0.0"),
            ({"lx": math.inf}, "domain length must be positive and finite, got inf"),
            ({"wave_speed": -5}, "wave speed must be positive and finite, got -5"),
            ({"wave_speed": math.nan}, "wave speed must be positive and finite, got nan"),
        ],
        ids=["nx", "bc", "nt", "lx-negative", "lx-zero", "lx-inf", "wave_speed-negative", "wave_speed-nan"],
    )
    def test_checks_on_construction(self, kwargs, message):
        with pytest.raises(NumericError, match=message) as err:
            Grid1p1(**{"nx": 64, "lx": 1.0, "dt": 0.5 / 64, "nt": 10, **kwargs})
        assert not isinstance(err.value, CflError)

    @pytest.mark.parametrize(
        "args, message",
        [
            # a ZeroDivisionError, a ValueError and an OverflowError before these checks
            ((64, 1.0, 0.5, 1.0, 0.0), "wave speed must be positive and finite, got 0.0"),
            ((64, math.nan, 0.5, 1.0, 1.0), "domain length must be positive and finite, got nan"),
            ((64, 1.0, 0.5, math.inf, 1.0), "final time must be positive and finite, got inf"),
            ((64, 1.0, 0.5, -1.0, 1.0), "final time must be positive and finite, got -1.0"),
            ((64, 1e-300, 0.5, 1.0, 1e300), "time step must be positive and finite, got 0.0"),
            ((64, 1e-8, 0.5, 1e300, 1.0), "step count must be positive and finite, got inf"),
        ],
        ids=["wave_speed-zero", "lx-nan", "t_final-inf", "t_final-negative", "dt-underflow", "steps-overflow"],
    )
    def test_make_grid_checks_before_dt_and_nt(self, args, message):
        with pytest.raises(NumericError, match=message) as err:
            make_grid(*args)
        assert not isinstance(err.value, CflError)

    def test_minimum_points(self):
        with pytest.raises(NumericError):
            make_grid(4, 1.0, 0.5, 1.0, 1.0)

    def test_needs_two_time_steps(self):
        # one step leaves two time levels; the one-sided d/dt reads three
        with pytest.raises(NumericError):
            make_grid(16, 1.0, 0.5, 0.01, 1.0)
        assert make_grid(16, 1.0, 0.5, 0.06, 1.0).nt == 2


def _roll_d2x(y, bc):
    """The np.roll second difference the slice stencil replaced."""
    if bc == "periodic":
        return np.roll(y, -1) - 2.0 * y + np.roll(y, 1)
    out = np.zeros_like(y)
    out[1:-1] = y[2:] - 2.0 * y[1:-1] + y[:-2]
    return out


def _roll_d_dx(a, dx):
    return (np.roll(a, -1, axis=-1) - np.roll(a, 1, axis=-1)) / (2.0 * dx)


@settings(max_examples=80, deadline=None)
@given(
    a=arrays(np.float64, st.tuples(st.integers(3, 6), st.integers(8, 40)), elements=st.floats(-1e6, 1e6)),
    bc=st.sampled_from(BCS),
)
def test_slice_stencils_match_roll_formulas(a, bc):
    for row in a:
        assert np.array_equal(_d2x(row, bc, np.full_like(row, np.nan)), _roll_d2x(row, bc))
    nt, nx = a.shape[0] - 1, a.shape[1]
    tr = Trajectory(grid=Grid1p1(nx=nx, lx=1.0, dt=0.5 / nx, nt=nt, bc="periodic"), params={}, y=a)
    assert np.array_equal(tr.d_dx(a), _roll_d_dx(a, tr.grid.dx))
    assert np.array_equal(tr.d_dx(a[1]), _roll_d_dx(a[1], tr.grid.dx))


class TestIntegrator:
    def test_standing_wave_convergence(self):
        errs = []
        for nx in (64, 128, 256):
            g = make_grid(nx, 1.0, 0.5, 2.0, 1.0)
            y0, v0 = sine_ic(g)
            tr = integrate_damped_wave({"rho": 1, "tau": 1, "gamma": 0}, y0, v0, g)
            exact = np.sin(K * g.x)[None, :] * np.cos(K * g.t)[:, None]
            errs.append(float(np.sqrt(np.mean((tr.y - exact) ** 2))))
        for a, b in zip(errs, errs[1:]):
            assert 3.2 <= a / b <= 4.8

    def test_zero_data_stays_zero(self):
        g = make_grid(32, 1.0, 0.5, 1.0, 1.0)
        tr = integrate_damped_wave(PR, np.zeros(g.nx), np.zeros(g.nx), g)
        assert np.all(tr.y == 0.0)

    def test_momentum_decay_law(self):
        # periodic x integral of the field equation: dP/dt = -gamma P
        for gamma in (0.0, 0.1, 0.5):
            g = make_grid(256, 1.0, 0.5, 2.0, 1.0)
            y0 = 0.1 * np.sin(K * g.x)
            v0 = np.ones(g.nx)
            tr = integrate_damped_wave({"rho": 1, "tau": 1, "gamma": gamma}, y0, v0, g)
            P = momentum_series(tr)
            expected = P[0] * np.exp(-gamma * tr.t)
            assert np.max(np.abs(P - expected)) / abs(P[0]) < 5e-5
            assert abs(decay_fit(tr.t, P) - gamma) <= 1e-3

    def test_momentum_conservation_undamped(self):
        g = make_grid(256, 1.0, 0.5, 10.0, 1.0)
        y0 = 0.1 * np.sin(K * g.x)
        v0 = np.ones(g.nx)
        tr = integrate_damped_wave({"rho": 1, "tau": 1, "gamma": 0}, y0, v0, g)
        P = momentum_series(tr)
        assert np.max(np.abs(P - P[0])) / abs(P[0]) <= 1e-6

    def test_energy_drift_over_ten_periods(self):
        g = make_grid(256, 1.0, 0.5, 10.0, 1.0)
        y0, v0 = sine_ic(g)
        tr = integrate_damped_wave({"rho": 1, "tau": 1, "gamma": 0}, y0, v0, g)
        E = energy_series(tr)
        per = round(1.0 / g.dt)
        samples = E[per::per]
        assert np.max(np.abs(samples - samples[0])) / samples[0] <= 1e-6

    def test_determinism(self):
        g = make_grid(64, 1.0, 0.5, 1.0, 1.0)
        y0, v0 = sine_ic(g)
        a = integrate_damped_wave(PR, y0, v0, g)
        b = integrate_damped_wave(PR, y0, v0, g)
        assert np.array_equal(a.y, b.y)

    def test_translation_of_solution_keeps_residual(self):
        # discrete stand-in for mapping solutions to solutions under the
        # strong Noether shift y -> y + eps (periodic boundary)
        g = make_grid(64, 1.0, 0.5, 1.0, 1.0)
        y0, v0 = sine_ic(g, amp=0.3)
        tr = integrate_damped_wave(PR, y0, v0, g)
        shifted = tr.y + 0.37

        def fe_residual(y, tr):
            rho, tau, gamma = PR["rho"], PR["tau"], PR["gamma"]
            dt, dx = tr.grid.dt, tr.grid.dx
            ytt = (y[2:] - 2 * y[1:-1] + y[:-2]) / dt**2
            yxx = (np.roll(y, -1, 1) - 2 * y + np.roll(y, 1, 1))[1:-1] / dx**2
            yt = (y[2:] - y[:-2]) / (2 * dt)
            return rho * ytt - tau * yxx + gamma * rho * yt

        def l2(r, tr):
            return float(np.sqrt(np.sum(r * r)) * math.sqrt(tr.grid.dx * tr.grid.dt))

        r0 = fe_residual(tr.y, tr)
        r1 = fe_residual(shifted, tr)
        assert abs(l2(r0, tr) - l2(r1, tr)) <= 1e-12

    def test_blowup_detected(self):
        # anti-damping grows the solution until it overflows; the
        # integrator must abort with the offending step index
        g = make_grid(32, 1.0, 0.5, 60.0, 1.0)
        y0, v0, gamma = np.sin(K * g.x), np.ones(g.nx), -50.0
        with pytest.raises(BlowupError) as exc:
            integrate_damped_wave({"rho": 1, "tau": 1, "gamma": gamma}, y0, v0, g)
        # reference: plain leapfrog rows until the first non-finite one
        dt, dx = g.dt, g.dx
        a_plus, a_minus = 1.0 + 0.5 * gamma * dt, 1.0 - 0.5 * gamma * dt
        prev, cur, first = y0, y0 + dt * v0 + 0.5 * dt * dt * (_roll_d2x(y0, "periodic") / (dx * dx) - gamma * v0), 1
        with np.errstate(over="ignore", invalid="ignore"):
            while np.isfinite(cur).all() and first <= g.nt:
                prev, cur = cur, (2.0 * cur - a_minus * prev + dt * dt / (dx * dx) * _roll_d2x(cur, "periodic")) / a_plus
                first += 1
        assert 1 < first <= g.nt
        assert exc.value.step == first

    def test_trajectory_read_only_with_cached_derivatives(self):
        g = make_grid(32, 1.0, 0.5, 0.5, 1.0)
        tr = integrate_damped_wave(PR, *sine_ic(g), g)
        with pytest.raises(ValueError):
            tr.y[1, 1] = 0.0
        assert tr.y_t is tr.y_t and tr.y_x is tr.y_x
        assert np.array_equal(tr.y_t, tr.d_dt(tr.y)) and np.array_equal(tr.y_x, tr.d_dx(tr.y))

    def test_dirichlet_boundary(self):
        g = make_grid(64, 1.0, 0.5, 1.0, 1.0, bc="dirichlet-zero")
        y0 = np.sin(math.pi * g.x)
        tr = integrate_damped_wave(PR, y0, np.zeros(g.nx), g)
        assert np.all(tr.y[:, 0] == 0) and np.all(tr.y[:, -1] == 0)


@pytest.fixture(scope="module")
def string_xi(string_system):
    return noether_current(Multivector.vector(string_system.chart, {"y": 1}), string_system)


class TestCurrent:
    def test_components_match_hand_value(self, string_xi):
        # psi* xi = f^t dx - f^x dt with f^t = -rho y_t, f^x = tau y_x
        g = make_grid(64, 1.0, 0.5, 1.0, 1.0)
        y0, v0 = sine_ic(g)
        tr = integrate_damped_wave(PR, y0, v0, g)
        ft, fx = evaluate_current(string_xi, tr, BINDINGS)
        assert np.allclose(ft, -PR["rho"] * tr.y_t)
        assert np.allclose(fx, PR["tau"] * tr.y_x)

    def test_dx_current(self, string_chart):
        g = make_grid(32, 1.0, 0.5, 0.5, 1.0)
        tr = integrate_damped_wave(PR, np.zeros(g.nx), np.ones(g.nx), g)
        ft, fx = evaluate_current(one_form(string_chart, "x"), tr, BINDINGS)
        assert np.all(ft == 1.0) and np.all(fx == 0.0)

    def test_zero_current(self, string_chart):
        from mcft.forms import Form

        g = make_grid(32, 1.0, 0.5, 0.5, 1.0)
        tr = integrate_damped_wave(PR, np.zeros(g.nx), np.ones(g.nx), g)
        ft, fx = evaluate_current(Form.zero(string_chart, 1), tr, BINDINGS)
        assert np.all(ft == 0.0) and np.all(fx == 0.0)

    def test_action_reference_needs_attached_s(self, string_chart):
        g = make_grid(32, 1.0, 0.5, 0.5, 1.0)
        tr = integrate_damped_wave(PR, np.zeros(g.nx), np.ones(g.nx), g)
        with pytest.raises(NumericError):
            evaluate_current(one_form(string_chart, "s_t"), tr, BINDINGS)


class TestDissipationResidual:
    def _residual_l2(self, nx, gamma, string_xi, L, chart):
        g = make_grid(nx, 1.0, 0.5, 2.0, 1.0)
        y0 = 0.1 * np.sin(K * g.x)
        v0 = np.ones(g.nx)
        tr = integrate_damped_wave({"rho": 1, "tau": 1, "gamma": gamma}, y0, v0, g)
        ft, fx = evaluate_current(string_xi, tr, {"rho": 1.0, "tau": 1.0, "gamma": gamma})
        src_t = evaluate(diff(L, chart.symbol("s_t")), {"rho": 1.0, "tau": 1.0, "gamma": gamma})
        norms = ResidualNorms(g)
        dissipation_residual(ft, fx, src_t, tr, norms)
        return norms.l2_norm

    def test_second_order_shrink(self, string_xi, string_system):
        l2 = [
            self._residual_l2(nx, 0.1, string_xi, string_system.lagrangian, string_system.chart)
            for nx in (128, 256, 512)
        ]
        for a, b in zip(l2, l2[1:]):
            assert 3.2 <= a / b <= 4.8

    def test_conservation_limit(self, string_xi, undamped_system):
        l2 = [
            self._residual_l2(nx, 0.0, string_xi, undamped_system.lagrangian, undamped_system.chart)
            for nx in (128, 256, 512)
        ]
        for a, b in zip(l2, l2[1:]):
            assert 3.2 <= a / b <= 4.8

    def test_zero_current_zero_residual(self, string_system):
        g = make_grid(64, 1.0, 0.5, 1.0, 1.0)
        y0, v0 = sine_ic(g)
        tr = integrate_damped_wave(PR, y0, v0, g)
        z = np.zeros_like(tr.y)
        norms = ResidualNorms(g)
        dissipation_residual(z, z, -0.1, tr, norms)
        assert norms.max_norm == 0.0 and norms.l2_norm == 0.0


class TestActionCoordinate:
    def test_static_zero_field(self, string_system):
        g = make_grid(32, 1.0, 0.5, 1.0, 1.0)
        tr = integrate_damped_wave(PR, np.zeros(g.nx), np.zeros(g.nx), g)
        s = integrate_action_coordinate(tr, string_system.lagrangian, string_system.chart, BINDINGS)
        assert np.all(s == 0.0)

    def test_standing_wave_closed_form(self, undamped_system):
        # s(t,x) = int_0^t (y_t^2 - y_x^2)/2 dt' on the exact standing wave
        w = K
        errs = []
        for nx in (128, 256):
            g = make_grid(nx, 1.0, 0.5, 1.0, 1.0)
            y0, v0 = sine_ic(g)
            tr = integrate_damped_wave({"rho": 1, "tau": 1, "gamma": 0}, y0, v0, g)
            s = integrate_action_coordinate(tr, undamped_system.lagrangian, undamped_system.chart, {"rho": 1.0, "tau": 1.0})
            T, X = np.meshgrid(tr.t, tr.x, indexing="ij")
            s_exact = 0.5 * w**2 * np.sin(K * X) ** 2 * (T / 2 - np.sin(2 * w * T) / (4 * w)) - 0.5 * K**2 * np.cos(
                K * X
            ) ** 2 * (T / 2 + np.sin(2 * w * T) / (4 * w))
            errs.append(float(np.max(np.abs(s - s_exact))))
        assert errs[0] < 0.05
        assert 3.2 <= errs[0] / errs[1] <= 4.8

    def test_affine_coupling_implicit(self, string_system):
        # with L = ... - gamma s_t, the column ODE is s' = L0 - gamma s
        g = make_grid(32, 1.0, 0.5, 1.0, 1.0)
        tr = integrate_damped_wave(PR, np.zeros(g.nx), np.ones(g.nx), g)
        s = integrate_action_coordinate(tr, string_system.lagrangian, string_system.chart, BINDINGS)
        assert np.all(np.isfinite(s))
        # uniform drift: y_t = e^{-gamma t}, L0 = y_t^2/2; compare column ODE
        from scipy.integrate import solve_ivp  # scipy is available in the env

        gamma = PR["gamma"]
        sol = solve_ivp(
            lambda t, y: 0.5 * math.exp(-2 * gamma * t) - gamma * y[0],
            (0.0, float(tr.t[-1])),
            [0.0],
            t_eval=tr.t,
            rtol=1e-10,
            atol=1e-12,
        )
        assert np.max(np.abs(s[:, 0] - sol.y[0])) < 5e-4


class TestWaveParams:
    def test_string_extraction(self, string_system):
        wave = damped_wave(string_system, BINDINGS)
        assert (wave.rho, wave.tau, wave.gamma) == (1.0, 1.0, 0.1)

    def test_rejects_y_dependence(self, string_chart, params):
        L = Fraction(1, 2) * (string_chart.coord("y_t") ** 2 - string_chart.coord("y_x") ** 2) - string_chart.coord("y") ** 2
        sys_ = build_lagrangian_system(string_chart, L)
        with pytest.raises(NumericError):
            damped_wave(sys_, BINDINGS)

    def test_rejects_mixed_velocities(self, string_chart):
        L = string_chart.coord("y_t") * string_chart.coord("y_x")
        sys_ = build_lagrangian_system(string_chart, L)
        with pytest.raises(NumericError):
            damped_wave(sys_, BINDINGS)


class TestCompile:
    def test_matches_scalar_evaluate(self):
        rng = random.Random(8)
        from mcft.expr import add, const, mul, sin as esin

        x = var("x")
        y = var("y")
        e = add(mul(const(Fraction(3, 2)), x, x), esin(mul(x, y)), const(-2))
        f = compile_expr(e)
        for _ in range(20):
            b = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
            assert abs(f(b) - evaluate(e, b)) < 1e-12

    def test_vectorized(self):
        x = var("x")
        f = compile_expr(x**2)
        arr = np.linspace(0, 1, 5)
        assert np.allclose(f({"x": arr}), arr**2)
