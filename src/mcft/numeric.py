"""Finite-difference integration of 1+1D damped wave systems and
discrete verification of conservation/dissipation laws along solutions.

The integrator is a second-order leapfrog with the damping term
discretized semi-implicitly,

    (y+ - 2y + y-)/dt^2 = c^2 D2 y - gamma (y+ - y-)/(2 dt),

which keeps the scheme's symmetric second-order accuracy for any
admissible gamma.  Currents xi are pulled back along the discrete
section with central differences; the dissipation-law residual

    d f^mu / dx^mu - (dL/ds^mu o psi) f^mu

is reported with max and L2 norms over interior points.  The action
coordinate uses the gauge s^x = 0 and integrates ds^t/dt = L o psi by
the trapezoid rule (implicitly in the affine s-coupling).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional

import numpy as np

from .charts import Chart
from .expr import Expr, Symbol, diff, evaluate, free_symbols, substitute
from .forms import Form

__all__ = [
    "NumericError",
    "CflError",
    "BlowupError",
    "Grid1p1",
    "make_grid",
    "Trajectory",
    "integrate_damped_wave",
    "evaluate_current",
    "dissipation_residual",
    "integrate_action_coordinate",
    "momentum_series",
    "energy_series",
    "decay_fit",
    "wave_params_from_system",
    "compile_expr",
]


class NumericError(Exception):
    pass


class CflError(NumericError):
    pass


class BlowupError(NumericError):
    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite values at step {step}")


BCS = ("periodic", "dirichlet-zero")


@dataclass(frozen=True)
class Grid1p1:
    """Space-time grid on [0, Lx) x [0, nt*dt]."""

    nx: int
    lx: float
    dt: float
    nt: int
    bc: str = "periodic"
    wave_speed: float = 1.0

    def __post_init__(self):
        if self.nx < 8:
            raise NumericError("need at least 8 spatial points")
        if self.bc not in BCS:
            raise NumericError(f"unknown boundary condition {self.bc!r}")
        if self.dt <= 0 or self.nt < 2:
            raise NumericError("need positive dt and at least two time steps (three levels for d/dt)")
        if self.wave_speed * self.dt / self.dx > 1.0 + 1e-12:
            raise CflError(
                f"CFL number {self.wave_speed * self.dt / self.dx:.3f} exceeds 1"
            )

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.nt + 1) * self.dt

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.dx


def make_grid(nx: int, lx: float, cfl: float, t_final: float, wave_speed: float, bc: str = "periodic") -> Grid1p1:
    if cfl <= 0 or cfl > 1.0:
        raise CflError(f"CFL factor must lie in (0, 1], got {cfl}")
    if nx < 8:
        raise NumericError("need at least 8 spatial points")
    if lx <= 0:
        raise NumericError(f"domain length must be positive, got {lx}")
    dx = lx / nx
    dt = cfl * dx / wave_speed
    nt = max(1, round(t_final / dt))
    return Grid1p1(nx=nx, lx=lx, dt=dt, nt=nt, bc=bc, wave_speed=wave_speed)


def _d2x(y: np.ndarray, bc: str, out: np.ndarray) -> np.ndarray:
    """(y[i+1] - 2 y[i]) + y[i-1] of a row into ``out``, edges wrapped or zero."""
    np.subtract(y[2:], np.multiply(y[1:-1], 2.0, out=out[1:-1]), out=out[1:-1])
    out[1:-1] += y[:-2]
    if bc == "periodic":
        out[0] = y[1] - 2.0 * y[0] + y[-1]
        out[-1] = y[0] - 2.0 * y[-1] + y[-2]
    else:
        out[0] = out[-1] = 0.0
    return out


@dataclass
class Trajectory:
    """Discrete field solution with derived central-difference arrays;
    ``y_t`` and ``y_x`` are computed once, and ``integrate_damped_wave``
    returns ``y`` read-only so that they cannot go stale."""

    grid: Grid1p1
    params: dict
    y: np.ndarray  # shape (nt+1, nx)
    s_t: Optional[np.ndarray] = None  # gauge: s_x = 0

    def d_dt(self, a: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        np.subtract(a[2:], a[:-2], out=out[1:-1])
        out[0] = -3.0 * a[0] + 4.0 * a[1] - a[2]
        out[-1] = 3.0 * a[-1] - 4.0 * a[-2] + a[-3]
        out /= 2.0 * self.grid.dt
        return out

    def d_dx(self, a: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        np.subtract(a[..., 2:], a[..., :-2], out=out[..., 1:-1])
        if self.grid.bc == "periodic":
            out[..., 0] = a[..., 1] - a[..., -1]
            out[..., -1] = a[..., 0] - a[..., -2]
        else:
            out[..., 0] = -3.0 * a[..., 0] + 4.0 * a[..., 1] - a[..., 2]
            out[..., -1] = 3.0 * a[..., -1] - 4.0 * a[..., -2] + a[..., -3]
        out /= 2.0 * self.grid.dx
        return out

    @cached_property
    def y_t(self) -> np.ndarray:
        return self.d_dt(self.y)

    @cached_property
    def y_x(self) -> np.ndarray:
        return self.d_dx(self.y)

    @property
    def t(self) -> np.ndarray:
        return self.grid.t

    @property
    def x(self) -> np.ndarray:
        return self.grid.x


def integrate_damped_wave(params: Mapping[str, float], y0: np.ndarray, v0: np.ndarray, grid: Grid1p1) -> Trajectory:
    """Leapfrog for rho y_tt - tau y_xx = -gamma rho y_t; deterministic."""
    rho, tau, gamma = float(params["rho"]), float(params["tau"]), float(params["gamma"])
    if rho <= 0 or tau <= 0:
        raise NumericError("need rho > 0 and tau > 0")
    c2 = tau / rho
    c = math.sqrt(c2)
    if c * grid.dt / grid.dx > 1.0 + 1e-12:
        raise CflError(f"CFL number {c * grid.dt / grid.dx:.3f} exceeds 1")
    y0 = np.asarray(y0, dtype=float).copy()
    v0 = np.asarray(v0, dtype=float).copy()
    if y0.shape != (grid.nx,) or v0.shape != (grid.nx,):
        raise NumericError(f"initial data must have shape ({grid.nx},)")
    for name, data in (("y0", y0), ("v0", v0)):
        if not np.isfinite(data).all():
            raise NumericError(f"initial data {name} is not finite on the grid")
    if grid.bc == "dirichlet-zero":
        y0[0] = y0[-1] = 0.0
        v0[0] = v0[-1] = 0.0
    dt, dx = grid.dt, grid.dx
    lam2 = c2 * dt * dt / (dx * dx)
    y = np.empty((grid.nt + 1, grid.nx), dtype=float)
    scratch = np.empty(grid.nx, dtype=float)
    y[0] = y0
    y[1] = y0 + dt * v0 + 0.5 * dt * dt * (c2 * _d2x(y0, grid.bc, scratch) / (dx * dx) - gamma * v0)
    if grid.bc == "dirichlet-zero":
        y[1, 0] = y[1, -1] = 0.0
    a_plus = 1.0 + 0.5 * gamma * dt
    a_minus = 1.0 - 0.5 * gamma * dt
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, grid.nt):
            # y[n+1] = ((2 y[n] - a_minus y[n-1]) + lam2 D2 y[n]) / a_plus, in place
            row = y[n + 1]
            np.subtract(np.multiply(y[n], 2.0, out=row), np.multiply(y[n - 1], a_minus, out=scratch), out=row)
            row += np.multiply(_d2x(y[n], grid.bc, scratch), lam2, out=scratch)
            row /= a_plus
            if grid.bc == "dirichlet-zero":
                row[0] = row[-1] = 0.0
            if not np.isfinite(row).all():
                raise BlowupError(n + 1)
    y.flags.writeable = False
    return Trajectory(grid=grid, params={"rho": rho, "tau": tau, "gamma": gamma}, y=y)


# ---------------------------------------------------------------------------
# Expression compilation onto grid arrays.


def compile_expr(e: Expr) -> Callable[[Mapping[str, object]], object]:
    """Compile a canonical expression into a vectorized numpy evaluator."""
    from .expr import FuncAtom

    np_fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp}

    def compile_atom(a):
        if isinstance(a, Symbol):
            def f(env, name=a.name):
                try:
                    return env[name]
                except KeyError:
                    raise NumericError(f"expression references {name!r}, absent from the trajectory") from None
            return f
        if isinstance(a, FuncAtom):
            inner = compile_expr(a.arg)
            fn = np_fn[a.fn]
            return lambda env: fn(inner(env))
        return compile_expr(a.expr)

    compiled_terms = []
    for mono, c in e.terms:
        factors = [(compile_atom(a), k) for a, k in mono]
        compiled_terms.append((float(c), factors))

    def run(env):
        total = 0.0
        for c, factors in compiled_terms:
            v = c
            for fa, k in factors:
                base = fa(env)
                v = v * (base ** k if k != 1 else base)
            total = total + v
        return total

    return run


def _traj_env(traj: Trajectory, chart: Chart, bindings: Mapping[str, float], names: set) -> dict:
    if len(chart.field_axes) != 1:
        raise NumericError("trajectory environments support a single field")
    env: dict = dict(bindings)
    nt1, nx = traj.y.shape
    if "t" in names:
        env["t"] = np.broadcast_to(traj.t[:, None], (nt1, nx))
    if "x" in names:
        env["x"] = np.broadcast_to(traj.x[None, :], (nt1, nx))
    fname = chart.coords[chart.field_axes[0]].name
    env[fname] = traj.y
    env[f"{fname}_t"] = traj.y_t
    env[f"{fname}_x"] = traj.y_x
    if traj.s_t is not None:
        env["s_t"] = traj.s_t
    env["s_x"] = 0.0
    return env


def evaluate_current(xi: Form, traj: Trajectory, bindings: Mapping[str, float]):
    """Components f^t, f^x of the pulled-back current psi* xi = f^t dx - f^x dt."""
    chart = xi.chart
    if xi.degree != 1:
        raise NumericError("current evaluation needs a 1-form (base dimension 2)")
    if len(chart.field_axes) != 1 or chart.base_dim != 2:
        raise NumericError("trajectory currents support one field over two base axes")
    names = {s.name for c in xi.table.values() for s in free_symbols(c)} | {
        chart.coords[i].name for (i,) in xi.table.keys()
    }
    if "s_t" in names and traj.s_t is None:
        raise NumericError("current references s_t but the trajectory carries no action coordinate")
    env = _traj_env(traj, chart, bindings, names)
    fname = chart.coords[chart.field_axes[0]].name
    # differential of each coordinate along the section, (d/dt, d/dx) parts,
    # computed only for the coordinates the current carries
    dpsi = {
        "t": lambda: (1.0, 0.0),
        "x": lambda: (0.0, 1.0),
        fname: lambda: (traj.y_t, traj.y_x),
        f"{fname}_t": lambda: (traj.d_dt(traj.y_t), traj.d_dx(traj.y_t)),
        f"{fname}_x": lambda: (traj.d_dt(traj.y_x), traj.d_dx(traj.y_x)),
        "s_x": lambda: (0.0, 0.0),
    }
    if traj.s_t is not None:
        dpsi["s_t"] = lambda: (traj.d_dt(traj.s_t), traj.d_dx(traj.s_t))
    A = np.zeros(traj.y.shape)  # dt component
    B = np.zeros(traj.y.shape)  # dx component
    for (i,), coeff in xi.table.items():
        name = chart.coords[i].name
        if name not in dpsi:
            raise NumericError(f"current references {name!r}, absent from the trajectory")
        cval = compile_expr(coeff)(env)
        d_t, d_x = dpsi[name]()
        A += cval * d_t
        B += cval * d_x
    return B, np.negative(A, out=A)


@dataclass
class ResidualReport:
    residual: np.ndarray  # interior points
    max_norm: float
    l2_norm: float


def dissipation_residual(ft: np.ndarray, fx: np.ndarray, source_t, source_x, traj: Trajectory) -> ResidualReport:
    """Central-difference divergence of the current minus the dissipation
    source (dL/ds^mu o psi) f^mu."""
    if ft.shape != traj.y.shape or fx.shape != traj.y.shape:
        raise NumericError("current arrays must match the trajectory shape")
    r = traj.d_dt(ft)
    r += traj.d_dx(fx)
    r -= source_t * ft + source_x * fx
    interior = r[1:-1, :] if traj.grid.bc == "periodic" else r[1:-1, 1:-1]
    scale = math.sqrt(traj.grid.dx * traj.grid.dt)
    return ResidualReport(
        residual=interior,
        max_norm=float(np.max(np.abs(interior))) if interior.size else 0.0,
        l2_norm=float(np.sqrt(np.sum(interior * interior)) * scale),
    )


def integrate_action_coordinate(traj: Trajectory, L: Expr, chart: Chart, bindings: Mapping[str, float]) -> np.ndarray:
    """Integrate ds^t/dt = L o psi per column by the trapezoid rule with
    s^t(0, .) = 0 and the gauge s^x = 0.  Affine s_t-dependence of L is
    handled implicitly."""
    st_sym = chart.symbol("s_t")
    sx_sym = chart.symbol("s_x")
    c_t = diff(L, st_sym)
    if free_symbols(c_t) - {s for s in free_symbols(c_t) if s.role == "param"}:
        raise NumericError("only affine s_t-dependence is supported")
    if diff(L, sx_sym).terms:
        raise NumericError("gauge s_x = 0 needs L independent of s_x")
    ct_val = evaluate(c_t, bindings) if c_t.terms else 0.0
    L0 = substitute(L, {st_sym: 0, sx_sym: 0})
    names = {s.name for s in free_symbols(L0)}
    env = _traj_env(traj, chart, bindings, names)
    lvals = np.broadcast_to(compile_expr(L0)(env), traj.y.shape)
    dt = traj.grid.dt
    growth = 1.0 + 0.5 * dt * ct_val
    denom = 1.0 - 0.5 * dt * ct_val
    # s[n] = (s[n-1] growth + 0.5 dt (l[n] + l[n-1])) / denom; increments first
    s = np.zeros(traj.y.shape)
    np.add(lvals[1:], lvals[:-1], out=s[1:])
    s[1:] *= 0.5 * dt
    for n in range(1, s.shape[0]):
        s[n] += s[n - 1] * growth
        s[n] /= denom
    return s


def momentum_series(traj: Trajectory) -> np.ndarray:
    """P(t) = sum_i rho y_t dx."""
    return traj.params["rho"] * np.sum(traj.y_t, axis=1) * traj.grid.dx


def energy_series(traj: Trajectory) -> np.ndarray:
    """E(t) = sum_i (rho y_t^2 + tau y_x^2)/2 dx."""
    rho, tau = traj.params["rho"], traj.params["tau"]
    return np.sum(0.5 * rho * traj.y_t ** 2 + 0.5 * tau * traj.y_x ** 2, axis=1) * traj.grid.dx


def decay_fit(t: np.ndarray, p: np.ndarray) -> float:
    """Exponent gamma_hat from a least-squares fit of log p(t); requires a
    strictly one-signed momentum series."""
    p = np.asarray(p, dtype=float)
    if np.all(p > 0):
        logp = np.log(p)
    elif np.all(p < 0):
        logp = np.log(-p)
    else:
        raise NumericError("momentum series changes sign; cannot fit a decay exponent")
    slope = np.polyfit(t, logp, 1)[0]
    return float(-slope)


def wave_params_from_system(lsys, bindings: Mapping[str, float]):
    """Extract (rho, tau, gamma) from a Lagrangian of the damped-string
    shape; reject anything the integrator does not model."""
    chart = lsys.chart
    if chart.base_dim != 2 or len(chart.field_axes) != 1:
        raise NumericError("numeric integration supports one field over two base axes")
    h = lsys.hessian
    for i in range(2):
        for j in range(2):
            if i != j and h[i][j].terms:
                raise NumericError("mixed velocity terms are not supported numerically")
            if i == j and not h[i][j].is_rational and free_symbols(h[i][j]) - {s for s in free_symbols(h[i][j]) if s.role == "param"}:
                raise NumericError("velocity coefficients must be constants")
    rho = evaluate(h[0][0], bindings)
    tau = -evaluate(h[1][1], bindings)
    vt = chart.symbols[chart.velocity_axis(0, 0)]
    vx = chart.symbols[chart.velocity_axis(0, 1)]
    lin_t = substitute(lsys.momenta[(0, 0)], {vt: 0, vx: 0})
    lin_x = substitute(lsys.momenta[(0, 1)], {vt: 0, vx: 0})
    if lin_t.terms or lin_x.terms:
        raise NumericError("velocity-linear terms are not supported numerically")
    if diff(lsys.lagrangian, chart.symbols[chart.field_axes[0]]).terms:
        raise NumericError("y-dependent densities are not supported numerically")
    st = chart.symbol("s_t")
    sx = chart.symbol("s_x")
    dst = diff(lsys.lagrangian, st)
    if any(s.role != "param" for s in free_symbols(dst)):
        raise NumericError("only affine s_t-dependence is supported")
    if diff(lsys.lagrangian, sx).terms:
        raise NumericError("s_x-dependent densities are not supported numerically")
    base_syms = [chart.symbols[i] for i in chart.base_axes]
    l_base = substitute(lsys.lagrangian, {vt: 0, vx: 0, st: 0, sx: 0})
    for s in free_symbols(l_base):
        if s.role != "param" and s not in base_syms:
            raise NumericError("unsupported density shape for numeric integration")
    gamma = -evaluate(dst, bindings) if dst.terms else 0.0
    if rho <= 0 or tau <= 0:
        raise NumericError("need rho > 0 and tau > 0 for a real wave speed")
    return float(rho), float(tau), float(gamma)
