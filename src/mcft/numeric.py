"""Finite-difference integration of 1+1D damped wave systems and
discrete verification of conservation/dissipation laws along solutions.
Time is the first base coordinate and space the second, whatever their
names: each coordinate is found by its role on the jet chart.

The integrator is a second-order leapfrog with the damping term
discretized semi-implicitly,

    (y+ - 2y + y-)/dt^2 = c^2 D2 y - gamma (y+ - y-)/(2 dt),

which keeps the scheme's symmetric second-order accuracy for any
admissible gamma.  Currents xi are pulled back along the discrete
section with central differences, one component at a time (see
``evaluate_current``); the dissipation-law residual

    d f^mu / dx^mu - (dL/ds^mu o psi) f^mu

is formed on the interior core rows alone and reported with max and L2
norms, the L2 sum being math.fsum of each row's np.sum, whatever the
blocks.  Over a power-of-two 2 dt or 2 dx, a difference is multiplied
by the exact reciprocal: the bits of the division, at less cost.  The
action coordinate uses the gauge s^x = 0 and integrates ds^t/dt = L o
psi by the trapezoid rule (implicitly in the affine s-coupling).

Every array function works on a ``Trajectory`` window: consecutive time
levels, of which the rows ``core`` are the window's own and the others a
halo that its stencils read.  ``integrate_damped_wave`` returns the whole
solution as one window, and the functions return new arrays for it.
``stream_damped_wave`` yields the solution as consecutive windows of one
buffer of about BLOCK_CELLS cells, with one ``Workspace`` per stream: the
functions write each window's derivatives, coefficients, currents,
residual and series into the same few buffers of that size, allocated
once, so that memory stays O(block * nx) and no window allocates an
array of that size.
"""
from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Optional

import numpy as np

from .charts import Chart, ChartError
from .expr import EvalError, Expr, Symbol, diff, evaluate, free_symbols, substitute
from .forms import Form

__all__ = [
    "NumericError",
    "CflError",
    "BlowupError",
    "Grid1p1",
    "make_grid",
    "Trajectory",
    "integrate_damped_wave",
    "stream_damped_wave",
    "section_names",
    "current_names",
    "evaluate_current",
    "ResidualNorms",
    "dissipation_residual",
    "ActionCoordinate",
    "integrate_action_coordinate",
    "momentum_series",
    "energy_series",
    "decay_fit",
    "DampedWave",
    "damped_wave",
    "compile_expr",
    "scenario_mesh",
    "momentum_gate",
    "LawCheck",
    "check_law",
]


class NumericError(Exception):
    pass


class CflError(NumericError):
    pass


_TOO_LARGE = "cannot evaluate the model at its parameter values: a value is too large for a float"


class BlowupError(NumericError):
    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite values at step {step}")


BCS = ("periodic", "dirichlet-zero")
BLOCK_CELLS = 1 << 16  # cells per streamed block: 512 KB per float64 array, near-cache sized
HALO = 2  # levels a window reads beyond its core: the residual at n reads y_t and s_t at n+-1, which read y at n+-2


def _check_positive(*named) -> None:
    """Raise unless every (name, value) pair holds a positive finite value."""
    for name, v in named:
        if not 0.0 < v < math.inf:  # NaN too
            raise NumericError(f"{name} must be positive and finite, got {v}")


class Grid1p1:
    """Space-time grid on [0, Lx) x [0, nt*dt]."""

    def __init__(self, nx: int, lx: float, dt: float, nt: int, bc: str = "periodic"):
        self.nx, self.lx, self.dt, self.nt, self.bc = nx, lx, dt, nt, bc
        _check_positive(("domain length", lx))
        if nx < 8:
            raise NumericError("need at least 8 spatial points")
        if bc not in BCS:
            raise NumericError(f"unknown boundary condition {bc!r}")
        if dt <= 0 or nt < 2:
            raise NumericError("need positive dt and at least two time steps (three levels for d/dt)")

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
    if nx > sys.float_info.max:  # lx / nx would raise OverflowError
        raise NumericError("grid size nx is too large for a float")
    _check_positive(("domain length", lx), ("final time", t_final), ("wave speed", wave_speed))
    dt = cfl * (lx / nx) / wave_speed  # 0 when it underflows, NaN for a NaN cfl
    _check_positive(("time step", dt), ("step count", t_final / dt if dt else math.inf))
    if t_final / dt > np.iinfo(np.intp).max:
        raise NumericError(f"step count {t_final / dt:.3g} exceeds the largest array length")
    nt = max(1, round(t_final / dt))
    return Grid1p1(nx=nx, lx=lx, dt=dt, nt=nt, bc=bc)


class Workspace:
    """What one stream reuses for every window: a (rows, nx) buffer per
    name, allocated when first asked for, and each expression compiled
    once.  A window's results (y_t, y_x, the current, the residual) are
    valid until the next window or the next computation of the same
    quantity; the scratch buffers only within the call that fills them."""

    def __init__(self, shape):
        self.shape = shape
        self._arrays: dict = {}
        self._compiled: dict = {}

    def array(self, name: str, rows: int) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None:
            a = self._arrays[name] = np.empty(self.shape)
        return a[:rows]

    def compiled(self, e: Expr) -> "CompiledExpr":
        f = self._compiled.get(e)
        if f is None:
            f = self._compiled[e] = compile_expr(e)
        return f


def _one_sided(out: np.ndarray, a: np.ndarray, scratch: np.ndarray) -> None:
    """(-3 a[0] + 4 a[1]) - a[2] and (3 a[-1] - 4 a[-2]) + a[-3] along the
    leading axis into out[0] and out[-1], rounded as Python evaluates
    them; ``scratch``, shaped as out[:1], holds each product 4 a[.]."""
    np.multiply(a[:1], -3.0, out=out[:1])
    out[:1] += np.multiply(a[1:2], 4.0, out=scratch)
    out[:1] -= a[2:3]
    np.multiply(a[-1:], 3.0, out=out[-1:])
    out[-1:] -= np.multiply(a[-2:-1], 4.0, out=scratch)
    out[-1:] += a[-3:-2]


def _scale(out: np.ndarray, h: float) -> np.ndarray:
    """out / h in place; where h is a power of two whose reciprocal is a
    double, as out * (1/h): the same real number, so the same bits."""
    r = 1.0 / h
    return np.multiply(out, r, out=out) if math.frexp(h)[0] == 0.5 and math.isfinite(r) else np.true_divide(out, h, out=out)


class Trajectory:
    """A window of consecutive time levels of a discrete field solution:
    ``y[k]`` is level ``start + k``, and the rows ``core`` are the levels
    the window reports; the rows around them are a halo that the
    stencils read.  The whole solution is the window with ``start = 0``
    and every row in its core.  The one-sided d/dt of its first and last
    rows is exact only where they are levels 0 and nt, so a halo of HALO
    rows keeps every core row exact.  ``y_t`` and ``y_x`` are computed
    once, and ``y`` is read-only so that they cannot go stale.  A
    streamed window computes into its stream's ``work``; without one,
    every array is new."""

    def __init__(self, grid: Grid1p1, params: dict, y: np.ndarray, s_t: Optional[np.ndarray] = None,
                 start: int = 0, core: Optional[slice] = None, work: Optional[Workspace] = None):
        self.grid, self.params, self.start, self.work = grid, params, start, work
        self.y = y  # shape (rows, nx)
        self.s_t = s_t  # gauge: s_x = 0
        self.core = slice(0, y.shape[0]) if core is None else core  # default: every row

    @property
    def levels(self) -> slice:
        """The levels of the core rows."""
        return slice(self.start + self.core.start, self.start + self.core.stop)

    def buffer(self, name: str, rows: Optional[int] = None) -> np.ndarray:
        """A (rows, nx) array for ``name``, by default one row per level:
        the workspace's, or a new one."""
        rows = self.y.shape[0] if rows is None else rows
        return np.empty((rows, self.y.shape[1])) if self.work is None else self.work.array(name, rows)

    def scratch(self, k: int, rows: Optional[int] = None) -> np.ndarray:
        """Scratch buffer ``k``: what a call puts there is used up before
        it returns, so every call shares the same few."""
        return self.buffer(f"scratch {k}", rows)

    def compiled(self, e: Expr) -> "CompiledExpr":
        return compile_expr(e) if self.work is None else self.work.compiled(e)

    def d_dt(self, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        out = np.empty_like(a) if out is None else out
        _one_sided(out, a, out[1:2])  # before the rows it borrows are written
        np.subtract(a[2:], a[:-2], out=out[1:-1])
        return _scale(out, 2.0 * self.grid.dt)

    def d_dx(self, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        out = np.empty(a.shape) if out is None else out
        if not out.flags.c_contiguous:
            raise NumericError("d_dx writes into a C-contiguous array")
        # one pass over the flattened rows; the edge columns, where it runs from one row into the next, are written after it
        np.subtract(a.reshape(-1)[2:], a.reshape(-1)[:-2], out=out.reshape(-1)[1:-1])
        if self.grid.bc == "periodic":
            np.subtract(a[..., 1], a[..., -1], out=out[..., 0])
            np.subtract(a[..., 0], a[..., -2], out=out[..., -1])
        else:
            _one_sided(out.T, a.T, np.empty((1,) + a.shape[:-1]))  # rows of the transposed window are its columns
        return _scale(out, 2.0 * self.grid.dx)

    @cached_property
    def y_t(self) -> np.ndarray:
        return self.d_dt(self.y, self.buffer("y_t"))

    @cached_property
    def y_x(self) -> np.ndarray:
        return self.d_dx(self.y, self.buffer("y_x"))

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.y.shape[0]) * self.grid.dt

    @property
    def x(self) -> np.ndarray:
        return self.grid.x


def _initial_state(params: Mapping[str, float], y0, v0, grid: Grid1p1):
    """Checked wave coefficients and initial data."""
    rho, tau, gamma = float(params["rho"]), float(params["tau"]), float(params["gamma"])
    if rho <= 0 or tau <= 0:
        raise NumericError("need rho > 0 and tau > 0")
    c = math.sqrt(tau / rho)
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
    return {"rho": rho, "tau": tau, "gamma": gamma}, y0, v0


def _leapfrog(params: dict, y0: np.ndarray, v0: np.ndarray, grid: Grid1p1, levels: np.ndarray):
    """Write the levels 0..nt of the leapfrog solution into consecutive
    rows of ``levels``.  Whenever it is full, or level nt is written,
    yield (level of row 0, rows written, whether level nt is among them);
    once the caller has read them, the last 2*HALO rows move to the top
    and the scheme continues below them."""
    rho, tau, gamma = params["rho"], params["tau"], params["gamma"]
    c2 = tau / rho
    dt, dx = grid.dt, grid.dx
    lam2 = c2 * dt * dt / (dx * dx)
    nt, size, dirichlet = grid.nt, levels.shape[0], grid.bc == "dirichlet-zero"
    d2, damp = np.empty(grid.nx, dtype=float), np.empty(grid.nx, dtype=float)
    a_plus = 1.0 + 0.5 * gamma * dt
    a_minus = 1.0 - 0.5 * gamma * dt
    # the same doubles as 0-d arrays, which numpy takes without converting them every level
    two, lam2, a_plus, a_minus = (np.array(v) for v in (2.0, lam2, a_plus, a_minus))
    multiply, subtract, add, divide = np.multiply, np.subtract, np.add, np.true_divide
    # y[n] between two ghost cells that hold its periodic wrap, so that the
    # second difference is two whole-row operations; at Dirichlet walls the
    # edge values it gives are overwritten by 0, and the ghosts are not kept
    ghost = np.empty(grid.nx + 2, dtype=float)
    inner, right, left = ghost[1:-1], ghost[2:], ghost[:-2]
    levels[0] = inner[...] = y0
    ghost[0], ghost[-1] = y0[-1], y0[0]
    add(subtract(right, multiply(y0, two), d2), left, d2)
    levels[1] = y0 + dt * v0 + 0.5 * dt * dt * (c2 * d2 / (dx * dx) - gamma * v0)
    if dirichlet:
        levels[1, 0] = levels[1, -1] = 0.0
    finite = np.empty(levels.shape, dtype=bool)
    first, i, n = 0, 1, 1  # level of row 0, last row written, its level
    prev, cur = levels[0], levels[1]
    inner[...] = cur
    ghost[0], ghost[-1] = cur[-1], cur[0]
    while True:
        fresh = i + 1 if first else 2  # level 1 is not checked
        with np.errstate(over="ignore", invalid="ignore"):
            while n < nt and i + 1 < size:
                # y[n+1] = ((2 y[n] - a_minus y[n-1]) + lam2 D2 y[n]) / a_plus, in place
                row = levels[i + 1]
                multiply(cur, two, row)
                subtract(right, row, d2)
                add(d2, left, d2)
                multiply(d2, lam2, d2)
                subtract(row, multiply(prev, a_minus, damp), row)
                add(row, d2, row)
                divide(row, a_plus, row)
                if dirichlet:
                    row[0] = row[-1] = 0.0
                else:
                    ghost[0], ghost[-1] = row[-1], row[0]
                inner[...] = row
                prev, cur = cur, row
                i, n = i + 1, n + 1
        ok = np.isfinite(levels[fresh : i + 1], out=finite[fresh : i + 1]).all(axis=1)
        if not ok.all():
            raise BlowupError(first + fresh + int(np.argmin(ok)))
        yield first, i + 1, n == nt
        if n == nt:
            return
        keep = 2 * HALO
        levels[:keep] = levels[i + 1 - keep : i + 1]
        first, i = first + i + 1 - keep, keep - 1
        prev, cur = levels[i - 1], levels[i]


def integrate_damped_wave(params: Mapping[str, float], y0: np.ndarray, v0: np.ndarray, grid: Grid1p1) -> Trajectory:
    """Leapfrog for rho y_tt - tau y_xx = -gamma rho y_t; deterministic.
    Keeps every level: the whole solution as one window."""
    params, y0, v0 = _initial_state(params, y0, v0, grid)
    y = np.empty((grid.nt + 1, grid.nx), dtype=float)
    for _ in _leapfrog(params, y0, v0, grid, y):
        pass
    y.flags.writeable = False
    return Trajectory(grid=grid, params=params, y=y)


def stream_damped_wave(
    params: Mapping[str, float], y0, v0, grid: Grid1p1, action: Optional["ActionCoordinate"] = None
) -> Iterator[Trajectory]:
    """The leapfrog solution of ``integrate_damped_wave`` as consecutive
    windows whose cores cover the levels 0..nt in order, each core about
    BLOCK_CELLS cells.  With ``action``, every window carries ``s_t``.
    The windows share one buffer and one ``Workspace``: finish with a
    window, and with what was computed from it, before taking the next.
    The parameters and initial data are checked at the call."""
    params, y0, v0 = _initial_state(params, y0, v0, grid)
    rows = min(grid.nt + 1, max(1, BLOCK_CELLS // grid.nx) + 2 * HALO)
    levels = np.empty((rows, grid.nx), dtype=float)
    work = Workspace(levels.shape)
    s = None if action is None else np.zeros_like(levels)

    def windows():
        for first, filled, last in _leapfrog(params, y0, v0, grid, levels):
            y = levels[:filled]
            y.flags.writeable = False
            core = slice(0 if first == 0 else HALO, filled if last else filled - HALO)
            w = Trajectory(grid=grid, params=params, y=y, start=first, core=core, work=work)
            if s is not None:
                # s_t[n] needs y_t[n], exact up to the row before a non-final window's last
                w.s_t = s[:filled]
                action.fill(w, w.s_t, 1 if first == 0 else 2 * HALO - 1, filled if last else filled - 1)
            yield w
            if s is not None and not last:
                s[: 2 * HALO] = s[filled - 2 * HALO : filled]

    return windows()


# ---------------------------------------------------------------------------
# Expression compilation onto grid arrays.


_POWER = {2: np.square, -1: np.reciprocal}  # the ufuncs that ndarray ** k calls for these k


def _power(base: np.ndarray, k: int, out: Optional[np.ndarray]) -> np.ndarray:
    f = _POWER.get(k)
    return f(base, out=out) if f is not None else np.power(base, k, out=out)


class CompiledExpr:
    """A canonical expression compiled onto numpy: 0.0 + the sum of its
    terms c * base^k * ..., each product and sum rounded as Python
    evaluates them left to right."""

    def __init__(self, e: Expr):
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

        try:
            self.terms = [(float(c), [(compile_atom(a), k) for a, k in mono]) for mono, c in e.terms]
        except OverflowError:
            raise NumericError("a model coefficient is too large for a float") from None

    def __call__(self, env, out=None, term=None, power=None):
        """0.0 + the first term + the second + ..., a float, or an array in
        ``out``; an array term after the first is formed in ``term``, and
        each array power in ``power``.  A buffer left None is allocated.
        The 0.0 + turns a -0.0 result into +0.0."""
        total = None
        try:
            for c, factors in self.terms:
                buf = out if total is None else term
                v = c
                for fa, k in factors:
                    base = fa(env)
                    if k != 1:
                        base = _power(base, k, power) if isinstance(base, np.ndarray) else base ** k
                    if isinstance(v, np.ndarray):  # v is buf
                        v *= base
                    elif isinstance(base, np.ndarray):
                        v = np.multiply(v, base, out=buf)
                    else:
                        v = v * base
                if total is None:
                    total = v
                elif isinstance(total, np.ndarray):
                    total += v
                elif isinstance(v, np.ndarray):
                    total = np.add(total, v, out=out)
                else:
                    total = total + v
        except ZeroDivisionError:  # a scalar zero, such as a parameter, to a negative power
            raise NumericError("cannot evaluate the model at its parameter values: division by zero") from None
        except OverflowError:  # a scalar power past the largest float
            raise NumericError(_TOO_LARGE) from None
        if isinstance(total, np.ndarray):
            total += 0.0
            return total
        return 0.0 if total is None else 0.0 + total


def compile_expr(e: Expr) -> CompiledExpr:
    """Compile a canonical expression into a vectorized numpy evaluator."""
    return CompiledExpr(e)


Section = NamedTuple("Section", [(n, str) for n in "t x y y_t y_x s_t s_x".split()])


def section_names(chart: Chart) -> Section:
    """The names of (t, x, y, y_t, y_x, s_t, s_x), found by role on a jet
    chart of one field over two base axes: time is the first base."""
    try:
        (t, x), (y,) = chart.base_axes, chart.field_axes
        axes = (t, x, y, chart.velocity_axis(0, 0), chart.velocity_axis(0, 1), chart.action_axis(0), chart.action_axis(1))
    except (ValueError, ChartError):  # not two bases and one field, or not a jet chart
        raise NumericError("numeric integration supports one field over two base axes") from None
    return Section(*(chart.coords[i].name for i in axes))


def _traj_env(traj: Trajectory, section: Section, bindings: Mapping[str, float], names: set) -> dict:
    t, x, y, y_t, y_x, s_t, s_x = section
    env: dict = dict(bindings)
    nt1, nx = traj.y.shape
    if t in names:
        env[t] = np.broadcast_to(traj.t[:, None], (nt1, nx))
    if x in names:
        env[x] = np.broadcast_to(traj.x[None, :], (nt1, nx))
    env.update({y: traj.y, y_t: traj.y_t, y_x: traj.y_x, s_x: 0.0})
    if traj.s_t is not None:
        env[s_t] = traj.s_t
    return env


def current_names(xi: Form) -> set:
    """Names of the symbols and coordinates that evaluating ``xi`` reads."""
    return {s.name for c in xi.table.values() for s in free_symbols(c)} | {xi.chart.coords[i].name for (i,) in xi.table}


def evaluate_current(xi: Form, traj: Trajectory, bindings: Mapping[str, float]):
    """f^t = sum_i c_i d/dx psi^i and f^x = -sum_i c_i d/dt psi^i, the
    components of psi* xi = f^t dx - f^x dt for xi = sum_i c_i dpsi^i, each
    summed from +0.0 in the order of xi's table.  A factor that is
    identically zero (dt in f^t, dx in f^x, ds^x in both) is no part of the
    sum: a coefficient, finite or not, reaches only its own components."""
    chart = xi.chart
    if xi.degree != 1:
        raise NumericError("current evaluation needs a 1-form (base dimension 2)")
    section = t, x, y, y_t, y_x, s_t, s_x = section_names(chart)
    names = current_names(xi)
    if s_t in names and traj.s_t is None:
        raise NumericError(f"current references {s_t} but the trajectory carries no action coordinate")
    env = _traj_env(traj, section, bindings, names)

    def along(a: np.ndarray):
        return traj.d_dt(a, traj.scratch(3)), traj.d_dx(a, traj.scratch(4))

    # differential of each coordinate along the section, (d/dt, d/dx) parts,
    # computed only for the coordinates the current carries
    dpsi = {
        t: lambda: (1.0, 0.0),
        x: lambda: (0.0, 1.0),
        y: lambda: (traj.y_t, traj.y_x),
        y_t: lambda: along(traj.y_t),
        y_x: lambda: along(traj.y_x),
        s_x: lambda: (0.0, 0.0),
    }
    if traj.s_t is not None:
        dpsi[s_t] = lambda: along(traj.s_t)
    coefficient, term, power = (traj.scratch(k) for k in range(3))
    f, started = [traj.buffer("f^t"), traj.buffer("f^x")], [False, False]
    for (i,), coeff in xi.table.items():
        d_t, d_x = dpsi[chart.coords[i].name]()
        parts = [(k, d) for k, d in ((0, d_x), (1, d_t)) if isinstance(d, np.ndarray) or d]  # the constant 0 adds nothing
        # the coefficient of dt or dx, where it is the first term of its component, is evaluated into it, as 0.0 + it
        alone = len(parts) == 1 and not isinstance(parts[0][1], np.ndarray) and not started[parts[0][0]]
        c = traj.compiled(coeff)(env, f[parts[0][0]] if alone else coefficient, term, power)
        for k, d in parts:
            if started[k]:
                f[k] += np.multiply(c, d, out=term) if isinstance(d, np.ndarray) else c
            elif c is not f[k]:  # the first term, written as 0.0 + it: a -0.0 reads +0.0
                np.add(np.multiply(c, d, out=f[k]) if isinstance(d, np.ndarray) else c, 0.0, out=f[k])
            started[k] = True
    for k in (0, 1):
        if not started[k]:
            f[k].fill(0.0)
    return f[0], np.negative(f[1], out=f[1])


class ResidualNorms:
    """Max and L2 norms of a residual whose interior rows arrive in order,
    in blocks of whole rows.  The L2 sum is ``math.fsum`` (correctly
    rounded in any order) of each row's ``np.add.reduce``, so it depends
    neither on the block cut nor on numpy's summation tree.  The squares
    go into one buffer, allocated for the first block (or a larger one)."""

    def __init__(self, grid: Grid1p1):
        self._rows = np.empty(grid.nt - 1)  # one sum of squares per interior level
        self._added = 0
        self._squares = None
        self._scale = math.sqrt(grid.dx * grid.dt)
        self._max = 0.0

    def add(self, interior: np.ndarray) -> None:
        n = len(interior)
        if not n:
            return
        if self._added + n > self._rows.size:
            raise NumericError("more residual rows than the interior holds")
        if self._squares is None or len(self._squares) < n:
            self._squares = np.empty(interior.shape)
        squares = self._squares[:n]
        # max |r| as max(max r, -min r); np.maximum, not max(): a NaN residual must read NaN
        self._max = np.maximum(self._max, np.maximum(np.max(interior), -np.min(interior)))
        np.multiply(interior, interior, out=squares)
        np.add.reduce(squares, axis=1, out=self._rows[self._added : self._added + n])
        self._added += n

    @property
    def max_norm(self) -> float:
        return float(self._max) + 0.0  # where every r is zero, max(max r, -min r) may be -0.0

    @property
    def l2_norm(self) -> float:
        if self._added < self._rows.size:
            raise NumericError("residual norms read before every interior row arrived")
        try:
            total = math.fsum(self._rows)
        except OverflowError:  # finite row sums whose total is not
            total = math.inf
        return math.sqrt(total) * self._scale


def dissipation_residual(ft: np.ndarray, fx: np.ndarray, source_t, traj: Trajectory, norms: ResidualNorms) -> np.ndarray:
    """Central-difference divergence of the current minus the dissipation
    source (dL/ds^t o psi) f^t, formed on the interior points of the
    window's core alone, folded into ``norms``; returns those points.  The gauge
    s^x = 0 needs L free of s^x, so dL/ds^x f^x is zero."""
    if ft.shape != traj.y.shape or fx.shape != traj.y.shape:
        raise NumericError("current arrays must match the trajectory shape")
    # the core rows of the interior levels 1..nt-1, whose neighbours are in the window
    lo, hi = max(traj.core.start, 1 - traj.start), min(traj.core.stop, traj.grid.nt - traj.start)
    r = np.subtract(ft[lo + 1 : hi + 1], ft[lo - 1 : hi - 1], out=traj.buffer("residual", hi - lo))
    _scale(r, 2.0 * traj.grid.dt)
    r_x = traj.d_dx(fx[lo:hi], traj.scratch(0, hi - lo))
    r += r_x
    r -= np.multiply(source_t, ft[lo:hi], out=r_x)
    interior = r if traj.grid.bc == "periodic" else r[:, 1:-1]
    norms.add(interior)
    return interior


class ActionCoordinate(NamedTuple):
    """ds^t/dt = L o psi per column by the trapezoid rule, with
    s^t(0, .) = 0 and the gauge s^x = 0, for L = L0 + c_t s_t affine in
    s_t (handled implicitly)."""

    section: Section
    bindings: Mapping[str, float]
    c_t: float  # dL/ds^t at the parameter values
    gamma: float  # 0.0 - c_t, so +0.0 where c_t is a zero of either sign
    l0: CompiledExpr  # L at s = 0
    names: frozenset  # the names l0 reads

    @classmethod
    def of(cls, L: Expr, chart: Chart, bindings: Mapping[str, float]) -> "ActionCoordinate":
        section = section_names(chart)
        st_sym, sx_sym = chart.symbol(section.s_t), chart.symbol(section.s_x)
        c_t = diff(L, st_sym)
        if any(s.role != "param" for s in free_symbols(c_t)):
            raise NumericError(f"only affine {section.s_t}-dependence is supported")
        if diff(L, sx_sym).terms:
            raise NumericError(f"gauge {section.s_x} = 0 needs L independent of {section.s_x}")
        ct_val = _evaluated(c_t, bindings) if c_t.terms else 0.0
        L0 = substitute(L, {st_sym: 0, sx_sym: 0})
        return cls(
            section=section,
            bindings=bindings,
            c_t=ct_val,
            gamma=0.0 - ct_val,
            l0=compile_expr(L0),
            names=frozenset(s.name for s in free_symbols(L0)),
        )

    def fill(self, traj: Trajectory, s: np.ndarray, lo: int, hi: int) -> None:
        """Rows lo..hi-1 of s^t on the window ``traj`` from row lo-1, in place."""
        env = _traj_env(traj, self.section, self.bindings, self.names)
        lvals = self.l0(env, *(traj.scratch(k) for k in range(3)))
        lvals = np.broadcast_to(lvals, traj.y.shape)
        dt = traj.grid.dt
        # as 0-d arrays, which numpy takes without converting them every row
        growth = np.array(1.0 + 0.5 * dt * self.c_t)
        denom = np.array(1.0 - 0.5 * dt * self.c_t)
        # s[n] = (s[n-1] growth + 0.5 dt (l[n] + l[n-1])) / denom; increments first
        np.add(lvals[lo:hi], lvals[lo - 1 : hi - 1], out=s[lo:hi])
        s[lo:hi] *= 0.5 * dt
        step = traj.scratch(3, 1)[0]
        prev = s[lo - 1]
        for row in s[lo:hi]:
            np.add(row, np.multiply(prev, growth, step), row)
            np.true_divide(row, denom, row)
            prev = row


def integrate_action_coordinate(traj: Trajectory, L: Expr, chart: Chart, bindings: Mapping[str, float]) -> np.ndarray:
    """s^t on every level of a whole trajectory (see ``ActionCoordinate``)."""
    s = np.zeros(traj.y.shape)
    ActionCoordinate.of(L, chart, bindings).fill(traj, s, 1, s.shape[0])
    return s


def momentum_series(traj: Trajectory, magnitude: bool = False) -> np.ndarray:
    """P(t) = sum_i rho y_t dx on the core levels; with ``magnitude``,
    sum_i |rho y_t| dx, the scale of its round-off."""
    y_t = traj.y_t[traj.core]
    if magnitude:
        y_t = np.abs(y_t, out=traj.scratch(0, y_t.shape[0]))
    return traj.params["rho"] * np.sum(y_t, axis=1) * traj.grid.dx


def energy_series(traj: Trajectory) -> np.ndarray:
    """E(t) = sum_i (rho y_t^2 + tau y_x^2)/2 dx on the core levels."""
    rho, tau = traj.params["rho"], traj.params["tau"]
    y_t, y_x = traj.y_t[traj.core], traj.y_x[traj.core]
    density = np.square(y_t, out=traj.scratch(0, y_t.shape[0]))
    density *= 0.5 * rho
    term = np.square(y_x, out=traj.scratch(1, y_x.shape[0]))
    term *= 0.5 * tau
    density += term
    return np.sum(density, axis=1) * traj.grid.dx


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


def _evaluated(e: Expr, bindings: Mapping[str, float]) -> float:
    try:
        return evaluate(e, bindings)
    except EvalError as exc:
        raise NumericError(f"cannot evaluate the model at its parameter values: {exc}") from None
    except OverflowError:
        raise NumericError(_TOO_LARGE) from None


class DampedWave(NamedTuple):
    """A Lagrangian of the damped-string shape, rho y_t^2/2 - tau y_x^2/2
    + c_t s_t + L_b(t, x), checked once and evaluated at its parameter
    values."""

    rho: float
    tau: float
    action: ActionCoordinate

    @property
    def gamma(self) -> float:
        return self.action.gamma

    @property
    def params(self) -> dict:
        return {"rho": self.rho, "tau": self.tau, "gamma": self.gamma}


def damped_wave(lsys, bindings: Mapping[str, float]) -> DampedWave:
    """The numeric model of a Lagrangian; reject anything the integrator
    does not model, and map evaluation errors to NumericError."""
    chart = lsys.chart
    t, x, y, y_t, y_x, s_t, s_x = section_names(chart)
    h = lsys.hessian
    for i in range(2):
        for j in range(2):
            if i != j and h[i][j].terms:
                raise NumericError("mixed velocity terms are not supported numerically")
            if i == j and not h[i][j].is_rational and free_symbols(h[i][j]) - {s for s in free_symbols(h[i][j]) if s.role == "param"}:
                raise NumericError("velocity coefficients must be constants")
    rho = _evaluated(h[0][0], bindings)
    tau = -_evaluated(h[1][1], bindings)
    at_rest = {chart.symbol(y_t): 0, chart.symbol(y_x): 0}
    if any(substitute(lsys.momenta[(0, mu)], at_rest).terms for mu in (0, 1)):
        raise NumericError("velocity-linear terms are not supported numerically")
    if diff(lsys.lagrangian, chart.symbol(y)).terms:
        raise NumericError("y-dependent densities are not supported numerically")
    action = ActionCoordinate.of(lsys.lagrangian, chart, bindings)
    l_base = substitute(lsys.lagrangian, {**at_rest, chart.symbol(s_t): 0, chart.symbol(s_x): 0})
    for s in free_symbols(l_base):
        if s.role != "param" and s.name not in (t, x):
            raise NumericError("unsupported density shape for numeric integration")
    if rho <= 0 or tau <= 0:
        raise NumericError("need rho > 0 and tau > 0 for a real wave speed")
    return DampedWave(rho=float(rho), tau=float(tau), action=action)


# ---------------------------------------------------------------------------
# The dissipation-law check along solutions on refined meshes.


RATIO_BAND = (3.2, 4.8)  # L2 residual ratio of successive meshes: second order reads 4
GAMMA_FIT_TOL = 1e-3
CONSERVATION_TOL = 1e-6


def scenario_mesh(wave: DampedWave, scenario, bindings: Mapping[str, float], nx: int):
    """Grid and initial data (grid, y0, v0) of a model scenario on an nx-point mesh."""
    try:
        sizes = [float(v) for v in (scenario.lx, scenario.cfl, scenario.t_final)]
    except OverflowError:
        raise NumericError("grid lx, cfl or t is too large for a float") from None
    grid = make_grid(nx, *sizes, math.sqrt(wave.tau / wave.rho), scenario.bc)
    env = {**bindings, wave.action.section.x: grid.x}
    # a pole on the grid gives inf/nan here, which the integrator rejects
    with np.errstate(all="ignore"):
        y0, v0 = [np.broadcast_to(np.asarray(compile_expr(e)(env), dtype=float), grid.x.shape).copy()
                  for e in (scenario.y0, scenario.v0)]
    return grid, y0, v0


def momentum_gate(t, P, P_abs, nx, gamma):
    """(decay fit, conservation drift, why the fit is absent, passed) for
    a momentum series P and the series of sum |rho y_t| dx.  A momentum
    within the round-off bound sqrt(nt) nx eps max(P_abs) is zero: no
    decay can be fitted to it, and none is."""
    p_max = float(np.max(np.abs(P)))
    bound = math.sqrt(len(P) - 1) * nx * float(np.finfo(float).eps) * float(np.max(P_abs))
    if p_max <= bound:
        return None, None, f"momentum within round-off: max |P| = {p_max:.3e} <= {bound:.3e}", True
    fit, drift, reason, passed = None, None, None, True
    try:
        fit = decay_fit(t, P)
        passed = abs(fit - gamma) <= GAMMA_FIT_TOL
    except NumericError as exc:
        reason, passed = str(exc), False
    p0 = abs(P[0])
    if gamma == 0.0 and p0 > 0:
        drift = float(np.max(np.abs(P - P[0])) / p0)
        passed = passed and drift <= CONSERVATION_TOL
    return fit, drift, reason, passed


class LawCheck(NamedTuple):
    """The verdict of ``check_law``, named as verify-law's report keys; ``passed`` is the numeric verdict alone."""

    norms: list  # {"nx", "l2", "max"} per mesh
    convergence_ratios: list  # L2 norm of a mesh over that of the next; None where the next is 0
    decay_fit: Optional[float]
    decay_fit_reason: Optional[str]
    conservation_drift: Optional[float]
    passed: bool


def check_law(xi: Form, wave: DampedWave, bindings: Mapping[str, float], meshes) -> LawCheck:
    """The dissipation law of the current ``xi`` along the solutions of ``wave``
    on ``meshes``, a list of (grid, y0, v0) of halving spacing: each is streamed
    into its residual norms, which must converge at second order (RATIO_BAND),
    and the finest solution's momentum must pass ``momentum_gate``."""
    # s_t costs a recurrence over the whole trajectory: only a current that reads it pays for it
    action = wave.action if wave.action.section.s_t in current_names(xi) else None
    norms = []
    for grid, y0, v0 in meshes:
        finest = grid is meshes[-1][0]  # the momentum gate reads the finest mesh only
        res = ResidualNorms(grid)
        P, P_abs = np.empty(grid.nt + 1), np.empty(grid.nt + 1)
        for w in stream_damped_wave(wave.params, y0, v0, grid, action):
            # dissipation source: dL/ds^t (dL/ds^x = 0 in the gauge)
            dissipation_residual(*evaluate_current(xi, w, bindings), wave.action.c_t, w, res)
            if finest:
                P[w.levels] = momentum_series(w)
                P_abs[w.levels] = momentum_series(w, magnitude=True)
        norms.append({"nx": grid.nx, "l2": res.l2_norm, "max": res.max_norm})
    ratios = [None if b["l2"] == 0.0 else a["l2"] / b["l2"] for a, b in zip(norms, norms[1:])]
    if all(n["l2"] == 0.0 and n["max"] == 0.0 for n in norms):
        return LawCheck(norms, ratios, None, "all residual norms are zero", None, True)
    converged = all(r is None or RATIO_BAND[0] <= r <= RATIO_BAND[1] for r in ratios)
    fit, drift, reason, momentum_ok = momentum_gate(grid.t, P, P_abs, grid.nx, wave.gamma)
    return LawCheck(norms, ratios, fit, reason, drift, converged and momentum_ok)
