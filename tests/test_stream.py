"""The streamed numeric pipeline against the whole-trajectory one: the
windows of ``stream_damped_wave`` give the residual norms, the momentum
and energy series and the action coordinate of ``integrate_damped_wave``
bit for bit, in memory that does not grow with the number of steps."""
import contextlib
import io
import json
import math
import pathlib
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mcft import numeric
from mcft.charts import jet_chart
from mcft.cli import main
from mcft.expr import add, const, mul
from mcft.forms import Form
from mcft.numeric import (
    BCS,
    RATIO_BAND,
    ActionCoordinate,
    Grid1p1,
    NumericError,
    ResidualNorms,
    Trajectory,
    compile_expr,
    dissipation_residual,
    energy_series,
    evaluate_current,
    integrate_action_coordinate,
    integrate_damped_wave,
    make_grid,
    momentum_gate as _momentum_gate,
    momentum_series,
    stream_damped_wave,
)

CHART = jet_chart(["t", "x"], ["y"])
COORDS = ["t", "x", "y", "y_t", "y_x", "s_t", "s_x"]
FACTORS = ["y", "y_t", "y_x", "s_t", "t", "x"]


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def lagrangian(gamma):
    c = CHART.coord
    return Fraction(1, 2) * (c("y_t") ** 2 - c("y_x") ** 2) - gamma * c("s_t") + Fraction(1, 3) * c("t") * c("x")


terms = st.tuples(st.integers(-3, 3).filter(bool), st.lists(st.sampled_from(FACTORS), max_size=2))
currents = st.dictionaries(st.sampled_from(COORDS), st.lists(terms, min_size=1, max_size=2), min_size=1, max_size=4)


def current_form(table):
    out = {}
    for name, monomials in table.items():
        coeff = add(*[mul(const(k), *[CHART.coord(f) for f in factors]) for k, factors in monomials])
        out[(CHART.axis(name),)] = coeff
    return Form(CHART, 1, out)


def reference_current(xi, traj):
    """The accumulation ``evaluate_current`` replaced: zeros, then
    A += c * d_t and B += c * d_x for every component."""
    env = numeric._traj_env(traj, numeric.section_names(CHART), {}, {"t", "x"})
    dpsi = {
        "t": (1.0, 0.0),
        "x": (0.0, 1.0),
        "y": (traj.y_t, traj.y_x),
        "y_t": (traj.d_dt(traj.y_t), traj.d_dx(traj.y_t)),
        "y_x": (traj.d_dt(traj.y_x), traj.d_dx(traj.y_x)),
        "s_t": (traj.d_dt(traj.s_t), traj.d_dx(traj.s_t)),
        "s_x": (0.0, 0.0),
    }
    A, B = np.zeros(traj.y.shape), np.zeros(traj.y.shape)
    for (i,), coeff in xi.table.items():
        cval = compile_expr(coeff)(env)
        d_t, d_x = dpsi[CHART.coords[i].name]
        A += cval * d_t
        B += cval * d_x
    return B, -A


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(8, 40),
    nt=st.integers(2, 60),
    bc=st.sampled_from(BCS),
    block_rows=st.integers(1, 9),
    spare=st.integers(0, 7),
    gamma=st.sampled_from([Fraction(0), Fraction(3, 10)]),
    table=currents,
)
def test_stream_matches_whole_trajectory(nx, nt, bc, block_rows, spare, gamma, table):
    # blocks of a few rows, so that windows and their halos cut across
    # one another
    grid = Grid1p1(nx=nx, lx=1.0, dt=0.5 / nx, nt=nt, bc=bc)
    params = {"rho": 1.0, "tau": 1.0, "gamma": float(gamma)}
    y0 = np.sin(2 * math.pi * grid.x) + 0.3 * np.cos(6 * math.pi * grid.x)
    v0 = 0.7 + 0.2 * np.sin(4 * math.pi * grid.x)
    L = lagrangian(gamma)
    action = ActionCoordinate.of(L, CHART, {})
    xi = current_form(table)

    whole = integrate_damped_wave(params, y0, v0, grid)
    whole.s_t = integrate_action_coordinate(whole, L, CHART, {})
    ft, fx = evaluate_current(xi, whole, {})
    ref_ft, ref_fx = reference_current(xi, whole)
    assert np.array_equal(bits(ft), bits(ref_ft)) and np.array_equal(bits(fx), bits(ref_fx))
    whole_norms = ResidualNorms(grid)
    interior = dissipation_residual(ft, fx, action.c_t, whole, whole_norms)
    l2 = math.sqrt(math.fsum(np.sum(interior * interior, axis=1))) * math.sqrt(grid.dx * grid.dt)
    assert whole_norms.l2_norm == l2 and whole_norms.max_norm == float(np.max(np.abs(interior)))

    norms = ResidualNorms(grid)
    P, E = np.full(nt + 1, np.nan), np.full(nt + 1, np.nan)
    s_t = np.full((nt + 1, nx), np.nan)
    covered = []
    with mock.patch.object(numeric, "BLOCK_CELLS", block_rows * nx + spare % nx):
        for w in stream_damped_wave(params, y0, v0, grid, action):
            covered += range(w.levels.start, w.levels.stop)
            wft, wfx = evaluate_current(xi, w, {})
            assert np.array_equal(bits(wft[w.core]), bits(ft[w.levels]))
            assert np.array_equal(bits(wfx[w.core]), bits(fx[w.levels]))
            dissipation_residual(wft, wfx, action.c_t, w, norms)
            P[w.levels] = momentum_series(w)
            E[w.levels] = energy_series(w)
            s_t[w.levels] = w.s_t[w.core]
            assert np.array_equal(w.y[w.core], whole.y[w.levels])
    assert covered == list(range(nt + 1))
    assert norms.l2_norm == whole_norms.l2_norm and norms.max_norm == whole_norms.max_norm
    assert np.array_equal(bits(P), bits(momentum_series(whole)))
    assert np.array_equal(bits(E), bits(energy_series(whole)))
    assert np.array_equal(bits(s_t), bits(whole.s_t))


def residual_norms_of(a, cuts=(), interior_rows=None):
    """ResidualNorms of a periodic grid with ``interior_rows`` interior
    levels (default: the rows of ``a``), and that grid; the rows of ``a``
    are added in blocks cut at ``cuts``."""
    rows, width = a.shape
    grid = Grid1p1(nx=width, lx=1.0, dt=0.5 / width, nt=(interior_rows or rows) + 1, bc="periodic")
    norms = ResidualNorms(grid)
    edges = [0, *cuts, rows]
    for lo, hi in zip(edges, edges[1:]):
        norms.add(a[lo:hi])
    return norms, grid


@settings(max_examples=80, deadline=None)
@given(
    a=arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(8, 70)), elements=st.floats(-1e3, 1e3)),
    cuts=st.lists(st.integers(1, 29), max_size=6),
)
def test_residual_norms_fold_blocks_by_the_row(a, cuts):
    # any split into blocks of whole rows: the L2 sum is the correctly
    # rounded sum of the rows' np.sum
    rows, width = a.shape
    norms, grid = residual_norms_of(a, sorted({c for c in cuts if c < rows}))
    assert norms.l2_norm == math.sqrt(math.fsum(np.sum(a * a, axis=1))) * math.sqrt(grid.dx * grid.dt)
    assert norms.max_norm == float(np.max(np.abs(a)))


def test_residual_norms_nan_row_reads_nan():
    # Python's max(0.0, nan) is 0.0: a NaN residual must not vanish from the norms
    a = np.ones((5, 8))
    a[3, 2] = np.nan
    norms, _ = residual_norms_of(a, cuts=(2,))
    assert math.isnan(norms.max_norm) and math.isnan(norms.l2_norm)


def test_residual_norms_overflowing_total_reads_inf():
    # each row's sum of squares is finite (1.28e308), their total is not
    norms, _ = residual_norms_of(np.full((3, 8), 4e153), cuts=(1,))
    assert norms.l2_norm == math.inf and norms.max_norm == 4e153


def test_residual_norms_read_before_the_last_row():
    norms, grid = residual_norms_of(np.ones((3, 8)), interior_rows=4)
    with pytest.raises(NumericError, match="before every interior row"):
        norms.l2_norm
    norms.add(np.ones((1, 8)))
    assert norms.l2_norm == math.sqrt(32.0) * math.sqrt(grid.dx * grid.dt)


def test_residual_norms_more_rows_than_the_interior():
    norms, _ = residual_norms_of(np.ones((4, 8)))
    with pytest.raises(NumericError, match="more residual rows"):
        norms.add(np.ones((1, 8)))


def test_non_finite_coefficient_stays_in_its_own_component():
    # xi = (1/y_t) dt + y_x dy: 1/y_t is inf where y_t = 0, and dt is a
    # factor of f^x only, so f^t is the sum of the dy term alone
    grid = make_grid(16, 1.0, 0.5, 0.3, 1.0)
    traj = integrate_damped_wave({"rho": 1.0, "tau": 1.0, "gamma": 0.0}, np.sin(2 * math.pi * grid.x), np.zeros(16), grid)
    traj.s_t = np.zeros(traj.y.shape)
    c = CHART.coord
    dy = {(CHART.axis("y"),): c("y_x")}
    xi = Form(CHART, 1, {(CHART.axis("t"),): c("y_t") ** -1, **dy})
    with np.errstate(all="ignore"):
        ft, fx = evaluate_current(xi, traj, {})
        ref_ft, _ = reference_current(Form(CHART, 1, dy), traj)
        norms = ResidualNorms(grid)
        dissipation_residual(ft, fx, 0.0, traj, norms)
    zeros = traj.y_t == 0.0
    assert zeros.any()
    assert np.array_equal(bits(ft), bits(ref_ft)) and np.isfinite(ft).all()
    assert np.array_equal(np.isinf(fx), zeros)
    # non-finite norms, whose convergence ratio no band admits: the verdict fails
    assert not math.isfinite(norms.l2_norm) and not math.isfinite(norms.max_norm)
    ratio = norms.l2_norm / norms.l2_norm
    assert not (RATIO_BAND[0] <= ratio <= RATIO_BAND[1])


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(8, 40), nt=st.integers(2, 50), bc=st.sampled_from(BCS), gamma=st.sampled_from([0.0, 0.1, 0.7]))
def test_leapfrog_matches_plain_loop(nx, nt, bc, gamma):
    # the scheme written out row by row, with the stencil of the original
    grid = Grid1p1(nx=nx, lx=1.0, dt=0.5 / nx, nt=nt, bc=bc)
    y0 = np.sin(2 * math.pi * grid.x) + 0.1
    v0 = np.cos(2 * math.pi * grid.x)
    if bc == "dirichlet-zero":
        y0[0] = y0[-1] = v0[0] = v0[-1] = 0.0
    dt, dx = grid.dt, grid.dx
    lam2 = dt * dt / (dx * dx)
    a_plus, a_minus = 1.0 + 0.5 * gamma * dt, 1.0 - 0.5 * gamma * dt

    def d2(y):
        if bc == "periodic":
            return np.roll(y, -1) - 2.0 * y + np.roll(y, 1)
        out = np.zeros_like(y)
        out[1:-1] = y[2:] - 2.0 * y[1:-1] + y[:-2]
        return out

    rows = [y0, y0 + dt * v0 + 0.5 * dt * dt * (d2(y0) / (dx * dx) - gamma * v0)]
    for _ in range(nt - 1):
        rows.append(((2.0 * rows[-1] - a_minus * rows[-2]) + lam2 * d2(rows[-1])) / a_plus)
        if bc == "dirichlet-zero":
            rows[-1][0] = rows[-1][-1] = 0.0
    traj = integrate_damped_wave({"rho": 1.0, "tau": 1.0, "gamma": gamma}, y0, v0, grid)
    assert np.array_equal(bits(traj.y), bits(np.array(rows)))


MOMENTUM = (
    "coords t x\nfields y\nparams rho=1 tau=1 gamma=0.1\n"
    "lagrangian 0.5*(rho*dy[t]^2 - tau*dy[x]^2) - gamma*s[t]\nsymmetry Y: d/dy\n"
    "scenario standing { bc periodic; grid cfl=0.5 lx=1 nx=32 t=1; init y0 = sin(2*pi*x); init v0 = 0; }\n"
    "scenario drift { bc periodic; grid cfl=0.5 lx=1 nx=32 t=1; init y0 = sin(2*pi*x); init v0 = 0.000001; }\n"
)


def verify_law_outputs(tmp_path, scenario):
    p = tmp_path / "momentum.mcft"
    p.write_text(MOMENTUM)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", "verify-law", str(p), "Y", scenario])
    return code, json.loads(out.getvalue())["outputs"]


def test_roundoff_momentum_is_not_fitted(tmp_path):
    # a standing wave has zero momentum; its computed P is round-off that
    # changes sign, and no decay exponent applies to it
    code, out = verify_law_outputs(tmp_path, "standing")
    assert code == 0 and out["passed"] is True
    assert out["decay_fit"] is None and out["decay_fit_reason"].startswith("momentum within round-off")
    for r in out["convergence_ratios"]:
        assert 3.2 <= r <= 4.8


def test_small_real_momentum_is_fitted_and_gated(tmp_path):
    code, out = verify_law_outputs(tmp_path, "drift")
    assert code == 0 and out["passed"] is True
    assert out["decay_fit_reason"] is None and abs(out["decay_fit"] - 0.1) <= 1e-3
    # the same series against a wrong gamma fails; the round-off one cannot
    grid = make_grid(128, 1.0, 0.5, 1.0, 1.0)
    for v0, fitted in ((1e-6, True), (0.0, False)):
        traj = integrate_damped_wave({"rho": 1.0, "tau": 1.0, "gamma": 0.1}, np.sin(2 * math.pi * grid.x), np.full(128, v0), grid)
        P, P_abs = momentum_series(traj), momentum_series(traj, magnitude=True)
        fit, _drift, reason, passed = _momentum_gate(traj.t, P, P_abs, grid.nx, 0.1)
        assert passed and (fit is not None) == fitted and (reason is None) == fitted
        assert _momentum_gate(traj.t, P, P_abs, grid.nx, 0.11)[3] == (not fitted)


def traced_peak(path, scenario):
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--json", "verify-law", str(path), "Y", scenario]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_law_memory_is_flat_in_time(tmp_path):
    p = tmp_path / "long.mcft"
    p.write_text(
        MOMENTUM.split("scenario")[0]
        + "".join(
            f"scenario t{t} {{ bc periodic; grid cfl=0.5 lx=1 nx=128 t={t}; init y0 = sin(2*pi*x); init v0 = 1; }}\n"
            for t in (2, 8)
        )
    )
    short, long = traced_peak(p, "t2"), traced_peak(p, "t8")
    # the whole history at t=8 would be four times that at t=2
    assert long <= 1.25 * short, (short, long)


def stream_results(params, y0, v0, grid, action, xi):
    """Current rows, residual norms, series and s_t gathered from a stream,
    with the stream's workspace."""
    norms = ResidualNorms(grid)
    ft, fx = np.full((grid.nt + 1, grid.nx), np.nan), np.full((grid.nt + 1, grid.nx), np.nan)
    P, E, s_t = np.full(grid.nt + 1, np.nan), np.full(grid.nt + 1, np.nan), np.full((grid.nt + 1, grid.nx), np.nan)
    for w in stream_damped_wave(params, y0, v0, grid, action):
        wft, wfx = evaluate_current(xi, w, {})
        ft[w.levels], fx[w.levels] = wft[w.core], wfx[w.core]
        dissipation_residual(wft, wfx, action.c_t, w, norms)
        P[w.levels], E[w.levels] = momentum_series(w), energy_series(w)
        s_t[w.levels] = w.s_t[w.core]
    return (ft, fx, norms.l2_norm, norms.max_norm, P, E, s_t), w.work


def whole_results(params, y0, v0, grid, L, xi):
    whole = integrate_damped_wave(params, y0, v0, grid)
    whole.s_t = integrate_action_coordinate(whole, L, CHART, {})
    ft, fx = evaluate_current(xi, whole, {})
    norms = ResidualNorms(grid)
    residual = dissipation_residual(ft, fx, ActionCoordinate.of(L, CHART, {}).c_t, whole, norms)
    arrays = [whole.y, whole.y_t, whole.y_x, whole.s_t, ft, fx, residual]
    return (ft, fx, norms.l2_norm, norms.max_norm, momentum_series(whole), energy_series(whole), whole.s_t), arrays


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(bits(g), bits(w))


def test_streams_of_different_shapes_back_to_back():
    # each stream has its own workspace: nothing of one mesh, its width,
    # boundary or compiled current, leaks into the next
    c = CHART.coord
    xi = Form(
        CHART,
        1,
        {
            (CHART.axis("t"),): c("y_t") ** 2 - 2 * c("s_t") * c("x"),
            (CHART.axis("x"),): c("y_t") * c("s_t") + c("y_x") ** 3,
            (CHART.axis("y"),): 3 * c("y_x") + c("t"),
            (CHART.axis("s_t"),): -1 * c("y"),
        },
    )
    L = lagrangian(Fraction(3, 10))
    action = ActionCoordinate.of(L, CHART, {})
    params = {"rho": 1.0, "tau": 1.0, "gamma": 0.3}
    cases = []
    for nx, bc, nt in ((24, "periodic", 90), (40, "dirichlet-zero", 70), (24, "periodic", 90)):
        grid = Grid1p1(nx=nx, lx=1.0, dt=0.5 / nx, nt=nt, bc=bc)
        y0 = np.sin(2 * math.pi * grid.x) + 0.1 * np.cos(4 * math.pi * grid.x)
        v0 = 0.5 + 0.3 * np.sin(6 * math.pi * grid.x)
        cases.append((grid, y0, v0))
    works = []
    with mock.patch.object(numeric, "BLOCK_CELLS", 7 * 24 + 5):
        for grid, y0, v0 in cases:
            got, work = stream_results(params, y0, v0, grid, action, xi)
            want, arrays = whole_results(params, y0, v0, grid, L, xi)
            assert_same_bits(got, want)
            works.append(work)
    assert works[0] is not works[2]
    # the whole-trajectory path returns arrays of its own, never a workspace's
    for work in works:
        for buf in work._arrays.values():
            assert not any(np.shares_memory(buf, a) for a in arrays)


def test_windows_reuse_one_workspace():
    # after the first window, a window's derivatives, currents and residual
    # land in the same buffers, and the current is compiled once per stream
    grid = Grid1p1(nx=32, lx=1.0, dt=0.5 / 32, nt=200, bc="periodic")
    c = CHART.coord
    xi = Form(CHART, 1, {(CHART.axis("x"),): -1 * c("y_t"), (CHART.axis("t"),): -1 * c("y_x")})
    params = {"rho": 1.0, "tau": 1.0, "gamma": 0.1}
    y0, v0 = np.sin(2 * math.pi * grid.x), np.ones(grid.nx)
    seen, norms = [], ResidualNorms(grid)
    with mock.patch.object(numeric, "BLOCK_CELLS", 10 * 32), mock.patch.object(
        numeric, "compile_expr", wraps=numeric.compile_expr
    ) as compiled:
        for w in stream_damped_wave(params, y0, v0, grid):
            ft, fx = evaluate_current(xi, w, {})
            residual = dissipation_residual(ft, fx, -0.1, w, norms)
            seen.append([a.base for a in (w.y, w.y_t, w.y_x, ft, fx, residual)])
    assert len(seen) > 3
    for bases in seen[1:]:
        assert all(a is b for a, b in zip(bases, seen[0]))
    assert compiled.call_count == len(xi.table)


def test_verify_law_compiles_per_mesh_not_per_window(tmp_path):
    p = tmp_path / "momentum.mcft"
    p.write_text(MOMENTUM)
    counts = []
    for block in (numeric.BLOCK_CELLS, 5 * 32):
        with mock.patch.object(numeric, "BLOCK_CELLS", block), mock.patch.object(
            numeric, "compile_expr", wraps=numeric.compile_expr
        ) as compiled:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["--json", "verify-law", str(p), "Y", "drift"]) == 0
        counts.append(compiled.call_count)
    assert counts[0] == counts[1]


@settings(max_examples=60, deadline=None)
@given(
    a=arrays(np.float64, st.tuples(st.integers(3, 9), st.integers(8, 30)), elements=st.floats(-1e6, 1e6)),
    bc=st.sampled_from(BCS),
)
def test_stencils_in_place_match_their_formulas(a, bc):
    # the one-sided edges, formed in the output's own rows, round as the
    # scalar formulas do
    rows, nx = a.shape
    traj = Trajectory(grid=Grid1p1(nx=nx, lx=1.0, dt=0.5 / nx, nt=rows - 1, bc=bc), params={}, y=a)
    dt, dx = traj.grid.dt, traj.grid.dx
    want_t = np.empty_like(a)
    want_t[1:-1] = a[2:] - a[:-2]
    want_t[0] = -3.0 * a[0] + 4.0 * a[1] - a[2]
    want_t[-1] = 3.0 * a[-1] - 4.0 * a[-2] + a[-3]
    want_x = np.empty_like(a)
    want_x[:, 1:-1] = a[:, 2:] - a[:, :-2]
    if bc == "periodic":
        want_x[:, 0] = a[:, 1] - a[:, -1]
        want_x[:, -1] = a[:, 0] - a[:, -2]
    else:
        want_x[:, 0] = -3.0 * a[:, 0] + 4.0 * a[:, 1] - a[:, 2]
        want_x[:, -1] = 3.0 * a[:, -1] - 4.0 * a[:, -2] + a[:, -3]
    for out in (None, np.full_like(a, np.nan)):
        assert np.array_equal(bits(traj.d_dt(a, out)), bits(want_t / (2.0 * dt)))
    for out in (None, np.full_like(a, np.nan)):
        assert np.array_equal(bits(traj.d_dx(a, out)), bits(want_x / (2.0 * dx)))
    assert np.array_equal(bits(traj.d_dx(a[1])), bits(want_x[1] / (2.0 * dx)))


def test_scale_by_exact_reciprocal_matches_division():
    # every power-of-two spacing, from those whose reciprocal overflows to
    # those whose reciprocal is subnormal, and some others, on values whose
    # quotients are subnormal, overflow to inf, or are zeros of either sign
    rng = np.random.default_rng(18)
    a = np.concatenate([rng.standard_normal(6) * s for s in (5e-324, 1e-310, 1e-300, 1.0, 1e300, 1.7e308)])
    a = np.concatenate([a, [0.0, -0.0, math.inf, -math.inf]])
    spacings = [2.0**k for k in range(-1074, 1024)] + [0.3, 1 / 3, 1e-5, 7.0, 3.0 * 2.0**-1070, 1e300, math.pi]
    with np.errstate(over="ignore", under="ignore"):
        for h in spacings:
            assert np.array_equal(bits(numeric._scale(a.copy(), h)), bits(a / h)), h


@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("dt", [2.0**-12, 2.0**-1020, 2.0**-1070, 2.0**600, 0.3 / 64, 1e-5 / 3])
def test_stencils_match_division_on_extreme_values(dt, bc):
    # d/dt and d/dx of values whose differences, over 2 dt and 2 dx, are
    # subnormal or overflow to inf: the bits of the division formula,
    # whether the spacing is a power of two (dx is dt or 3 dt) or not
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 8)) * np.array([1e-320, 1e-300, 1.0, 1e300, 1e307])[:, None]
    for dx in (dt, 3.0 * dt):
        traj = Trajectory(grid=Grid1p1(nx=8, lx=8 * dx, dt=dt, nt=4, bc=bc), params={}, y=a)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            want_t = np.empty_like(a)
            want_t[1:-1] = a[2:] - a[:-2]
            want_t[0] = -3.0 * a[0] + 4.0 * a[1] - a[2]
            want_t[-1] = 3.0 * a[-1] - 4.0 * a[-2] + a[-3]
            want_x = np.empty_like(a)
            want_x[:, 1:-1] = a[:, 2:] - a[:, :-2]
            if bc == "periodic":
                want_x[:, 0] = a[:, 1] - a[:, -1]
                want_x[:, -1] = a[:, 0] - a[:, -2]
            else:
                want_x[:, 0] = -3.0 * a[:, 0] + 4.0 * a[:, 1] - a[:, 2]
                want_x[:, -1] = 3.0 * a[:, -1] - 4.0 * a[:, -2] + a[:, -3]
            assert np.array_equal(bits(traj.d_dt(a)), bits(want_t / (2.0 * dt)))
            assert np.array_equal(bits(traj.d_dx(a)), bits(want_x / (2.0 * dx)))


def test_first_term_of_a_component_reads_plus_zero():
    # y is static on the first rows, so y_t = +0.0 there while y_x is not
    # zero: (-2 y_t) y_x is -0.0 where y_x < 0, and -y_t is -0.0 where
    # y_t = +0.0.  Each component is summed from +0.0 as in a reference
    # that starts from zeros, so neither reads -0.0 where the sum is zero
    grid = Grid1p1(nx=16, lx=1.0, dt=0.5 / 16, nt=7, bc="periodic")
    profile = np.sin(2 * math.pi * grid.x)
    y = np.array([profile] * 4 + [profile * (1 + 0.1 * k) for k in range(1, 5)])
    c = CHART.coord
    for table in (
        {(CHART.axis("y"),): -2 * c("y_t")},
        {(CHART.axis("y"),): const(-1)},
        {(CHART.axis("x"),): -2 * c("y_t"), (CHART.axis("y"),): const(-1), (CHART.axis("t"),): c("y_x")},
    ):
        traj = Trajectory(grid=grid, params={}, y=y, s_t=np.zeros(y.shape))
        xi = Form(CHART, 1, table)
        ft, fx = evaluate_current(xi, traj, {})
        ref_ft, ref_fx = reference_current(xi, traj)
        assert (traj.y_t == 0.0).any() and (np.signbit(ft) & (ft == 0.0)).sum() == 0
        assert np.array_equal(bits(ft), bits(ref_ft)) and np.array_equal(bits(fx), bits(ref_fx))


def reference_residual(ft, fx, source_t, traj):
    """The residual as it was formed on the whole window: d_dt of every
    row plus d_dx minus the source, then the interior core rows."""
    r = traj.d_dt(ft) + traj.d_dx(fx) - source_t * ft
    rows = slice(max(traj.core.start, 1 - traj.start), min(traj.core.stop, traj.grid.nt - traj.start))
    return r[rows] if traj.grid.bc == "periodic" else r[rows, 1:-1]


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(8, 30),
    nt=st.integers(2, 40),
    lx=st.sampled_from([1.0, 3.0]),
    bc=st.sampled_from(BCS),
    block_rows=st.integers(1, 6),
    table=currents,
)
def test_interior_residual_matches_whole_window_formula(nx, nt, lx, bc, block_rows, table):
    # on the whole trajectory and on windows of a few rows: the residual
    # formed on the interior core rows alone, and its norms, bit for bit
    grid = Grid1p1(nx=nx, lx=lx, dt=0.5 * lx / nx, nt=nt, bc=bc)
    params = {"rho": 1.0, "tau": 1.0, "gamma": 0.3}
    y0 = np.sin(2 * math.pi * grid.x / lx) + 0.2 * np.cos(4 * math.pi * grid.x / lx)
    v0 = 0.4 + 0.1 * np.sin(6 * math.pi * grid.x / lx)
    L = lagrangian(Fraction(3, 10))
    action = ActionCoordinate.of(L, CHART, {})
    xi = current_form(table)
    whole = integrate_damped_wave(params, y0, v0, grid)
    whole.s_t = integrate_action_coordinate(whole, L, CHART, {})

    def windows():
        yield whole
        with mock.patch.object(numeric, "BLOCK_CELLS", block_rows * nx):
            yield from stream_damped_wave(params, y0, v0, grid, action)

    norms, want_max, want_rows = [ResidualNorms(grid), ResidualNorms(grid)], [0.0, 0.0], [[], []]
    with np.errstate(all="ignore"):
        for w in windows():
            k = 0 if w is whole else 1
            ft, fx = evaluate_current(xi, w, {})
            want = reference_residual(ft, fx, action.c_t, w)
            assert np.array_equal(bits(dissipation_residual(ft, fx, action.c_t, w, norms[k])), bits(want))
            if len(want):
                want_max[k] = np.maximum(want_max[k], np.max(np.abs(want)))
            want_rows[k] += list(np.sum(want * want, axis=1))
        for k in (0, 1):
            l2 = math.sqrt(math.fsum(want_rows[k])) * math.sqrt(grid.dx * grid.dt)
            assert bits(norms[k].max_norm) == bits(float(want_max[k])) and bits(norms[k].l2_norm) == bits(l2)


def test_residual_norms_of_zeros_read_plus_zero():
    # max(max r, -min r) of zeros of either sign is +0.0, as max |r| is
    for a in (np.zeros((2, 8)), np.full((2, 8), -0.0), np.array([[0.0, -0.0] * 4, [-0.0] * 8])):
        norms, _ = residual_norms_of(a)
        assert bits(norms.max_norm) == bits(0.0) and norms.l2_norm == 0.0


NONPOW2 = pathlib.Path(__file__).resolve().parent / "goldens" / "nonpow2"


@pytest.mark.parametrize("path", sorted(NONPOW2.glob("*.json")), ids=lambda p: p.stem)
def test_nonpow2_verb_matches_golden(path):
    # verify-law and simulate on grids whose spacings are not powers of two,
    # where d/dt and d/dx divide: byte for byte the output captured before
    # the residual was formed on interior rows and the spacings scaled by
    # exact reciprocals
    golden = json.loads(path.read_text(encoding="utf-8"))
    argv = [a.format(model=NONPOW2.with_suffix(".mcft")) for a in golden["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--json", *argv])
    assert (code, out.getvalue()) == (golden["exit"], golden["stdout"])


def test_nonpow2_goldens_present():
    assert sorted(p.stem for p in NONPOW2.glob("*.json")) == [
        "simulate-drift", "simulate-wall", "verify-law-T-drift", "verify-law-X-wall", "verify-law-Y-drift", "verify-law-Y-wall",
    ]
