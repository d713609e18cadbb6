"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run with -s to see them inline).

The damped-string golden values are hand-built term by term through the
public wedge/contract API and asserted as exact structural equalities;
randomized suites demand exact canonical-form zeros, never tolerances.
"""
import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from mcft.charts import generic_chart
from mcft.corpus import corpus
from mcft.dsl import parse, render
from mcft.expr import ZeroCheck, add, const, mul, var
from mcft.forms import (
    Form,
    Multivector,
    bar_d,
    contract,
    ext_d,
    lie_derivative,
    one_form,
    schouten,
    volume_form,
    wedge,
)
from mcft.hamiltonian import legendre
from mcft.lagrangian import solve_sopde_family
from mcft.numeric import (
    ResidualNorms,
    decay_fit,
    dissipation_residual,
    evaluate_current,
    integrate_damped_wave,
    make_grid,
    momentum_series,
)
from mcft.symmetry import (
    NOT_NOETHER,
    STRONG_NOETHER,
    check_dissipative,
    classify,
    jet_lift,
    noether_current,
)


def report(n, label, t0, budget):
    dt = time.perf_counter() - t0
    print(f"PASS criterion {n}: {label} ({dt:.2f} s < {budget:.0f} s)")
    assert dt < budget, f"criterion {n} exceeded its runtime budget: {dt:.2f} s"


def test_criterion_1_golden_string_suite(string_model):
    t0 = time.perf_counter()
    sys_ = string_model.system()
    ch = sys_.chart
    rho = var("rho", "param", 0)
    tau = var("tau", "param", 1)
    gamma = var("gamma", "param", 2)
    yt, yx, st = ch.coord("y_t"), ch.coord("y_x"), ch.coord("s_t")
    dt_, dx, dy, dyt, dyx, dst, dsx = (one_form(ch, n) for n in ("t", "x", "y", "y_t", "y_x", "s_t", "s_x"))
    L = Fraction(1, 2) * (rho * yt**2 - tau * yx**2) - gamma * st
    EL = Fraction(1, 2) * rho * yt**2 - Fraction(1, 2) * tau * yx**2 + gamma * st

    assert sys_.lagrangian == L
    # Theta_L golden
    theta_want = (
        wedge(dy, dx).scale(-rho * yt)
        + wedge(dy, dt_).scale(-tau * yx)
        + wedge(dt_, dx).scale(EL)
        + wedge(dst, dx)
        - wedge(dsx, dt_)
    )
    assert sys_.theta == theta_want
    assert sys_.energy == EL
    assert sys_.omega == volume_form(ch)
    # dissipation form, sign per its defining formula
    assert sys_.sigma == dt_.scale(gamma)
    # d Theta_L golden
    dtheta_want = (
        wedge(wedge(dyt, dy), dx).scale(-rho)
        + wedge(wedge(dyx, dy), dt_).scale(-tau)
        + wedge(wedge(dyt.scale(rho * yt) + dyx.scale(-tau * yx) + dst.scale(gamma), dt_), dx)
    )
    assert ext_d(sys_.theta) == dtheta_want
    # sigma ^ Theta_L golden
    sw_want = wedge(wedge(dt_, dy), dx).scale(-gamma * rho * yt) + wedge(wedge(dt_, dst), dx).scale(gamma)
    assert wedge(sys_.sigma, sys_.theta) == sw_want
    # bar_d Theta_L golden
    bd_want = (
        wedge(wedge(dt_, dx), dy).scale(gamma * rho * yt)
        + wedge(wedge(dyt, dy), dx).scale(-rho)
        + wedge(wedge(dyx, dy), dt_).scale(-tau)
        + wedge(wedge(dyt, dt_), dx).scale(rho * yt)
        + wedge(wedge(dyx, dt_), dx).scale(-tau * yx)
    )
    assert sys_.bar_d_theta() == bd_want
    # xi_Y and bar_d xi_Y goldens
    Y = jet_lift(string_model.candidate("Y", ch))
    xi = noether_current(Y, sys_)
    assert xi == dx.scale(-rho * yt) + dt_.scale(-tau * yx)
    bdxi_want = wedge(dx, dyt).scale(rho) + wedge(dt_, dyx).scale(tau) + wedge(dx, dt_).scale(rho * gamma * yt)
    assert bar_d(xi, sys_.sigma) == bdxi_want
    # Legendre map, H, Theta_H
    lt = legendre(sys_)
    hch = lt.hamiltonian_system.chart
    pt, px, hst = hch.coord("p_t"), hch.coord("p_x"), hch.coord("s_t")
    assert lt.forward["p_t"] == rho * yt
    assert lt.forward["p_x"] == -tau * yx
    H_want = pt**2 / (2 * rho) - px**2 / (2 * tau) + gamma * hst
    assert lt.hamiltonian_system.hamiltonian == H_want
    hdt, hdx, hdy, hdst, hdsx = (one_form(hch, n) for n in ("t", "x", "y", "s_t", "s_x"))
    theta_h_want = (
        wedge(hdy, hdx).scale(-pt)
        + wedge(hdy, hdt).scale(px)
        + wedge(hdt, hdx).scale(H_want)
        + wedge(hdst, hdx)
        - wedge(hdsx, hdt)
    )
    assert lt.hamiltonian_system.theta == theta_h_want
    # solved SOPDE family with its free components
    fam = solve_sopde_family(sys_)
    assert [s.name for s in fam.free] == ["A5", "A7", "B4", "B5", "B6", "B7"]
    B5, B7 = var("B5", "aux"), var("B7", "aux")
    assert fam.factors[0] == {
        ch.axis("t"): const(1),
        ch.axis("y"): yt,
        ch.axis("y_t"): tau / rho * B5 - gamma * yt,
        ch.axis("y_x"): var("A5", "aux"),
        ch.axis("s_t"): L - B7,
        ch.axis("s_x"): var("A7", "aux"),
    }
    assert fam.factors[1] == {
        ch.axis("x"): const(1),
        ch.axis("y"): yx,
        ch.axis("y_t"): var("B4", "aux"),
        ch.axis("y_x"): B5,
        ch.axis("s_t"): var("B6", "aux"),
        ch.axis("s_x"): B7,
    }
    report(1, "golden damped-string symbolic suite", t0, 1.0)


def test_criterion_2_noether_theorem_mechanized(string_model):
    t0 = time.perf_counter()
    systems = []
    sys_ = string_model.system()
    string_candidates = [
        ("lift(Y)", jet_lift(string_model.candidate("Y", sys_.chart))),
        ("lift(S)", jet_lift(string_model.candidate("S", sys_.chart))),
        ("d/dt", Multivector.vector(sys_.chart, {"t": 1})),
        ("d/dx", Multivector.vector(sys_.chart, {"x": 1})),
    ]
    systems.append(("string", sys_, string_candidates))
    for e in corpus(seed=20240, size=6):
        systems.append((e.name, e.system, e.candidates))
    assert len(systems) >= 6
    checked = 0
    for name, s, candidates in systems:
        fam = solve_sopde_family(s)
        for label, Y in candidates:
            rep = classify(Y, s)
            if rep.classification == NOT_NOETHER:
                continue
            chk = check_dissipative(rep.current, fam, s.sigma)
            assert chk.holds and chk.certainty is ZeroCheck.ZERO, (name, label, chk.witnesses)
            checked += 1
    assert checked >= 10
    report(2, f"i_X bar_d(i_Y Theta_L) = 0 for {checked} Noether candidates", t0, 5.0)


def test_criterion_3_lemma_and_bracket_closure(string_model):
    t0 = time.perf_counter()
    systems = [("string", string_model.system(), None)]
    entries = corpus(seed=20240, size=6)
    strong_count = 0
    pair_count = 0
    all_sets = []
    for e in entries:
        strong = []
        for label, Y in e.candidates:
            rep = classify(Y, e.system)
            if rep.classification == STRONG_NOETHER:
                strong_count += 1
                assert rep.sigma_invariant, (e.name, label)
                lw = lie_derivative(Y, e.system.omega)
                assert lw.is_structurally_zero(), (e.name, label)
                strong.append(Y)
        all_sets.append((e.system, strong))
    sys_ = string_model.system()
    strong = []
    for name in ("Y", "S"):
        Y = jet_lift(string_model.candidate(name, sys_.chart))
        rep = classify(Y, sys_)
        if rep.classification == STRONG_NOETHER:
            assert rep.sigma_invariant and lie_derivative(Y, sys_.omega).is_structurally_zero()
            strong.append(Y)
    all_sets.append((sys_, strong))
    for s, strongs in all_sets:
        for i, Y1 in enumerate(strongs):
            for Y2 in strongs[i:]:
                B = schouten(Y1, Y2)
                assert classify(B, s).classification == STRONG_NOETHER
                pair_count += 1
    assert strong_count >= 5
    report(3, f"sigma/omega invariance of {strong_count} strong symmetries, {pair_count} bracket closures", t0, 5.0)


# -- criterion 4 helpers: a brute-force oracle independent of the library --


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _apply_form(a, vectors):
    total = const(0)
    for idx, c in a.table.items():
        acc = const(0)
        for perm in permutations(range(len(idx))):
            term = const(_perm_sign(list(perm)))
            for r, p in enumerate(perm):
                term = mul(term, vectors[r].get(idx[p], const(0)))
            acc = add(acc, term)
        total = add(total, mul(c, acc))
    return total


def _rand_expr(rng, ch):
    terms = []
    for _ in range(rng.randint(1, 2)):
        c = const(rng.choice([1, -1, 2, -2, 3]))
        for _ in range(rng.randint(0, 2)):
            c = mul(c, ch.coord(rng.choice(ch.names())))
        terms.append(c)
    return add(*terms)


def _rand_form(rng, ch, k):
    idxs = list(combinations(range(ch.dim), k))
    return Form(ch, k, {idx: _rand_expr(rng, ch) for idx in rng.sample(idxs, min(2, len(idxs)))})


def _rand_vec(rng, ch):
    return {i: _rand_expr(rng, ch) for i in rng.sample(range(ch.dim), rng.randint(1, 2))}


def _rand_mv(rng, ch, m):
    return Multivector(ch, m, factors=[_rand_vec(rng, ch) for _ in range(m)])


def _rand_chart(rng):
    return generic_chart([f"z{i}" for i in range(rng.randint(3, 5))])


def test_criterion_4_appendix_property_suite():
    t0 = time.perf_counter()
    N = 100
    rng = random.Random(1234)
    # d o d = 0
    for _ in range(N):
        ch = _rand_chart(rng)
        a = _rand_form(rng, ch, rng.randint(0, ch.dim - 2))
        assert ext_d(ext_d(a)).is_structurally_zero()
    # graded wedge antisymmetry
    for _ in range(N):
        ch = _rand_chart(rng)
        k = rng.randint(1, 2)
        l = rng.randint(1, 2)
        a, b = _rand_form(rng, ch, k), _rand_form(rng, ch, l)
        assert (wedge(a, b) - wedge(b, a).scale((-1) ** (k * l))).is_structurally_zero()
    # contraction-order convention vs brute-force antisymmetrization
    for _ in range(N):
        ch = _rand_chart(rng)
        m = rng.randint(1, min(3, ch.dim))
        k = rng.randint(m, ch.dim)
        X = _rand_mv(rng, ch, m)
        a = _rand_form(rng, ch, k)
        got = contract(X, a)
        for rest in combinations(range(ch.dim), k - m):
            want = _apply_form(a, list(X.factors) + [{i: const(1)} for i in rest])
            assert (got.coeff(*rest) - want) == const(0)
    # Proposition: i_{[Y,X]} = L_Y i_X - i_X L_Y for vector fields Y
    for _ in range(N):
        ch = _rand_chart(rng)
        m = rng.randint(1, min(3, ch.dim))
        X = _rand_mv(rng, ch, m)
        Y = _rand_mv(rng, ch, 1)
        k = rng.randint(m, ch.dim)
        a = _rand_form(rng, ch, k)
        B = schouten(Y, X)
        lhs = contract(B, a) if not B.is_structurally_zero() else Form.zero(ch, k - m)
        rhs = lie_derivative(Y, contract(X, a)) - contract(X, lie_derivative(Y, a))
        assert (lhs - rhs).is_structurally_zero()
    # Schouten graded antisymmetry and the Leibniz rule
    for _ in range(N):
        ch = _rand_chart(rng)
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        P, Q = _rand_mv(rng, ch, m), _rand_mv(rng, ch, n)
        kappa = (m - 1) * (n - 1)
        assert (schouten(P, Q) + schouten(Q, P).scale((-1) ** kappa)).is_structurally_zero()
        if m + n <= ch.dim:
            R = _rand_mv(rng, ch, 1)
            lhs = schouten(P, Multivector.wedge_of(Q, R))
            t1 = _wedge_mv(schouten(P, Q), R)
            t2 = _wedge_mv(Q, schouten(P, R)).scale((-1) ** ((m - 1) * n))
            assert (lhs - (t1 + t2)).is_structurally_zero()
    report(4, f"appendix identities on {N} randomized instances each", t0, 10.0)


def _wedge_mv(A, B):
    out = {}
    for ia, ca in A.table().items():
        for ib, cb in B.table().items():
            if set(ia) & set(ib):
                continue
            inv = sum(1 for i in ia for j in ib if i > j)
            key = tuple(sorted(ia + ib))
            out[key] = add(out.get(key, const(0)), mul(const((-1) ** inv), ca, cb))
    return Multivector(A.chart, A.degree + B.degree, table=out)


def test_criterion_5_numeric_dissipation_law(string_model, string_system):
    t0 = time.perf_counter()
    ch = string_system.chart
    xi = noether_current(jet_lift(string_model.candidate("Y", ch)), string_system)
    K = 2 * math.pi
    for gamma in (0.0, 0.1, 0.5):
        bindings = {"rho": 1.0, "tau": 1.0, "gamma": gamma}
        l2 = []
        finest = None
        for nx in (128, 256, 512):
            grid = make_grid(nx, 1.0, 0.5, 2.0, 1.0, "periodic")
            y0 = 0.1 * np.sin(K * grid.x)
            v0 = np.ones(grid.nx)
            traj = integrate_damped_wave({"rho": 1.0, "tau": 1.0, "gamma": gamma}, y0, v0, grid)
            ft, fx = evaluate_current(xi, traj, bindings)
            norms = ResidualNorms(grid)
            dissipation_residual(ft, fx, -gamma, traj, norms)
            l2.append(norms.l2_norm)
            finest = traj
        for a, b in zip(l2, l2[1:]):
            assert 3.2 <= a / b <= 4.8, (gamma, l2)
        P = momentum_series(finest)
        gamma_hat = decay_fit(finest.t, P)
        assert abs(gamma_hat - gamma) <= 1e-3, (gamma, gamma_hat)
    # gamma = 0 conservation drift over T = 10 periods
    grid = make_grid(256, 1.0, 0.5, 10.0, 1.0, "periodic")
    y0 = 0.1 * np.sin(K * grid.x)
    v0 = np.ones(grid.nx)
    traj = integrate_damped_wave({"rho": 1.0, "tau": 1.0, "gamma": 0.0}, y0, v0, grid)
    P = momentum_series(traj)
    drift = float(np.max(np.abs(P - P[0])) / abs(P[0]))
    assert drift <= 1e-6, drift
    report(5, "dissipation-law residual orders, decay fits, conservation drift", t0, 30.0)


def _run_cli(*argv):
    import contextlib
    import io

    from mcft.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue(), ""


def test_criterion_6_roundtrip_and_determinism(string_text):
    t0 = time.perf_counter()
    m = parse(string_text)
    canonical = render(m)
    assert render(parse(canonical)) == canonical
    assert parse(canonical) == m
    import pathlib

    MODEL = str(pathlib.Path(__file__).resolve().parents[1] / "models" / "string.mcft")
    run_cli = _run_cli

    for argv in (
        ["--json", "--seed", "11", "derive", "--hamiltonian", MODEL],
        ["--json", "--seed", "11", "check-symmetry", MODEL, "Y"],
        ["--json", "--seed", "11", "sopde", MODEL],
        ["--json", "--seed", "11", "verify-law", MODEL, "Y", "main"],
    ):
        _, a, _ = run_cli(*argv)
        _, b, _ = run_cli(*argv)
        assert a == b and a.strip()
        json.loads(a)
    report(6, "DSL fixpoint and byte-identical seeded reports", t0, 30.0)
