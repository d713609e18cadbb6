"""Exact linear algebra: ``det`` and ``minors`` against a Laplace cofactor
reference and ``solve_affine`` against Cramer's rule, over rational,
monomial, Laurent, inverted-sum and multi-term entries."""
import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mcft import algebra
from mcft.algebra import InconsistentSystemError, NonlinearSystemError, det, minors, solve_affine
from mcft.dsl import parse
from mcft.expr import (
    Expr,
    ExprError,
    ZeroCheck,
    add,
    const,
    cos,
    div_exact,
    exp,
    is_zero,
    mul,
    pow_,
    sin,
    substitute,
    sym,
    var,
)
from mcft.hamiltonian import legendre
from mcft.lagrangian import Regularity

SYMS = [var(n, "param") for n in ("a", "b", "c")]
UNKNOWNS = [sym(n, "aux") for n in ("A1", "A2", "A3")]
GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"


def cofactor_det(matrix):
    """Laplace expansion along the first row: the reference for ``det``."""
    if not matrix:
        return const(1)
    parts = []
    for j, c in enumerate(matrix[0]):
        if c.terms:
            minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            parts.append(mul(const((-1) ** j), c, cofactor_det(minor)))
    return add(*parts)


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)).map(const)
monomials = st.builds(
    lambda c, s, k: mul(c, pow_(s, k)), rationals.filter(bool), st.sampled_from(SYMS), st.integers(1, 2)
)
laurents = st.builds(  # e.g. a + 1/b
    lambda c, s, d, t: add(mul(c, s), mul(d, pow_(t, -1))),
    rationals.filter(bool),
    st.sampled_from(SYMS),
    rationals.filter(bool),
    st.sampled_from(SYMS),
)
sums = st.lists(monomials | rationals, min_size=2, max_size=3).map(lambda xs: add(*xs))
entries = st.one_of(rationals, monomials, laurents, sums)


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # a row that depends on the rows above it, with a symbolic weight
        k, w = draw(st.integers(1, n - 1)), draw(entries)
        m[k] = [mul(w, x) for x in m[0]] if k == 1 else [x + w * y for x, y in zip(m[0], m[k - 1])]
    return m


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_det_matches_cofactor_expansion(m):
    # Laurent entries keep canonical forms unique, so equality is structural
    assert det(m) == cofactor_det(m)


def test_det_mixes_rational_and_symbolic_pivots():
    a, b, c = SYMS
    m = [
        [a, const(1), b],
        [const(2), a + pow_(b, -1), const(0)],
        [c, const(3), mul(a, c) - 1],
    ]
    assert det(m) == cofactor_det(m)
    assert det([]) == const(1)
    assert det([[const(0), a], [const(0), b]]) == const(0)


@st.composite
def large_matrices(draw):
    # every other entry zero on average, so that the reference stays quick
    n = draw(st.integers(5, 6))
    return [[draw(st.just(const(0)) | entries) for _ in range(n)] for _ in range(n)]


@given(large_matrices())
@settings(max_examples=20, deadline=None)
def test_det_matches_cofactor_expansion_at_5_and_6(m):
    assert det(m) == cofactor_det(m)


inverted = st.builds(  # e.g. 2*a/(b + 1)
    lambda c, s, t: mul(c, s, pow_(add(t, const(1)), -1)),
    rationals.filter(bool),
    monomials | st.just(const(1)),
    st.sampled_from(SYMS),
)


@st.composite
def sparse_rows(draw):
    """2-3 rows over 3-6 columns as {column: Expr}, with Laurent and
    inverted-sum entries; sometimes a row is a symbolic multiple of the
    first, so that minors cancel."""
    k, n = draw(st.integers(2, 3)), draw(st.integers(3, 6))
    cell = st.one_of(rationals.filter(bool), monomials, laurents, inverted)
    rows = [draw(st.dictionaries(st.integers(0, n - 1), cell, max_size=n)) for _ in range(k)]
    if draw(st.booleans()):
        w = draw(cell)
        rows[-1] = {j: mul(w, x) for j, x in rows[0].items()}
    return rows


@given(sparse_rows())
@settings(max_examples=150, deadline=None)
def test_minors_equal_each_square_cofactor_expansion(rows):
    columns = sorted({j for row in rows for j in row})
    table = minors(rows)
    nonzero = set()
    for idx in itertools.combinations(columns, len(rows)):
        square = [[row.get(j, const(0)) for j in idx] for row in rows]
        reference = cofactor_det(square)
        if is_zero(reference) is not ZeroCheck.ZERO:
            nonzero.add(idx)
            assert is_zero(add(table[idx], mul(const(-1), reference))) is ZeroCheck.ZERO
            # and as text: each minor is the expression det gives on its columns
            assert table[idx] == det(square)
    # exactly the zero minors are dropped
    assert set(table) == nonzero
    assert list(table) == sorted(table)


def test_a_minor_that_cancels_once_an_inverted_sum_is_cleared_is_absent():
    a, b, _c = SYMS
    s = add(a, b)
    # 1/(a + b) * (a + b) - 1 is zero, but not term by term
    assert add(mul(pow_(s, -1), s), const(-1)).terms
    assert minors([{0: pow_(s, -1), 1: const(1)}, {0: const(1), 1: s}]) == {}
    assert det([[pow_(s, -1), const(1)], [const(1), s]]) == const(0)
    assert set(minors([{0: pow_(s, -1), 1: const(1), 2: a}, {0: const(1), 1: s}])) == {(0, 2), (1, 2)}


def test_a_minor_keeps_no_inverted_sum_of_a_column_it_does_not_use():
    a, b, _c = SYMS
    s = add(a, b)
    table = minors([{0: pow_(s, -1), 1: const(1), 2: a}, {0: const(1), 1: s, 3: b}])
    assert table[(1, 3)] == b
    assert table[(0, 3)] == mul(b, pow_(s, -1))
    assert table[(2, 3)] == mul(a, b)


def test_det_refuses_a_matrix_that_is_not_square():
    a, b, _c = SYMS
    with pytest.raises(ValueError):
        det([[a, b]])
    with pytest.raises(ValueError):
        det([[a], [b]])


def dense_affine(n, seed):
    """An n x n matrix whose every entry is k0 + k1*a + k2*b + k3*c, each k
    a nonzero rational."""
    rng = random.Random(seed)
    a, b, c = SYMS

    def k():
        return const(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))))

    return [[add(k(), mul(k(), a), mul(k(), b), mul(k(), c)) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", [5, 6])
def test_det_of_a_dense_affine_symbolic_matrix(n):
    m = dense_affine(n, seed=n)
    d = det(m)
    # degree n in three symbols: every one of its monomials is there
    assert len(d.terms) == math.comb(n + 3, 3)
    assert d == cofactor_det(m)


@pytest.mark.parametrize("name", ["parametric_n2", "coupled_n3"])
def test_det_of_a_symbolic_hessian_divides_nothing(monkeypatch, name):
    sys_ = parse((GOLDENS / f"{name}.mcft").read_text()).system()
    calls = []

    def counting_div_exact(num, den):
        calls.append(den)
        return div_exact(num, den)

    monkeypatch.setattr(algebra, "div_exact", counting_div_exact)
    assert det(sys_.hessian) == sys_.hessian_det
    assert calls == []


@st.composite
def systems(draw):
    n = draw(st.integers(1, 3))
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    rhs = [draw(entries) for _ in range(n)]
    return m, rhs


# three rational points of (a, b, c, A1, A2, A3)
POINTS = [
    dict(zip(("a", "b", "c", "A1", "A2", "A3"), map(Fraction, p.split())))
    for p in ("2/3 -5/7 3/2 1/5 -2 7/3", "-3/2 1/4 5/3 3 1/6 -4/5", "7/5 9/2 -1/3 -1/2 5 2/9")
]


def value(e, point):
    """The exact value of ``e`` at a rational point; None where a
    denominator vanishes there."""
    try:
        return substitute(e, {sym(n): const(v) for n, v in point.items()}).as_rational()
    except ExprError:
        return None


@given(systems())
@settings(max_examples=100, deadline=None)
def test_solve_affine_matches_cramer(system):
    m, rhs = system
    n = len(m)
    d = cofactor_det(m)
    unknowns = UNKNOWNS[:n]
    eqs = [add(*(mul(c, var(u.name, "aux")) for c, u in zip(row, unknowns)), -r) for row, r in zip(m, rhs)]
    if not d.terms:
        try:
            sol = solve_affine(eqs, unknowns)
        except InconsistentSystemError:
            return
        # consistent but underdetermined: unknowns stay free, and it solves
        assert sol.free
        for e in eqs:
            assert all(value(substitute(e, sol.solved), pt) in (0, None) for pt in POINTS)
        return
    sol = solve_affine(eqs, unknowns)
    assert not sol.free
    for i, u in enumerate(unknowns):
        mi = [row[:i] + [r] + row[i + 1 :] for row, r in zip(m, rhs)]
        for pt in POINTS:
            dv, nv, got = value(d, pt), value(cofactor_det(mi), pt), value(sol.solved[u], pt)
            if dv and nv is not None and got is not None:
                assert got == nv / dv


def _row_by_terms(e, column):
    """An affine row built one ``Expr`` per term and summed per column."""
    parts = [[] for _ in range(len(column) + 1)]
    for mono, c in e.terms:
        hit = [a for a, _ in mono if a in column]
        parts[column[hit[0]] if hit else -1].append(Expr(((tuple(ak for ak in mono if ak[0] not in column), c),)))
    return [add(*p) for p in parts]


@given(st.lists(entries, min_size=4, max_size=4), st.lists(st.booleans(), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_affine_row_matches_a_sum_per_term(coeffs, held):
    # an equation in up to three unknowns, some absent, and its constant part
    column = {u: i for i, u in enumerate(UNKNOWNS)}
    terms = [mul(c, var(u.name, "aux")) for c, u, h in zip(coeffs, UNKNOWNS, held) if h]
    e = add(*terms, coeffs[-1])
    got, want = algebra._affine_row(e, column), _row_by_terms(e, column)
    assert [g.terms for g in got] == [w.terms for w in want]
    assert add(*(mul(g, var(u.name, "aux")) for g, u in zip(got, UNKNOWNS)), got[-1]) == e


def test_solve_affine_keeps_later_unknowns_free():
    a, b, _ = SYMS
    A1, A2, A3 = (var(u.name, "aux") for u in UNKNOWNS)
    eqs = [A1 + a * A3 - b, (a + pow_(b, -1)) * A2 - A3 - 1]
    sol = solve_affine(eqs, UNKNOWNS)
    assert sol.free == UNKNOWNS[2:]
    assert sol.solved[UNKNOWNS[0]] == b - a * A3
    assert sol.solved[UNKNOWNS[1]] == b * (A3 + 1) / (a * b + 1)
    with pytest.raises(InconsistentSystemError):
        solve_affine(eqs + [A1 + a * A3 - b + 1], UNKNOWNS)


SINGULAR_LAURENT = {
    # Hessian [[1/b, 1], [1, b]]
    "monomial": "1/2/b*du[t]^2 + du[t]*du[x] + 1/2*b*du[x]^2",
    # Hessian [[a + 1/b, 1], [1, b/(a*b + 1)]]: the product of the diagonal
    # is 1 only once the inverted sum a*b + 1 cancels
    "inverted-sum": "1/2*(a + 1/b)*du[t]^2 + du[t]*du[x] + 1/2*b/(a*b + 1)*du[x]^2",
}


@pytest.mark.parametrize("case", sorted(SINGULAR_LAURENT))
def test_singular_laurent_hessian_reads_singular(case):
    model = parse(f"coords t x\nfields u\nparams a b\nlagrangian {SINGULAR_LAURENT[case]}\n")
    sys_ = model.system()
    assert sys_.hessian_det == const(0)
    assert sys_.regularity is Regularity.SINGULAR


# ---------------------------------------------------------------------------
# Block-wise elimination: two unknowns share a block when an equation holds
# both, and each block is solved over its own pivot.

BLOCK_UNKNOWNS = [sym(n, "aux") for n in ("A1", "A2", "A3", "A4", "A5")]
A1, A2, A3, A4, A5 = (var(u.name, "aux") for u in BLOCK_UNKNOWNS)


def test_independent_blocks_keep_the_declared_order():
    a, b, _ = SYMS
    # the {A2, A4} block comes first among the equations, and A3 is in none
    eqs = [a * A2 - A4 - 1, A1 + b * A5]
    sol = solve_affine(eqs, BLOCK_UNKNOWNS)
    assert list(sol.solved) == [BLOCK_UNKNOWNS[0], BLOCK_UNKNOWNS[1]]
    assert sol.free == BLOCK_UNKNOWNS[2:]
    assert sol.solved[BLOCK_UNKNOWNS[0]] == -b * A5
    assert sol.solved[BLOCK_UNKNOWNS[1]] == (A4 + 1) / a


def test_block_split_keeps_the_errors():
    a, b, _ = SYMS
    with pytest.raises(InconsistentSystemError):
        solve_affine([A1 - a, A2 - b, a + 1], BLOCK_UNKNOWNS)
    with pytest.raises(NonlinearSystemError):
        solve_affine([A1 - a, A2 * A3 - b], BLOCK_UNKNOWNS)


@pytest.mark.parametrize(
    "equation",
    [
        lambda a, b: sin(A1) - a,  # inside a function atom
        lambda a, b: b / (A1 + a) - 1,  # inside an inverted sum
        lambda a, b: A1 + b * cos(a * A1),  # bare in one term, buried in another
        lambda a, b: A2 - a * exp(b) + sin(b + A1),  # buried in the last term only
    ],
    ids=["function", "inverted-sum", "bare-and-buried", "last-term"],
)
def test_unknown_inside_an_atom_is_nonlinear(equation):
    a, b, _ = SYMS
    e = equation(a, b)
    with pytest.raises(NonlinearSystemError, match=r"^nonlinear in unknowns: ") as exc:
        solve_affine([e], BLOCK_UNKNOWNS)
    assert str(exc.value) == f"nonlinear in unknowns: {e}"
    # the same atoms over known symbols only are coefficients
    known = add(substitute(e, {A1: b}), mul(sin(a), A3))
    assert solve_affine([known], BLOCK_UNKNOWNS).solved


# L of two fields whose t- and x-Hessian blocks are both symbolic
TWO_BLOCKS = (
    "coords t x\nfields u v\nparams a b c d\nlagrangian 1/2*a*du[t]^2 + du[t]*dv[t] + 1/2*b*dv[t]^2"
    " - 1/2*c*du[x]^2 - du[x]*dv[x] - 1/2*d*dv[x]^2 - 1/20*s[t]\n"
)


def test_each_velocity_is_over_its_own_block_determinant():
    sys_ = parse(TWO_BLOCKS).system()
    param = {s.name: s for s in sys_.lagrangian.symbols}
    a, b, c, d = (var(n, "param", param[n].order) for n in "abcd")
    lt = legendre(sys_)
    # one pivot for both blocks gave 13 terms over (a*b - 1)*(c*d - 1)
    assert len(lt.hamiltonian_system.hamiltonian.terms) == 7
    for name, block_det in (("u_t", a * b - 1), ("v_t", a * b - 1), ("u_x", c * d - 1), ("v_x", c * d - 1)):
        denominators = {(f, k) for mono, _ in lt.inverse[name].terms for f, k in mono if k < 0}
        ((inverse_det, _),) = pow_(block_det, -1).terms
        assert denominators == set(inverse_det)
