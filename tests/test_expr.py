import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mcft.expr import (
    EvalError,
    Expr,
    ExprError,
    FuncAtom,
    ONE,
    SumAtom,
    Symbol,
    ZERO,
    ZeroCheck,
    add,
    canon,
    clear_denominators,
    const,
    cos,
    diff,
    div_exact,
    evaluate,
    exp,
    free_symbols,
    is_zero,
    mul,
    pow_,
    sin,
    substitute,
    to_text,
    var,
)

x = var("x")
y = var("y")
z = var("z")
rho = var("rho", "param", 0)
tau = var("tau", "param", 1)
gamma = var("gamma", "param", 2)
y_t = var("y_t", "velocity", 3)
y_x = var("y_x", "velocity", 4)
s_t = var("s_t", "action", 5)


class TestDiff:
    def test_kinetic_term(self):
        L = Fraction(1, 2) * rho * y_t**2 - Fraction(1, 2) * tau * y_x**2 - gamma * s_t
        assert diff(L, y_t) == rho * y_t

    def test_constant(self):
        assert diff(const(5), x) == const(0)

    def test_product_independent_symbols(self):
        assert diff(y * y_x, y_x) == y

    def test_chain_rule(self):
        assert diff(sin(x**2), x) == 2 * x * cos(x**2)
        assert diff(exp(3 * x), x) == 3 * exp(3 * x)
        assert diff(cos(x), x) == -sin(x)

    def test_negative_power(self):
        assert diff(x**-1, x) == -(x**-2)

    def test_undeclared_not_an_issue_other_symbols_independent(self):
        assert diff(x * y, z) == const(0)


class TestSubstitute:
    def test_inverse_legendre(self):
        p_t = var("p_t", "momentum", 3)
        assert substitute(y_t**2, {y_t: p_t / rho}) == p_t**2 / rho**2

    def test_identity(self):
        e = x * y + sin(x)
        assert substitute(e, {}) == e

    def test_simultaneous_swap(self):
        assert substitute(x + y, {x: y, y: x}) == x + y
        assert substitute(x * y**2, {x: y, y: x}) == y * x**2

    def test_into_function_argument(self):
        assert substitute(sin(x), {x: y + 1}) == sin(y + 1)


class TestEval:
    def test_product(self):
        assert evaluate(rho * y_t, {"rho": 2, "y_t": 3}) == 6.0

    def test_canonical_zero_times_symbol(self):
        assert evaluate(mul(const(0), x), {}) == 0.0

    def test_energy_density_point(self):
        # E_L = dL/dv . v - L at rho=1, tau=1, gamma=0.1, y_t=1, y_x=0, s_t=2:
        # 1/2*1*1 - 1/2*1*0 + 0.1*2 = 0.7
        E = Fraction(1, 2) * rho * y_t**2 - Fraction(1, 2) * tau * y_x**2 + gamma * s_t
        v = evaluate(E, {"rho": 1, "tau": 1, "gamma": 0.1, "y_t": 1, "y_x": 0, "s_t": 2})
        assert v == pytest.approx(0.7, abs=1e-15)

    def test_unbound_symbol(self):
        with pytest.raises(EvalError):
            evaluate(x + y, {"x": 1})

    def test_domain_error(self):
        with pytest.raises(EvalError):
            evaluate(pow_(x, -1), {"x": 0})


class TestIsZero:
    def test_commutator(self):
        assert is_zero(x * y - y * x) is ZeroCheck.ZERO

    def test_pythagorean_probing(self):
        assert is_zero(sin(x) ** 2 + cos(x) ** 2 - 1) is ZeroCheck.PROBABLY_ZERO

    def test_nonzero(self):
        assert is_zero(x) is ZeroCheck.NONZERO

    def test_nonzero_with_functions(self):
        assert is_zero(sin(x) ** 2 - cos(x) ** 2) is ZeroCheck.NONZERO

    def test_zerocheck_truthiness(self):
        assert ZeroCheck.ZERO and ZeroCheck.PROBABLY_ZERO and not ZeroCheck.NONZERO

    def test_seed_determinism(self):
        e = sin(x) ** 2 + cos(x) ** 2 - 1
        assert is_zero(e, seed=42) is is_zero(e, seed=42)


def _a1_by_elimination_and_cramer():
    """A1 of [[b^2, a + 1/a, 1], [a, a + 1/a, 0], [a/3, 0, a]] A = [2, 0, 0]
    by elimination and by Cramer's rule, as two different expressions."""
    from mcft.algebra import solve_affine

    a, b = var("a", "param"), var("b", "param")
    m = [[b**2, a + 1 / a, const(1)], [a, a + 1 / a, const(0)], [a / 3, const(0), a]]
    rhs = [const(2), const(0), const(0)]

    def det3(r):
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    unknowns = [Symbol(f"A{i}", "aux") for i in (1, 2, 3)]
    eqs = [add(*(c * var(u.name, "aux") for c, u in zip(row, unknowns)), -r) for row, r in zip(m, rhs)]
    cramer = det3([[r] + row[1:] for row, r in zip(m, rhs)]) / det3(m)
    return solve_affine(eqs, unknowns).solved[unknowns[0]], cramer


class TestExactZeroOverInvertedSums:
    """Without function atoms an expression is a rational function, decided
    exactly by clearing its denominators; probing is left to sin/cos/exp."""

    a, b = var("a", "param"), var("b", "param")

    def identities(self):
        a, b = self.a, self.b
        solved, cramer = _a1_by_elimination_and_cramer()
        return [
            solved - cramer,
            1 / (1 + 1 / (1 + 1 / a)) - (a + 1) / (2 * a + 1),
            (a**2 - b**2) / (a + b) - (a - b),
        ]

    def test_identities_read_zero(self):
        for e in self.identities():
            assert e.terms  # not cancelled by canonical form alone
            assert is_zero(e) is ZeroCheck.ZERO

    def test_perturbed_identities_read_nonzero(self):
        a, b = self.a, self.b
        for e in self.identities():
            assert is_zero(e + 1 / (a + b + 3)) is ZeroCheck.NONZERO

    def test_function_inside_an_inverted_sum_is_still_probed(self):
        assert is_zero(1 / (1 + sin(x) ** 2) - 1 / (2 - cos(x) ** 2)) is ZeroCheck.PROBABLY_ZERO


class TestCanonicalForm:
    def test_power_expansion(self):
        assert (x + y) ** 2 == x**2 + 2 * x * y + y**2

    def test_zero_power(self):
        assert pow_(x + y, 0) == const(1)

    def test_division_by_zero(self):
        with pytest.raises(ExprError):
            pow_(const(0), -1)

    def test_monomial_inverse_cancels(self):
        assert (x**2 * y) / (x * y) == x

    def test_sum_inverse_shared_atom(self):
        a = pow_(x + y, -1)
        b = pow_(2 * x + 2 * y, -1)
        assert b == a / 2

    def test_div_exact_polynomial(self):
        assert div_exact(x**2 - y**2, x + y) == x - y

    def test_text_rendering(self):
        e = Fraction(1, 2) * rho * y_t**2 - Fraction(1, 2) * tau * y_x**2 + gamma * s_t
        assert to_text(e) == "rho*y_t^2/2 - tau*y_x^2/2 + gamma*s_t"
        p_t = var("p_t", "momentum", 3)
        assert to_text(p_t**2 / (2 * rho)) == "p_t^2/(2*rho)"


# ---------------------------------------------------------------------------
# Property tests.

SYMS = [x, y, z]


@st.composite
def exprs(draw, depth=2):
    if depth == 0:
        leaf = draw(st.sampled_from(["sym", "int"]))
        if leaf == "sym":
            return draw(st.sampled_from(SYMS))
        return const(draw(st.integers(-4, 4)))
    op = draw(st.sampled_from(["add", "mul", "pow", "leaf", "leaf", "fn"]))
    if op == "leaf":
        return draw(exprs(depth=0))
    if op == "add":
        return add(draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1)))
    if op == "mul":
        return mul(draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1)))
    if op == "pow":
        return pow_(draw(exprs(depth=depth - 1)), draw(st.integers(0, 3)))
    fn = draw(st.sampled_from([sin, cos]))
    return fn(draw(exprs(depth=depth - 1)))


@given(exprs())
@settings(max_examples=150, deadline=None)
def test_canonical_idempotence(e):
    assert canon(e).terms == e.terms


def test_canon_rebuilds_a_noncanonical_expression():
    sx, sy = x.single_symbol, y.single_symbol
    raw = Expr(((((sy, 1), (sx, 1)), Fraction(1)), (((sx, 1),), Fraction(2)), (((sx, 1),), Fraction(-2))))
    assert canon(raw).terms == (x * y).terms


@given(exprs(), exprs(), st.sampled_from(SYMS))
@settings(max_examples=150, deadline=None)
def test_leibniz_rule(a, b, v):
    s = v.single_symbol
    lhs = diff(mul(a, b), s)
    rhs = add(mul(diff(a, s), b), mul(a, diff(b, s)))
    assert lhs == rhs


@given(exprs(), st.sampled_from(SYMS), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_derivative_matches_finite_differences(e, v, seed):
    rng = random.Random(seed)
    b = {s.name: rng.uniform(-1.5, 1.5) for s in free_symbols(e) | {v.single_symbol}}
    h = 1e-6
    name = v.single_symbol.name
    up = dict(b, **{name: b[name] + h})
    dn = dict(b, **{name: b[name] - h})
    try:
        fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
        an = evaluate(diff(e, v), b)
    except EvalError:
        return
    scale = max(1.0, abs(an), abs(fd))
    assert abs(an - fd) / scale < 1e-5


@given(exprs(), st.sampled_from(SYMS), exprs(), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_substitute_commutes_with_eval(e, v, g, seed):
    rng = random.Random(seed)
    names = {s.name for s in free_symbols(e) | free_symbols(g)} | {v.single_symbol.name}
    b = {n: rng.uniform(-2, 2) for n in names}
    try:
        inner = evaluate(g, b)
        lhs = evaluate(substitute(e, {v: g}), b)
        rhs = evaluate(e, dict(b, **{v.single_symbol.name: inner}))
    except EvalError:
        return
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) / scale < 1e-9


# ---------------------------------------------------------------------------
# Per-atom caches: hashes, derivatives and plain text are computed once per
# atom and must agree with what a freshly built equal atom computes.


def _atom(e):
    """The single atom of a one-atom monomial expression."""
    ((mono, _c),) = e.terms
    ((a, _k),) = mono
    return a


def _rebuilt(e):
    # canon builds every atom anew
    return canon(e)


class TestAtomCaches:
    def test_text_cache_keeps_plain_and_mapped_apart(self):
        for e, plain, mapped in (
            (pow_(x + y, -1), "1/(x + y)", "1/(X + Y)"),
            (sin(x * y), "sin(x*y)", "sin(X*Y)"),
        ):
            assert to_text(e) == plain
            assert to_text(e, str.upper) == mapped
            assert to_text(e) == plain
        e = pow_(x + z, -1)
        assert to_text(e, str.upper) == "1/(X + Z)"
        assert to_text(e) == "1/(x + z)"

    def test_derivative_memo_per_symbol(self):
        e = pow_(x + y * z, -1)
        atom = _atom(e)
        sx, sy = x.single_symbol, y.single_symbol
        assert diff(e, x) == -pow_(x + y * z, -2)
        assert diff(e, y) == -z * pow_(x + y * z, -2)
        assert set(atom._diff) == {sx, sy}
        assert atom._diff[sx] != atom._diff[sy]
        fresh = x + y * z
        assert atom._diff[sx] == diff(fresh, x)
        assert atom._diff[sy] == diff(fresh, y)

    def test_function_atom_derivative_memo(self):
        e = sin(x * y)
        atom = _atom(e)
        assert diff(e, x) == y * cos(x * y)
        assert diff(e, z) == const(0)
        assert atom._diff[x.single_symbol] == y * cos(x * y)
        assert atom._diff[z.single_symbol] == const(0)

    def test_no_instance_dict(self):
        e = add(sin(x), pow_(x + y, -1))
        for obj in (x.single_symbol, _atom(sin(x)), _atom(pow_(x + y, -1)), e):
            assert not hasattr(obj, "__dict__")
        assert isinstance(_atom(sin(x)), FuncAtom) and isinstance(_atom(pow_(x + y, -1)), SumAtom)


@st.composite
def rational_exprs(draw):
    """Expressions that also carry inverted-sum atoms, nested inside
    function arguments and other inverted sums."""
    num = draw(exprs())
    den = add(draw(exprs()), x, const(draw(st.integers(1, 3))))
    assume(den.terms)
    inner = mul(num, pow_(den, -1))
    outer = add(draw(exprs()), y)
    assume(outer.terms)
    return add(inner, sin(inner), mul(draw(exprs()), pow_(add(outer, pow_(den, -1)), -1)))


def _pair_atoms(a, b):
    """Walk two structurally equal expressions in step, yielding atom pairs."""
    assert len(a.terms) == len(b.terms)
    for (ma, _), (mb, _) in zip(a.terms, b.terms):
        for (u, _), (v, _) in zip(ma, mb):
            yield u, v
            if isinstance(u, FuncAtom):
                yield from _pair_atoms(u.arg, v.arg)
            elif isinstance(u, SumAtom):
                yield from _pair_atoms(u.expr, v.expr)


@given(rational_exprs())
@settings(max_examples=60, deadline=None)
def test_cached_hashes_and_keys_agree_across_rebuilds(e):
    f = _rebuilt(e)
    assert f is not e
    assert f == e and e == f
    assert hash(f) == hash(e)
    assert f.key == e.key
    assert hash(e) == hash(e.key)
    for u, v in _pair_atoms(e, f):
        assert type(u) is type(v)
        assert u == v and v == u
        assert hash(u) == hash(v) == hash(u.key) == hash(v.key)
        assert u.key == v.key
        if not isinstance(u, Symbol):
            assert u is not v


# ---------------------------------------------------------------------------
# Fast paths of add/mul/diff (rational factors rescale, lone operands pass
# through) against a reference that multiplies term by term, sums into a
# dict and sorts fully.


def _ref_mono(*monos):
    f: dict = {}
    for mono in monos:
        for a, k in mono:
            f[a] = f.get(a, 0) + k
    return tuple(sorted(((a, k) for a, k in f.items() if k), key=lambda ak: ak[0].key))


def _ref_terms(acc):
    items = [(m, c) for m, c in acc.items() if c]
    return tuple(sorted(items, key=lambda mc: tuple((a.key, k) for a, k in mc[0])))


def ref_mul(*es):
    terms = (((), Fraction(1)),)
    for e in es:
        acc: dict = {}
        for m1, c1 in terms:
            for m2, c2 in e.terms:
                m = _ref_mono(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        terms = _ref_terms(acc)
    return terms


def ref_add(*es):
    acc: dict = {}
    for e in es:
        for m, c in e.terms:
            acc[m] = acc.get(m, 0) + c
    return _ref_terms(acc)


def ref_diff(e, s):
    acc: dict = {}
    for mono, c in e.terms:
        for i, (a, k) in enumerate(mono):
            if isinstance(a, Symbol):
                da = (((), Fraction(1)),) if a == s else ()
            elif isinstance(a, FuncAtom):
                outer = {"sin": cos(a.arg), "cos": Expr(ref_mul(const(-1), sin(a.arg))), "exp": exp(a.arg)}[a.fn]
                da = ref_mul(outer, Expr(ref_diff(a.arg, s)))
            else:
                da = ref_diff(a.expr, s)
            rest = mono[:i] + ((a, k - 1),) + mono[i + 1 :]
            for m2, c2 in da:
                m = _ref_mono(rest, m2)
                acc[m] = acc.get(m, 0) + c * k * c2
    return _ref_terms(acc)


def ref_substitute(e, m):
    """Substitution term by term with every atom rebuilt: symbols looked up
    by name (``m``: name -> Expr), function and inverted-sum atoms
    substituted inside and built anew."""

    def atom(a):
        if isinstance(a, Symbol):
            return m.get(a.name, Expr((((((a, 1),)), 1),)))
        if isinstance(a, FuncAtom):
            return {"sin": sin, "cos": cos, "exp": exp}[a.fn](Expr(ref_substitute(a.arg, m)))
        return Expr(ref_substitute(a.expr, m))

    def power(v, k):  # a negative power atomizes, which only pow_ defines
        return Expr(ref_mul(*[v] * k)) if k > 0 else pow_(v, k)

    return ref_add(*(Expr(ref_mul(const(c), *(power(atom(a), k) for a, k in mono))) for mono, c in e.terms))


W = var("w")


@given(rational_exprs(), st.sampled_from(SYMS), st.sampled_from([const(0), const(2), x, y * z, x * x - z]))
@settings(max_examples=80, deadline=None)
def test_substitute_matches_rebuilding_reference_and_keeps_unmapped_atoms(e, v, tail):
    # w is fresh, so an atom that held v holds w after substitution
    g = add(W, tail)
    out = substitute(e, {v: g})
    assert out.terms == ref_substitute(e, {v.single_symbol.name: g})
    before = [a for mono, _ in e.terms for a, _k in mono if not isinstance(a, Symbol)]
    for mono, _ in out.terms:
        for a, _k in mono:
            inner = None if isinstance(a, Symbol) else a.arg if isinstance(a, FuncAtom) else a.expr
            if inner is not None and W.single_symbol not in inner.symbols:
                assert any(a is b for b in before)
    assert substitute(e, {W: x}) is e


# a Symbol, FuncAtom or SumAtom base for the one-factor product shortcut
ONE_FACTOR_BASES = [x, y, z, sin(y), exp(x), x + 1, y * z - x]


@st.composite
def one_factor(draw, coeff):
    """``coeff * a^k`` for one atom a; a sum atom only with k < 0, so two of
    them multiply to an exponent sum, and x * x^-1 cancels to 1."""
    base = draw(st.sampled_from(ONE_FACTOR_BASES))
    k = draw(st.integers(-2, 2).filter(bool))
    return mul(const(coeff), pow_(base, -abs(k) if len(base.terms) > 1 else k))


@st.composite
def operands(draw):
    """0, +-1, other rational constants, single-term monomials with negative
    exponents, one-factor terms and sums of them, inverted-sum quotients and
    general expressions."""
    kind = draw(
        st.sampled_from(["zero", "one", "minus_one", "rational", "monomial", "factor", "factors", "inverted", "expr"])
    )
    if kind == "zero":
        return const(0)
    if kind == "one":
        return const(1)
    if kind == "minus_one":
        return const(-1)
    coeff = Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))
    if kind == "rational":
        return const(coeff)
    if kind == "monomial":
        powers = [pow_(v, draw(st.integers(-3, 3))) for v in SYMS]
        return mul(const(coeff), *powers)
    if kind == "factor":
        return draw(one_factor(coeff))
    if kind == "factors":
        return add(*draw(st.lists(one_factor(coeff), min_size=2, max_size=4)), const(coeff))
    if kind == "inverted":
        den = add(draw(st.sampled_from([x, y * z, sin(y)])), mul(const(coeff), draw(st.sampled_from([y, z, const(1)]))))
        return div_exact(add(draw(exprs()), z), den)
    return draw(exprs())


@given(operands(), operands(), operands(), st.sampled_from(SYMS))
@settings(max_examples=200, deadline=None)
def test_fast_paths_match_term_by_term_reference(a, b, c, v):
    for e in (a, b, c):
        assert canon(e).terms == e.terms
    assert mul(a, b).terms == ref_mul(a, b)
    assert mul(b, a).terms == ref_mul(b, a)
    assert mul(a, b, c).terms == ref_mul(a, b, c)
    assert add(a).terms == ref_add(a)
    assert add(a, b).terms == ref_add(a, b)
    assert add(a, b, c).terms == ref_add(a, b, c)
    assert diff(a, v).terms == ref_diff(a, v.single_symbol)
    assert diff(b, v).terms == ref_diff(b, v.single_symbol)


def test_one_factor_products_merge_sort_and_cancel():
    inv = pow_(x + 1, -1)
    assert mul(x, pow_(x, -1)) == ONE and mul(pow_(sin(y), 2), pow_(sin(y), -2)) == ONE
    assert mul(inv, pow_(x + 1, -2)).terms == pow_(x + 1, -3).terms
    assert mul(pow_(x + 1, -2), inv).terms == ref_mul(pow_(x + 1, -2), inv)
    for a, b in [(x, y), (z, sin(y)), (exp(x), inv), (y, inv), (x + y, z + sin(x)), (x - 2, x + inv)]:
        assert mul(a, b).terms == ref_mul(a, b)
        assert mul(b, a).terms == ref_mul(b, a)


class TestPassThrough:
    OPERANDS = (x, x + y, const(3), pow_(x + y * z, -1) * sin(x), x**-2 * y)

    def test_lone_or_unit_operand_is_returned(self):
        for e in self.OPERANDS:
            assert mul(e) is e
            assert mul(ONE, e) is e
            assert mul(e, const(1)) is e
            assert add(e) is e
            assert add(e, ZERO) is e
            assert add(ZERO, e, const(0)) is e

    def test_rational_factor_rescales_in_place_order(self):
        e = x + y * z + pow_(x + y, -1)
        for c in (Fraction(-1), Fraction(2), Fraction(-3, 4)):
            want = tuple((m, k * c) for m, k in e.terms)
            assert mul(const(c), e).terms == want
            assert mul(e, const(c)).terms == want
        assert mul(const(2), const(Fraction(1, 2))) == ONE
        assert mul(x, const(0)) is ZERO and add() is ZERO and mul() == ONE


# ---------------------------------------------------------------------------
# Kernel invariants: each coefficient value has one representation (an int
# when integral, a Fraction otherwise, never a float), and ``Expr.symbols``
# names every symbol a derivative can see.

HALF = const(Fraction(1, 2))


def _coefficients(e):
    """Every coefficient of ``e``, those inside its atoms included."""
    for mono, c in e.terms:
        yield c
        for a, _k in mono:
            if isinstance(a, FuncAtom):
                yield from _coefficients(a.arg)
            elif isinstance(a, SumAtom):
                yield from _coefficients(a.expr)


def _assert_normal(e):
    for c in _coefficients(e):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (c, e)


def _ref_symbols(e):
    out = set()
    for mono, _ in e.terms:
        for a, _k in mono:
            if isinstance(a, Symbol):
                out.add(a)
            else:
                out |= _ref_symbols(a.arg if isinstance(a, FuncAtom) else a.expr)
    return out


@given(rational_exprs(), exprs(), st.sampled_from(SYMS), st.integers(-2, 3))
@settings(max_examples=80, deadline=None)
def test_coefficients_are_ints_or_proper_fractions(e, g, v, k):
    s = v.single_symbol
    halves = mul(HALF, g)  # g/2 + g/2 sums halves back to whole numbers
    outs = [
        e,
        g,
        add(e, g),
        add(halves, halves),
        mul(e, g),
        mul(HALF, const(2), g),
        mul(halves, pow_(HALF, -1)),
        pow_(halves, max(k, 0)),
        diff(e, s),
        diff(mul(HALF, pow_(g, 2)), s),
        substitute(g, {v: mul(HALF, e)}),
        canon(e),
        canon(Expr(tuple((m, Fraction(c)) for m, c in g.terms))),
        div_exact(mul(add(x, y), halves), add(mul(HALF, x), mul(HALF, y))),
        div_exact(halves, add(mul(const(2), x), mul(const(3), y))),
        div_exact(g, const(Fraction(2, 3))),
    ]
    if g.terms:
        outs.append(pow_(halves, k))
    cleared, inverse = clear_denominators([mul(HALF, pow_(x, -2), g), e])
    for out in outs + cleared + [inverse]:
        _assert_normal(out)


def test_integral_fraction_constants_become_ints():
    for c, want in ((Fraction(4, 2), 2), (Fraction(-3), -3), (2, 2)):
        (((), got),) = const(c).terms
        assert type(got) is int and got == want
    (((), inv),) = pow_(HALF, -1).terms
    assert type(inv) is int and inv == 2


@given(st.integers(-6, 6), st.integers(1, 4))
def test_as_rational_returns_a_fraction(n, d):
    for e in (const(Fraction(n, d)), const(n), ZERO, ONE):
        r = e.as_rational()
        assert type(r) is Fraction
    assert const(Fraction(n, d)).as_rational() == Fraction(n, d)


@given(rational_exprs())
@settings(max_examples=80, deadline=None)
def test_symbols_include_nested_atoms(e):
    assert e.symbols == free_symbols(e) == _ref_symbols(e)
    assert type(e.symbols) is frozenset and e.symbols is e.symbols


def test_symbols_inside_function_and_inverted_sum():
    sx, sy, sz = (v.single_symbol for v in SYMS)
    assert sin(x * pow_(y + z, -1)).symbols == {sx, sy, sz}
    assert pow_(x + sin(y), -1).symbols == {sx, sy}
    assert const(3).symbols == frozenset() and ZERO.symbols == frozenset()


@given(rational_exprs())
@settings(max_examples=80, deadline=None)
def test_derivative_by_a_symbol_not_held_is_zero(e):
    from mcft.charts import jet_chart

    chart = jet_chart(["t", "x"], ["y"])
    e = substitute(e, {x: chart.coord("t"), y: chart.coord("y_x"), z: chart.coord("s_t")})
    for s in chart.symbols:
        if s not in e.symbols:
            assert diff(e, s) is ZERO or not diff(e, s).terms


# ---------------------------------------------------------------------------
# The NONZERO certificate: one evaluation modulo a prime.

import mcft.expr as expr_module  # noqa: E402  (patched below)
from mcft.expr import _P, _image  # noqa: E402


@st.composite
def polys(draw):
    """Small polynomials in x, y, z with integer coefficients."""
    terms = draw(st.lists(st.tuples(st.integers(-3, 3), *[st.integers(0, 2)] * 3), min_size=1, max_size=3))
    return add(*(c * x**i * y**j * z**k for c, i, j, k in terms))


@st.composite
def function_free_exprs(draw):
    """Rational expressions without function atoms, with an inverted sum
    nested in another; half of them are zero, which only clearing sees."""
    den = add(draw(polys()), x, const(1))
    assume(den.terms)
    nested = add(draw(polys()), y, pow_(den, -1))
    e = add(mul(draw(polys()), pow_(den, -1)), mul(draw(polys()), pow_(nested, -1)))
    if draw(st.booleans()):
        e = add(mul(e, den, pow_(den, -1)), -e)
    return e


@given(function_free_exprs())
@settings(max_examples=80, deadline=None)
def test_modular_certificate_agrees_with_the_exact_clear(e):
    cleared = clear_denominators([e])[0][0]
    assert is_zero(e) is (ZeroCheck.NONZERO if cleared.terms else ZeroCheck.ZERO)
    n, d = _image(e)
    assert not (n and d) or cleared.terms


class TestModularCertificate:
    a, b = var("a", "param"), var("b", "param")

    def counted_clears(self, monkeypatch, e):
        calls = []
        real = expr_module.clear_denominators
        monkeypatch.setattr(expr_module, "clear_denominators", lambda *args: calls.append(1) or real(*args))
        return is_zero(e), len(calls)

    def test_nonzero_expands_nothing(self, monkeypatch):
        a, b = self.a, self.b
        identity = a / (a + b) + b / (a + b) - 1
        assert self.counted_clears(monkeypatch, identity + 1 / (a + b + 3)) == (ZeroCheck.NONZERO, 0)
        assert self.counted_clears(monkeypatch, identity) == (ZeroCheck.ZERO, 1)

    def test_denominator_of_the_prime_falls_back_to_the_clear(self, monkeypatch):
        a, b = self.a, self.b
        c = Fraction(1, _P)
        assert _image(c / (a + b))[1] == 0 and _image(1 / (a + c * b))[1] == 0
        assert self.counted_clears(monkeypatch, c * a / (a + b) + c * b / (a + b) - c) == (ZeroCheck.ZERO, 1)
        assert self.counted_clears(monkeypatch, c / (a + b) + 1) == (ZeroCheck.NONZERO, 1)

    def test_inverted_sum_vanishing_at_the_point_falls_back_to_the_clear(self, monkeypatch):
        a, b = self.a, self.b
        r = _image(a)[0]  # a's residue: a - r is 0 at the point
        assert _image(1 / (a - r))[1] == 0
        assert self.counted_clears(monkeypatch, a / (a - r) - r / (a - r) - 1) == (ZeroCheck.ZERO, 1)
        assert self.counted_clears(monkeypatch, 1 / (a - r) + b) == (ZeroCheck.NONZERO, 1)

    def test_function_atoms_have_no_image(self):
        a = self.a
        assert _image(sin(a) / (a + 1))[1] == 0 and _image(a / (1 + cos(a)))[1] == 0

    def test_residues_are_cached_on_the_atoms(self):
        a, b = self.a, self.b
        e = 1 / (a + b)
        assert _atom(e)._residue is None
        assert _image(e) == (1, _image(a + b)[0]) and _atom(e)._residue == _image(a + b)
        assert a.single_symbol._residue == _image(a)


def test_coefficient_past_the_float_range_is_raised_once(monkeypatch):
    calls = []
    real = expr_module.evaluate
    monkeypatch.setattr(expr_module, "evaluate", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    with pytest.raises(EvalError, match="too large for a float"):
        is_zero(10**400 * sin(x))
    assert len(calls) == 1


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
def test_probing_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ExprError, match="positive and finite"):
        is_zero(sin(x) ** 2 + cos(x) ** 2 - 1, tol=tol)


def test_probe_point_past_the_float_range_is_resampled():
    # exp(1000*x) overflows at the probe points with x > 0.71 and not at the others
    assert is_zero(exp(1000 * x) - exp(500 * x)) is ZeroCheck.NONZERO
