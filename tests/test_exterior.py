import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from mcft.charts import ChartError, generic_chart, jet_chart
from mcft.expr import add, const, diff, mul, substitute, to_text, var
from mcft.forms import (
    Form,
    FormError,
    Multivector,
    bar_d,
    _merge_parity,
    contract,
    ext_d,
    form_to_text,
    form_zero_check,
    lie_bracket,
    lie_derivative,
    one_form,
    pullback_along,
    schouten,
    volume_form,
    wedge,
)

# ---------------------------------------------------------------------------
# Independent oracles.


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def det_by_permutations(rows):
    n = len(rows)
    total = const(0)
    for perm in permutations(range(n)):
        term = const(perm_sign(list(perm)))
        for i in range(n):
            term = mul(term, rows[i][perm[i]])
        total = add(total, term)
    return total


def apply_form(a: Form, vectors):
    """Evaluate a k-form on k vector fields from first principles:
    dx^J acts as the permutation-expanded determinant."""
    assert len(vectors) == a.degree
    total = const(0)
    for idx, c in a.table.items():
        rows = [[v.get(i, const(0)) for i in idx] for v in vectors]
        total = add(total, mul(c, det_by_permutations(rows)))
    return total


def basis_vector(axis):
    return {axis: const(1)}


# ---------------------------------------------------------------------------
# Random generators (plain random module; deterministic seeds).


def rand_expr(rng, chart):
    terms = []
    for _ in range(rng.randint(1, 2)):
        c = const(rng.choice([1, -1, 2, -2, 3]))
        for _ in range(rng.randint(0, 2)):
            c = mul(c, chart.coord(rng.choice(chart.names())))
        terms.append(c)
    return add(*terms)


def rand_form(rng, chart, k):
    idxs = list(combinations(range(chart.dim), k))
    take = rng.randint(1, min(3, len(idxs)))
    return Form(chart, k, {idx: rand_expr(rng, chart) for idx in rng.sample(idxs, take)})


def rand_vector(rng, chart):
    axes = rng.sample(range(chart.dim), rng.randint(1, 2))
    return {i: rand_expr(rng, chart) for i in axes}


def rand_multivector(rng, chart, m):
    return Multivector(chart, m, factors=[rand_vector(rng, chart) for _ in range(m)])


def chart5():
    return generic_chart(["z1", "z2", "z3", "z4", "z5"])


# ---------------------------------------------------------------------------
# Wedge and exterior derivative.


class TestWedge:
    def test_antisymmetry_of_basis(self):
        ch = chart5()
        d1, d2 = one_form(ch, "z1"), one_form(ch, "z2")
        assert (wedge(d1, d2) + wedge(d2, d1)).is_structurally_zero()

    def test_square_is_zero(self):
        ch = chart5()
        d1 = one_form(ch, "z1")
        assert wedge(d1, d1).is_structurally_zero()

    def test_sigma_wedge_theta_string(self, string_system, params):
        ch = string_system.chart
        gamma, rho = params["gamma"], params["rho"]
        got = wedge(string_system.sigma, string_system.theta)
        # sigma_L ^ Theta_L = -gamma rho y_t dt^dy^dx + gamma dt^ds_t^dx
        dt, dx, dy, dst = (one_form(ch, n) for n in ("t", "x", "y", "s_t"))
        want = wedge(wedge(dt, dy), dx).scale(-gamma * rho * ch.coord("y_t")) + wedge(
            wedge(dt, dst), dx
        ).scale(gamma)
        assert got == want

    def test_chart_mismatch(self):
        a = one_form(chart5(), "z1")
        b = one_form(generic_chart(["w1", "w2"]), "w1")
        with pytest.raises(FormError):
            wedge(a, b)

    @pytest.mark.parametrize(
        "idx, message",
        [((1, 0), "bad multi-index"), ((0, 0), "bad multi-index"), ((0,), "bad multi-index"),
         ((0, 5), "axis out of range"), ((-1, 2), "axis out of range")],
    )
    def test_bad_index_raises_every_time(self, idx, message):
        for _ in range(2):
            with pytest.raises(FormError, match=message):
                Form(chart5(), 2, {idx: 1})

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"table": {(0, 99): 1}}, "axis out of range"), ({"table": {(1, 0): 1}}, "bad multi-index"),
         ({"factors": [{99: 1}, {0: 1}]}, "axis out of range"), ({"factors": [{-1: 0}, {0: 1}]}, "axis out of range")],
    )
    def test_multivector_checks_its_axes_like_form(self, kwargs, message):
        # an axis off the chart is refused at construction, not left for repr to trip on
        with pytest.raises(FormError, match=message):
            Multivector(chart5(), 2, **kwargs)

    def test_index_check_depends_on_chart_dimension(self):
        Form(chart5(), 2, {(0, 4): 1})
        with pytest.raises(FormError, match="axis out of range"):
            Form(generic_chart(["a", "b"]), 2, {(0, 4): 1})

    def test_degree_overflow_gives_zero(self):
        ch = generic_chart(["a", "b"])
        w = wedge(wedge(one_form(ch, "a"), one_form(ch, "b")), one_form(ch, "a"))
        assert w.is_structurally_zero()

    def test_zero_check_is_true_exactly_when_it_holds(self):
        ch = chart5()
        d1 = one_form(ch, "z1")
        for f, holds in ((wedge(d1, d1), True), (d1.scale(ch.coord("z2")), False)):
            check = form_zero_check(f)
            assert check.holds is holds and bool(check) is holds


class TestExteriorDerivative:
    def test_d_of_product_function(self):
        ch = chart5()
        f = Form.function(ch, mul(ch.coord("z1"), ch.coord("z2")))
        df = ext_d(f)
        assert df.coeff(0) == ch.coord("z2")
        assert df.coeff(1) == ch.coord("z1")

    def test_d_theta_string(self, string_system, params):
        ch = string_system.chart
        rho, tau, gamma = params["rho"], params["tau"], params["gamma"]
        yt, yx = ch.coord("y_t"), ch.coord("y_x")
        dt, dx, dy, dyt, dyx, dst = (one_form(ch, n) for n in ("t", "x", "y", "y_t", "y_x", "s_t"))
        # hand-derived: -rho dy_t^dy^dx - tau dy_x^dy^dt
        #   + (rho y_t dy_t - tau y_x dy_x + gamma ds_t)^dt^dx
        want = (
            wedge(wedge(dyt, dy), dx).scale(-rho)
            + wedge(wedge(dyx, dy), dt).scale(-tau)
            + wedge(wedge(dyt.scale(rho * yt) + dyx.scale(-tau * yx) + dst.scale(gamma), dt), dx)
        )
        assert ext_d(string_system.theta) == want

    def test_dd_zero_on_random_forms(self):
        rng = random.Random(7)
        for _ in range(40):
            ch = chart5()
            k = rng.randint(0, 3)
            a = rand_form(rng, ch, k)
            assert ext_d(ext_d(a)).is_structurally_zero()


class TestContraction:
    def test_dual_pairing(self):
        ch = chart5()
        X = Multivector(ch, 2, factors=[basis_vector(0), basis_vector(1)])
        w = wedge(one_form(ch, "z1"), one_form(ch, "z2"))
        assert contract(X, w) == Form.function(ch, 1)

    def test_degree_drop_to_zero(self):
        ch = chart5()
        X = Multivector(ch, 2, factors=[basis_vector(0), basis_vector(1)])
        assert contract(X, one_form(ch, "z3")).is_structurally_zero()

    def test_current_contraction_string(self, string_system, params):
        ch = string_system.chart
        rho, tau = params["rho"], params["tau"]
        Y = Multivector.vector(ch, {"y": 1})
        xi = contract(Y, string_system.theta)
        want = one_form(ch, "x").scale(-rho * ch.coord("y_t")) + one_form(ch, "t").scale(
            -tau * ch.coord("y_x")
        )
        assert xi == want

    def test_convention_against_brute_force(self):
        rng = random.Random(23)
        for _ in range(60):
            ch = chart5()
            m = rng.randint(1, 3)
            k = rng.randint(m, 4)
            X = rand_multivector(rng, ch, m)
            a = rand_form(rng, ch, k)
            got = contract(X, a)
            for rest in combinations(range(ch.dim), k - m):
                want = apply_form(a, list(X.factors) + [basis_vector(i) for i in rest])
                assert got.coeff(*rest) == want

    def test_expanded_table_path_matches_decomposable(self):
        rng = random.Random(5)
        for _ in range(30):
            ch = chart5()
            m = rng.randint(1, 3)
            X = rand_multivector(rng, ch, m)
            Xe = Multivector(ch, m, table=X.table())
            a = rand_form(rng, ch, rng.randint(m, 4))
            assert contract(X, a) == contract(Xe, a)


class TestLieDerivative:
    def test_cartan_classical(self):
        ch = chart5()
        X = Multivector.vector(ch, {"z1": ch.coord("z1")})
        assert lie_derivative(X, one_form(ch, "z1")) == one_form(ch, "z1")

    def test_vector_field_on_one_form_against_coordinates(self):
        # (L_X a)_j = X^i d_i a_j + a_i d_j X^i, the flow derivative of a 1-form
        rng = random.Random(29)
        for _ in range(40):
            ch = chart5()
            v, a = rand_vector(rng, ch), rand_form(rng, ch, 1)
            got = lie_derivative(Multivector(ch, 1, factors=[v]), a)
            for j, zj in enumerate(ch.symbols):
                want = add(
                    *[mul(x, diff(a.coeff(j), ch.symbols[i])) for i, x in v.items()],
                    *[mul(c, diff(v.get(i, const(0)), zj)) for (i,), c in a.table.items()],
                )
                assert got.coeff(j) == want

    def test_vector_field_matches_cartan_in_every_degree(self):
        # L_X a = d i_X a + i_X d a from the public primitives; components of
        # X with a coordinate factor give nonzero d_l X^i, so the Jacobian
        # terms and the sign of sorting dx^l into place are exercised
        rng = random.Random(37)
        for _ in range(60):
            ch = chart5()
            axes = rng.sample(range(ch.dim), rng.randint(1, 3))
            v = {i: add(rand_expr(rng, ch), mul(ch.coord(rng.choice(ch.names())), rand_expr(rng, ch))) for i in axes}
            X = Multivector(ch, 1, factors=[v])
            for k in range(ch.dim + 1):
                a = rand_form(rng, ch, k)
                want = contract(X, ext_d(a))
                if k:
                    want = ext_d(contract(X, a)) + want
                assert lie_derivative(X, a) == want

    def test_multivector_on_form_of_lower_degree(self):
        # L_X a = d i_X a - (-1)^m i_X d a, and i_X a vanishes for deg a < m:
        # a 1-form gives the 0-form -(-1)^m da(X_1, ..., X_m), zero when m > 2
        rng = random.Random(41)
        for _ in range(20):
            ch = chart5()
            a = rand_form(rng, ch, 1)
            X = rand_multivector(rng, ch, 2)
            want = mul(const(-1), apply_form(ext_d(a), X.factors))
            for Y in (X, Multivector(ch, 2, table=X.table())):
                got = lie_derivative(Y, a)
                assert got.degree == 0 and got.coeff() == want
            got = lie_derivative(rand_multivector(rng, ch, 3), a)
            assert got.degree == 0 and got.is_structurally_zero()

    def test_invariance_of_theta_under_field_shift(self, string_system):
        Y = Multivector.vector(string_system.chart, {"y": 1})
        assert lie_derivative(Y, string_system.theta).is_structurally_zero()
        assert lie_derivative(Y, string_system.omega).is_structurally_zero()


class TestSchouten:
    def test_commuting_coordinate_fields(self):
        ch = chart5()
        X = Multivector.vector(ch, {"z1": 1})
        Y = Multivector.vector(ch, {"z2": 1})
        assert schouten(X, Y).is_structurally_zero()

    def test_lie_bracket_case(self):
        # [x d/dy, d/dx] = -d/dy, from the direct bracket formula
        ch = generic_chart(["x", "y"])
        X = Multivector.vector(ch, {"y": ch.coord("x")})
        Y = Multivector.vector(ch, {"x": 1})
        b = schouten(X, Y)
        assert b == Multivector.vector(ch, {"y": -1})
        assert lie_bracket(X, Y) == b

    def test_decomposable_zero_brackets(self):
        ch = chart5()
        X = Multivector(ch, 2, factors=[basis_vector(0), basis_vector(1)])
        Y = Multivector.vector(ch, {"z3": 1})
        assert schouten(X, Y).is_structurally_zero()

    def test_needs_decomposable(self):
        ch = generic_chart(["a", "b", "c", "d"])
        table = {(0, 1): const(1), (2, 3): const(1)}  # not decomposable
        X = Multivector(ch, 2, table=table)
        Y = Multivector.vector(ch, {"a": 1})
        with pytest.raises(FormError):
            schouten(X, Y)

    def test_graded_antisymmetry_and_leibniz(self):
        rng = random.Random(9)

        def wedge_mv(A, B):
            out = {}
            for ia, ca in A.table().items():
                for ib, cb in B.table().items():
                    if set(ia) & set(ib):
                        continue
                    inv = sum(1 for i in ia for j in ib if i > j)
                    key = tuple(sorted(ia + ib))
                    out[key] = add(out.get(key, const(0)), mul(const((-1) ** inv), ca, cb))
            return Multivector(A.chart, A.degree + B.degree, table=out)

        for _ in range(40):
            ch = chart5()
            m, n = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
            P = rand_multivector(rng, ch, m)
            Q = rand_multivector(rng, ch, n)
            kappa = (m - 1) * (n - 1)
            assert (schouten(P, Q) + schouten(Q, P).scale((-1) ** kappa)).is_structurally_zero()
            if n + 1 <= ch.dim:
                R = rand_multivector(rng, ch, 1)
                lhs = schouten(P, Multivector.wedge_of(Q, R))
                rhs = wedge_mv(schouten(P, Q), R) + wedge_mv(Q, schouten(P, R)).scale(
                    (-1) ** ((m - 1) * n)
                )
                assert (lhs - rhs).is_structurally_zero()

    def test_interior_product_identity_vector_case(self):
        # Prop: i_{[Y,X]} = L_Y i_X - i_X L_Y for a vector field Y
        rng = random.Random(31)
        for _ in range(40):
            ch = chart5()
            m = rng.randint(1, 3)
            X = rand_multivector(rng, ch, m)
            Y = rand_multivector(rng, ch, 1)
            k = rng.randint(m, 4)
            a = rand_form(rng, ch, k)
            B = schouten(Y, X)
            lhs = contract(B, a) if not B.is_structurally_zero() else Form.zero(ch, k - m)
            rhs = lie_derivative(Y, contract(X, a)) - contract(X, lie_derivative(Y, a))
            assert (lhs - rhs).is_structurally_zero()

    def test_lie_of_bracket_graded_commutator(self):
        # L_{[X,Y]} = (-1)^{(m-1)(n-1)} L_X L_Y - L_Y L_X  (plain commutator
        # whenever min(m, n) == 1, which is every case the theory uses)
        rng = random.Random(13)
        for _ in range(40):
            ch = chart5()
            m, n = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
            X = rand_multivector(rng, ch, m)
            Y = rand_multivector(rng, ch, n)
            k = rng.randint(m + n - 1, 5)
            a = rand_form(rng, ch, k)
            B = schouten(X, Y)
            deg = k - (m + n - 1) + 1
            lhs = lie_derivative(B, a) if not B.is_structurally_zero() else Form.zero(ch, deg)
            kappa = (m - 1) * (n - 1)
            rhs = lie_derivative(X, lie_derivative(Y, a)).scale((-1) ** kappa) - lie_derivative(
                Y, lie_derivative(X, a)
            )
            assert (lhs - rhs).is_structurally_zero()


class TestBarD:
    def test_sigma_zero_reduces_to_d(self):
        rng = random.Random(3)
        ch = chart5()
        a = rand_form(rng, ch, 2)
        assert bar_d(a, Form.zero(ch, 1)) == ext_d(a)

    def test_bar_d_needs_one_form(self):
        ch = chart5()
        with pytest.raises(FormError):
            bar_d(one_form(ch, "z1"), Form.zero(ch, 2))

    def test_bar_d_current_string(self, string_system, params):
        ch = string_system.chart
        rho, tau, gamma = params["rho"], params["tau"], params["gamma"]
        Y = Multivector.vector(ch, {"y": 1})
        xi = contract(Y, string_system.theta)
        got = bar_d(xi, string_system.sigma)
        dt, dx, dyt, dyx = (one_form(ch, n) for n in ("t", "x", "y_t", "y_x"))
        want = (
            wedge(dx, dyt).scale(rho)
            + wedge(dt, dyx).scale(tau)
            + wedge(dx, dt).scale(rho * gamma * ch.coord("y_t"))
        )
        assert got == want

    def test_bar_d_theta_string(self, string_system):
        got = bar_d(string_system.theta, string_system.sigma)
        want = ext_d(string_system.theta) + wedge(string_system.sigma, string_system.theta)
        assert got == want


# ---------------------------------------------------------------------------
# Table arithmetic shared by forms and multivector fields.


def _table_multivector(chart, degree, table):
    return Multivector(chart, degree, table=table)


@pytest.mark.parametrize(
    "make, kind", [(Form, "forms"), (_table_multivector, "multivectors")], ids=["form", "multivector"]
)
class TestTableArithmetic:
    def sample(self, make, chart=None, degree=2, reverse=False):
        ch = chart or chart5()
        table = [((0, 1), ch.coord("z1")), ((1, 2), mul(const(2), ch.coord("z2"))), ((0, 2), const(0))]
        if reverse:
            table.reverse()
        return make(ch, degree, {idx: c for idx, c in table if len(idx) == degree})

    def test_sum_across_charts_or_degrees_raises(self, make, kind):
        a = self.sample(make)
        for other in (self.sample(make, chart=generic_chart(["z1", "z2", "z3"])), self.sample(make, degree=1)):
            with pytest.raises(FormError, match=f"cannot add {kind} of different charts or degrees"):
                a + other

    def test_sum_with_the_other_kind_raises(self, make, kind):
        a = self.sample(make)
        other = self.sample(_table_multivector if make is Form else Form)
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            other + a
        assert a != other

    def test_equal_objects_hash_equal(self, make, kind):
        a, b = self.sample(make), self.sample(make, reverse=True)
        assert a == b and hash(a) == hash(b)
        assert a + a == a.scale(2) and hash(a + a) == hash(a.scale(2))

    def test_difference_with_itself_is_structurally_zero(self, make, kind):
        a = self.sample(make)
        assert not a.is_structurally_zero()
        assert (a - a).is_structurally_zero()
        assert (a - a).degree == a.degree and (a - a).chart == a.chart


class TestPullback:
    def test_chain_rule_closed_form(self, string_chart):
        # the map y = t*x over the (t, x) chart pulls dy back to x dt + t dx
        base = generic_chart(["t", "x"])
        t_, x_ = base.coord("t"), base.coord("x")
        mapping = {"t": t_, "x": x_, "y": t_ * x_, "y_t": x_, "y_x": t_, "s_t": 0, "s_x": 0}
        got = pullback_along(mapping, one_form(string_chart, "y"), base)
        want = one_form(base, "t").scale(x_) + one_form(base, "x").scale(t_)
        assert got == want

    def test_pullback_along_map(self):
        src = generic_chart(["u", "v"])
        dst = generic_chart(["a", "b"])
        mapping = {"a": src.coord("u") ** 2, "b": src.coord("v")}
        a = wedge(one_form(dst, "a"), one_form(dst, "b"))
        got = pullback_along(mapping, a, src)
        want = wedge(one_form(src, "u"), one_form(src, "v")).scale(2 * src.coord("u"))
        assert got == want

    @pytest.mark.parametrize(
        "mapping, message",
        [
            (lambda u: {"a": u}, "misses target coordinate b"),
            (lambda u: {"a": u, "b": u * var("w", "aux")}, "uses foreign symbol w"),
        ],
        ids=["missing-coordinate", "foreign-symbol"],
    )
    def test_bad_map_rejected(self, mapping, message):
        src = generic_chart(["u", "v"])
        dst = generic_chart(["a", "b"])
        with pytest.raises(FormError, match=message):
            pullback_along(mapping(src.coord("u")), one_form(dst, "a"), src)


# ---------------------------------------------------------------------------
# Hypothesis property layer (wedge bilinearity/antisymmetry on random data).


@given(st.integers(0, 10**6), st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=80, deadline=None)
def test_graded_wedge_antisymmetry(seed, k, l):
    rng = random.Random(seed)
    ch = chart5()
    a = rand_form(rng, ch, k)
    b = rand_form(rng, ch, l)
    lhs = wedge(a, b)
    rhs = wedge(b, a).scale((-1) ** (k * l))
    assert (lhs - rhs).is_structurally_zero()


@given(st.integers(0, 10**6), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_dd_zero(seed, k):
    rng = random.Random(seed)
    ch = chart5()
    a = rand_form(rng, ch, k)
    assert ext_d(ext_d(a)).is_structurally_zero()


def inversion_sign(left, right):
    """The reference sign of dx^left ^ dx^right sorted into place: -1 to
    the number of pairs i in left, j in right with i > j."""
    return (-1) ** sum(1 for i in left for j in right if i > j)


increasing = st.lists(st.integers(0, 7), max_size=4, unique=True).map(lambda xs: tuple(sorted(xs)))
one_axis = st.integers(0, 7).map(lambda i: (i,))


@given(st.tuples(increasing, increasing) | st.tuples(one_axis, increasing) | st.tuples(increasing, one_axis))
@example(((2,), (1, 2, 5)))
@example(((1, 3, 6), (3,)))
@example(((4,), (4,)))
@settings(max_examples=300, deadline=None)
def test_merge_parity_matches_the_inversion_count(pair):
    left, right = pair
    parity, merged = _merge_parity(left, right)
    if set(left) & set(right):
        assert (parity, merged) == (None, ())
    else:
        assert (-1) ** parity == inversion_sign(left, right)
        assert merged == tuple(sorted(left + right))
