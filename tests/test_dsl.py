import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mcft.dsl import DslError, ModelFile, Scenario, parse, render, tokenize
from mcft.expr import const, to_text, var


class TestParse:
    def test_string_model(self, string_model):
        assert string_model.bases == ["t", "x"]
        assert string_model.fields == ["y"]
        assert string_model.params == [("rho", Fraction(1)), ("tau", Fraction(1)), ("gamma", Fraction(1, 10))]
        ch = string_model.chart
        rho = var("rho", "param", 0)
        tau = var("tau", "param", 1)
        gamma = var("gamma", "param", 2)
        want = Fraction(1, 2) * (rho * ch.coord("y_t") ** 2 - tau * ch.coord("y_x") ** 2) - gamma * ch.coord("s_t")
        assert string_model.lagrangian == want
        assert set(string_model.symmetries) == {"Y", "S"}
        assert string_model.symmetries["Y"] == {"y": const(1)}
        assert string_model.symmetries["S"] == {"s_t": const(1)}
        assert set(string_model.scenarios) == {"main", "standing"}
        sc = string_model.scenarios["main"]
        assert (sc.nx, sc.bc, sc.cfl) == (128, "periodic", Fraction(1, 2))

    def test_empty_fields_error(self):
        with pytest.raises(DslError, match="at least one field"):
            parse("coords t x\nlagrangian 1")

    def test_unresolved_symbol_span(self):
        with pytest.raises(DslError) as exc:
            parse("coords t x\nfields y\nlagrangian 0.5*dy[t]^2 + q")
        assert exc.value.line == 3
        # the span points inside the offending token
        text = "coords t x\nfields y\nlagrangian 0.5*dy[t]^2 + q"
        line = text.splitlines()[exc.value.line - 1]
        assert line[exc.value.col - 1] == "q"

    @pytest.mark.parametrize("tail, op", [("1/0", "/"), ("1/(y-y)", "/"), ("(y - y)^-2", "^")])
    def test_division_by_zero_span(self, tail, op):
        text = f"coords t x\nfields y\nlagrangian 0.5*dy[t]^2 + {tail}"
        with pytest.raises(DslError, match="division by zero") as exc:
            parse(text)
        assert exc.value.line == 3
        assert text.splitlines()[2][exc.value.col - 1] == op

    def test_velocity_requires_declared_base(self):
        with pytest.raises(DslError, match="unknown base"):
            parse("coords t\nfields y\nlagrangian dy[z]")

    def test_duplicate_declaration(self):
        with pytest.raises(DslError, match="duplicate"):
            parse("coords t t\nfields y\nlagrangian 1")
        with pytest.raises(DslError, match="duplicate"):
            parse("coords t x\nfields y\nparams a=1 a=2\nlagrangian 1")

    def test_reserved_words_protected(self):
        with pytest.raises(DslError, match="reserved"):
            parse("coords grid x\nfields y\nlagrangian 1")

    def test_comments_and_whitespace(self):
        m = parse("# header\ncoords t x # trailing\nfields y\nlagrangian   dy[t]^2\n")
        assert m.bases == ["t", "x"]

    def test_symmetry_with_coefficients(self):
        m = parse("coords t x\nfields y\nlagrangian dy[t]^2\nsymmetry D: t*d/dy - 2*d/ds[t]")
        comps = m.symmetries["D"]
        assert comps["y"] == m.chart.coord("t")
        assert comps["s_t"] == const(-2)

    def test_leading_minus_vector_field(self):
        m = parse("coords t x\nfields y\nlagrangian dy[t]^2\nsymmetry N: -d/dy + d/dt")
        assert m.symmetries["N"] == {"y": const(-1), "t": const(1)}

    def test_velocity_direction_rejected(self):
        with pytest.raises(DslError, match="configuration directions"):
            parse("coords t x\nfields y\nlagrangian dy[t]^2\nsymmetry V: d/ddy[t]")

    def test_unknown_scenario_key(self):
        with pytest.raises(DslError, match="unknown grid key"):
            parse("coords t x\nfields y\nlagrangian dy[t]^2\nscenario s { grid foo=1; }")

    def test_init_only_sees_space_and_params(self):
        with pytest.raises(DslError, match="unresolved"):
            parse("coords t x\nfields y\nlagrangian dy[t]^2\nscenario s { init y0 = t; }")

    def test_pi_builtin(self):
        m = parse("coords t x\nfields y\nlagrangian dy[t]^2\nscenario s { init y0 = sin(2*pi*x); }")
        assert "pi" in {s.name for s in _free(m.scenarios["s"].y0)}

    def test_scientific_notation(self):
        m = parse("coords t x\nfields y\nparams eps=1e-3\nlagrangian eps*dy[t]^2")
        assert m.params[0][1] == Fraction(1, 1000)


def _free(e):
    from mcft.expr import free_symbols

    return free_symbols(e)


class TestRender:
    def test_fixpoint_on_shipped_model(self, string_text):
        m = parse(string_text)
        canonical = render(m)
        assert render(parse(canonical)) == canonical

    def test_model_roundtrip_equality(self, string_model):
        assert parse(render(string_model)) == string_model

    def test_comments_stripped(self):
        m = parse("# c\ncoords t x\nfields y\nlagrangian dy[t]^2 # k\n")
        assert "#" not in render(m)

    def test_programmatic_model_roundtrip(self, string_model):
        text = render(string_model)
        again = parse(text)
        assert render(again) == text


# ---------------------------------------------------------------------------
# Property: parse(render(m)) == m on generated models.

IDENTS = ["t", "x", "z", "u", "w", "q"]


@st.composite
def models(draw):
    n_bases = draw(st.integers(1, 2))
    bases = IDENTS[:n_bases]
    fields = draw(st.sampled_from([["y"], ["y", "v"], ["f"]]))
    n_params = draw(st.integers(0, 2))
    params = []
    for i in range(n_params):
        val = draw(st.one_of(st.none(), st.fractions(min_value=-4, max_value=4, max_denominator=8)))
        params.append((f"c{i}", val))
    rng = random.Random(draw(st.integers(0, 10**6)))

    from mcft.charts import jet_chart
    from mcft.expr import add, mul

    chart = jet_chart(bases, fields)
    leaves = [chart.coord(n) for n in chart.names()]
    leaves += [var(n, "param", i) for i, (n, _) in enumerate(params)]
    leaves += [const(rng.randint(-3, 3)) for _ in range(2)]

    def rand_expr():
        terms = []
        for _ in range(rng.randint(1, 3)):
            t = const(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 4])))
            for _ in range(rng.randint(0, 2)):
                t = mul(t, rng.choice(leaves))
            terms.append(t)
        e = add(*terms)
        return e if e.terms else const(1)

    symmetries = {}
    for i in range(rng.randint(0, 2)):
        comps = {}
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(["field", "base", "action"])
            if kind == "field":
                comps[rng.choice(fields)] = const(rng.randint(1, 3))
            elif kind == "base":
                comps[rng.choice(bases)] = const(rng.randint(1, 3))
            else:
                comps[f"s_{rng.choice(bases)}"] = const(rng.randint(1, 3))
        symmetries[f"S{i}"] = comps
    scenarios = {}
    if draw(st.booleans()):
        scenarios["run"] = Scenario(
            name="run",
            nx=rng.choice([16, 32]),
            lx=Fraction(rng.choice([1, 2])),
            cfl=Fraction(1, 2),
            t_final=Fraction(1),
            bc=rng.choice(["periodic", "dirichlet-zero"]),
            y0=const(0),
            v0=const(1),
        )
    return ModelFile(
        bases=bases,
        fields=fields,
        params=params,
        lagrangian=rand_expr(),
        symmetries=symmetries,
        scenarios=scenarios,
        chart=chart,
    )


@given(models())
@settings(max_examples=120, deadline=None)
def test_parse_render_roundtrip(m):
    text = render(m)
    m2 = parse(text)
    assert m2 == m
    assert render(m2) == text
