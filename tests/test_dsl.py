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

    def test_decimal_digits_of_any_script_are_integers(self):
        # an integer literal is read by int() when every character is a
        # decimal digit; a superscript digit is a digit but not a decimal one
        m = parse("coords t x\nfields y\nparams k=\u0663\nlagrangian \u0663*k*dy[t]^2")
        assert m.params[0][1] == Fraction(3) and type(m.params[0][1]) is Fraction
        assert m.lagrangian == parse("coords t x\nfields y\nparams k=3\nlagrangian 9*dy[t]^2/3*k").lagrangian
        with pytest.raises(DslError, match="bad number '\u00b2'"):
            parse("coords t x\nfields y\nlagrangian \u00b2*dy[t]^2")


def _token_lines(toks):
    """Tokens per line as ``<kind initial><text>@<col>``, space separated."""
    lines = {}
    for t in toks:
        lines.setdefault(t.line, []).append(f"{t.kind[0]}{t.text}@{t.col}")
    return {line: " ".join(parts) for line, parts in lines.items()}


class TestTokenize:
    def test_shipped_model_token_stream(self, string_text):
        # a comment at end of file with no newline adds no token and leaves
        # the end-of-file position at the comment's line start
        assert _token_lines(tokenize(string_text + "# end")) == {
            2: "icoords@1 it@8 ix@10",
            3: "ifields@1 iy@8",
            4: "iparams@1 irho@8 o=@11 n1@12 itau@14 o=@17 n1@18 igamma@20 o=@25 n0.1@26",
            5: "ilagrangian@1 n0.5@12 o*@15 o(@16 irho@17 o*@20 idy@21 o[@23 it@24 o]@25 o^@26 n2@27 o-@29 "
            "itau@31 o*@34 idy@35 o[@37 ix@38 o]@39 o^@40 n2@41 o)@42 o-@44 igamma@46 o*@51 is@52 o[@53 it@54 o]@55",
            6: "isymmetry@1 iY@10 o:@11 id@13 o/@14 idy@15",
            7: "isymmetry@1 iS@10 o:@11 id@13 o/@14 ids@15 o[@17 it@18 o]@19",
            11: "iscenario@1 imain@10 o{@15 ibc@17 iperiodic@20 o;@28 igrid@30 icfl@35 o=@38 n0.5@39 ilx@43 o=@45 "
            "n1@46 inx@48 o=@50 n128@51 it@55 o=@56 n2@57 o;@58 iinit@60 iy0@65 o=@68 n0.1@70 o*@73 isin@74 o(@77 "
            "n2@78 o*@79 ipi@80 o*@82 ix@83 o)@84 o;@85 iinit@87 iv0@92 o=@95 n1@97 o;@98 o}@100",
            12: "iscenario@1 istanding@10 o{@19 ibc@21 iperiodic@24 o;@32 igrid@34 icfl@39 o=@42 n0.5@43 ilx@47 "
            "o=@49 n1@50 inx@52 o=@54 n256@55 it@59 o=@60 n10@61 o;@63 iinit@65 iy0@70 o=@73 isin@75 o(@78 n2@79 "
            "o*@80 ipi@81 o*@83 ix@84 o)@85 o;@86 iinit@88 iv0@93 o=@96 n0@98 o;@99 o}@101",
            13: "e@1",
        }

    def test_trailing_comment_without_newline(self):
        assert _token_lines(tokenize("coords t # trailing")) == {1: "icoords@1 it@8 e@10"}

    def test_token_is_immutable_and_compares_by_value(self):
        tok = tokenize("rho")[0]
        assert tok == tokenize("rho")[0] and hash(tok) == hash(tokenize("rho")[0])
        assert tok != tokenize(" rho")[0]  # same text, another column
        with pytest.raises(AttributeError):
            tok.text = "tau"
        assert tok.text == "rho"

    @pytest.mark.parametrize(
        "text, ch, line, col", [("coords t\n  x $ y", "$", 2, 5), ("x = 1e-3 ! 2", "!", 1, 10), ("a # c\n@", "@", 2, 1)]
    )
    def test_unexpected_character_position(self, text, ch, line, col):
        with pytest.raises(DslError) as exc:
            tokenize(text)
        assert (exc.value.message, exc.value.line, exc.value.col) == (f"unexpected character {ch!r}", line, col)


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
