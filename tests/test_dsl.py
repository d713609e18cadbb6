import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mcft.dsl import DslError, ModelFile, Scenario, parse, render, tokenize
from mcft.expr import const, mul, to_text, var


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
        # an exponent is read by the same reader and must come out an int
        with pytest.raises(DslError, match="bad number '\u00b2'"):
            parse("coords t x\nfields y\nlagrangian dy[t]^\u00b2")
        cubed = parse("coords t x\nfields y\nlagrangian dy[t]^3").lagrangian
        assert parse("coords t x\nfields y\nlagrangian dy[t]^\u0663").lagrangian == cubed
        for exponent in ("2.0", "2e0", "x"):
            with pytest.raises(DslError, match="exponent must be an integer literal"):
                parse(f"coords t x\nfields y\nlagrangian dy[t]^{exponent}")


HEAD = "coords t x\nfields y\n"
# names derived from HEAD's bases and fields, which a parameter may not take:
# coordinates of the jet and the Hamiltonian chart, section derivatives of
# both pictures, and the sopde unknowns A4..A7, B4..B7 of m = 2, n = 1
DERIVED = {
    **dict.fromkeys(["y_t", "y_x", "s_t", "s_x", "p_t", "p_x"], "a coordinate"),
    **dict.fromkeys(["y_tx", "y_tt", "s_t_t", "p_t_t"], "a section derivative"),
    **dict.fromkeys(["A4", "B7"], "an ansatz unknown"),
}
BODY = HEAD + "lagrangian dy[t]^2\n"

# (model text, message, line, col) of each parse error no other test reaches
PARSE_ERRORS = {
    "expected-op": (BODY + "symmetry Y d/dy", "expected ':', found 'd'", 4, 12),
    "expected-name": (BODY + "symmetry : d/dy", "expected symmetry name, found ':'", 4, 10),
    "pi-builtin": (HEAD + "params pi\n", "'pi' is a built-in constant", 3, 8),
    "expected-declaration": ("coords t x\n= 1", "expected a declaration, found '='", 2, 1),
    "duplicate-lagrangian": (BODY + "lagrangian dy[x]^2", "duplicate lagrangian declaration", 4, 1),
    "unknown-declaration": (BODY + "model m", "unknown declaration 'model'", 4, 1),
    "no-field-at-end": ("coords t x\n", "at least one field required", 2, 1),
    "missing-lagrangian": (HEAD, "missing lagrangian declaration", 3, 1),
    "coords-first": ("fields y\nlagrangian dy[t]^2", "coords must be declared first", 2, 1),
    "duplicate-coords": ("coords t\ncoords x\n", "duplicate coords declaration", 2, 1),
    "coords-need-a-name": ("coords\nfields y\n", "coords declaration needs at least one name", 1, 1),
    "duplicate-fields": ("coords t\nfields y\nfields z\n", "duplicate fields declaration", 3, 1),
    "fields-need-a-name": ("coords t\nfields\nlagrangian 1", "at least one field required", 2, 1),
    "expected-number": (HEAD + "params a=b\n", "expected a number", 3, 10),
    "expected-denominator": (HEAD + "params a=1/b\n", "expected a denominator", 3, 12),
    "zero-denominator": (HEAD + "params a=1/0\n", "zero denominator", 3, 12),
    "param-takes-no-index": (HEAD + "params a\nlagrangian a[t]*dy[t]^2", "parameter 'a' takes no index", 4, 14),
    "cannot-index": (HEAD + "lagrangian y[t]", "cannot index 'y'", 3, 12),
    "expected-expression": (HEAD + "lagrangian )", "expected an expression, found ')'", 3, 12),
    "bad-direction": (BODY + "symmetry Y: d/y", "expected a direction d/d<coord>, found d/y", 4, 15),
    "unknown-action-base": (BODY + "symmetry S: d/ds[z]", "unknown base coordinate 'z'", 4, 18),
    "unknown-bc": (BODY + "scenario s { bc open; }", "unknown boundary condition 'open'", 4, 17),
    "duplicate-grid-key": (BODY + "scenario s { grid nx=8 nx=16; }", "duplicate grid key 'nx'", 4, 24),
    "duplicate-grid-key-across-items": (
        BODY + "scenario s { grid nx=8; grid lx=2; grid nx=16; }", "duplicate grid key 'nx'", 4, 41),
    "nx-integer": (BODY + "scenario s { grid nx=8.5; }", "nx must be an integer", 4, 22),
    "init-y0-or-v0": (BODY + "scenario s { init z0 = 1; }", "init expects y0 or v0", 4, 19),
    "unknown-scenario-item": (BODY + "scenario s { run 1; }", "unknown scenario item 'run'", 4, 14),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_message_and_position(case):
    text, message, line, col = PARSE_ERRORS[case]
    with pytest.raises(DslError) as exc:
        parse(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


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

    @pytest.mark.parametrize(
        "text",
        ["coords t x\nfields s_a\nlagrangian ds_a[t]^2\nsymmetry Y: d/ds_a\n",
         "coords s x\nfields y\nlagrangian dy[s]^2 + s[x]*s\nsymmetry Y: s*d/ds + d/ds[x] + d/ds[s]\n"],
        ids=["field-s_a", "base-s"],
    )
    def test_directions_along_coordinates_named_like_the_action_roundtrip(self, text):
        m = parse(text)
        assert parse(render(m)) == m

    @pytest.mark.parametrize("name", list(DERIVED))
    def test_parameter_named_like_a_coordinate_is_refused_at_its_name(self, name):
        # render writes the coordinate y_t as dy[t], so such a parameter would
        # come back as the coordinate, and model_hash would hash another model;
        # substitute would replace a parameter named like a section derivative
        # or an ansatz unknown along with it
        after = f"{HEAD}params {name}=1\nlagrangian dy[t]^2 + {name}*y\n"
        before = f"params k {name}=1\n{HEAD}lagrangian dy[t]^2\n"
        for text, line, col in ((after, 3, 8), (before, 1, 10)):
            with pytest.raises(DslError) as exc:
                parse(text)
            assert (exc.value.message, exc.value.line, exc.value.col) == (
                f"parameter {name!r} is named like {DERIVED[name]}", line, col)
        # a parameter named apart from every coordinate round-trips
        m = parse(f"{HEAD}params yt=1\nlagrangian dy[t]^2 + yt*y\n")
        assert parse(render(m)) == m and render(parse(render(m))) == render(m)

    @pytest.mark.parametrize("head", ["coords t d\nfields y\n", "coords t\nfields y\nparams d\n"],
                             ids=["coordinate-d", "parameter-d"])
    @pytest.mark.parametrize("vf", ["(d/2)*d/dy", "d/2*d/dy - d/dt", "d/dy[t]*d/dy + d/ds[t]", "d*d/dt + d/dy"])
    def test_coefficient_over_a_name_d_roundtrips(self, head, vf):
        # d/ is a direction only when d/d<base or field> or d/ds[ follows
        m = parse(head + "lagrangian dy[t]^2\nsymmetry Y: " + vf + "\n")
        assert parse(render(m)) == m
        text = render(m)
        assert render(parse(text)) == text

    @pytest.mark.parametrize("zero", ["0*(1+y)", "(1+y)*0", "0*(1+y)^300*(1+y)^300", "(y-y)*(1+y)/(1+y)^-2"])
    def test_product_of_sums_with_a_zero_factor_is_zero(self, zero):
        m = parse(f"{HEAD}lagrangian dy[t]^2 + {zero}*dy[x]\n")
        assert m.lagrangian == parse(BODY).lagrangian

    def test_coefficient_d_over_two_along_y(self):
        m = parse("coords t d\nfields y\nlagrangian dy[t]^2\nsymmetry Y: d/2*d/dy\n")
        assert m.symmetries["Y"] == {"y": mul(const(Fraction(1, 2)), m.chart.coord("d"))}
        assert "symmetry Y: d/2*d/dy\n" in render(m)


# ---------------------------------------------------------------------------
# Property: parse(render(m)) == m on generated models.

# coordinate names, among them names that begin as the DSL's own syntax
# does (d<field>, s[<base>]) or as the chart's derived names do (s_, p_)
IDENTS = ["t", "x", "z", "y", "v", "f", "s", "d_a", "dy", "dt", "s_a", "s_t", "sx", "p", "p_t", "pos", "y_t", "a",
          "tt", "t_t", "A4"]


@st.composite
def models(draw):
    names = draw(st.lists(st.sampled_from(IDENTS), min_size=2, max_size=4, unique=True))
    n_bases = draw(st.integers(1, min(2, len(names) - 1)))
    bases, fields = names[:n_bases], names[n_bases:]
    n_params = draw(st.integers(0, 2))
    params = []
    for i in range(n_params):
        val = draw(st.one_of(st.none(), st.fractions(min_value=-4, max_value=4, max_denominator=8)))
        params.append((f"c{i}", val))
    rng = random.Random(draw(st.integers(0, 10**6)))

    from mcft.charts import ChartError, jet_chart
    from mcft.expr import add, mul

    try:
        chart = jet_chart(bases, fields)
    except ChartError:  # a derived name taken twice, such as the velocity s_t of a field s and the action s_t
        assume(False)
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
                comps[chart.coords[chart.action_axis(rng.randrange(len(bases)))].name] = const(rng.randint(1, 3))
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


# ---------------------------------------------------------------------------
# Property: one name, one symbol.

# names a model may try to give its bases, field and parameter: derived names
# of the usual bases and fields, the DSL's own syntax and its built-ins
ADVERSARIAL = ["t", "x", "y", "p", "p_t", "p_x", "y_t", "s_t", "d", "s", "dy", "ds", "tt", "t_t", "y_tt", "y_tx",
               "s_t_t", "p_t_t", "A4", "B5", "A1", "pi", "sin", "init"]
VERBS = [["derive"], ["derive", "--hamiltonian"], ["sopde"], ["check-symmetry", "Y"], ["current", "Y"],
         ["verify-law", "Y", "run"], ["simulate", "run"]]


def _named_model(bases, field, param, coupled):
    """A damped wave over ``bases`` with one field and one parameter, on a
    scenario small enough for every verb to finish at once; ``coupled`` adds
    a mixed velocity term, a velocity-linear term and a mass term, which the
    numeric verbs refuse."""
    t, x = bases[0], bases[-1]
    y0 = f"0.1*sin(2*pi*{x})" if len(bases) > 1 else "0.1"
    extra = f" + {param}*d{field}[{t}]*d{field}[{x}]/4 + {param}*{field}*d{field}[{x}] - {field}^2/2" if coupled else ""
    return (f"coords {' '.join(bases)}\nfields {field}\nparams {param}=2\n"
            f"lagrangian 0.5*{param}*d{field}[{t}]^2 - 0.5*d{field}[{x}]^2{extra} - s[{t}]/10\n"
            f"symmetry Y: d/d{field}\n"
            f"scenario run {{ bc periodic; grid cfl=0.5 lx=1 nx=8 t=0.5; init y0 = {y0}; init v0 = 0; }}\n")


def _shared_names(*groups):
    """Each name that two distinct symbols of ``groups`` (expressions, forms,
    symbols) carry, with the symbols."""
    from mcft.expr import free_symbols
    from mcft.forms import Form

    seen: dict = {}
    for group in groups:
        for e in group:
            for c in (dict(e.items()).values() if isinstance(e, Form) else [e]):
                for s in free_symbols(c):
                    seen.setdefault(s.name, set()).add(s)
    return {name: syms for name, syms in seen.items() if len(syms) > 1}


def _family(fam):
    return [*fam.free, *fam.solved, *fam.solved.values(), *(c for f in fam.factors for c in f.values())]


@given(st.lists(st.sampled_from(ADVERSARIAL), min_size=3, max_size=4, unique=True), st.booleans())
@settings(max_examples=400, deadline=None)
def test_each_name_is_one_symbol(tmp_path_factory, names, coupled):
    # substitute, evaluate and the text outputs match a symbol by its name,
    # so two symbols of one name would be taken for one another
    import contextlib
    import io

    from mcft.charts import ChartError
    from mcft.cli import main
    from mcft.hamiltonian import LegendreError, hdw_multivector, hdw_residuals, legendre
    from mcft.lagrangian import LagrangianError, herglotz_el_residuals, solve_sopde_family

    *bases, field, param = names
    text = _named_model(bases, field, param, coupled)
    path = tmp_path_factory.getbasetemp() / "named.mcft"
    path.write_text(text)
    try:
        model = parse(text)
    except DslError:
        model = None
    for verb in VERBS if model is not None else VERBS[:1]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([verb[0], str(path), *verb[1:]])
        assert code in (0, 1, 2, 3) and (model is not None or code == 2), (verb, code)
    if model is None:
        return
    sys_ = model.system()
    res = herglotz_el_residuals(sys_)
    jet = [sys_.lagrangian, sys_.energy, sys_.hessian_det, *sys_.momenta.values(), sys_.theta, sys_.sigma,
           *res.fields, res.action, *sys_.chart.symbols]
    try:
        jet += _family(solve_sopde_family(sys_))
    except LagrangianError:
        pass
    try:
        lt = legendre(sys_)
    except (LegendreError, ChartError):  # a singular Lagrangian, or a momentum named like a placeholder
        assert not _shared_names(jet)
        return
    hs = lt.hamiltonian_system
    ham = [hs.hamiltonian, hs.theta, hs.sigma, *hs.chart.symbols, *_family(hdw_multivector(hs))]
    hres = hdw_residuals(hs)
    assert not _shared_names(jet, lt.forward.values(), lt.inverse.values(), ham)
    # the Hamiltonian residuals' slope y_t is the velocity y_t along a section: apart from the jet picture
    assert not _shared_names(ham, [*hres.fields, *hres.momenta, hres.action])
