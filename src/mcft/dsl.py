"""Model definition language (.mcft files).

Grammar (whitespace-insensitive, ``#`` comments, declarations processed
in order, names must be declared before use):

    model    := decl*
    decl     := "coords" IDENT+
              | "fields" IDENT+
              | "params" (IDENT ["=" NUMBER])+
              | "lagrangian" expr
              | "symmetry" IDENT ":" vfexpr
              | "scenario" IDENT "{" item* "}"
    item     := "bc" ("periodic" | "dirichlet0") ";"
              | "grid" (KEY "=" NUMBER)+ ";"          KEY in nx lx cfl t
              | "init" ("y0" | "v0") "=" expr ";"
    vfexpr   := ["-"] vfterm (("+" | "-") vfterm)*
    vfterm   := [expr "*"] "d" "/" DIRECTION
    expr     := usual infix with + - * / ^ (integer powers), sin/cos/exp

Jet coordinates are referenced as ``d<field>[<base>]`` and action
coordinates as ``s[<base>]``; symmetry directions as ``d/dy``, ``d/dt``,
``d/ds[t]`` (configuration level; prolongation to velocities or momenta
happens in the symmetry pipeline).
"""
from __future__ import annotations

import hashlib
import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import NamedTuple, Optional

from .charts import Chart, jet_chart
from .expr import Expr, ExprError, add, const, cos, exp, mul, pow_, sin, to_text, var
from .forms import scaled_text, signed_sum_text
from .lagrangian import LagrangianSystem, build_lagrangian_system

KEYWORDS = {"coords", "fields", "params", "lagrangian", "symmetry", "scenario", "grid", "init", "bc"}
FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp}
PI = var("pi", "param", 10_000)

BC_NAMES = {"periodic": "periodic", "dirichlet0": "dirichlet-zero"}
BC_RENDER = {v: k for k, v in BC_NAMES.items()}


class DslError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class Token(NamedTuple):
    kind: str  # ident | number | op | eof
    text: str
    line: int
    col: int


def _power(base: Expr, k: int, tok: Token) -> Expr:
    """``base^k``, with a zero base under a negative power reported at ``tok``."""
    try:
        return pow_(base, k)
    except ExprError as exc:
        raise DslError("division by zero", tok.line, tok.col) from exc


_OPS = frozenset("=*+-/^()[]{}:;,")  # every operator is one character


def tokenize(text: str) -> list:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(tuple.__new__(Token, ("ident", text[i:j], line, col)))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            toks.append(tuple.__new__(Token, ("number", text[i:j], line, col)))
            col += j - i
            i = j
            continue
        if ch not in _OPS:
            raise DslError(f"unexpected character {ch!r}", line, col)
        toks.append(tuple.__new__(Token, ("op", ch, line, col)))
        i += 1
        col += 1
    toks.append(tuple.__new__(Token, ("eof", "", line, col)))
    return toks


def _number_value(tok: Token) -> int | Fraction:
    """A number token's exact value: an ``int`` for decimal digits alone
    (``isdigit`` would admit ``²``), else a ``Fraction`` via ``Decimal``."""
    if tok.text.isdecimal():
        return int(tok.text)
    try:
        return Fraction(Decimal(tok.text))
    except InvalidOperation:
        raise DslError(f"bad number {tok.text!r}", tok.line, tok.col) from None


class Scenario:
    def __init__(self, name: str, nx: int = 128, lx: Fraction = Fraction(1), cfl: Fraction = Fraction(1, 2),
                 t_final: Fraction = Fraction(2), bc: str = "periodic", y0: Expr = const(0), v0: Expr = const(0)):
        self.name, self.nx, self.lx, self.cfl, self.t_final, self.bc, self.y0, self.v0 = (
            name, nx, lx, cfl, t_final, bc, y0, v0)

    def __eq__(self, other):
        return isinstance(other, Scenario) and (
            self.name,
            self.nx,
            self.lx,
            self.cfl,
            self.t_final,
            self.bc,
            self.y0,
            self.v0,
        ) == (other.name, other.nx, other.lx, other.cfl, other.t_final, other.bc, other.y0, other.v0)


class ModelFile:
    def __init__(self, bases: list, fields: list, params: list, lagrangian: Expr, symmetries: dict, scenarios: dict,
                 chart: Chart):
        self.bases, self.fields, self.lagrangian, self.chart = bases, fields, lagrangian, chart
        self.params = params  # (name, Fraction | None) in declaration order
        self.symmetries = symmetries  # name -> dict coord-name -> Expr (configuration components)
        self.scenarios = scenarios  # name -> Scenario

    def __eq__(self, other):
        return isinstance(other, ModelFile) and (
            self.bases == other.bases
            and self.fields == other.fields
            and self.params == other.params
            and self.lagrangian == other.lagrangian
            and self.symmetries == other.symmetries
            and self.scenarios == other.scenarios
        )

    def param_defaults(self) -> dict:
        out = {}
        for n, v in self.params:
            if v is not None:
                out[n] = float(v)
        out["pi"] = math.pi
        return out

    def system(self) -> LagrangianSystem:
        return build_lagrangian_system(self.chart, self.lagrangian)

    def candidate(self, name: str, chart: Chart):
        """The named symmetry candidate as a vector field on ``chart``
        (jet or Hamiltonian chart over the same bases/fields)."""
        from .forms import Multivector

        comps = self.symmetries[name]
        return Multivector.vector(chart, comps)

    def model_hash(self) -> str:
        return hashlib.sha256(render(self).encode()).hexdigest()


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.bases: list = []
        self.fields: list = []
        self.params: list = []
        self.chart: Optional[Chart] = None
        self.lagrangian: Optional[Expr] = None
        self.symmetries: dict = {}
        self.scenarios: dict = {}
        self.names: dict = {}  # any declared name -> kind, for duplicates

    # -- token plumbing ----------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        if not ahead:  # next() never moves past eof, so pos is in range
            return self.toks[self.pos]
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect_op(self, op: str) -> Token:
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise DslError(f"expected {op!r}, found {t.text or 'end of file'!r}", t.line, t.col)
        return t

    def expect_ident(self, what: str = "name") -> Token:
        t = self.next()
        if t.kind != "ident":
            raise DslError(f"expected {what}, found {t.text or 'end of file'!r}", t.line, t.col)
        return t

    def at_keyword(self) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text in ("coords", "fields", "params", "lagrangian", "symmetry", "scenario")

    def declare(self, tok: Token, kind: str):
        if tok.text in KEYWORDS:
            raise DslError(f"{tok.text!r} is a reserved word", tok.line, tok.col)
        if tok.text == "pi":
            raise DslError("'pi' is a built-in constant", tok.line, tok.col)
        if tok.text in self.names:
            raise DslError(f"duplicate declaration of {tok.text!r}", tok.line, tok.col)
        self.names[tok.text] = kind

    # -- declarations --------------------------------------------------------
    def parse(self) -> ModelFile:
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "ident":
                raise DslError(f"expected a declaration, found {t.text!r}", t.line, t.col)
            if t.text == "coords":
                self.next()
                self.parse_coords(t)
            elif t.text == "fields":
                self.next()
                self.parse_fields(t)
            elif t.text == "params":
                self.next()
                self.parse_params()
            elif t.text == "lagrangian":
                self.next()
                self.require_chart(t)
                if self.lagrangian is not None:
                    raise DslError("duplicate lagrangian declaration", t.line, t.col)
                self.lagrangian = self.parse_expr(allow=("coords", "params"))
            elif t.text == "symmetry":
                self.next()
                self.require_chart(t)
                name = self.expect_ident("symmetry name")
                self.declare(name, "symmetry")
                self.expect_op(":")
                self.symmetries[name.text] = self.parse_vf()
            elif t.text == "scenario":
                self.next()
                name = self.expect_ident("scenario name")
                self.declare(name, "scenario")
                self.scenarios[name.text] = self.parse_scenario(name.text)
            else:
                raise DslError(f"unknown declaration {t.text!r}", t.line, t.col)
        if not self.fields:
            last = self.peek()
            raise DslError("at least one field required", last.line, last.col)
        if self.lagrangian is None:
            last = self.peek()
            raise DslError("missing lagrangian declaration", last.line, last.col)
        return ModelFile(
            bases=self.bases,
            fields=self.fields,
            params=self.params,
            lagrangian=self.lagrangian,
            symmetries=self.symmetries,
            scenarios=self.scenarios,
            chart=self.chart,
        )

    def require_chart(self, t: Token):
        if self.chart is None:
            if not self.bases:
                raise DslError("coords must be declared first", t.line, t.col)
            if not self.fields:
                raise DslError("at least one field required", t.line, t.col)
            self.chart = jet_chart(self.bases, self.fields)

    def parse_coords(self, t: Token):
        if self.bases:
            raise DslError("duplicate coords declaration", t.line, t.col)
        while self.peek().kind == "ident" and not self.at_keyword():
            tok = self.expect_ident()
            self.declare(tok, "coord")
            self.bases.append(tok.text)
        if not self.bases:
            raise DslError("coords declaration needs at least one name", t.line, t.col)

    def parse_fields(self, t: Token):
        if self.fields:
            raise DslError("duplicate fields declaration", t.line, t.col)
        while self.peek().kind == "ident" and not self.at_keyword():
            tok = self.expect_ident()
            self.declare(tok, "field")
            self.fields.append(tok.text)
        if not self.fields:
            raise DslError("at least one field required", t.line, t.col)

    def parse_number(self) -> Fraction:
        """[-] NUMBER [/ NUMBER] as an exact value."""
        num = self.next()
        sign = 1
        if num.kind == "op" and num.text == "-":
            sign = -1
            num = self.next()
        if num.kind != "number":
            raise DslError("expected a number", num.line, num.col)
        value = Fraction(sign * _number_value(num))
        if self.peek().kind == "op" and self.peek().text == "/":
            self.next()
            den = self.next()
            if den.kind != "number":
                raise DslError("expected a denominator", den.line, den.col)
            d = _number_value(den)
            if d == 0:
                raise DslError("zero denominator", den.line, den.col)
            value /= d
        return value

    def parse_params(self):
        while self.peek().kind == "ident" and not self.at_keyword():
            tok = self.expect_ident()
            self.declare(tok, "param")
            value = None
            if self.peek().kind == "op" and self.peek().text == "=":
                self.next()
                value = self.parse_number()
            self.params.append((tok.text, value))

    # -- expressions ---------------------------------------------------------
    def resolve(self, tok: Token, bracket: Optional[Token], allow) -> Expr:
        name = tok.text
        if name == "pi":
            return PI
        if "params" in allow:
            for i, (n, _) in enumerate(self.params):
                if n == name:
                    if bracket is not None:
                        raise DslError(f"parameter {name!r} takes no index", bracket.line, bracket.col)
                    return var(n, "param", i)
        if "coords" in allow and self.chart is not None:
            if bracket is None:
                if name in self.bases or name in self.fields:
                    return self.chart.coord(name)
            else:
                base = bracket.text
                if base not in self.bases:
                    raise DslError(f"unknown base coordinate {base!r}", bracket.line, bracket.col)
                if name == "s":
                    return self.chart.coord(f"s_{base}")
                if name.startswith("d") and name[1:] in self.fields:
                    return self.chart.coord(f"{name[1:]}_{base}")
                raise DslError(f"cannot index {name!r}", tok.line, tok.col)
        if "x-only" in allow:
            if bracket is None and name in self.bases[1:]:
                return var(name, "base", self.bases.index(name))
            for i, (n, _) in enumerate(self.params):
                if n == name and bracket is None:
                    return var(n, "param", i)
        raise DslError(f"unresolved symbol {name!r}", tok.line, tok.col)

    def parse_expr(self, allow) -> Expr:
        e = self.parse_term(allow)
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.parse_term(allow)
            e = add(e, rhs if op == "+" else mul(const(-1), rhs))
        return e

    def parse_term(self, allow, stop_at_direction: bool = False) -> Expr:
        e = self.parse_unary(allow)
        while self.peek().kind == "op" and self.peek().text in "*/":
            if stop_at_direction and self.peek().text == "*" and self._direction_ahead(1):
                break
            op = self.next()
            rhs = self.parse_unary(allow)
            e = mul(e, rhs) if op.text == "*" else mul(e, _power(rhs, -1, op))
        return e

    def parse_unary(self, allow) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            return mul(const(-1), self.parse_unary(allow))
        return self.parse_power(allow)

    def parse_power(self, allow) -> Expr:
        base = self.parse_atom(allow)
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.next()
            sign = 1
            if self.peek().kind == "op" and self.peek().text == "-":
                self.next()
                sign = -1
            num = self.next()
            if num.kind != "number" or "." in num.text or "e" in num.text or "E" in num.text:
                raise DslError("exponent must be an integer literal", num.line, num.col)
            return _power(base, sign * int(num.text), caret)
        return base

    def parse_atom(self, allow) -> Expr:
        t = self.next()
        if t.kind == "number":
            return const(_number_value(t))
        if t.kind == "op" and t.text == "(":
            e = self.parse_expr(allow)
            self.expect_op(")")
            return e
        if t.kind == "ident":
            if t.text in FUNCTIONS and self.peek().kind == "op" and self.peek().text == "(":
                self.next()
                arg = self.parse_expr(allow)
                self.expect_op(")")
                return FUNCTIONS[t.text](arg)
            bracket = None
            if self.peek().kind == "op" and self.peek().text == "[":
                self.next()
                bracket = self.expect_ident("index")
                self.expect_op("]")
            return self.resolve(t, bracket, allow)
        raise DslError(f"expected an expression, found {t.text or 'end of file'!r}", t.line, t.col)

    # -- symmetry vector fields ------------------------------------------------
    def _direction_ahead(self, offset: int) -> bool:
        return (
            self.peek(offset).kind == "ident"
            and self.peek(offset).text == "d"
            and self.peek(offset + 1).kind == "op"
            and self.peek(offset + 1).text == "/"
        )

    def parse_direction(self) -> str:
        t = self.expect_ident()
        if t.text != "d":
            raise DslError("expected a direction d/d<coord>", t.line, t.col)
        self.expect_op("/")
        t = self.expect_ident("direction")
        name = t.text
        if not name.startswith("d") or len(name) < 2:
            raise DslError(f"expected a direction d/d<coord>, found d/{name}", t.line, t.col)
        rest = name[1:]
        if rest in self.bases or rest in self.fields:
            return rest
        if rest == "s" and self.peek().kind == "op" and self.peek().text == "[":
            self.next()
            base = self.expect_ident("base index")
            self.expect_op("]")
            if base.text not in self.bases:
                raise DslError(f"unknown base coordinate {base.text!r}", base.line, base.col)
            return f"s_{base.text}"
        raise DslError(
            f"unknown direction {name!r} (configuration directions only: fields, bases, s[<base>])",
            t.line,
            t.col,
        )

    def parse_vf(self) -> dict:
        comps: dict = {}
        sign = 1
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            sign = -1
        while True:
            if self._direction_ahead(0):
                coeff = const(sign)
            else:
                coeff = mul(const(sign), self.parse_term(allow=("coords", "params"), stop_at_direction=True))
                self.expect_op("*")
            coord = self.parse_direction()
            comps[coord] = add(comps.get(coord, const(0)), coeff)
            if self.peek().kind == "op" and self.peek().text in "+-":
                sign = 1 if self.next().text == "+" else -1
                continue
            break
        return {k: v for k, v in comps.items() if v.terms}

    # -- scenarios ----------------------------------------------------------------
    def parse_scenario(self, name: str) -> Scenario:
        sc = Scenario(name=name)
        self.expect_op("{")
        seen_grid_keys = set()
        while not (self.peek().kind == "op" and self.peek().text == "}"):
            t = self.expect_ident("scenario item")
            if t.text == "bc":
                b = self.expect_ident("boundary condition")
                if b.text not in BC_NAMES:
                    raise DslError(f"unknown boundary condition {b.text!r}", b.line, b.col)
                sc.bc = BC_NAMES[b.text]
                self.expect_op(";")
            elif t.text == "grid":
                while self.peek().kind == "ident":
                    k = self.expect_ident()
                    if k.text not in ("nx", "lx", "cfl", "t"):
                        raise DslError(f"unknown grid key {k.text!r}", k.line, k.col)
                    if k.text in seen_grid_keys:
                        raise DslError(f"duplicate grid key {k.text!r}", k.line, k.col)
                    seen_grid_keys.add(k.text)
                    self.expect_op("=")
                    num = self.peek()
                    v = self.parse_number()
                    if k.text == "nx":
                        if v.denominator != 1:
                            raise DslError("nx must be an integer", num.line, num.col)
                        sc.nx = int(v)
                    elif k.text == "lx":
                        sc.lx = v
                    elif k.text == "cfl":
                        sc.cfl = v
                    else:
                        sc.t_final = v
                self.expect_op(";")
            elif t.text == "init":
                which = self.expect_ident("y0 or v0")
                if which.text not in ("y0", "v0"):
                    raise DslError("init expects y0 or v0", which.line, which.col)
                self.expect_op("=")
                e = self.parse_expr(allow=("x-only",))
                if which.text == "y0":
                    sc.y0 = e
                else:
                    sc.v0 = e
                self.expect_op(";")
            else:
                raise DslError(f"unknown scenario item {t.text!r}", t.line, t.col)
        self.expect_op("}")
        return sc


def parse(text: str) -> ModelFile:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Canonical rendering.


def _frac_text(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    den = v.denominator
    k2 = k5 = 0
    while den % 2 == 0:
        den //= 2
        k2 += 1
    while den % 5 == 0:
        den //= 5
        k5 += 1
    if den == 1:
        digits = max(k2, k5)
        scaled = v * 10**digits
        s = str(abs(scaled.numerator)).rjust(digits + 1, "0")
        sign = "-" if v < 0 else ""
        return f"{sign}{s[:-digits]}.{s[-digits:]}"
    return f"{v.numerator}/{v.denominator}"


def _dsl_name_map(model: ModelFile):
    table = {}
    for f in model.fields:
        for b in model.bases:
            table[f"{f}_{b}"] = f"d{f}[{b}]"
    for b in model.bases:
        table[f"s_{b}"] = f"s[{b}]"

    def m(name: str) -> str:
        return table.get(name, name)

    return m


def _vf_text(comps: dict, model: ModelFile) -> str:
    nm = _dsl_name_map(model)
    order = {n: i for i, n in enumerate(model.chart.names())}
    return signed_sum_text([
        scaled_text(comps[name], f"d/ds[{name[2:]}]" if name.startswith("s_") else f"d/d{name}", nm, "*")
        for name in sorted(comps, key=lambda n: order.get(n, 99))
    ])


def render(model: ModelFile) -> str:
    nm = _dsl_name_map(model)
    lines = [
        "coords " + " ".join(model.bases),
        "fields " + " ".join(model.fields),
    ]
    if model.params:
        chunks = []
        for n, v in model.params:
            chunks.append(n if v is None else f"{n}={_frac_text(v)}")
        lines.append("params " + " ".join(chunks))
    lines.append("lagrangian " + to_text(model.lagrangian, nm))
    for name in sorted(model.symmetries):
        lines.append(f"symmetry {name}: {_vf_text(model.symmetries[name], model)}")
    for name in sorted(model.scenarios):
        sc = model.scenarios[name]
        items = [
            f"bc {BC_RENDER[sc.bc]};",
            f"grid cfl={_frac_text(sc.cfl)} lx={_frac_text(sc.lx)} nx={sc.nx} t={_frac_text(sc.t_final)};",
            f"init y0 = {to_text(sc.y0, nm)};",
            f"init v0 = {to_text(sc.v0, nm)};",
        ]
        lines.append("scenario " + name + " { " + " ".join(items) + " }")
    return "\n".join(lines) + "\n"
