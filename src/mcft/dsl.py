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

from .charts import Chart, ChartError, derived_names, jet_chart
from .expr import (EvalError, Expr, ExprError, SumAtom, add, const, cos, exp, mul, pow_, signed_sum_text, sin, to_text,
                   var)
from .forms import Multivector, scaled_text
from .lagrangian import LagrangianSystem, build_lagrangian_system

DECLARATIONS = ("coords", "fields", "params", "lagrangian", "symmetry", "scenario")
KEYWORDS = {*DECLARATIONS, "grid", "init", "bc"}
FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp}
PI = var("pi", "param", 10_000)

BC_NAMES = {"periodic": "periodic", "dirichlet0": "dirichlet-zero"}
BC_RENDER = {v: k for k, v in BC_NAMES.items()}
GRID_KEYS = {"nx": "nx", "lx": "lx", "cfl": "cfl", "t": "t_final"}  # grid key -> Scenario field


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


MAX_DIGITS = 10_000  # digits a literal's or a power's numerator or denominator may have
MAX_EXPANDED_DIGITS = 100_000  # terms times coefficient digits that a power of a sum may expand into
_TOO_LONG = 10**MAX_DIGITS  # the least integer with more digits


def _too_long(tok: Token, what: str = "number literal", limit: int = MAX_DIGITS) -> DslError:
    return DslError(f"{what} needs more than {limit} digits", tok.line, tok.col)


def _coeff_bound(terms) -> int:
    """b = max(sum |n_i|, den) for the coefficients n_i/den of ``terms`` over
    their least common denominator: a product or power of sums has
    coefficients of at most the product or power of the factors' b in
    numerator and denominator."""
    den = math.lcm(*(c.denominator for _, c in terms))
    return max(sum(abs(c.numerator) * (den // c.denominator) for _, c in terms), den)


def _expanded_size(factors) -> int:
    """Terms times coefficient digits that the product of each ``(e, k)`` in
    ``factors``, e to the power k > 0, expands into.  e^k has at most
    C(k+T-1, T-1) terms for T terms in e, its atoms k times the exponent span
    they have in e, and coefficients of at most k*log10(b) + 1 digits; a
    product multiplies the terms and adds the spans and the digits.  A sum
    to a power k has more than k terms, so a k past ``MAX_EXPANDED_DIGITS``
    is too large before any float is formed from it; a zero factor makes
    the product zero."""
    terms, spans, log_b = 1, {}, 0.0
    for e, k in factors:
        if not e.terms:
            return 0
        if k > MAX_EXPANDED_DIGITS and len(e.terms) > 1:
            return k
        exps = [dict(mono) for mono, _ in e.terms]
        for a in set().union(*exps):
            spans[a] = spans.get(a, 0) + k * (max(x.get(a, 0) for x in exps) - min(x.get(a, 0) for x in exps))
        terms *= math.comb(k + len(e.terms) - 1, len(e.terms) - 1)
        log_b += k * math.log10(_coeff_bound(e.terms))
    return min(terms, math.prod(n + 1 for n in spans.values())) * (int(log_b) + 1)


def _bound_expansion(tok: Token, factors):
    """Refuse at ``tok`` a product of powers of sums too large to expand."""
    if _expanded_size(factors) > MAX_EXPANDED_DIGITS:
        raise _too_long(tok, "expanded product of sums", MAX_EXPANDED_DIGITS)


def _number_value(tok: Token) -> int | Fraction:
    """A number token's exact value: an ``int`` for decimal digits alone
    (``isdigit`` would admit ``²``), else a ``Fraction`` via ``Decimal``.

    A value whose numerator or denominator needs more than ``MAX_DIGITS``
    digits is an error, since printing an integer takes time quadratic in
    its digits.  ``c * 10^e`` with ``c`` free of trailing zeros has ``size``
    digits in ``c``; for ``e >= 0`` that is an integer of ``size + e``
    digits, and for ``e < 0`` its reduced denominator is at least ``2^-e``
    and its numerator at least ``c / 5^-e``, so ``size`` or ``-e`` past
    ``4 * MAX_DIGITS`` is too long before anything is built."""
    if tok.text.isdecimal():
        if len(tok.text.lstrip("0")) > MAX_DIGITS:
            raise _too_long(tok)
        return int(tok.text)
    try:
        d = Decimal(tok.text)
    except InvalidOperation:
        raise DslError(f"bad number {tok.text!r}", tok.line, tok.col) from None
    if d.is_zero():
        return Fraction(0)
    _sign, digits, e = d.as_tuple()
    size = len(digits)
    while size > 1 and digits[size - 1] == 0:
        size -= 1
    e += len(digits) - size
    if (size + e > MAX_DIGITS) if e >= 0 else (max(size, -e) > 4 * MAX_DIGITS):
        raise _too_long(tok)
    value = Fraction(d)
    if abs(value.numerator) >= _TOO_LONG or value.denominator >= _TOO_LONG:
        raise _too_long(tok)
    return value


class Scenario(NamedTuple):
    name: str
    nx: int = 128
    lx: Fraction = Fraction(1)
    cfl: Fraction = Fraction(1, 2)
    t_final: Fraction = Fraction(2)
    bc: str = "periodic"
    y0: Expr = const(0)
    v0: Expr = const(0)


class ModelFile(NamedTuple):
    bases: list
    fields: list
    params: list  # (name, Fraction | None) in declaration order
    lagrangian: Expr
    symmetries: dict  # name -> dict coord-name -> Expr (configuration components)
    scenarios: dict  # name -> Scenario
    chart: Chart

    def param_defaults(self) -> dict:
        out = {}
        for n, v in self.params:
            if v is not None:
                try:
                    out[n] = float(v)
                except OverflowError:
                    raise EvalError(f"parameter {n!r} is too large for a float") from None
        out["pi"] = math.pi
        return out

    def system(self) -> LagrangianSystem:
        return build_lagrangian_system(self.chart, self.lagrangian)

    def candidate(self, name: str, chart: Chart) -> Multivector:
        """The named symmetry candidate as a vector field on ``chart``
        (jet or Hamiltonian chart over the same bases/fields)."""
        return Multivector.vector(chart, self.symmetries[name])

    def model_hash(self) -> str:
        return hashlib.sha256(render(self).encode()).hexdigest()


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.bases: list = []
        self.fields: list = []
        self.params: list = []
        self.param_exprs: dict = {}  # parameter name -> its one shared Expr
        self.param_toks: list = []  # each parameter's name token, for a clash with a derived name found later
        self.chart: Optional[Chart] = None
        self.derived: dict = {}  # derived_names of the bases and fields, once both are declared
        self.lagrangian: Optional[Expr] = None
        self.symmetries: dict = {}
        self.scenarios: dict = {}
        self.names: set = set()  # every declared name, for duplicates

    # -- token plumbing ----------------------------------------------------
    def peek(self) -> Token:
        return self.toks[self.pos]  # next() never moves past eof, so pos is in range

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_op(self, ops: str) -> bool:
        """Whether the next token is one of the one-character operators in ``ops``."""
        t = self.peek()
        return t.kind == "op" and t.text in ops

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
        return t.kind == "ident" and t.text in DECLARATIONS

    def declare(self, tok: Token):
        if tok.text in KEYWORDS:
            raise DslError(f"{tok.text!r} is a reserved word", tok.line, tok.col)
        if tok.text == "pi":
            raise DslError("'pi' is a built-in constant", tok.line, tok.col)
        if tok.text in self.names:
            raise DslError(f"duplicate declaration of {tok.text!r}", tok.line, tok.col)
        self.names.add(tok.text)

    def declared_names(self):
        """Declare and yield each name token up to the next declaration."""
        while self.peek().kind == "ident" and not self.at_keyword():
            tok = self.next()
            self.declare(tok)
            yield tok

    # -- declarations --------------------------------------------------------
    def parse(self) -> ModelFile:
        while (t := self.next()).kind != "eof":
            if t.kind != "ident":
                raise DslError(f"expected a declaration, found {t.text!r}", t.line, t.col)
            if t.text == "coords":
                self.parse_names(t, self.bases, "duplicate coords declaration",
                                 "coords declaration needs at least one name")
            elif t.text == "fields":
                self.parse_names(t, self.fields, "duplicate fields declaration", "at least one field required")
            elif t.text == "params":
                for tok in self.declared_names():
                    self.check_param(tok)
                    self.param_toks.append(tok)
                    self.param_exprs[tok.text] = var(tok.text, "param", len(self.params))
                    value = None
                    if self.at_op("="):
                        self.next()
                        value = self.parse_number()
                    self.params.append((tok.text, value))
            elif t.text == "lagrangian":
                self.require_chart(t)
                if self.lagrangian is not None:
                    raise DslError("duplicate lagrangian declaration", t.line, t.col)
                self.lagrangian = self.parse_expr(False)
            elif t.text == "symmetry":
                self.require_chart(t)
                name = self.expect_ident("symmetry name")
                self.declare(name)
                self.expect_op(":")
                self.symmetries[name.text] = self.parse_vf()
            elif t.text == "scenario":
                name = self.expect_ident("scenario name")
                self.declare(name)
                self.scenarios[name.text] = self.parse_scenario(name.text)
            else:
                raise DslError(f"unknown declaration {t.text!r}", t.line, t.col)
        if not self.fields:
            raise DslError("at least one field required", t.line, t.col)
        if self.lagrangian is None:
            raise DslError("missing lagrangian declaration", t.line, t.col)
        return ModelFile(self.bases, self.fields, self.params, self.lagrangian, self.symmetries, self.scenarios,
                         self.chart)

    def parse_names(self, t: Token, names: list, duplicate: str, empty: str):
        """A coords or fields list; the jet chart once both are declared."""
        if names:
            raise DslError(duplicate, t.line, t.col)
        names.extend(tok.text for tok in self.declared_names())
        if not names:
            raise DslError(empty, t.line, t.col)
        if self.bases and self.fields:
            try:
                self.chart = jet_chart(self.bases, self.fields)
            except ChartError as exc:  # a derived name such as y_t, s_t or y_tt taken twice
                raise DslError(str(exc), t.line, t.col) from None
            self.derived = derived_names(self.bases, self.fields)
            for tok in self.param_toks:
                self.check_param(tok)

    def check_param(self, tok: Token):
        """Refuse a parameter that takes a derived name, such as ``y_t``, ``p_t``, ``y_tx``
        or ``A4``: ``render``, ``substitute`` and the text outputs take a symbol by name."""
        what = self.derived.get(tok.text)
        if what is not None:
            raise DslError(f"parameter {tok.text!r} is named like {what}", tok.line, tok.col)

    def require_chart(self, t: Token):
        if self.chart is None:
            message = "at least one field required" if self.bases else "coords must be declared first"
            raise DslError(message, t.line, t.col)

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
        if self.at_op("/"):
            self.next()
            den = self.next()
            if den.kind != "number":
                raise DslError("expected a denominator", den.line, den.col)
            d = _number_value(den)
            if d == 0:
                raise DslError("zero denominator", den.line, den.col)
            value /= d
        return value

    # -- expressions ---------------------------------------------------------
    # The descent reads self.toks[self.pos] itself: a peek or at_op call for
    # each token it looks at was a large share of a parse.
    def resolve(self, tok: Token, bracket: Optional[Token], init: bool) -> Expr:
        """A name in an expression: ``pi``, a parameter, and then a jet or
        action coordinate, or in ``init`` data a base coordinate after the first."""
        name = tok.text
        if name == "pi":
            return PI
        param = self.param_exprs.get(name)
        if init:
            if bracket is None:
                if name in self.bases[1:]:
                    return var(name, "base", self.bases.index(name))
                if param is not None:
                    return param
        elif param is not None:
            if bracket is not None:
                raise DslError(f"parameter {name!r} takes no index", bracket.line, bracket.col)
            return param
        elif bracket is None:
            if name in self.bases or name in self.fields:
                return self.chart.coord(name)
        else:
            mu = self.base_index(bracket)
            if name == "s":
                return self.chart.exprs[self.chart.action_axis(mu)]
            if name.startswith("d") and name[1:] in self.fields:
                return self.chart.exprs[self.chart.velocity_axis(self.fields.index(name[1:]), mu)]
            raise DslError(f"cannot index {name!r}", tok.line, tok.col)
        raise DslError(f"unresolved symbol {name!r}", tok.line, tok.col)

    def base_index(self, tok: Token) -> int:
        if tok.text not in self.bases:
            raise DslError(f"unknown base coordinate {tok.text!r}", tok.line, tok.col)
        return self.bases.index(tok.text)

    def parse_expr(self, init: bool) -> Expr:
        terms = [self.parse_term(init)]
        while (op := self.toks[self.pos]).kind == "op" and op.text in "+-":
            self.pos += 1
            rhs = self.parse_term(init)
            terms.append(rhs if op.text == "+" else mul(const(-1), rhs))
        return add(*terms) if len(terms) > 1 else terms[0]  # one sort of the whole sum, not one per summand

    def parse_term(self, init: bool, stop_at_direction: bool = False) -> Expr:
        e = self.parse_unary(init)
        while (op := self.toks[self.pos]).kind == "op" and op.text in "*/":
            if stop_at_direction and op.text == "*" and self._direction_ahead(1):
                break
            self.pos += 1
            rhs = self.parse_unary(init)
            if op.text == "/":
                # 1/rhs of one term expands each inverted sum in it to the power it was inverted by
                _bound_expansion(op, [(a.expr, -k) for a, k in rhs.terms[0][0] if isinstance(a, SumAtom)]
                                 if len(rhs.terms) == 1 else [])
                rhs = _power(rhs, -1, op)
            if len(e.terms) > 1 or len(rhs.terms) > 1:  # the running product, bounded as a power of a sum is
                _bound_expansion(op, [(e, 1), (rhs, 1)])
            e = mul(e, rhs)
        return e

    def parse_unary(self, init: bool) -> Expr:
        if (t := self.toks[self.pos]).kind == "op" and t.text == "-":
            self.pos += 1
            return mul(const(-1), self.parse_unary(init))
        return self.parse_power(init)

    def parse_power(self, init: bool) -> Expr:
        base = self.parse_atom(init)
        if (caret := self.toks[self.pos]).kind == "op" and caret.text == "^":
            self.pos += 1
            sign = 1
            if (t := self.toks[self.pos]).kind == "op" and t.text == "-":
                self.pos += 1
                sign = -1
            num = self.next()
            k = _number_value(num) if num.kind == "number" else None
            if type(k) is not int:
                raise DslError("exponent must be an integer literal", num.line, num.col)
            # a sum under a positive power is bounded by what it expands into; one term, or a sum under a
            # negative power (one inverted sum), keeps its lead coefficient c alone, and with b = max(|n|, den)
            # for c = n/den, c^k has about k*log10(b) >= k*log10(2) digits (a k past 4*MAX_DIGITS is refused
            # as an integer)
            if len(base.terms) > 1 and sign > 0:
                if _expanded_size([(base, k)]) > MAX_EXPANDED_DIGITS:
                    raise _too_long(caret, "expanded power of a sum", MAX_EXPANDED_DIGITS)
            elif (b := _coeff_bound(base.terms[:1])) > 1 and (
                    k > 4 * MAX_DIGITS or k * math.log10(b) > MAX_DIGITS + 1):
                raise _too_long(caret, "power")
            value = _power(base, sign * k, caret)
            q = value.terms[0][1] if len(value.terms) == 1 else 1
            if max(abs(q.numerator), q.denominator) >= _TOO_LONG:
                raise _too_long(caret, "power")
            return value
        return base

    def parse_atom(self, init: bool) -> Expr:
        t = self.toks[self.pos]
        self.pos += 1  # past eof only on the way to the error below
        if t.kind == "number":
            return const(_number_value(t))
        if t.kind == "op" and t.text == "(":
            e = self.parse_expr(init)
            self.expect_op(")")
            return e
        if t.kind == "ident":
            if t.text in FUNCTIONS and (t2 := self.toks[self.pos]).kind == "op" and t2.text == "(":
                self.pos += 1
                arg = self.parse_expr(init)
                self.expect_op(")")
                return FUNCTIONS[t.text](arg)
            bracket = None
            if (t2 := self.toks[self.pos]).kind == "op" and t2.text == "[":
                self.pos += 1
                bracket = self.expect_ident("index")
                self.expect_op("]")
            return self.resolve(t, bracket, init)
        raise DslError(f"expected an expression, found {t.text or 'end of file'!r}", t.line, t.col)

    # -- symmetry vector fields ------------------------------------------------
    def _direction_ahead(self, offset: int) -> bool:
        """Whether a direction starts ``offset`` tokens ahead: ``d /`` where
        ``d`` names nothing else, and otherwise ``d / d<base or field>`` or
        ``d / ds [``, so that ``d/2`` divides a coordinate or parameter ``d``."""
        toks, i = self.toks, self.pos + offset  # offset is 0, or 1 past a '*', so toks[i] exists
        d = toks[i]
        if d.kind != "ident" or d.text != "d" or (slash := toks[i + 1]).kind != "op" or slash.text != "/":
            return False
        if "d" not in self.param_exprs and "d" not in self.bases and "d" not in self.fields:
            return True
        name, after = toks[i + 2], toks[min(i + 3, len(toks) - 1)]  # only eof ends the list
        rest = name.text[1:] if name.kind == "ident" and name.text.startswith("d") else None
        bracket = (after.kind, after.text) == ("op", "[")  # dy[t] is a velocity, ds[t] the action
        return rest == "s" and bracket or not bracket and (rest in self.bases or rest in self.fields)

    def parse_direction(self) -> str:
        """The coordinate of a direction ``d/d<coord>``, whose ``d /`` the
        caller has seen with ``_direction_ahead``."""
        self.pos += 2
        t = self.expect_ident("direction")
        name = t.text
        if not name.startswith("d") or len(name) < 2:
            raise DslError(f"expected a direction d/d<coord>, found d/{name}", t.line, t.col)
        rest = name[1:]
        if rest == "s" and self.at_op("["):
            self.next()
            base = self.expect_ident("base index")
            self.expect_op("]")
            return self.chart.coords[self.chart.action_axis(self.base_index(base))].name
        if rest in self.bases or rest in self.fields:
            return rest
        raise DslError(
            f"unknown direction {name!r} (configuration directions only: fields, bases, s[<base>])",
            t.line,
            t.col,
        )

    def parse_vf(self) -> dict:
        comps: dict = {}
        sign = 1
        if (t := self.toks[self.pos]).kind == "op" and t.text == "-":
            self.pos += 1
            sign = -1
        while True:
            if self._direction_ahead(0):
                coeff = const(sign)
            else:
                coeff = mul(const(sign), self.parse_term(False, stop_at_direction=True))
                self.expect_op("*")
            coord = self.parse_direction()
            comps[coord] = add(comps[coord], coeff) if coord in comps else coeff
            if (t := self.toks[self.pos]).kind == "op" and t.text in "+-":
                self.pos += 1
                sign = 1 if t.text == "+" else -1
                continue
            break
        return {k: v for k, v in comps.items() if v.terms}

    # -- scenarios ----------------------------------------------------------------
    def parse_scenario(self, name: str) -> Scenario:
        items: dict = {}  # Scenario field -> value; a grid key once per scenario
        self.expect_op("{")
        while not self.at_op("}"):
            t = self.expect_ident("scenario item")
            if t.text == "bc":
                b = self.expect_ident("boundary condition")
                if b.text not in BC_NAMES:
                    raise DslError(f"unknown boundary condition {b.text!r}", b.line, b.col)
                items["bc"] = BC_NAMES[b.text]
            elif t.text == "grid":
                while self.peek().kind == "ident":
                    k = self.next()
                    if k.text not in GRID_KEYS:
                        raise DslError(f"unknown grid key {k.text!r}", k.line, k.col)
                    if GRID_KEYS[k.text] in items:
                        raise DslError(f"duplicate grid key {k.text!r}", k.line, k.col)
                    self.expect_op("=")
                    num = self.peek()
                    v = self.parse_number()
                    if k.text == "nx":
                        if v.denominator != 1:
                            raise DslError("nx must be an integer", num.line, num.col)
                        v = int(v)
                    items[GRID_KEYS[k.text]] = v
            elif t.text == "init":
                which = self.expect_ident("y0 or v0")
                if which.text not in ("y0", "v0"):
                    raise DslError("init expects y0 or v0", which.line, which.col)
                self.expect_op("=")
                items[which.text] = self.parse_expr(True)
            else:
                raise DslError(f"unknown scenario item {t.text!r}", t.line, t.col)
            self.expect_op(";")
        self.expect_op("}")
        return Scenario(name, **items)


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
    """Each coordinate's name as the DSL writes it: ``d<field>[<base>]``, ``s[<base>]`` or the name."""
    table = {}
    for c in model.chart.coords:
        if c.role == "velocity":
            table[c.name] = f"d{model.fields[c.field]}[{model.bases[c.base]}]"
        elif c.role == "action":
            table[c.name] = f"s[{model.bases[c.base]}]"
    return lambda name: table.get(name, name)


def _vf_text(comps: dict, model: ModelFile) -> str:
    nm = _dsl_name_map(model)
    return signed_sum_text([scaled_text(comps[n], f"d/d{nm(n)}", nm, "*") for n in sorted(comps, key=model.chart.axis)])


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
