"""Exterior calculus on a coordinate chart.

Differential forms are degree-k antisymmetric coefficient tables keyed by
strictly increasing axis multi-indices, with the permutation sign always
absorbed into the coefficient by one rule, ``_merge_parity``, wherever axes
are inserted into a multi-index (wedge, d, Lie derivative, a table's
contraction).  Multivector fields are either a decomposable wedge list of
vector fields or an expanded table of the factors' maximal minors
(``algebra.minors``).

Contraction convention: i_{X_1 ^ ... ^ X_m} alpha = i_{X_m} ... i_{X_1} alpha,
i.e. X_1 fills the first argument slot.  The Lie derivative along a vector
field uses the coordinate formula

    (L_X a)_I = X^j d_j a_I + sum_r a_I d_l X^{i_r},

where dx^l takes slot r of I, with sign (-1)^r times the merge sign of dx^l
into the rest of I; along a multivector it uses Cartan's graded formula
L_X = d i_X - (-1)^m i_X d.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import cache
from typing import Mapping, NamedTuple

from .algebra import minors
from .charts import Chart
from .expr import (
    Expr,
    ZeroCheck,
    add,
    const,
    diff,
    free_symbols,
    is_zero,
    mul,
    signed_sum_text,
    substitute,
    to_text,
    _coerce,
)

ZERO_E = const(0)
# (-1)^k by the parity of k: every permutation sign multiplies by one of these.
_SIGN = (const(1), const(-1))


class FormError(Exception):
    pass


def _merge_parity(left: tuple, right: tuple):
    """Parity and merged index for wedging two increasing multi-indices;
    None if they overlap.  The sign of the merge is -1 to the parity, the
    number of pairs i in left, j in right with i > j: the j below each i,
    found by bisection."""
    if set(left) & set(right):
        return None, ()
    return sum(bisect_left(right, i) for i in left) & 1, tuple(sorted(left + right))


@cache
def _check_index(dim: int, degree: int, idx: tuple) -> None:
    """Raise unless idx is a strictly increasing degree-length tuple of axes
    below dim; each valid index is checked once per process."""
    if len(idx) != degree or list(idx) != sorted(set(idx)):
        raise FormError(f"bad multi-index {idx} for degree {degree}")
    if any(not (0 <= i < dim) for i in idx):
        raise FormError(f"axis out of range in {idx}")


def _coefficients(chart: Chart, degree: int, table: Mapping[tuple, object]) -> dict:
    """The table with every index checked and zero coefficients dropped."""
    clean = {}
    for idx, c in table.items():
        idx = tuple(idx)
        _check_index(chart.dim, degree, idx)
        c = _coerce(c)
        if c.terms:
            clean[idx] = c
    return clean


def _summed(chart: Chart, degree: int, parts: Mapping[tuple, list]) -> dict:
    """A table in one pass over ``parts``: each index's list of terms summed
    in one add, the index checked, and a zero sum dropped."""
    table = {}
    for idx, terms in parts.items():
        _check_index(chart.dim, degree, idx)
        if (c := add(*terms)).terms:
            table[idx] = c
    return table


class _Table:
    """Arithmetic on a coefficient table over increasing multi-indices,
    shared by forms and multivector fields: a subclass reads its table
    through ``_coeffs`` and builds a result of its own kind through
    ``_like``, from a table of checked indices and nonzero coefficients."""

    __slots__ = ()

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.chart == self.chart
            and other.degree == self.degree
            and other._coeffs() == self._coeffs()
        )

    def __hash__(self):
        return hash((self.chart, self.degree, tuple(sorted(self._coeffs().items()))))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other.chart != self.chart or other.degree != self.degree:
            raise FormError(f"cannot add {type(self).__name__.lower()}s of different charts or degrees")
        parts: dict = {}
        for table in (self._coeffs(), other._coeffs()):
            for idx, c in table.items():
                parts.setdefault(idx, []).append(c)
        return self._like(_summed(self.chart, self.degree, parts))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        f = _coerce(f)
        return self._like({i: p for i, c in self._coeffs().items() if (p := mul(f, c)).terms})

    def is_structurally_zero(self) -> bool:
        return not self._coeffs()


class Form(_Table):
    """Differential k-form: mapping increasing multi-index -> coefficient."""

    __slots__ = ("chart", "degree", "table")

    def __init__(self, chart: Chart, degree: int, table: Mapping[tuple, Expr]):
        if degree < 0:
            raise FormError("negative form degree")
        self.chart = chart
        self.degree = degree
        self.table = _coefficients(chart, degree, table)

    @classmethod
    def _of(cls, chart: Chart, degree: int, table: dict) -> "Form":
        """The form over ``table``, whose indices are checked and whose
        coefficients are nonzero ``Expr``s, as ``_summed`` and ``scale``
        build it, so that nothing walks it again."""
        a = object.__new__(cls)
        a.chart, a.degree, a.table = chart, degree, table
        return a

    def _coeffs(self) -> dict:
        return self.table

    def _like(self, table) -> "Form":
        return Form._of(self.chart, self.degree, table)

    @classmethod
    def zero(cls, chart: Chart, degree: int = 0) -> "Form":
        return cls(chart, degree, {})

    @classmethod
    def function(cls, chart: Chart, f) -> "Form":
        return cls(chart, 0, {(): _coerce(f)})

    def items(self):
        return sorted(self.table.items(), key=lambda kv: kv[0])

    def coeff(self, *axes) -> Expr:
        return self.table.get(tuple(axes), ZERO_E)

    def __repr__(self):
        return f"Form({form_to_text(self)})"


def one_form(chart: Chart, name: str) -> Form:
    """The coordinate differential d<name>."""
    return Form(chart, 1, {(chart.axis(name),): const(1)})


def volume_form(chart: Chart) -> Form:
    """omega = dx^1 ^ ... ^ dx^m over the base axes."""
    axes = chart.base_axes
    if len(axes) != chart.base_dim:
        raise FormError("chart has no full set of base axes")
    return Form(chart, chart.base_dim, {tuple(axes): const(1)})


def wedge(a: Form, b: Form) -> Form:
    if a.chart != b.chart:
        raise FormError("wedge of forms on different charts")
    k = a.degree + b.degree
    if k > a.chart.dim:
        return Form.zero(a.chart, k)
    parts: dict = {}
    for ia, ca in a.table.items():
        for ib, cb in b.table.items():
            parity, merged = _merge_parity(ia, ib)
            if parity is not None:
                parts.setdefault(merged, []).append(mul(_SIGN[parity], ca, cb))
    return Form._of(a.chart, k, _summed(a.chart, k, parts))


def ext_d(a: Form) -> Form:
    """Coordinate exterior derivative."""
    chart = a.chart
    if a.degree >= chart.dim:
        return Form.zero(chart, a.degree + 1)
    parts: dict = {}
    for idx, c in a.table.items():
        for i, s in enumerate(chart.symbols):
            if s not in c.symbols:
                continue
            parity, merged = _merge_parity((i,), idx)
            if parity is not None and (dc := diff(c, s)).terms:
                parts.setdefault(merged, []).append(mul(_SIGN[parity], dc))
    return Form._of(chart, a.degree + 1, _summed(chart, a.degree + 1, parts))


# ---------------------------------------------------------------------------
# Multivector fields.


class Multivector(_Table):
    """Degree-m multivector field: a decomposable wedge list of vector
    fields, or an expanded antisymmetric table."""

    __slots__ = ("chart", "degree", "factors", "_table", "_jacobian")

    def __init__(self, chart: Chart, degree: int, factors=None, table=None):
        if degree < 1 or degree > chart.dim:
            raise FormError(f"multivector degree {degree} out of range")
        self.chart = chart
        self.degree = degree
        self._jacobian = None
        if factors is not None:
            factors = tuple({i: _coerce(c) for i, c in f.items()} for f in factors)
            for f in factors:
                for i in f:
                    _check_index(chart.dim, 1, (i,))
            factors = tuple({i: c for i, c in f.items() if c.terms} for f in factors)
            if len(factors) != degree:
                raise FormError("factor count does not match degree")
            self.factors = factors
            self._table = None
        elif table is not None:
            self.factors = None
            self._table = _coefficients(chart, degree, table)
            if degree == 1:
                # a degree-1 table is a vector field, hence decomposable
                self.factors = ({i[0]: c for i, c in self._table.items()},)
        else:
            raise FormError("need factors or table")

    @classmethod
    def vector(cls, chart: Chart, components: Mapping[str, object]) -> "Multivector":
        return cls(chart, 1, factors=[{chart.axis(n): _coerce(c) for n, c in components.items()}])

    @classmethod
    def wedge_of(cls, *vectors: "Multivector") -> "Multivector":
        factors = []
        chart = vectors[0].chart
        for v in vectors:
            if v.chart != chart:
                raise FormError("wedge of multivectors on different charts")
            if not v.decomposable:
                raise FormError("wedge_of needs decomposable inputs")
            factors.extend(v.factors)
        return cls(chart, len(factors), factors=list(factors))

    @property
    def decomposable(self) -> bool:
        return self.factors is not None

    def component(self, factor: int, name: str) -> Expr:
        if not self.decomposable:
            raise FormError("component access needs a decomposable multivector")
        return self.factors[factor].get(self.chart.axis(name), ZERO_E)

    def table(self) -> dict:
        if self._table is None:
            self._table = minors(self.factors)
        return self._table

    _coeffs = table

    def _like(self, table) -> "Multivector":
        return Multivector(self.chart, self.degree, table=table)

    def __repr__(self):
        return f"Multivector({multivector_to_text(self)})"


def _contract_vector(v: Mapping[int, Expr], a: Form) -> Form:
    if a.degree == 0:
        return Form.zero(a.chart, 0)
    parts: dict = {}
    for idx, c in a.table.items():
        for pos, axis in enumerate(idx):
            comp = v.get(axis)
            if comp is None or not comp.terms:
                continue
            parts.setdefault(idx[:pos] + idx[pos + 1 :], []).append(mul(_SIGN[pos & 1], comp, c))
    return Form._of(a.chart, a.degree - 1, _summed(a.chart, a.degree - 1, parts))


def contract(X: Multivector, a: Form) -> Form:
    """Interior product i_X a; zero when deg a < deg X."""
    if X.chart != a.chart:
        raise FormError("contraction across different charts")
    if a.degree < X.degree:
        return Form.zero(a.chart, 0)
    if X.decomposable:
        out = a
        for f in X.factors:  # X_1 fills the first slot
            out = _contract_vector(f, out)
        return out
    parts: dict = {}
    for I, cX in X.table().items():
        for J, cA in a.table.items():
            if not set(I) <= set(J):
                continue
            # dx^J = (-1)^parity dx^I ^ dx^rest
            rest = tuple(j for j in J if j not in I)
            parity, _ = _merge_parity(I, rest)
            parts.setdefault(rest, []).append(mul(_SIGN[parity], cX, cA))
    return Form._of(a.chart, a.degree - X.degree, _summed(a.chart, a.degree - X.degree, parts))


def _lie_vector(X: Multivector, a: Form) -> Form:
    """L_X a for a vector field by the coordinate formula; only nonzero
    X^j and nonzero d_l X^i are visited, and a coefficient is
    differentiated only by the symbols it holds.  X keeps its Jacobian
    {i: {l: d_l X^i}}, so that it is built once per field."""
    symbols, v = a.chart.symbols, X.factors[0]
    if X._jacobian is None:
        rows = {i: {l: diff(comp, s) for l, s in enumerate(symbols) if s in comp.symbols} for i, comp in v.items()}
        X._jacobian = {i: r for i, row in rows.items() if (r := {l: d for l, d in row.items() if d.terms})}
    jacobian = X._jacobian
    parts: dict = {}
    for idx, c in a.table.items():
        for j, xj in v.items():
            if symbols[j] in c.symbols and (dc := diff(c, symbols[j])).terms:
                parts.setdefault(idx, []).append(mul(xj, dc))
        for r, i in enumerate(idx):
            row = jacobian.get(i)
            if row is None:
                continue
            rest = idx[:r] + idx[r + 1 :]
            for l, dxi in row.items():
                parity, merged = _merge_parity((l,), rest)
                if parity is not None:  # (-1)^r times the merge sign
                    parts.setdefault(merged, []).append(mul(_SIGN[(parity ^ r) & 1], c, dxi))
    return Form._of(a.chart, a.degree, _summed(a.chart, a.degree, parts))


def lie_derivative(X: Multivector, a: Form) -> Form:
    """Lie derivative L_X a: the coordinate formula for a vector field,
    Cartan's graded L_X a = d i_X a - (-1)^m i_X d a for a multivector."""
    if X.chart != a.chart:
        raise FormError("Lie derivative across different charts")
    if X.degree == 1:
        return _lie_vector(X, a)
    left = ext_d(contract(X, a))
    right = contract(X, ext_d(a)).scale(_SIGN[(X.degree + 1) & 1])
    # degrees: both are a.degree - m + 1 when defined; guard the edge where
    # contraction collapsed to a zero 0-form of mismatched degree
    if left.is_structurally_zero() and left.degree != right.degree:
        left = Form.zero(X.chart, right.degree)
    if right.is_structurally_zero() and right.degree != left.degree:
        right = Form.zero(X.chart, left.degree)
    return left + right


def lie_bracket(X: Multivector, Y: Multivector) -> Multivector:
    """Lie bracket of two vector fields."""
    if X.degree != 1 or Y.degree != 1:
        raise FormError("lie_bracket needs vector fields")
    chart = X.chart
    xf, yf = X.factors[0], Y.factors[0]
    out: dict = {}
    for k in range(chart.dim):
        parts = []
        for i, xi in xf.items():
            yk = yf.get(k)
            if yk is not None:
                parts.append(mul(xi, diff(yk, chart.symbols[i])))
        for i, yi in yf.items():
            xk = xf.get(k)
            if xk is not None:
                parts.append(mul(const(-1), yi, diff(xk, chart.symbols[i])))
        c = add(*parts) if parts else ZERO_E
        if c.terms:
            out[k] = c
    return Multivector(chart, 1, factors=[out])


def schouten(X: Multivector, Y: Multivector) -> Multivector:
    """Schouten-Nijenhuis bracket via the decomposable formula, extended
    bilinearly.  Inputs must be decomposable."""
    if X.chart != Y.chart:
        raise FormError("bracket across different charts")
    if not X.decomposable or not Y.decomposable:
        raise FormError("schouten bracket needs decomposable multivector fields")
    chart = X.chart
    m, n = X.degree, Y.degree
    deg = m + n - 1
    parts: dict = {}
    for i in range(m):
        Xi = Multivector(chart, 1, factors=[X.factors[i]])
        for j in range(n):
            Yj = Multivector(chart, 1, factors=[Y.factors[j]])
            b = lie_bracket(Xi, Yj)
            if b.is_structurally_zero():
                continue
            rest = (
                [b.factors[0]]
                + [X.factors[r] for r in range(m) if r != i]
                + [Y.factors[r] for r in range(n) if r != j]
            )
            sign = _SIGN[(i + j) & 1]
            for idx, c in minors(rest).items():
                parts.setdefault(idx, []).append(mul(sign, c))
    return Multivector(chart, deg, table=_summed(chart, deg, parts))


def bar_d(a: Form, sigma: Form) -> Form:
    """The sigma-twisted derivative: d a + sigma ^ a."""
    if sigma.degree != 1:
        raise FormError("dissipation form must have degree 1")
    return ext_d(a) + wedge(sigma, a)


# ---------------------------------------------------------------------------
# Pullback.


def pullback_along(mapping: Mapping[str, object], a: Form, source: Chart) -> Form:
    """Pull back a form along a smooth map source -> a.chart given by
    closed-form target-coordinate expressions over the source chart."""
    target = a.chart
    comp = {}
    for i, c in enumerate(target.coords):
        if c.name not in mapping:
            raise FormError(f"map misses target coordinate {c.name}")
        comp[i] = _coerce(mapping[c.name])
    allowed = {s.name for s in source.symbols}
    for i, e in comp.items():
        for s in free_symbols(e):
            if s.name not in allowed and s.role != "param":
                raise FormError(f"map component for {target.coords[i].name} uses foreign symbol {s.name}")
    subs = {target.symbols[i]: e for i, e in comp.items()}
    diffs = {
        i: Form(source, 1, {(j,): d for j, d in ((j, diff(e, source.symbols[j])) for j in range(source.dim)) if d.terms})
        for i, e in comp.items()
    }
    out = Form.zero(source, a.degree)
    for idx, c in a.table.items():
        term = Form.function(source, substitute(c, subs))
        for i in idx:
            term = wedge(term, diffs[i])
        out = out + term
    return out


# ---------------------------------------------------------------------------
# Zero checks and rendering.


class CheckResult(NamedTuple):
    """A form's zero test: holds unless some coefficient is nonzero;
    certainty is the worst coefficient verdict; witnesses are the nonzero
    coefficients as (coordinate-name tuple, Expr) pairs."""

    holds: bool
    certainty: ZeroCheck
    witnesses: list

    def __bool__(self):
        return self.holds


def form_zero_check(a: Form, seed: int = 0, tol: float = 1e-9) -> CheckResult:
    """Test every coefficient of a once with is_zero."""
    witnesses = []
    probed = False
    for idx, c in a.items():
        z = is_zero(c, seed=seed, tol=tol)
        if z is ZeroCheck.NONZERO:
            witnesses.append((tuple(a.chart.coords[i].name for i in idx), c))
        elif z is ZeroCheck.PROBABLY_ZERO:
            probed = True
    if witnesses:
        return CheckResult(False, ZeroCheck.NONZERO, witnesses)
    return CheckResult(True, ZeroCheck.PROBABLY_ZERO if probed else ZeroCheck.ZERO, [])


def scaled_text(c: Expr, unit: str, name_map=None, sep: str = " ") -> str:
    """``unit`` times the coefficient ``c``: the unit alone for 1, -unit
    for -1, and otherwise c, parenthesized if it is a sum, then ``sep``
    and the unit."""
    s = to_text(c, name_map)
    if s == "1":
        return unit
    if s == "-1":
        return f"-{unit}"
    return f"({s}){sep}{unit}" if len(c.terms) > 1 else f"{s}{sep}{unit}"


def form_to_text(a: Form) -> str:
    if a.degree == 0:
        return to_text(a.coeff())
    return signed_sum_text([scaled_text(c, "^".join(f"d{a.chart.coords[i].name}" for i in idx))
                            for idx, c in a.items()])


def form_to_json(a: Form) -> dict:
    terms = [{"index": [a.chart.coords[i].name for i in idx], "coeff": to_text(c)} for idx, c in a.items()]
    return {"degree": a.degree, "terms": terms}


def vector_to_text(v: Mapping[int, Expr], chart: Chart) -> str:
    return signed_sum_text([scaled_text(v[i], f"d/d{chart.coords[i].name}") for i in sorted(v) if v[i].terms])


def multivector_to_text(X: Multivector) -> str:
    if X.decomposable:
        if X.degree == 1:
            return vector_to_text(X.factors[0], X.chart)
        return " ^ ".join(f"({vector_to_text(f, X.chart)})" for f in X.factors)
    return signed_sum_text([f"({to_text(c)}) " + "^".join(f"d/d{X.chart.coords[i].name}" for i in idx)
                            for idx, c in sorted(X.table().items())])
