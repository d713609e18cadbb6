"""Exact symbolic scalar kernel.

Expressions are held in a canonical expanded normal form at all times: a
sum of monomials with rational coefficients, each monomial a product of
integer powers of *atoms*.  An atom is a symbol, an elementary function
application (sin/cos/exp) with a canonical argument, or an inverted
multi-term sum (sums are only ever atomized with negative exponents;
positive powers of sums are always expanded).

Consequences baked into this representation:

* structural equality of canonical forms decides equality for
  polynomial expressions and for rational expressions whose
  denominators are monomials;
* ``is_zero`` proves ``NONZERO`` by one evaluation modulo the prime
  2^61 - 1, each symbol at a residue derived from its name (Schwartz,
  J. ACM 27 (1980); Zippel, EUROSAM 1979); where that value is 0 or
  undefined it clears every denominator, inverted sums included, and
  reads a cleared form with no terms as ``ZERO``; it falls back to
  randomized numeric probing only when sin/cos/exp atoms are left after
  clearing, reporting ``PROBABLY_ZERO`` instead of a proven ``ZERO``.

There is deliberately no simplification beyond canonicalization: no
factoring, no trigonometric rewriting.

Products and sums hand back what they need not rebuild: a nonzero
rational factor only rescales coefficients (the monomials, and so their
order, are unchanged), a factor of 1 or a lone nonzero operand of
``add``/``mul`` is returned as is, and only two non-constant factors are
multiplied term by term: two monomials of at most one factor each give
the other side, an exponent sum or two atoms in key order, longer ones
are merged and sorted, and fewer than two terms are left unsorted.
``canon`` rebuilds an expression without these shortcuts and is the
reference the property tests hold them to.

Atoms are immutable and shared by reference between expressions, so
each computes once what cannot change: its derivative by each symbol on
first request, and its plain rendering (no ``name_map``) on first
request.  ``Expr.key`` and ``Expr.symbols`` are built on first use,
since most intermediate results are never compared, hashed, atomized or
differentiated.

What repeats across expressions is interned or memoized (hash-consing:
Filliâtre & Conchon, ML Workshop 2006).  Every atom is interned: a
``Symbol`` is one object per (name, role, order), kept in a process-wide
registry for good, and a ``FuncAtom`` or ``SumAtom`` is one object per
key while it is alive, in a registry that holds it weakly, so memory
stays bounded by the live atoms.  Equal atoms are therefore the same
object, and atoms compare and hash by identity, at C speed.  Two tables
remember the sort key of each monomial (``_mono_key``) and the merged,
sorted product of each pair of multi-factor monomials (``_product``).
Each table is cleared when it holds ``_TABLE_BOUND`` (2^14) entries,
which bounds its memory on any input.

A coefficient is an ``int`` when integral and a ``Fraction`` otherwise,
never a float; ``as_rational()`` always returns a ``Fraction``.  The hot
loops of ``add``, ``mul`` and ``diff`` combine coefficients through
``_qmul`` and ``_qadd``: two ints multiply or add natively, and
otherwise gcd cancellation gives the reduced result, built as an int or
directly through the two slots of ``Fraction``.  ``canon`` keeps the
stdlib's ``Fraction`` arithmetic, so it stays an independent reference.
"""
from __future__ import annotations

import hashlib
import math
import random
import weakref
from fractions import Fraction
from enum import Enum
from math import gcd
from typing import Callable, Mapping, Union

__all__ = [
    "ExprError",
    "EvalError",
    "Symbol",
    "Expr",
    "ZeroCheck",
    "var",
    "sym",
    "const",
    "add",
    "mul",
    "pow_",
    "sin",
    "cos",
    "exp",
    "diff",
    "diff_held",
    "substitute",
    "evaluate",
    "canon",
    "is_zero",
    "free_symbols",
    "div_exact",
    "clear_denominators",
    "to_text",
]


class ExprError(Exception):
    pass


class EvalError(ExprError):
    pass


# Role ranks give the canonical symbol ordering: parameters print first
# in monomials, then coordinates in chart order, then derived symbols.
ROLE_RANK = {
    "param": 0,
    "base": 1,
    "field": 2,
    "velocity": 3,
    "momentum": 4,
    "action": 5,
    "aux": 6,
    "generic": 7,
}


_SYMBOLS: dict = {}  # (name, role, order) -> its one Symbol
_ATOMS = weakref.WeakValueDictionary()  # key -> its one live FuncAtom or SumAtom


class Symbol:
    """A named scalar symbol, one object per (name, role, order).

    Identity is the full (name, role, order) tuple; ``role`` and
    ``order`` determine the canonical sort position.  ``Symbol(...)``
    returns the registered object for its tuple, and copies and pickles
    come back as it, so equal symbols are the same object and ``==`` and
    ``hash`` are those of the object.  The registry keeps every symbol
    made, one per distinct name, role and order.  Substitution and
    numeric bindings match symbols by name.
    """

    __slots__ = ("name", "role", "order", "key", "_residue")

    def __new__(cls, name: str, role: str = "generic", order: int = 0):
        self = _SYMBOLS.get((name, role, order))
        if self is not None:
            return self
        if role not in ROLE_RANK:
            raise ExprError(f"unknown symbol role {role!r}")
        if not name:
            raise ExprError("empty symbol name")
        self = object.__new__(cls)
        self.name = name
        self.role = role
        self.order = order
        self.key = (0, ROLE_RANK[role], order, name)
        self._residue = None
        _SYMBOLS[name, role, order] = self
        return self

    def __reduce__(self):
        return Symbol, (self.name, self.role, self.order)

    def __repr__(self):
        return f"Symbol({self.name!r})"


class FuncAtom:
    """Elementary function application, opaque to canonicalization; one
    live object per (fn, argument), like ``Symbol``."""

    __slots__ = ("fn", "arg", "key", "_diff", "_text", "__weakref__")

    def __new__(cls, fn: str, arg: "Expr"):
        key = (1, fn, arg.key)
        self = _ATOMS.get(key)
        if self is None:
            self = object.__new__(cls)
            self.fn = fn
            self.arg = arg
            self.key = key
            self._diff = None
            self._text = None
            _ATOMS[key] = self
        return self

    def __reduce__(self):
        return FuncAtom, (self.fn, self.arg)

    def __repr__(self):
        return f"{self.fn}({self.arg!r})"


class SumAtom:
    """A multi-term sum held atomically; only stored with negative exponents.

    The inner expression is normalized to leading coefficient 1 so that
    rescaled denominators canonicalize identically.  One live object per
    inner sum, like ``Symbol``.
    """

    __slots__ = ("expr", "key", "_diff", "_text", "_residue", "__weakref__")

    def __new__(cls, expr: "Expr"):
        key = (2, expr.key)
        self = _ATOMS.get(key)
        if self is None:
            self = object.__new__(cls)
            self.expr = expr
            self.key = key
            self._diff = None
            self._text = None
            self._residue = None
            _ATOMS[key] = self
        return self

    def __reduce__(self):
        return SumAtom, (self.expr,)

    def __repr__(self):
        return f"({self.expr!r})"


Atom = Union[Symbol, FuncAtom, SumAtom]
# A monomial is a tuple of (atom, exponent) pairs sorted by atom key,
# exponents nonzero, SumAtom exponents strictly negative.
Monomial = tuple


class Expr:
    """Immutable canonical expression: tuple of (monomial, coefficient)."""

    __slots__ = ("terms", "_key", "_hash", "_symbols")

    def __init__(self, terms):
        self.terms = terms
        self._key = None
        self._hash = None
        self._symbols = None

    @property
    def key(self) -> tuple:
        """Nested structural tuple, built on first use."""
        if self._key is None:
            self._key = tuple(
                (tuple((a.key, k) for a, k in m), (c.numerator, c.denominator)) for m, c in self.terms
            )
        return self._key

    @property
    def symbols(self) -> frozenset:
        """The symbols in ``self``, inside function arguments and inverted
        sums too, built on first use; ``diff`` by any other one is zero."""
        if self._symbols is None:
            out = set()
            for mono, _ in self.terms:
                for a, _k in mono:
                    if isinstance(a, Symbol):
                        out.add(a)
                    else:
                        out |= (a.arg if isinstance(a, FuncAtom) else a.expr).symbols
            self._symbols = frozenset(out)
        return self._symbols

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key)
        return self._hash

    def __reduce__(self):
        # the caches stay behind: ``_hash`` depends on the process's str hash seed
        return Expr, (self.terms,)

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, (int, Fraction)):
            other = const(other)
        return isinstance(other, Expr) and self.key == other.key

    # -- python operator sugar -------------------------------------------
    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __neg__(self):
        return mul(const(-1), self)

    def __sub__(self, other):
        return add(self, -_coerce(other))

    def __rsub__(self, other):
        return add(_coerce(other), -self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, pow_(_coerce(other), -1))

    def __rtruediv__(self, other):
        return mul(_coerce(other), pow_(self, -1))

    def __pow__(self, k):
        return pow_(self, k)

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"Expr({to_text(self)})"

    @property
    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == ())

    def as_rational(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_rational:
            return Fraction(self.terms[0][1])
        raise ExprError(f"not a constant: {self}")

    @property
    def single_symbol(self) -> Symbol:
        """The symbol of a bare-symbol expression (errors otherwise)."""
        if len(self.terms) == 1:
            mono, c = self.terms[0]
            if c == 1 and len(mono) == 1 and mono[0][1] == 1 and isinstance(mono[0][0], Symbol):
                return mono[0][0]
        raise ExprError(f"not a bare symbol: {self}")


ZERO = Expr(())
ONE = Expr((((), 1),))


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return const(x)
    if isinstance(x, Symbol):
        return Expr((((((x, 1),)), 1),))
    raise ExprError(f"cannot coerce {x!r} to Expr")


def _norm(c):
    """A rational coefficient as an int when integral, else as a Fraction."""
    return c.numerator if c.denominator == 1 else c


def _ratio(n: int, d: int):
    """``n/d`` in lowest terms with ``d > 0``: an int when ``d == 1``, else
    a Fraction built through its slots, as 3.12's ``_from_coprime_ints``
    does, without ``Fraction.__new__``'s normalization."""
    if d == 1:
        return n
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _qmul(a, b):
    """``a*b`` for ints and Fractions, normalized like ``_norm``; two ints
    multiply natively, else cross-cancellation keeps the result reduced."""
    if type(a) is int and type(b) is int:
        return a * b
    an, ad = (a, 1) if type(a) is int else (a._numerator, a._denominator)
    bn, bd = (b, 1) if type(b) is int else (b._numerator, b._denominator)
    g1, g2 = gcd(an, bd), gcd(bn, ad)
    return _ratio((an // g1) * (bn // g2), (ad // g2) * (bd // g1))


def _qadd(a, b):
    """``a+b`` for ints and Fractions, normalized like ``_norm``; two ints
    add natively, else only the common factor of the denominators is
    cancelled (Knuth, TAOCP 4.5.1), as ``Fraction`` does."""
    if type(a) is int and type(b) is int:
        return a + b
    an, ad = (a, 1) if type(a) is int else (a._numerator, a._denominator)
    bn, bd = (b, 1) if type(b) is int else (b._numerator, b._denominator)
    g = gcd(ad, bd)
    if g == 1:
        return _ratio(an * bd + bn * ad, ad * bd)
    s = ad // g
    t = an * (bd // g) + bn * s
    g2 = gcd(t, g)
    return _ratio(t // g2, s * (bd // g2))


def const(c) -> Expr:
    if type(c) is not int:
        c = _norm(Fraction(c))
    if c == 0:
        return ZERO
    return Expr((((), c),))


def var(name: str, role: str = "generic", order: int = 0) -> Expr:
    return _coerce(Symbol(name, role, order))


def sym(name: str, role: str = "generic", order: int = 0) -> Symbol:
    return Symbol(name, role, order)


def _from_dict(d: dict) -> Expr:
    # No coefficient in ``d`` is zero: a monomial enters with the nonzero
    # coefficient it has, and one whose sum cancels is deleted (``_accumulate``).
    if len(d) < 2:
        return Expr(tuple(d.items()))
    return Expr(tuple(sorted(d.items(), key=lambda mc: _mono_key(mc[0]))))


_TABLE_BOUND = 1 << 14  # entries a memo table holds before it is cleared
_KEYS: dict = {}  # monomial -> its sort key
_PRODUCTS: dict = {}  # (m1, m2) -> the merged, sorted monomial m1*m2


def _remember(table: dict, key, value):
    """Store ``value`` under ``key`` in a memo table, first clearing a full one."""
    if len(table) >= _TABLE_BOUND:
        table.clear()
    table[key] = value
    return value


def _mono_key(mono: Monomial):
    key = _KEYS.get(mono)
    return key if key is not None else _remember(_KEYS, mono, tuple((a.key, k) for a, k in mono))


def _accumulate(acc: dict, mono: Monomial, c) -> None:
    """Add the nonzero term ``c*mono`` into ``acc``, dropping it if it cancels."""
    old = acc.get(mono)
    if old is None:
        acc[mono] = c
    else:
        c = _qadd(c, old)
        if c:
            acc[mono] = c
        else:
            del acc[mono]


def add(*exprs) -> Expr:
    live = [e for e in (x if type(x) is Expr else _coerce(x) for x in exprs) if e.terms]
    if len(live) < 2:
        return live[0] if live else ZERO
    acc = dict(live[0].terms)
    for e in live[1:]:
        for mono, c in e.terms:
            _accumulate(acc, mono, c)
    return _from_dict(acc)


def _merge_factors(m1: Monomial, m2: Monomial) -> dict:
    f: dict = {}
    for a, k in m1:
        f[a] = f.get(a, 0) + k
    for a, k in m2:
        f[a] = f.get(a, 0) + k
    return f


def _expr_from_factors(coeff, factors: dict) -> Expr:
    """Build a canonical Expr from a factor multiset, expanding any
    positive powers of sum atoms."""
    plain = []
    expand = []
    for a, k in factors.items():
        if k == 0:
            continue
        if isinstance(a, SumAtom) and k > 0:
            expand.append((a, k))
        else:
            plain.append((a, k))
    plain.sort(key=lambda ak: ak[0].key)
    out = Expr(((tuple(plain), coeff),)) if coeff else ZERO
    for a, k in expand:
        out = mul(out, pow_(a.expr, k))
    return out


def _scale(e: Expr, c) -> Expr:
    """``c*e`` for a nonzero rational ``c``; the monomials, and so their
    canonical order, are those of ``e``."""
    if c == 1:
        return e
    return Expr(tuple((m, _qmul(ec, c)) for m, ec in e.terms))


def _rational(e: Expr):
    """The value of a nonzero constant expression, else None."""
    if len(e.terms) == 1 and not e.terms[0][0]:
        return e.terms[0][1]
    return None


def _product(a: Expr, b: Expr) -> Expr:
    """Term-by-term product of two nonzero expressions."""
    # Canonical sum-atom exponents are negative, so a product of two
    # monomials never raises a sum atom to a positive power.
    acc: dict = {}
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            if not m1 or not m2:
                mono = m1 or m2
            elif len(m1) == 1 and len(m2) == 1:
                (a1, k1), (a2, k2) = m1[0], m2[0]
                if a1 == a2:
                    mono = ((a1, k1 + k2),) if k1 + k2 else ()
                else:
                    mono = m1 + m2 if a1.key < a2.key else m2 + m1
            else:
                mono = _PRODUCTS.get((m1, m2))
                if mono is None:
                    factors = _merge_factors(m1, m2)
                    merged = sorted(((f, k) for f, k in factors.items() if k), key=lambda fk: fk[0].key)
                    mono = _remember(_PRODUCTS, (m1, m2), tuple(merged))
            _accumulate(acc, mono, _qmul(c1, c2))
    return _from_dict(acc)


def mul(*exprs) -> Expr:
    if not exprs:
        return ONE
    out = exprs[0] if type(exprs[0]) is Expr else _coerce(exprs[0])
    for e in exprs[1:]:
        if type(e) is not Expr:
            e = _coerce(e)
        if not out.terms or not e.terms:
            return ZERO
        c = _rational(e)
        if c == 1:
            continue
        d = _rational(out)
        if d is not None:
            out = _scale(e, d)
        elif c is not None:
            out = _scale(out, c)
        else:
            out = _product(out, e)
    return out


def _sum_atom_pow(e: Expr, k: int) -> Expr:
    """Atomize a multi-term sum with a negative exponent, extracting the
    leading coefficient so that scaled sums share one atom."""
    lead = e.terms[0][1]
    atom = SumAtom(_scale(e, _norm(Fraction(1, lead))))
    return Expr(((((atom, k),), _norm(Fraction(lead) ** k)),))


def pow_(e, k: int) -> Expr:
    e = _coerce(e)
    if not isinstance(k, int):
        raise ExprError("only integer exponents are supported")
    if k == 0:
        return ONE
    if not e.terms:
        if k < 0:
            raise ExprError("division by zero expression")
        return ZERO
    if len(e.terms) == 1:
        mono, c = e.terms[0]
        factors = {a: kk * k for a, kk in mono}
        return _expr_from_factors(c**k if k > 0 else _norm(Fraction(c) ** k), factors)
    if k > 0:
        out = ONE
        base = e
        n = k
        while n:
            if n & 1:
                out = mul(out, base)
            n >>= 1
            if n:
                base = mul(base, base)
        return out
    return _sum_atom_pow(e, k)


def _func(fn: str, arg) -> Expr:
    arg = _coerce(arg)
    return Expr(((((FuncAtom(fn, arg), 1),), 1),))


def sin(arg) -> Expr:
    return _func("sin", arg)


def cos(arg) -> Expr:
    return _func("cos", arg)


def exp(arg) -> Expr:
    return _func("exp", arg)


_FUNC_EVAL: dict = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
_FUNC_DIFF: dict = {
    "sin": lambda u: cos(u),
    "cos": lambda u: -sin(u),
    "exp": lambda u: exp(u),
}


def _atom_diff(atom: Union[FuncAtom, SumAtom], s: Symbol) -> Expr:
    memo = atom._diff
    if memo is None:
        memo = atom._diff = {}
    else:
        hit = memo.get(s)
        if hit is not None:
            return hit
    if isinstance(atom, FuncAtom):
        inner = diff(atom.arg, s)
        out = mul(_FUNC_DIFF[atom.fn](atom.arg), inner) if inner.terms else ZERO
    else:
        out = diff(atom.expr, s)
    memo[s] = out
    return out


def diff(e, v) -> Expr:
    """Exact partial derivative; symbols other than ``v`` are independent."""
    e = _coerce(e)
    s = v if isinstance(v, Symbol) else _coerce(v).single_symbol
    parts = []
    for mono, c in e.terms:
        for i, (a, k) in enumerate(mono):
            if isinstance(a, Symbol):
                if a != s:
                    continue
                da = ONE
            else:
                da = _atom_diff(a, s)
                if not da.terms:
                    continue
            # lowering one exponent in place keeps the monomial sorted; a sum
            # atom's exponent is negative, so it is never raised to expand
            rest = mono[:i] + ((a, k - 1),) + mono[i + 1 :] if k != 1 else mono[:i] + mono[i + 1 :]
            parts.append(mul(Expr(((rest, _qmul(c, k)),)), da))
    return add(*parts) if parts else ZERO


def diff_held(e, s) -> Expr:
    """de/ds, differentiating only when ``e`` is present and holds ``s``."""
    return diff(e, s) if e is not None and s in e.symbols else ZERO


def _holds_name(atom: Atom, m: dict) -> bool:
    """Whether ``atom`` is, or holds, a symbol named in ``m``."""
    if isinstance(atom, Symbol):
        return atom.name in m
    return any(s.name in m for s in (atom.arg if isinstance(atom, FuncAtom) else atom.expr).symbols)


def _atom_subst(atom: Atom, m: dict) -> Expr:
    if isinstance(atom, Symbol):
        hit = m.get(atom.name)
        return hit if hit is not None else _coerce(atom)
    if isinstance(atom, FuncAtom):
        return _func(atom.fn, substitute(atom.arg, m, _normalized=True))
    return substitute(atom.expr, m, _normalized=True)


def substitute(e, mapping: Mapping, _normalized: bool = False) -> Expr:
    """Simultaneous substitution symbol -> Expr, then canonicalization."""
    e = _coerce(e)
    if not _normalized:
        m = {}
        for k, v in mapping.items():
            name = k.name if isinstance(k, Symbol) else _coerce(k).single_symbol.name
            m[name] = _coerce(v)
    else:
        m = mapping  # already name -> Expr
    if not m:
        return e
    # a term with no mapped atom passes through; in the others the unmapped
    # atoms keep their places and only the mapped ones are multiplied in
    kept, parts = [], []
    for mono, c in e.terms:
        rest, hits = [], []
        for ak in mono:
            (hits if _holds_name(ak[0], m) else rest).append(ak)
        if not hits:
            kept.append((mono, c))
            continue
        acc = Expr(((tuple(rest), c),))
        for a, k in hits:
            acc = mul(acc, pow_(_atom_subst(a, m), k))
            if not acc.terms:
                break
        parts.append(acc)
    return add(Expr(tuple(kept)), *parts) if parts else e


class _Resample(Exception):
    pass


def _atom_eval(atom: Atom, b: Mapping[str, float], guard: float) -> float:
    if isinstance(atom, Symbol):
        try:
            return float(b[atom.name])
        except KeyError:
            raise EvalError(f"unbound symbol {atom.name!r}") from None
    if isinstance(atom, FuncAtom):
        return _FUNC_EVAL[atom.fn](evaluate(atom.arg, b, _guard=guard))
    return evaluate(atom.expr, b, _guard=guard)


def evaluate(e, bindings: Mapping[str, float], _guard: float = 0.0) -> float:
    """IEEE double evaluation; every free symbol must be bound."""
    e = _coerce(e)
    total = 0.0
    for mono, c in e.terms:
        try:
            v = float(c)
        except OverflowError:  # at every point alike: not resampled
            raise EvalError("a value is too large for a float") from None
        for a, k in mono:
            base = _atom_eval(a, bindings, _guard)
            if k < 0 and abs(base) <= _guard:
                raise _Resample() if _guard else EvalError(f"domain error: zero base raised to {k}")
            v *= base ** k
        total += v
    if math.isinf(total) or math.isnan(total):
        raise _Resample() if _guard else EvalError("non-finite value in evaluation")
    return total


def _canon_atom(a: Atom) -> Atom:
    if isinstance(a, Symbol):
        return a
    if isinstance(a, FuncAtom):
        return FuncAtom(a.fn, canon(a.arg))
    return SumAtom(canon(a.expr))


def canon(e) -> Expr:
    """Rebuild ``e`` from its terms: atoms rebuilt recursively (an equal
    atom comes back as the registered object), each monomial's factors
    merged and re-sorted, coefficients re-summed with the stdlib's
    arithmetic and the terms fully sorted.  It shares no shortcut with
    ``add``/``mul``, nor their coefficient helpers, so
    ``canon(e).terms == e.terms`` checks that ``e`` is canonical."""
    acc: dict = {}
    for mono, c in _coerce(e).terms:
        factors: dict = {}
        for a, k in mono:
            a = _canon_atom(a)
            factors[a] = factors.get(a, 0) + k
        m = tuple(sorted(((a, k) for a, k in factors.items() if k), key=lambda ak: ak[0].key))
        acc[m] = acc.get(m, 0) + c
    # sort keys built afresh, not read from ``_mono_key``'s table
    terms = sorted(((m, _norm(c)) for m, c in acc.items() if c), key=lambda mc: tuple((a.key, k) for a, k in mc[0]))
    return Expr(tuple(terms))


def free_symbols(e) -> set:
    return set(_coerce(e).symbols)


class ZeroCheck(Enum):
    ZERO = "zero"
    PROBABLY_ZERO = "probably-zero"
    NONZERO = "nonzero"

    def __bool__(self):
        return self is not ZeroCheck.NONZERO


PROBE_SAMPLES = 16  # points a function-bearing expression must vanish at
_P = (1 << 61) - 1  # the Mersenne prime that is_zero's certificate computes modulo


def _image(e: Expr) -> tuple:
    """``e`` mod _P as (n, d) = n/d, each symbol at a fixed residue derived
    from its name (cached on it, as an inverted sum's image is); (0, 0) where
    that is undefined: a function atom, a denominator or inverted sum 0 mod _P."""
    n, d = 0, 1
    for mono, c in e.terms:
        tn, td = (c, 1) if type(c) is int else (c.numerator, c.denominator)
        for a, k in mono:
            if type(a) is FuncAtom:
                return 0, 0
            if a._residue is None:
                if type(a) is SumAtom:
                    a._residue = _image(a.expr)
                else:
                    a._residue = int.from_bytes(hashlib.blake2b(a.name.encode(), digest_size=8).digest(), "big") % _P, 1
            an, ad = a._residue
            if k < 0:
                an, ad, k = ad, an, -k
            tn, td = tn * pow(an, k, _P) % _P, td * pow(ad, k, _P) % _P
        n, d = (n * td + tn * d) % _P, d * td % _P
    return (n, d) if d else (0, 0)


def is_zero(e, seed: int = 0, tol: float = 1e-9) -> ZeroCheck:
    """Trichotomous zero test.

    An expression whose value mod _P (``_image``) is defined and nonzero
    is ``NONZERO``: evaluation mod _P is a ring homomorphism where the
    denominators are units, so it maps the zero function to 0.  Otherwise
    it is zero exactly when multiplying out its denominators, inverted
    sums included, leaves no terms, whatever atoms it holds.  A cleared
    form with terms is ``NONZERO`` unless it still holds a sin/cos/exp
    atom; only then is the expression probed at ``PROBE_SAMPLES`` random
    points per symbol range [-2, 2], and a coefficient past the largest
    float raises ``EvalError``.  ``tol`` must be positive and finite.
    """
    if not 0 < tol < math.inf:
        raise ExprError(f"probing tolerance must be positive and finite, not {tol}")
    e = _coerce(e)
    if not e.terms:
        return ZeroCheck.ZERO
    if all(type(a) is Symbol for mono, _ in e.terms for a, _k in mono):
        return ZeroCheck.NONZERO  # a Laurent polynomial: its canonical form is unique
    if all(_image(e)):
        return ZeroCheck.NONZERO  # n/d nonzero mod _P: no zero function has that value
    cleared = clear_denominators([e])[0][0]  # no inverted sum is left in it
    if not cleared.terms:
        return ZeroCheck.ZERO
    if not any(type(a) is FuncAtom for mono, _ in cleared.terms for a, _k in mono):
        return ZeroCheck.NONZERO
    rng = random.Random(seed)
    syms = sorted(free_symbols(e), key=lambda s: s.key)
    done = 0
    attempts = 0
    while done < PROBE_SAMPLES:
        attempts += 1
        if attempts > 100 * PROBE_SAMPLES:
            raise ExprError(f"probing failed to find well-conditioned points for {e}")
        b = {s.name: rng.uniform(-2.0, 2.0) for s in syms}
        try:
            v = evaluate(e, b, _guard=1e-3)
        except (_Resample, OverflowError):
            continue
        if abs(v) > tol:
            return ZeroCheck.NONZERO
        done += 1
    return ZeroCheck.PROBABLY_ZERO


# ---------------------------------------------------------------------------
# Exact division (used by the linear solver and the Legendre inversion).


def div_exact(num, den) -> Expr:
    """Divide ``num`` by ``den`` exactly.

    Monomial divisors multiply through by the inverse monomial.  For
    multi-term divisors, multivariate long division is attempted; if it
    does not end with remainder zero within ``QUOTIENT_TERMS`` quotient
    terms, the quotient falls back to an inverted-sum atom (still exact,
    but opaque to canonical zero tests).  A divisor of a nonzero
    polynomial holds none but its atoms, so long division is not tried
    when ``den`` holds a symbol that ``num`` lacks: it would fail.
    """
    num = _coerce(num)
    den = _coerce(den)
    if not den.terms:
        raise ExprError("division by zero expression")
    if not num.terms:
        return ZERO
    if len(den.terms) == 1:
        return mul(num, pow_(den, -1))
    quo = _poly_div(num, den) if den.symbols <= num.symbols else None
    if quo is not None:
        return quo
    return mul(num, _sum_atom_pow(den, -1))


def clear_denominators(exprs, rest=()):
    """Multiply ``exprs`` and then ``rest`` by the least monomial that
    leaves no negative exponent in ``exprs``, nor in the inverted sums it
    expands; return the products and the inverse of that monomial."""
    exprs, inverse, n = list(exprs) + list(rest), ONE, len(exprs)
    while True:
        need: dict = {}
        for e in exprs[:n]:
            for mono, _ in e.terms:
                for a, k in mono:
                    if k < -need.get(a, 0):
                        need[a] = -k
        if not need:
            return exprs, inverse
        clear = tuple(need.items())
        exprs = [add(*(_expr_from_factors(c, _merge_factors(m, clear)) for m, c in e.terms)) for e in exprs]
        inverse = mul(inverse, _expr_from_factors(1, {a: -k for a, k in clear}))


def _mono_divides(da: Monomial, na: Monomial) -> bool:
    nd = dict(na)
    for a, k in da:
        if nd.get(a, 0) < k:
            return False
    return True


def _mono_quot(na: Monomial, da: Monomial):
    f = dict(na)
    for a, k in da:
        f[a] = f.get(a, 0) - k
    return tuple(sorted(((a, k) for a, k in f.items() if k), key=lambda ak: ak[0].key))


QUOTIENT_TERMS = 4096  # the most terms an exact quotient of long division may have; past it, an inverted sum


def _poly_div(num: Expr, den: Expr):
    # Requires honest polynomials (no negative exponents, no atomized sums).
    for e in (num, den):
        for mono, _ in e.terms:
            if any(k < 0 or isinstance(a, SumAtom) for a, k in mono):
                return None

    atoms = sorted(
        {a for e in (num, den) for mono, _ in e.terms for a, _k in mono},
        key=lambda a: a.key,
        reverse=True,
    )
    pos = {a: i for i, a in enumerate(atoms)}

    def glex(mono: Monomial):
        # Graded-lex key over full exponent vectors: a proper
        # (multiplicative, well-founded) monomial order, unlike the
        # structural canonical key.
        vec = [0] * len(atoms)
        for a, k in mono:
            vec[pos[a]] = k
        return (sum(k for _, k in mono), tuple(vec))

    lead_mono, lead_c = max(den.terms, key=lambda mc: glex(mc[0]))
    rem = num
    quo: dict = {}
    # each step takes away rem's leading monomial and gives quo one more term; a failing division
    # may take a step per degree of lead(num) before lead(den) fails to divide, hence the budget
    while rem.terms and len(quo) < QUOTIENT_TERMS:
        rm, rc = max(rem.terms, key=lambda mc: glex(mc[0]))
        if not _mono_divides(lead_mono, rm):
            return None
        qm = _mono_quot(rm, lead_mono)
        qc = _norm(Fraction(rc, lead_c))
        _accumulate(quo, qm, qc)
        rem = add(rem, mul(Expr(((qm, -qc),)), den))
    return None if rem.terms else _from_dict(quo)


# ---------------------------------------------------------------------------
# Rendering.


def _atom_text(a: Atom, name_map) -> str:
    if isinstance(a, Symbol):
        return name_map(a.name) if name_map else a.name
    if name_map is None and a._text is not None:
        return a._text
    if isinstance(a, FuncAtom):
        out = f"{a.fn}({to_text(a.arg, name_map)})"
    else:
        out = f"({to_text(a.expr, name_map)})"
    if name_map is None:
        a._text = out
    return out


def _term_text(mono: Monomial, c, name_map) -> str:
    num_parts = []
    den_parts = []
    if abs(c.numerator) != 1 or (not mono and c.denominator == 1):
        num_parts.append(str(abs(c.numerator)))
    if c.denominator != 1:
        den_parts.append(str(c.denominator))
    for a, k in mono:
        s = _atom_text(a, name_map)
        if k > 0:
            num_parts.append(s if k == 1 else f"{s}^{k}")
        else:
            den_parts.append(s if k == -1 else f"{s}^{-k}")
    if not num_parts:
        num_parts.append("1")
    out = "*".join(num_parts)
    if den_parts:
        if len(den_parts) == 1 and "*" not in den_parts[0]:
            out += f"/{den_parts[0]}"
        else:
            out += f"/({'*'.join(den_parts)})"
    return f"-{out}" if c < 0 else out


def signed_sum_text(chunks) -> str:
    """The chunks joined by " + ", or by " - " before a chunk that starts
    with a minus sign, which it loses; "0" for none."""
    if not chunks:
        return "0"
    return chunks[0] + "".join(f" - {ch[1:]}" if ch.startswith("-") else f" + {ch}" for ch in chunks[1:])


def to_text(e, name_map: Callable[[str], str] | None = None) -> str:
    """Deterministic infix rendering of the canonical form, one signed chunk per term."""
    return signed_sum_text([_term_text(mono, c, name_map) for mono, c in _coerce(e).terms])
