"""Coordinate charts with role-tagged axes.

A chart is an ordered list of named coordinates, each tagged with a role
(base x^mu, field y^a, velocity y^a_mu, momentum p^mu_a, action s^mu, or
generic), and builds one shared ``Expr`` per coordinate, which ``coord``
returns.  Jet and Hamiltonian charts are built from base/field name
lists with fixed naming conventions:

    velocity of field ``y`` along base ``t``  ->  ``y_t``
    action along base ``t``                   ->  ``s_t``
    momentum dual to ``y`` along ``t``        ->  ``p_t``   (single field)
                                                  ``p_y_t`` (several fields)
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .expr import Expr, Symbol, _coerce


class ChartError(Exception):
    pass


class Coordinate(NamedTuple):
    name: str
    role: str
    field: Optional[int] = None  # index into the chart's field list
    base: Optional[int] = None  # index into the chart's base list


class Chart:
    def __init__(self, coords: Sequence[Coordinate], base_dim: int):
        coords = tuple(coords)
        names = [c.name for c in coords]
        if len(set(names)) != len(names):
            raise ChartError(f"duplicate coordinate names in {names}")
        if base_dim < 1:
            raise ChartError("base dimension must be >= 1")
        n_fields = sum(1 for c in coords if c.role == "field")
        for c in coords:
            if c.role == "velocity" or c.role == "momentum":
                if c.field is None or c.base is None:
                    raise ChartError(f"{c.role} coordinate {c.name} lacks its (field, base) pair")
                if not (0 <= c.field < n_fields) or not (0 <= c.base < base_dim):
                    raise ChartError(f"{c.role} coordinate {c.name} references a missing (field, base) pair")
            if c.role == "action" and (c.base is None or not (0 <= c.base < base_dim)):
                raise ChartError(f"action coordinate {c.name} references a missing base axis")
        self.coords = coords
        self.base_dim = base_dim
        self.symbols = tuple(Symbol(c.name, c.role if c.role in
                                    ("base", "field", "velocity", "momentum", "action") else "generic", i)
                             for i, c in enumerate(coords))
        self._exprs = tuple(_coerce(s) for s in self.symbols)
        self._axis = {c.name: i for i, c in enumerate(coords)}
        # axis tables read by the role lookups below; the first axis wins
        self._by_role: dict = {}
        self._by_slot: dict = {}
        for i, c in enumerate(coords):
            self._by_role.setdefault(c.role, []).append(i)
            self._by_slot.setdefault((c.role, c.field, c.base), i)
        self._key = (base_dim,) + tuple((c.name, c.role, c.field, c.base) for c in coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, Chart) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Chart({', '.join(c.name for c in self.coords)}; m={self.base_dim})"

    def axis(self, name: str) -> int:
        try:
            return self._axis[name]
        except KeyError:
            raise ChartError(f"no coordinate {name!r} in {self!r}") from None

    def symbol(self, name: str) -> Symbol:
        return self.symbols[self.axis(name)]

    def coord(self, name: str) -> Expr:
        """The coordinate as an expression, one shared object per name."""
        return self._exprs[self.axis(name)]

    @property
    def base_axes(self) -> list[int]:
        return list(self._by_role.get("base", ()))

    @property
    def field_axes(self) -> list[int]:
        return list(self._by_role.get("field", ()))

    def velocity_axis(self, field: int, base: int) -> int:
        i = self._by_slot.get(("velocity", field, base))
        if i is None:
            raise ChartError(f"no velocity coordinate for field {field}, base {base}")
        return i

    def momentum_axis(self, field: int, base: int) -> int:
        i = self._by_slot.get(("momentum", field, base))
        if i is None:
            raise ChartError(f"no momentum coordinate for field {field}, base {base}")
        return i

    def action_axis(self, base: int) -> int:
        i = self._by_slot.get(("action", None, base))
        if i is None:
            raise ChartError(f"no action coordinate for base {base}")
        return i

    def names(self) -> list[str]:
        return [c.name for c in self.coords]


def _check_names(names: Sequence[str], what: str):
    for n in names:
        if not n.isidentifier():
            raise ChartError(f"{what} name {n!r} is not an identifier")


def _bundle_chart(bases: Sequence[str], fields: Sequence[str], role: str, name) -> Chart:
    """(x^mu, y^a, z^a_mu, s^mu), where z^a_mu has ``role`` and is named
    ``name(a, mu)``."""
    _check_names(bases, "base")
    _check_names(fields, "field")
    if not fields:
        raise ChartError("at least one field required")
    coords = [Coordinate(b, "base", base=i) for i, b in enumerate(bases)]
    coords += [Coordinate(f, "field", field=a) for a, f in enumerate(fields)]
    coords += [
        Coordinate(name(a, mu), role, field=a, base=mu) for a in range(len(fields)) for mu in range(len(bases))
    ]
    coords += [Coordinate(f"s_{b}", "action", base=mu) for mu, b in enumerate(bases)]
    return Chart(coords, len(bases))


def jet_chart(bases: Sequence[str], fields: Sequence[str]) -> Chart:
    """First-order jet chart extended by action coordinates:
    (x^mu, y^a, y^a_mu, s^mu)."""
    return _bundle_chart(bases, fields, "velocity", lambda a, mu: f"{fields[a]}_{bases[mu]}")


def momentum_name(bases: Sequence[str], fields: Sequence[str], field: int, base: int) -> str:
    if len(fields) == 1:
        return f"p_{bases[base]}"
    return f"p_{fields[field]}_{bases[base]}"


def ham_chart(bases: Sequence[str], fields: Sequence[str]) -> Chart:
    """Restricted multimomentum chart extended by action coordinates:
    (x^mu, y^a, p^mu_a, s^mu)."""
    return _bundle_chart(bases, fields, "momentum", lambda a, mu: momentum_name(bases, fields, a, mu))


def generic_chart(names: Sequence[str], base_dim: int = 1) -> Chart:
    """Unstructured chart for generic exterior-calculus work."""
    _check_names(names, "coordinate")
    return Chart([Coordinate(n, "generic") for n in names], base_dim)


def base_chart(chart: Chart) -> Chart:
    return Chart([c for c in chart.coords if c.role == "base"], chart.base_dim)
