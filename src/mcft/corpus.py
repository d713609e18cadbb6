"""Randomized regular quadratic Lagrangian systems for the theorem suites.

Each generated density is quadratic in the velocities with a diagonal,
nonzero kinetic part (hence regular), y-independent, affine in the
action coordinates, and polynomial in the base coordinates.  Candidate
symmetry fields cover the vertical field directions, base translations,
action directions, and a couple of prolonged configuration fields.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .charts import jet_chart
from .expr import add, const, mul
from .forms import Multivector
from .lagrangian import LagrangianSystem, build_lagrangian_system
from .symmetry import jet_lift

NONZERO = [Fraction(n) for n in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]
ANY = NONZERO + [Fraction(0), Fraction(0)]


class CorpusEntry(NamedTuple):
    name: str
    system: LagrangianSystem
    candidates: list  # (label, Multivector) pairs on the system chart


def random_quadratic_system(rng: random.Random, index: int, n_fields: int | None = None) -> CorpusEntry:
    n = n_fields if n_fields is not None else rng.choice([1, 1, 2])
    bases = ["t", "x"]
    fields = ["y"] if n == 1 else ["u", "v"]
    chart = jet_chart(bases, fields)
    terms = []
    for a in range(n):
        for mu in range(2):
            v = chart.exprs[chart.velocity_axis(a, mu)]
            terms.append(mul(const(rng.choice(NONZERO) / 2), v, v))
            lin = rng.choice(ANY)
            if lin:
                terms.append(mul(const(lin), v))
    for mu in range(2):
        c = rng.choice(ANY)
        if c:
            terms.append(mul(const(-c), chart.exprs[chart.action_axis(mu)]))
    # base-dependent source, sometimes x-dependent only, sometimes both
    for bname in bases:
        c = rng.choice(ANY)
        if c:
            b = chart.coord(bname)
            terms.append(mul(const(c), b, b))
    system = build_lagrangian_system(chart, add(*terms))
    candidates = []
    for fname in fields:
        candidates.append((f"d/d{fname}", Multivector.vector(chart, {fname: 1})))
    for bname in bases:
        candidates.append((f"d/d{bname}", Multivector.vector(chart, {bname: 1})))
    for mu, bname in enumerate(bases):
        candidates.append((f"d/ds[{bname}]", Multivector.vector(chart, {chart.coords[chart.action_axis(mu)].name: 1})))
    # prolonged configuration fields: t d/dy and a base dilation
    candidates.append(
        (f"lift({bases[0]}*d/d{fields[0]})", jet_lift(Multivector.vector(chart, {fields[0]: chart.coord(bases[0])})))
    )
    candidates.append(
        (f"lift({bases[1]}*d/d{bases[1]})", jet_lift(Multivector.vector(chart, {bases[1]: chart.coord(bases[1])})))
    )
    return CorpusEntry(name=f"quadratic-{index}", system=system, candidates=candidates)


def corpus(seed: int = 20240, size: int = 6) -> list:
    rng = random.Random(seed)
    entries = [random_quadratic_system(rng, i) for i in range(size)]
    return entries
