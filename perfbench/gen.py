"""Seeded generators for the benchmark inputs.

Every generator returns plain data: the ``.mcft`` text the program
receives, plus the coefficients the generator drew, which the checks in
``known.py`` use to compute known answers without asking the program.
Nothing here imports ``mcft``.

Model shapes follow a fixed schedule per workload; the seed draws only
the coefficient values.  That keeps the amount of work per pass the same
from seed to seed while the inputs themselves change.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

NONZERO = [F(1), F(-1), F(2), F(-2), F(3), F(1, 2), F(-1, 2), F(3, 2)]
ANY = NONZERO + [F(0), F(0)]
POSITIVE = [F(1), F(2), F(3), F(1, 2), F(3, 2), F(5, 4)]
COUPLING = [F(1, 3), F(-1, 3), F(1, 4), F(-1, 5), F(1, 6), F(2, 7)]


def frac(c: F) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def term(c: F, body: str) -> str:
    """Signed DSL summand ``c*body``."""
    return f" {'-' if c < 0 else '+'} {frac(abs(c))}*{body}"


def lagrangian_text(terms: list) -> str:
    text = "".join(terms).strip()
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


@dataclass
class Model:
    """One generated model: its DSL text and what the checks need."""

    name: str
    kind: str
    text: str
    bases: list
    fields: list
    candidates: dict  # candidate name -> candidate kind
    coeffs: dict = field(default_factory=dict)


def inputs_hash(models) -> str:
    h = hashlib.sha256()
    for m in models:
        h.update(m.name.encode() + b"\0" + m.text.encode() + b"\0")
    return h.hexdigest()


def _header(bases, fields, params=()) -> str:
    out = f"coords {' '.join(bases)}\nfields {' '.join(fields)}\n"
    if params:
        out += f"params {' '.join(params)}\n"
    return out


def _symmetries(cands: dict) -> str:
    return "".join(f"symmetry {name}: {vf}\n" for name, (vf, _kind) in cands.items())


# ---------------------------------------------------------------------------
# corpus: constant-coefficient quadratic models (the mcft.corpus family) and
# damped Klein-Gordon models over m = 3 and m = 4 base dimensions.

CORPUS_SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2)]  # (n fields, m bases), cycled
CORPUS_QUADRATIC = 96
KG_SHAPES = [(3, False), (3, True), (4, False), (4, True)]  # (m, massive)


def quadratic_model(rng: random.Random, index: int, n: int, m: int) -> Model:
    bases = ["t", "x"][:m]
    fields = ["y"] if n == 1 else ["u", "v"]
    kin, lin, act, src = {}, {}, {}, {}
    terms = []
    for f in fields:
        for b in bases:
            kin[(f, b)] = rng.choice(NONZERO)
            lin[(f, b)] = rng.choice(ANY)
            terms.append(term(kin[(f, b)] / 2, f"d{f}[{b}]^2"))
            if lin[(f, b)]:
                terms.append(term(lin[(f, b)], f"d{f}[{b}]"))
    for b in bases:
        act[b] = rng.choice(ANY)
        if act[b]:
            terms.append(term(-act[b], f"s[{b}]"))
    for b in bases:
        src[b] = rng.choice(ANY)
        if src[b]:
            terms.append(term(src[b], f"{b}^2"))
    f0, blast = fields[0], bases[-1]
    cands = {}
    for f in fields:
        cands[f"F{f}"] = (f"d/d{f}", ("field-shift", None))
    for b in bases:
        cands[f"T{b}"] = (f"d/d{b}", ("translation", b))
    for b in bases:
        cands[f"S{b}"] = (f"d/ds[{b}]", ("action-shift", b))
    cands["G"] = (f"t*d/d{f0}", ("boost", None))
    cands["D"] = (f"{blast}*d/d{blast}", ("dilation", blast))
    cands["Z"] = (f"{f0}*d/d{f0}", ("field-scaling", None))
    cands["C"] = (f"d/d{f0} + d/dt", ("translation", "t"))
    text = _header(bases, fields) + f"lagrangian {lagrangian_text(terms)}\n" + _symmetries(cands)
    return Model(
        name=f"quadratic-{index:03d}",
        kind="quadratic",
        text=text,
        bases=bases,
        fields=fields,
        candidates={k: kind for k, (_vf, kind) in cands.items()},
        coeffs={"kin": kin, "lin": lin, "act": act, "src": src},
    )


def klein_gordon_model(rng: random.Random, index: int, m: int, massive: bool) -> Model:
    bases = ["t", "x", "w", "z"][:m]
    rho, tau = rng.choice(POSITIVE), rng.choice(POSITIVE)
    mass = rng.choice(POSITIVE) if massive else F(0)
    gamma = rng.choice(POSITIVE) / 10
    terms = [term(rho / 2, "dy[t]^2")]
    terms += [term(-tau / 2, f"dy[{b}]^2") for b in bases[1:]]
    if mass:
        terms.append(term(-mass / 2, "y^2"))
    terms.append(term(-gamma, "s[t]"))
    cands = {
        "Fy": ("d/dy", ("field-shift", None)),
        "Tt": ("d/dt", ("translation", "t")),
        "Tx": ("d/dx", ("translation", "x")),
        "St": ("d/ds[t]", ("action-shift", "t")),
    }
    text = _header(bases, ["y"]) + f"lagrangian {lagrangian_text(terms)}\n" + _symmetries(cands)
    kin = {("y", "t"): rho, **{("y", b): -tau for b in bases[1:]}}
    return Model(
        name=f"klein-gordon-{index}-m{m}",
        kind="klein-gordon",
        text=text,
        bases=bases,
        fields=["y"],
        candidates={k: kind for k, (_vf, kind) in cands.items()},
        coeffs={"kin": kin, "act": {"t": gamma}, "src": {}, "mass": mass},
    )


def corpus_inputs(seed: int) -> list:
    rng = random.Random(f"corpus:{seed}")
    models = [
        quadratic_model(rng, i, *CORPUS_SHAPES[i % len(CORPUS_SHAPES)]) for i in range(CORPUS_QUADRATIC)
    ]
    models += [klein_gordon_model(rng, i, m, massive) for i, (m, massive) in enumerate(KG_SHAPES)]
    return models


# ---------------------------------------------------------------------------
# parametric: coupled quadratic models over (t, x) whose Hessians carry
# symbolic parameters.  Each slot fixes n, which Hessian entries are
# parameters and which couplings exist; the seed draws the rational values.

# (fields, {velocity index: parameter}, coupled velocity index pairs).
# Velocities are ordered (field, base) row-major: y_t, y_x or u_t, u_x, v_t, v_x.
PARAMETRIC_SLOTS = [
    (["y"], {0: "a"}, [(0, 1)]),
    (["y"], {0: "a", 1: "b"}, [(0, 1)]),
    (["y"], {0: "a", 1: "b", (0, 1): "c"}, []),
    (["u", "v"], {0: "a"}, [(0, 2), (1, 3)]),
    (["u", "v"], {0: "a", 2: "b"}, [(0, 2)]),
    (["u", "v"], {0: "a", 1: "b"}, [(0, 2), (1, 3), (0, 1)]),
]


def parametric_model(rng: random.Random, index: int, fields, params: dict, couplings) -> Model:
    bases = ["t", "x"]
    vel = [(f, b) for f in fields for b in bases]
    names = [f"d{f}[{b}]" for f, b in vel]
    k = len(vel)
    # Hessian K (symmetric) as entries: Fraction or parameter name
    K = {}
    for i in range(k):
        sign = 1 if vel[i][1] == "t" else -1
        K[(i, i)] = params.get(i, sign * rng.choice(POSITIVE))
    for i, j in couplings:
        K[(i, j)] = rng.choice(COUPLING)
    for key, p in params.items():
        if isinstance(key, tuple):
            K[key] = p
    lin = [rng.choice(NONZERO) if i == 0 else F(0) for i in range(k)]
    gamma = rng.choice(POSITIVE) / 10
    q = rng.choice(NONZERO)
    terms = []
    for (i, j), c in sorted(K.items(), key=lambda kv: kv[0]):
        body = f"{names[i]}^2" if i == j else f"{names[i]}*{names[j]}"
        half = F(1, 2) if i == j else F(1)
        if isinstance(c, str):
            terms.append(term(half, f"{c}*{body}"))
        else:
            terms.append(term(half * c, body))
    terms.append(term(lin[0], names[0]))
    terms.append(term(-gamma, "s[t]"))
    terms.append(term(q, "x^2"))
    cands = {f"F{f}": (f"d/d{f}", ("field-shift", None)) for f in fields}
    cands["Tt"] = ("d/dt", ("translation", "t"))
    cands["Tx"] = ("d/dx", ("translation", "x"))
    cands["St"] = ("d/ds[t]", ("action-shift", "t"))
    f0 = fields[0]
    cands["G"] = (f"t*d/d{f0}", ("boost", None))
    cands["Z"] = (f"{f0}*d/d{f0}", ("field-scaling", None))
    cands["D"] = ("x*d/dx", ("dilation", "x"))
    pnames = sorted(set(params.values()))
    text = _header(bases, fields, pnames) + f"lagrangian {lagrangian_text(terms)}\n" + _symmetries(cands)
    return Model(
        name=f"parametric-{index}-n{len(fields)}-p{len(pnames)}",
        kind="parametric",
        text=text,
        bases=bases,
        fields=list(fields),
        candidates={k: kind for k, (_vf, kind) in cands.items()},
        coeffs={
            "K": K,
            "velocities": vel,
            "lin": lin,
            "act": {"t": gamma},
            "src": {"x": q},
            "params": pnames,
        },
    )


def parametric_inputs(seed: int) -> list:
    rng = random.Random(f"parametric:{seed}")
    return [parametric_model(rng, i, *slot) for i, slot in enumerate(PARAMETRIC_SLOTS)]


# ---------------------------------------------------------------------------
# string-mesh: the shipped damped string with scenario initial data scaled by
# a seed-drawn amplitude.  The dissipation residual of the field-shift
# current is linear in the data, so its norms scale exactly with the
# amplitude and the convergence ratios do not change.

AMPLITUDES = [F(1, 2), F(3, 4), F(5, 4), F(3, 2), F(7, 4), F(2)]

STRING_HEADER = """\
coords t x
fields y
params rho=1 tau=1 gamma=0.1
lagrangian 0.5*(rho*dy[t]^2 - tau*dy[x]^2) - gamma*s[t]
symmetry Y: d/dy
symmetry S: d/ds[t]
"""

# name -> (bc, grid, y0, v0); y0/v0 are unscaled, with {A} for the amplitude
STRING_SCENARIOS = {
    "main": ("periodic", "cfl=0.5 lx=1 nx=128 t=2", "{A}*0.1*sin(2*pi*x)", "{A}"),
    "standing": ("periodic", "cfl=0.5 lx=1 nx=256 t=10", "{A}*sin(2*pi*x)", "0"),
    "standing2": ("periodic", "cfl=0.5 lx=1 nx=256 t=2", "{A}*sin(2*pi*x)", "0"),
    "dirichlet": ("dirichlet0", "cfl=0.5 lx=1 nx=128 t=2", "{A}*sin(pi*x)", "0"),
}


def string_model(amplitude: F) -> Model:
    a = f"({frac(amplitude)})"
    lines = [
        f"scenario {name} {{ bc {bc}; grid {grid}; init y0 = {y0.format(A=a)}; init v0 = {v0.format(A=a)}; }}\n"
        for name, (bc, grid, y0, v0) in STRING_SCENARIOS.items()
    ]
    return Model(
        name="string",
        kind="string",
        text=STRING_HEADER + "".join(lines),
        bases=["t", "x"],
        fields=["y"],
        candidates={"Y": ("field-shift", None), "S": ("action-shift", "t")},
        coeffs={"amplitude": amplitude},
    )


def string_mesh_inputs(seed: int) -> list:
    rng = random.Random(f"string-mesh:{seed}")
    return [string_model(rng.choice(AMPLITUDES))]


GENERATORS = {
    "corpus": corpus_inputs,
    "parametric": parametric_inputs,
    "string-mesh": string_mesh_inputs,
}
