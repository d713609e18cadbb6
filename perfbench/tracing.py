"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each hooked public function of ``mcft`` with a
wrapper in every ``mcft`` module that imported it (``mcft.lagrangian``'s
``solve_affine`` as well as ``mcft.algebra``'s), and ``uninstall`` puts
the originals back.  Each wrapper keeps a per-name count and self time
(span duration minus the time covered by hooked callees).

Spans (name, start, end, parent span, operation id) are kept in memory
and written out at the end, for every layer above the expression kernel.
The kernel functions run tens of thousands of times per pass, so for them only
the counts and self times are kept.  A hook whose function no longer
exists is skipped and reported in ``missing``.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# layer -> (module, function names); a span is named "<layer>.<function>"
HOOKS = {
    "expr": ("mcft.expr", ["mul", "add", "pow_", "diff", "substitute", "div_exact", "is_zero", "to_text"]),
    "algebra": ("mcft.algebra", ["solve_affine", "det"]),
    "forms": ("mcft.forms", ["wedge", "contract", "ext_d", "lie_derivative", "bar_d", "form_zero_check"]),
    "lagrangian": ("mcft.lagrangian", ["build_lagrangian_system", "solve_sopde_family", "herglotz_el_residuals"]),
    "hamiltonian": ("mcft.hamiltonian", ["legendre", "hdw_multivector", "hdw_residuals"]),
    "symmetry": ("mcft.symmetry", ["classify", "check_dissipative", "jet_lift", "hamiltonian_lift"]),
    "numeric": (
        "mcft.numeric",
        [
            "integrate_damped_wave",
            "evaluate_current",
            "dissipation_residual",
            "integrate_action_coordinate",
            "momentum_series",
            "energy_series",
        ],
    ),
    "dsl": ("mcft.dsl", ["parse"]),
    "cli": ("mcft.cli", ["main"]),
}
ALIASES = {"lagrangian.build_lagrangian_system": "lagrangian.build"}
KERNEL_LAYER = "expr"


def _has_non_symbol_atom(e) -> bool:
    from mcft.expr import Symbol

    return any(not isinstance(a, Symbol) for mono, _c in getattr(e, "terms", ()) for a, _k in mono)


def _has_sum_atom(e) -> bool:
    from mcft.expr import SumAtom

    return any(isinstance(a, SumAtom) for mono, _c in e.terms for a, _k in mono)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans = []  # [name, start, end, parent, op]
        self.missing = []
        self._frames = []  # [child time] per active hooked call
        self._span_stack = []  # indices of open recorded spans
        self._patched = []  # (module, attribute, original)
        self.op_id = -1
        self.op_touched = set()  # layers entered during the current op

    # -- operation roots -------------------------------------------------------
    def begin_op(self, op_id: int, label: str):
        self.op_id = op_id
        self.op_touched = set()
        self._span_stack.append(len(self.spans))
        self.spans.append([f"op:{label}", time.perf_counter(), None, None, op_id])

    def end_op(self):
        idx = self._span_stack.pop()
        self.spans[idx][2] = time.perf_counter()

    # -- hooks -----------------------------------------------------------------
    def _post(self, name, args, kwargs, result):
        if name == "expr.div_exact" and _has_sum_atom(result):
            self.counters["div_exact.sum_atom"] += 1
        elif name == "expr.is_zero":
            e = args[0] if args else kwargs.get("e")
            if result.value == "probably-zero" or (result.value == "nonzero" and _has_non_symbol_atom(e)):
                self.counters["is_zero.probed"] += 1
        elif name == "hamiltonian.legendre":
            self.counters["legendre.H_terms"] += len(result.hamiltonian_system.hamiltonian.terms)
        elif name == "numeric.integrate_damped_wave":
            grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
            nt, nx = getattr(grid, "nt", None), getattr(grid, "nx", None)
            if nt is not None and nx is not None:
                self.counters["cells"] += nt * nx
                self.counters["trajectory_bytes_max"] = max(self.counters["trajectory_bytes_max"], (nt + 1) * nx * 8)

    def wrap(self, name: str, fn):
        frames, spans, span_stack = self._frames, self.spans, self._span_stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter
        record = not name.startswith(KERNEL_LAYER + ".")
        post = self._post if name in (
            "expr.div_exact",
            "expr.is_zero",
            "hamiltonian.legendre",
            "numeric.integrate_damped_wave",
        ) else None
        layer = name.split(".", 1)[0]
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if record:
                idx = len(spans)
                spans.append([name, 0.0, None, span_stack[-1] if span_stack else None, tracer.op_id])
                span_stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[0]
                total_s[name] += dur
                if frames:
                    frames[-1][0] += dur
                if record:
                    span_stack.pop()
                    spans[idx][1] = t0
                    spans[idx][2] = t1
                tracer.op_touched.add(layer)
            if post is not None:
                post(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mcft_modules = [m for n, m in sorted(sys.modules.items()) if n == "mcft" or n.startswith("mcft.")]
        for layer, (modname, fnames) in HOOKS.items():
            home = sys.modules.get(modname)
            for fname in fnames:
                orig = getattr(home, fname, None)
                if orig is None:
                    self.missing.append(f"{modname}.{fname}")
                    continue
                name = ALIASES.get(f"{layer}.{fname}", f"{layer}.{fname}")
                wrapped = self.wrap(name, orig)
                for mod in mcft_modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
