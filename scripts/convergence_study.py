#!/usr/bin/env python3
"""Mesh-refinement study of the discrete dissipation law.

For the damped string and a sweep of damping coefficients, integrate on a
sequence of halved meshes, evaluate the current of the field-shift
symmetry, and report the residual norms of

    d f^mu / dx^mu - (dL/ds^mu o psi) f^mu

together with the fitted momentum-decay exponent.  Emits a JSON summary
(and optionally a CSV of the L2 norms).
"""
import argparse
import json
import math
import os
import sys

import numpy as np

from mcft.dsl import parse
from mcft.numeric import (
    ResidualNorms,
    decay_fit,
    dissipation_residual,
    evaluate_current,
    make_grid,
    momentum_series,
    stream_damped_wave,
)
from mcft.symmetry import jet_lift, noether_current

MODEL = """\
coords t x
fields y
params rho=1 tau=1 gamma=0
lagrangian 0.5*(rho*dy[t]^2 - tau*dy[x]^2) - gamma*s[t]
symmetry Y: d/dy
"""


def study(gamma: float, meshes, t_final: float, cfl: float) -> dict:
    model = parse(MODEL)
    sys_ = model.system()
    xi = noether_current(jet_lift(model.candidate("Y", sys_.chart)), sys_)
    bindings = {"rho": 1.0, "tau": 1.0, "gamma": gamma}
    rows = []
    for nx in meshes:
        grid = make_grid(nx, 1.0, cfl, t_final, 1.0, "periodic")
        y0 = 0.1 * np.sin(2 * math.pi * grid.x)
        v0 = np.ones(grid.nx)
        # streamed as in verify-law: the solution is never held whole
        norms, P = ResidualNorms(grid), np.empty(grid.nt + 1)
        for w in stream_damped_wave(bindings, y0, v0, grid):
            dissipation_residual(*evaluate_current(xi, w, bindings), -gamma, w, norms)
            P[w.levels] = momentum_series(w)
        rows.append({"nx": nx, "dt": grid.dt, "l2": norms.l2_norm, "max": norms.max_norm})
    ratios = [a["l2"] / b["l2"] if b["l2"] else None for a, b in zip(rows, rows[1:])]
    return {
        "gamma": gamma,
        "norms": rows,
        "convergence_ratios": ratios,
        "decay_fit": decay_fit(grid.t, P),  # of the last, finest mesh
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gammas", type=float, nargs="+", default=[0.0, 0.1, 0.5])
    ap.add_argument("--meshes", type=int, nargs="+", default=[128, 256, 512])
    ap.add_argument("--t-final", type=float, default=2.0)
    ap.add_argument("--cfl", type=float, default=0.5)
    ap.add_argument("--csv", default=None, help="write (gamma, nx, l2) rows")
    args = ap.parse_args()
    results = [study(g, args.meshes, args.t_final, args.cfl) for g in args.gammas]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("gamma,nx,l2\n")
            for r in results:
                for row in r["norms"]:
                    fh.write(f"{r['gamma']},{row['nx']},{row['l2']!r}\n")
    try:
        json.dump(results, sys.stdout, indent=2)
        print()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (`| head`): exit 2 as mcft does; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
