#!/usr/bin/env python3
"""Mesh-refinement study of the discrete dissipation law.

For the damped string and a sweep of damping coefficients, run the check of
``mcft verify-law`` (``mcft.numeric.check_law``) on halved meshes: integrate,
evaluate the current of the field-shift symmetry, and report the residual norms of

    d f^mu / dx^mu - (dL/ds^mu o psi) f^mu

together with the fitted momentum-decay exponent.  Emits a JSON summary
(and optionally a CSV of the L2 norms).
"""
import argparse
import json
import os
import sys

from mcft.dsl import parse
from mcft.numeric import check_law, damped_wave, scenario_mesh
from mcft.symmetry import jet_lift, noether_current

MODEL = """\
coords t x
fields y
params rho=1 tau=1 gamma=0
lagrangian 0.5*(rho*dy[t]^2 - tau*dy[x]^2) - gamma*s[t]
symmetry Y: d/dy
scenario sweep { bc periodic; grid lx=1; init y0 = 0.1*sin(2*pi*x); init v0 = 1; }
"""


def study(gamma: float, meshes, t_final: float, cfl: float) -> dict:
    model = parse(MODEL)
    sys_ = model.system()
    xi = noether_current(jet_lift(model.candidate("Y", sys_.chart)), sys_)
    bindings = {**model.param_defaults(), "gamma": gamma}
    wave = damped_wave(sys_, bindings)
    scenario = model.scenarios["sweep"]._replace(cfl=cfl, t_final=t_final)
    grids = [scenario_mesh(wave, scenario, bindings, nx) for nx in meshes]
    law = check_law(xi, wave, bindings, grids)
    rows = [{"nx": n["nx"], "dt": grid.dt, "l2": n["l2"], "max": n["max"]} for n, (grid, _, _) in zip(law.norms, grids)]
    return {
        "gamma": gamma,
        "norms": rows,
        "convergence_ratios": law.convergence_ratios,
        "decay_fit": law.decay_fit,  # of the last, finest mesh
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
