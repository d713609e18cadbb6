#!/usr/bin/env python3
"""Capture the benchmark's goldens from the program as it stands.

    python3 perfbench/capture_goldens.py

Run from the root of a checkout of the commit whose outputs are the
reference (the goldens in this directory come from the seed commit).  It
writes

* ``goldens/string.mcft``: a copy of ``models/string.mcft``;
* ``goldens/shipped/<verb>.json``: exit code and ``--json`` stdout of each
  symbolic verb on that model (compared byte for byte);
* ``goldens/string_mesh.json``: residual norms of the ``verify-law``
  scenarios that pass, and the ``simulate`` summaries, at amplitude 1.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gen  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    gdir = workloads.GOLDEN_DIR
    os.makedirs(os.path.join(gdir, "shipped"), exist_ok=True)
    shutil.copyfile(os.path.join("models", "string.mcft"), workloads.SHIPPED_MODEL)
    for name, argv in workloads.SHIPPED_VERBS.items():
        args = ["--json"] + [a.format(model=workloads.SHIPPED_MODEL) for a in argv]
        code, out, _err = workloads.run_cli(args)
        with open(os.path.join(gdir, "shipped", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump({"argv": argv, "exit": code, "stdout": out}, fh, indent=1)
            fh.write("\n")
    model = gen.string_model(Fraction(1))
    path = os.path.join(gdir, "string-mesh-amplitude-1.mcft.tmp")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model.text)
    try:
        golden = {"amplitude": 1, "verify-law": {}, "simulate": {}}
        for scenario in ("main", "standing2", "dirichlet"):
            code, out, _err = workloads.run_cli(["--json", "verify-law", path, "Y", scenario])
            outputs = json.loads(out)["outputs"]
            if code == 0 and outputs["passed"]:
                golden["verify-law"][scenario] = [n["l2"] for n in outputs["norms"]]
        for scenario, with_momentum in (("main", True), ("standing", False)):
            code, out, _err = workloads.run_cli(["--json", "simulate", path, scenario])
            o = json.loads(out)["outputs"]
            golden["simulate"][scenario] = {
                "energy_initial": o["energy"]["initial"],
                "energy_final": o["energy"]["final"],
                "action_final_mean": o["action_final_mean"],
                # the standing wave's momentum is round-off, not a value to keep
                "momentum_initial": o["momentum"]["initial"] if with_momentum else None,
                "momentum_final": o["momentum"]["final"] if with_momentum else None,
            }
    finally:
        os.remove(path)
    with open(os.path.join(gdir, "string_mesh.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
