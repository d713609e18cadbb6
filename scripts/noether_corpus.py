#!/usr/bin/env python3
"""Classify symmetry candidates over randomized quadratic systems and
mechanize the dissipated-current check for every Noether candidate.

Prints one row per (system, candidate): classification, sigma-invariance,
and whether i_X bar_d(i_Y Theta) vanished identically over the full
free-symbol solution family.
"""
import argparse
import os
import sys
import time

from mcft.corpus import corpus
from mcft.lagrangian import solve_sopde_family
from mcft.symmetry import NOT_NOETHER, check_dissipative, classify


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=20240)
    ap.add_argument("--size", type=int, default=6)
    args = ap.parse_args()
    t0 = time.perf_counter()
    rows = []
    for entry in corpus(seed=args.seed, size=args.size):
        fam = solve_sopde_family(entry.system)
        for label, Y in entry.candidates:
            rep = classify(Y, entry.system)
            if rep.classification == NOT_NOETHER:
                law = "-"
            else:
                law = "holds" if check_dissipative(rep.current, fam, entry.system.sigma).holds else "FAILS"
            rows.append((entry.name, label, rep.classification, rep.sigma_invariant, law))
    w = max(len(r[1]) for r in rows)
    n_noether = sum(1 for r in rows if r[2] != NOT_NOETHER)
    n_bad = sum(1 for r in rows if r[4] == "FAILS")
    try:
        print(f"{'system':<14} {'candidate':<{w}} {'classification':<16} {'sigma-inv':<9} law")
        for name, label, cls, sig, law in rows:
            print(f"{name:<14} {label:<{w}} {cls:<16} {str(sig):<9} {law}")
        print(f"\n{len(rows)} candidates, {n_noether} Noether, {n_bad} law failures "
              f"({time.perf_counter() - t0:.2f} s)")
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (`| head`): exit 2 as mcft does; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
