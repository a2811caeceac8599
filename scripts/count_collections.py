#!/usr/bin/env python3
"""Tabulate |W(k,n)| by move-graph closure, cross-checked for k=3 against the
recursive lift generator, with dihedral orbit counts.  Exits 1 if the lift
generator and the move-graph walk disagree on some n.

Usage: python scripts/count_collections.py [max_n_k2] [max_n_k3]
"""

import sys
import time

from wsep.reduction import generate_w3
from wsep.wscoll import base_collection, dihedral_orbits, enumerate_component

if __name__ == "__main__":
    max2 = int(sys.argv[1]) if len(sys.argv) > 1 else 9
    max3 = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    print(f"{'k':>2} {'n':>2} {'|W(k,n)|':>9} {'orbits':>7} {'lift':>6} {'secs':>7}")
    mismatch = False
    for k, max_n in ((2, max2), (3, max3)):
        for n in range(k + 2, max_n + 1):
            t0 = time.time()
            comp = enumerate_component(base_collection(k, n))
            orbits = len(dihedral_orbits(comp))
            lifted = ""
            if k == 3:
                agree = frozenset(generate_w3(n)) == comp
                lifted = "ok" if agree else "MISMATCH"
                mismatch |= not agree
            print(
                f"{k:>2} {n:>2} {len(comp):>9} {orbits:>7} {lifted:>6} "
                f"{time.time() - t0:>7.2f}"
            )
    sys.exit(1 if mismatch else 0)
