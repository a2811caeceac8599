#!/usr/bin/env python3
"""Scan the k=2 collections (triangulations) for members that no wiring
arrangement parametrizes, even up to the dihedral action, and print the
smallest examples.

Usage: python scripts/search_nonparametrizable.py [n ...]   (default 7 8 9)
"""

import sys

from wsep.wiring import is_wiring_parametrizable
from wsep.wscoll import base_collection, dihedral_orbits, enumerate_component

if __name__ == "__main__":
    ns = [int(a) for a in sys.argv[1:]] or [7, 8, 9]
    for n in ns:
        comp = enumerate_component(base_collection(2, n))
        bad = sorted(c for c in comp if not is_wiring_parametrizable(c))
        orbits = dihedral_orbits(bad) if bad else []
        print(f"n={n}: {len(bad)}/{len(comp)} non-parametrizable "
              f"({len(orbits)} orbits)")
        for orbit in orbits:
            chords = orbit[0].non_boundary()
            print(f"   chords: {', '.join('{%d,%d}' % c for c in chords)}")
