#!/usr/bin/env python3
"""Random greedy completion sweep: build maximal collections from shuffled
insertion orders and histogram their sizes against k(n-k)+1.  Every maximal
weakly separated collection has exactly that size, for every k
(Oh-Postnikov-Speyer, arXiv:1109.4434; Danilov-Karzanov-Koshevoy, 2010), so
a deficient collection is a defect in this package; the script then exits 1.

Usage: python scripts/purity_sweep.py [reps] [seed]
"""

import random
import sys
from itertools import combinations

from wsep.subsets import weakly_separated
from wsep.wscoll import WSCollection

if __name__ == "__main__":
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(seed)
    deficient = False
    for k, n in [(2, 9), (3, 8), (4, 8), (4, 9), (5, 10)]:
        expected = k * (n - k) + 1
        sizes = {}
        for _ in range(reps):
            chosen = []
            pool = list(combinations(range(1, n + 1), k))
            rng.shuffle(pool)
            for cand in pool:
                if all(weakly_separated(cand, s) for s in chosen):
                    chosen.append(cand)
            size = len(WSCollection.of(k, n, chosen))
            sizes[size] = sizes.get(size, 0) + 1
        pure = set(sizes) == {expected}
        deficient |= not pure
        status = "pure" if pure else "DEFICIENT FOUND"
        print(f"k={k} n={n}: sizes={dict(sorted(sizes.items()))} "
              f"expected={expected} -> {status}")
    sys.exit(1 if deficient else 0)
