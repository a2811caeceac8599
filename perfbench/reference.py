"""Independent reference used to build inputs and to check outputs.

Nothing here imports wsep: the benchmark generates every input and checks
every output with its own code, so a defect in a shared helper of the
program cannot hide itself.

Pinned counts are theorems, not measurements: purity and flip-connectivity
hold for every k (Oh-Postnikov-Speyer, arXiv:1109.4434), so the move-graph
closure of the base collection is all of W(k,n).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations

W_COUNT = {(3, 7): 259, (4, 7): 259, (3, 8): 2136, (4, 8): 5470}
W_ORBITS = {(3, 7): 20, (3, 8): 142}


def weakly_separated(I, J) -> bool:
    """Equal-size subsets: the two difference sets, read around the n-gon,
    form at most two cyclic blocks (a chord separates them)."""
    sI, sJ = set(I), set(J)
    if len(sI) != len(sJ):
        raise ValueError("reference predicate covers equal-size subsets only")
    tags = [x in sI for x in sorted(sI ^ sJ)]
    changes = sum(1 for a, b in zip(tags, tags[1:] + tags[:1]) if a != b)
    return changes <= 2


def exponent(I, J) -> int | None:
    """Commutation exponent of two equal-size Pluecker coordinates, by pair
    counting: the mean over a in I-J of (#b in J-I above a) - (#b below a).
    None when the pair is not weakly separated."""
    if not weakly_separated(I, J):
        return None
    dI = set(I) - set(J)
    dJ = set(J) - set(I)
    if not dI:
        return 0
    total = sum((b > a) - (b < a) for a in dI for b in dJ)
    if total % len(dI):
        raise ArithmeticError(f"non-integral exponent for {I}, {J}")
    return total // len(dI)


def random_maximal(rng, k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Random-greedy maximal collection: scan all k-subsets in a shuffled
    order, keeping each one weakly separated from everything kept so far.
    By purity the result always has k(n-k)+1 members."""
    order = list(combinations(range(1, n + 1), k))
    rng.shuffle(order)
    chosen: list[tuple[int, ...]] = []
    for cand in order:
        if all(weakly_separated(cand, s) for s in chosen):
            chosen.append(cand)
    if len(chosen) != k * (n - k) + 1:
        raise AssertionError(f"greedy collection has {len(chosen)} members")
    return tuple(sorted(chosen))


def base_collection(k: int, n: int) -> frozenset:
    """The fan-shaped base collection: every cyclic interval of length k plus
    [1..i] followed by a run of k-i consecutive indices starting at j >= i+2."""
    sets = {tuple(sorted((start + d) % n + 1 for d in range(k))) for start in range(n)}
    for i in range(1, k):
        for j in range(i + 2, n + i - k + 1):
            sets.add(tuple(range(1, i + 1)) + tuple(range(j, j + k - i)))
    if len(sets) != k * (n - k) + 1:
        raise AssertionError("base collection has the wrong size")
    return frozenset(sets)


def is_maximal_collection(sets, k: int, n: int) -> bool:
    """Distinct k-subsets of [1..n], pairwise weakly separated, of the
    maximal size k(n-k)+1 (enough by purity)."""
    members = [tuple(s) for s in sets]
    if len(set(members)) != len(members) or len(members) != k * (n - k) + 1:
        return False
    if any(len(s) != k or list(s) != sorted(set(s)) or s[0] < 1 or s[-1] > n for s in members):
        return False
    return all(weakly_separated(a, b) for a, b in combinations(members, 2))


def replay(start, moves) -> frozenset | None:
    """Apply exchange moves given as JSON records; None if a move is not a
    legal exchange (a side or the removed diagonal missing, or the added
    diagonal already present)."""
    cur = set(start)
    for mv in moves:
        anchor = tuple(mv["anchor"])
        i, s, j, t = mv["quad"]
        if not i < s < j < t:
            return None
        sides = [tuple(sorted(anchor + pair)) for pair in ((i, s), (s, j), (j, t), (i, t))]
        diagonals = {tuple(sorted(anchor + (i, j))), tuple(sorted(anchor + (s, t)))}
        removes, adds = tuple(mv["removes"]), tuple(mv["adds"])
        if {removes, adds} != diagonals or not all(x in cur for x in sides):
            return None
        if removes not in cur or adds in cur:
            return None
        cur.remove(removes)
        cur.add(adds)
    return frozenset(cur)


def vandermonde_minors(nodes, k: int) -> dict[tuple[int, ...], Fraction]:
    """Every maximal minor of the k-by-n matrix with rows x^0..x^(k-1): the
    Vandermonde product over each column set."""
    out = {}
    for K in combinations(range(1, len(nodes) + 1), k):
        v = Fraction(1)
        for a, b in combinations(K, 2):
            v *= nodes[b - 1] - nodes[a - 1]
        out[K] = v
    return out


def random_nodes(rng, n: int) -> list[Fraction]:
    """n strictly increasing positive integer nodes of at most 2n. Small
    integers keep every product in the exchange relation below 2**30, so the
    cost of exact arithmetic is the same for every seed."""
    return [Fraction(x) for x in sorted(rng.sample(range(1, 2 * n + 1), n))]


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
