"""Recursive generation of the k=3 collections: projecting a collection on
[1..n] down to [1..n-1] together with its pinch index, the admissible lift
index set, the inverse lift, and the full recursive generator.

`project`, `pinch_point`, `f_set` and `lift` take a collection from outside
and require it to be maximal (`require_maximal`); a lift is certified by
`wscoll._separated`, crossing rows or the pair loop by its cost rule.
`generate_w3` only lifts collections it has itself certified, through the
trusted `_f_set` and `_lift`, and certifies each lift with the crossing
rows of its rank table whatever its size, since it checks many lifts on one
table: member r is weakly separated from every other member exactly when
`bits & crossing[r]` is 0, so this is the predicate of `validate`, one int
AND per member.
"""

from __future__ import annotations

from itertools import combinations

from .subsets import Dihedral, _precedes_masks, _to_mask
from .wscoll import WSCollection, _separated, pinch_index, require_maximal, translate


def _require_maximal_k3(c: WSCollection):
    if c.k != 3:
        raise ValueError("reduction machinery is defined for k=3 collections")
    require_maximal(c)


def project(c: WSCollection) -> WSCollection:
    """Drop the top index: sets containing both n-1 and n vanish, sets
    containing n alone trade n for n-1, the rest are kept.  The image is a
    maximal collection on [1..n-1] of size |c| - 3."""
    _require_maximal_k3(c)
    n = c.n
    if (1, n - 2, n - 1) not in c:
        raise ValueError(f"projection requires {{1,{n-2},{n-1}}} in the collection")
    top, below = 1 << n, 1 << (n - 1)
    images = []
    for m in c.masks():
        if m & top:
            if m & below:
                continue
            m ^= top | below
        images.append(m)
    out = WSCollection.of_masks(3, n - 1, images)
    if len(out) != len(c) - 3:
        raise AssertionError("projection changed the size by an unexpected amount")
    return out


def pinch_point(c: WSCollection) -> int:
    """The unique b with {1,b,n-1} and {1,b,n} both present (k=3)."""
    _require_maximal_k3(c)
    return pinch_index(c)


def f_set(b_coll: WSCollection) -> set[int]:
    """Admissible lift indices of a maximal collection on [1..top]: b with
    {1,b,top} present such that {1,b}-{s,t} wholly precedes {s,t}-{1,b} for
    every member {s,t,top} with 1 < s < t."""
    _require_maximal_k3(b_coll)
    return _f_set(b_coll)


def _f_set(b_coll: WSCollection) -> set[int]:
    top = 1 << b_coll.n
    inner_pairs = [m ^ top for m in b_coll.masks() if m & top and not m & 2]
    out = set()
    for b in range(2, b_coll.n):
        lb = 2 | 1 << b
        if not b_coll.has_mask(lb | top):
            continue
        if all(_precedes_masks(lb & ~p, p & ~lb) for p in inner_pairs):
            out.add(b)
    return out


def lift(b_coll: WSCollection, b: int) -> WSCollection:
    """Inverse of projection: relabel the admissible members through the new
    top index n = top+1 and adjoin the three sets {1,b,n-1}, {1,n-1,n},
    {n-2,n-1,n}.  Requires b in the admissible index set."""
    if b not in f_set(b_coll):
        raise ValueError(f"index {b} is not an admissible lift index")
    out = _lifted(b_coll, b)
    if not _separated(out):
        raise AssertionError("lift produced a non-separated collection")
    return out


def _lift(b_coll: WSCollection, b: int) -> WSCollection:
    """`lift` of a certified maximal collection and an index of its
    `_f_set`, certified by crossing rows."""
    out = _lifted(b_coll, b)
    bits, crossing = out.bits, out.table.crossing
    if any(bits & crossing[r] for r in out.ranks()):
        raise AssertionError("lift produced a non-separated collection")
    return out


def _lifted(b_coll: WSCollection, b: int) -> WSCollection:
    """The members of the lift, not yet certified to be weakly separated."""
    n = b_coll.n + 1
    lb = 2 | 1 << b
    old, new = 1 << (n - 1), 1 << n
    lifted = []
    for m in b_coll.masks():
        if m & old and _precedes_masks(m & ~(lb | old), lb & ~m):
            m ^= old | new
        lifted.append(m)
    lifted += [_to_mask((1, b, n - 1)), _to_mask((1, n - 1, n)), _to_mask((n - 2, n - 1, n))]
    out = WSCollection.of_masks(3, n, lifted)
    if len(out) != len(b_coll) + 3:
        raise AssertionError("lift changed the size by an unexpected amount")
    if (1, n - 2, n - 1) not in out:
        raise AssertionError("lift lost the near-boundary marker")
    return out


def w3_floor() -> WSCollection:
    """The unique maximal collection on four indices: all 3-subsets."""
    return WSCollection.of(3, 4, combinations(range(1, 5), 3))


def generate_w3(n: int) -> set[WSCollection]:
    """All maximal k=3 collections on [1..n], built recursively: lift every
    (collection, admissible index) pair one level up, then close under the
    polygon symmetries."""
    if n < 4:
        raise ValueError("need n >= 4")
    current = {w3_floor()}
    for _ in range(5, n + 1):
        lifted = {_lift(b_coll, b) for b_coll in current for b in _f_set(b_coll)}
        group = tuple(Dihedral.group(next(iter(lifted)).n))
        closed = set()
        for c in lifted:
            if c not in closed:  # else its whole orbit is in already
                closed.update(translate(c, g) for g in group)
        current = closed
    return current
