"""Recursive generation of the k=3 collections: projecting a collection on
[1..n] down to [1..n-1] together with its pinch index, the admissible lift
index set, the inverse lift, and the full recursive generator.

`project`, `pinch_point`, `f_set` and `lift` take a collection from outside
and require it to be maximal (`require_maximal`).

A lift maps the member ranks of the (3, m-1) table to ranks of the (3, m)
table, each member through its `_relabelled` mask, and adds the ranks of
the three adjoined sets (`_adjoined_ranks`); `_lift` builds it from such a
map and checks that its size is |c| + 3 and that it holds the
near-boundary marker {1, m-2, m-1}.  The public `lift` maps only the
members of its collection, through a dict, and certifies the result with
`wscoll._separated`, so a one-off lift at a large n keeps the pair loop and
fills no crossing row.

`generate_w3` works on rank ints, with no collection built until it
returns.  Each level holds `bits` ints of the (3, m) table, starting
from the one collection of (3, 4).  Its map for index b is one list over
every rank of the lower table (`_lift_maps`).  A level is closed under the
polygon symmetries by mapping the ranks of each new lift through every
`image[rot, refl]` of its table to the int of a translate, as
`dihedral_orbits` does.  It only lifts collections it has itself
certified, so it takes the admissible indices from the trusted `_f_set`,
on masks, and certifies each lift with the crossing rows of its table
whatever its size, since many lifts are checked on one table: member r is
weakly separated from every other member exactly when `bits & crossing[r]`
is 0, so this is the predicate of `validate`, one int AND per member.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_

from .subsets import Dihedral, _precedes_masks, _require_dims, _to_mask
from .wscoll import (
    WSCollection,
    _pinch_index,
    _separated,
    _table,
    _Table,
    require_maximal,
)


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
    return _pinch_index(c.table, c.bits, c.n)


def f_set(b_coll: WSCollection) -> set[int]:
    """Admissible lift indices of a maximal collection on [1..top]: b with
    {1,b,top} present such that {1,b}-{s,t} wholly precedes {s,t}-{1,b} for
    every member {s,t,top} with 1 < s < t."""
    _require_maximal_k3(b_coll)
    return _f_set(b_coll.table, b_coll.bits, b_coll.ranks())


def _f_set(table: _Table, bits: int, ranks) -> set[int]:
    """`f_set` of the collection `bits` of the (3, top) table, whose
    member ranks are `ranks`, tested on masks and not certified."""
    top = 1 << table.n
    rank = table.rank
    inner_pairs = [m ^ top for m in map(table.mask.__getitem__, ranks) if m & top and not m & 2]
    out = set()
    for b in range(2, table.n):
        lb = 2 | 1 << b
        if not bits >> rank[lb | top] & 1:
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
    n = b_coll.n + 1
    table = _table(3, n)
    lb, old, mask = 2 | 1 << b, 1 << (n - 1), b_coll.table.mask
    ranks = b_coll.ranks()
    relabel = {r: table.rank[_relabelled(mask[r], lb, old)] for r in ranks}
    bits, _ = _lift(table, ranks, (relabel, _adjoined_ranks(table, b)))
    out = WSCollection(table, bits)
    if not _separated(out):
        raise AssertionError("lift produced a non-separated collection")
    return out


def _relabelled(m: int, lb: int, old: int) -> int:
    """Member mask m of a collection on [1..n-1] as its lift at b relabels
    it, where lb is the mask of {1,b} and old that of n-1: n-1 is traded
    for n when m holds n-1 and m-{1,b,n-1} wholly precedes {1,b}-m."""
    if m & old and _precedes_masks(m & ~(lb | old), lb & ~m):
        return m ^ old ^ old << 1
    return m


def _adjoined_ranks(table: _Table, b: int) -> list[int]:
    """Ranks in the (3, n) table of the three sets {1,b,n-1}, {1,n-1,n},
    {n-2,n-1,n} that the lift at b to [1..n] adjoins."""
    n = table.n
    return [table.rank[_to_mask(t)] for t in ((1, b, n - 1), (1, n - 1, n), (n - 2, n - 1, n))]


def _lift_maps(table: _Table) -> dict[int, tuple[list[int], list[int]]]:
    """Per index b in [2..m-2], the b-lift from the (3, m-1) table to the
    (3, m) table `table` on ranks: the list sending each rank of the lower
    table to the rank of its `_relabelled` mask, and `_adjoined_ranks`."""
    m, rank = table.n, table.rank
    below = _table(3, m - 1)
    masks = [below.mask[r] for r in range(below.size)]
    old = 1 << (m - 1)
    out = {}
    for b in range(2, m - 1):
        lb = 2 | 1 << b
        out[b] = ([rank[_relabelled(x, lb, old)] for x in masks], _adjoined_ranks(table, b))
    return out


def _lift(table: _Table, ranks, lift_map) -> tuple[int, list[int]]:
    """The `bits` of the (3, m) table and the member ranks of the lift of
    the collection with member ranks `ranks` through `lift_map`, a pair
    (relabel, added) such as an entry of `_lift_maps(table)`: relabel maps
    each of `ranks` to its lifted rank, and added holds the adjoined ranks.
    Checked for its size and its marker, not certified."""
    relabel, added = lift_map
    lifted = [*map(relabel.__getitem__, ranks), *added]
    bits = reduce(or_, map((1).__lshift__, lifted))
    if bits.bit_count() != len(lifted):
        raise AssertionError("lift changed the size by an unexpected amount")
    m = table.n
    if not bits >> table.rank[_to_mask((1, m - 2, m - 1))] & 1:
        raise AssertionError("lift lost the near-boundary marker")
    return bits, lifted


def w3_floor() -> WSCollection:
    """The unique maximal collection on four indices: all 3-subsets."""
    return WSCollection.of(3, 4, combinations(range(1, 5), 3))


def generate_w3(n: int) -> set[WSCollection]:
    """All maximal k=3 collections on [1..n], built recursively: lift every
    (collection, admissible index) pair one level up, then close under the
    polygon symmetries.  The levels hold `bits` ints (`_w3_bits`); a
    collection is built only for the ones returned."""
    level = _w3_bits(n)
    table = _table(3, n)
    return {WSCollection(table, bits) for bits in level}


def _w3_bits(n: int) -> set[int]:
    """The `bits` ints of the (3, n) table of `generate_w3(n)`.  Each lift
    goes through the rank map of its index, and a lift not yet in the closed
    set brings in its 2m translates.  A level below n maps each member to
    its ranks, the image list that made it, so no member is decoded; level n
    is a set, since nothing reads its ranks."""
    _require_dims(3, n, "k and n")
    if n < 4:
        raise ValueError("need n >= 4")
    floor = w3_floor()
    if n == 4:
        return {floor.bits}
    level, below = {floor.bits: floor.ranks()}, floor.table
    for m in range(5, n + 1):
        table = _table(3, m)
        maps, crossing = _lift_maps(table), table.crossing
        images = [table.image[g.rot, g.refl] for g in Dihedral.group(m)]
        closed = set() if m == n else {}
        for c, ranks in level.items():
            for b in _f_set(below, c, ranks):
                bits, lifted = _lift(table, ranks, maps[b])
                if any(map(bits.__and__, map(crossing.__getitem__, lifted))):
                    raise AssertionError("lift produced a non-separated collection")
                if bits in closed:  # its whole orbit is in already
                    continue
                moved = (map(image.__getitem__, lifted) for image in images)
                if m == n:
                    closed.update(sum(map((1).__lshift__, r)) for r in moved)
                else:
                    closed.update((sum(map((1).__lshift__, r)), r) for r in map(list, moved))
        level, below = closed, table
    return level
