"""Maximal weakly separated collections: validation, the base collection,
exchange moves, flip-graph enumeration, dihedral orbits, height, and the
constructive reduction to the base collection for k in {2,3}.

A collection is one int over the lexicographic ranks of its member
k-subsets, and an exchange move is a presence check plus an XOR on it;
member sets are sorted tuples only at the boundary (`WSCollection.of`,
`.sets`, JSON, and the properties of a `Move`); a listing line is joined
from per-rank JSON fragments (`json_text`).

A move is the pair (removes_mask, adds_mask) of its two diagonals as
bitmasks, which alone fix it: the anchor is their intersection and the
quad their symmetric difference.  `_sides` derives the four sides from
the pair, or rejects a pair that is not an exchange; `Move.of` and
`_flip` ask it.  `_flip` is the one check of a move on a collection's
`bits` (an exchange, its four sides and removed diagonal present, its
added diagonal absent) and flips it: `apply_move` and the replay of
`reduce_to_base` both call it.

`reduce_to_base` works on ints from its ingress check to its output: the
path is built as (removes_mask, adds_mask) pairs, the level collections of
the construction are `bits` of the (k, m) tables, the path is replayed and
certified on `bits` (`_flip` and one separation check per move), and
`Reduction.json_text` prints it from per-rank fragments; a `Move` is built
only when a caller reads `Reduction.moves`.

`find_moves` scans every quad of the (k, n) table for one collection.  The
closure walk (`enumerate_component`) scans only its seed: it carries each
collection's moves as its live-move set, one int over the quad indices,
and after a move re-tests only the quads through the diagonal it added.
Each rank table also holds crossing rows, `crossing[r]` the int of the
ranks not weakly separated from rank r, so that "r is separated from every
member" is one AND.  The k=3 lift generator certifies every lift with them.

A maximal collection is one that is separated and whose every non-member
crosses some member.  By purity (Oh-Postnikov-Speyer, arXiv:1109.4434;
Danilov-Karzanov-Koshevoy, 2010) that is the same as a separated collection
of k(n-k)+1 members, and that is what `is_maximal` tests and
`require_maximal` demands; `propagate`, `reduce_to_base` and the k=3 verbs
call the latter first.

A check of separation (`is_maximal` and `require_maximal`, and the public
`lift`) asks `_separated`, and the replay of `reduce_to_base` (which checks
one rank per move) asks `_uses_rows`: either takes the rows when the table
has at most `ROWS_PER_MEMBER` (4) subsets per member of the collection,
`table.size <= 4 * len(c)`, and the pair loop otherwise.  A
row costs C(n, k) pair tests once and one AND per use after, so the rows
pay off on a small table checked repeatedly, such as (3, 7), (3, 8) and k=2
up to n=15; a one-off check at a large (k, n) keeps the pair loop and fills
no row.  The rule decides only how, never whether: both ways answer the
predicate of `validate(c).ok`.  A caller that reports a failure takes its
message from `validate`, which is the pair loop and the report, so the
messages do not depend on the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, total_ordering
from itertools import combinations, groupby
from math import comb
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

from .subsets import (
    Dihedral,
    _from_mask,
    _is_int,
    _require_dims,
    _subset_mask,
    _to_mask,
    _weakly_separated_masks,
    check_in_range,
    is_boundary,
)


class _Lazy(dict):
    """A dict that fills a missing key with `fill(key)` on lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Table:
    """The k-subsets of [1..n], 0 <= k <= n, ranked in lexicographic order,
    which is the order of their sorted tuples; in a collection, rank r
    stands for bit 1 << r.  Ranks come from the combinatorial number system
    and are memoised as they are looked up, so a table holds only the
    subsets in use.  The move table and the symmetry images serve the walk
    and are built on first use.

    `rank[m]` is the rank of bitmask m, or -1 if m is not a k-subset of
    [1..n]; `subset[r]` and `mask[r]` give rank r back as a sorted tuple and
    as a bitmask, and `fragment[r]` as its JSON text, "[1, 2, 3]" as
    `json.dumps` writes it, from which `WSCollection.json_text` builds a
    listing line; `image[rot, refl][r]` is the rank of the image of rank r
    under the dihedral element `Dihedral(n, rot, refl)`; `crossing[r]` is
    the int of the ranks whose subsets are not weakly separated from that
    of rank r (C(n, k) pair tests per row, so only for tables whose every
    rank is in use).

    The table is the one holder of what is built per (k, n): besides the
    ranks and rows, the exchange quads (`quads`, six ranks each, which are
    the exchange relations `propagate` evaluates and from which the walk's
    bit forms `quad_tests` and `steps` are built), the base collection
    (`base`) and the int of the ranks that count towards `height` (`top_inner`).
    All of it goes with the table, once `_table` (the 32 most recently used)
    has evicted it and no collection refers to it.
    """

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        self.size = comb(n, k)
        self.rank = _Lazy(self._rank_of)
        self.subset = _Lazy(self._subset_of)
        self.mask = _Lazy(lambda r: _to_mask(self.subset[r]))
        self.fragment = _Lazy(lambda r: "[%s]" % ", ".join(map(str, self.subset[r])))
        self.image = _Lazy(lambda key: _Lazy(partial(self._image_of, Dihedral(n, *key))))
        self.crossing = _Lazy(self._crossing_of)

    def _rank_of(self, m: int) -> int:
        k, n = self.k, self.n
        if m < 0 or m & 1 or m >> n + 1 or m.bit_count() != k:
            return -1
        # c_1 < ... < c_k is followed by sum_i C(n - c_i, k - i + 1) subsets
        return self.size - 1 - sum(comb(n - x, k - i) for i, x in enumerate(_from_mask(m)))

    def _subset_of(self, r: int) -> tuple[int, ...]:
        # inverse of _rank_of: greedy digits of size-1-r, largest first
        rest = self.size - 1 - r
        out = []
        a = self.n
        for j in range(self.k, 0, -1):
            a -= 1
            while comb(a, j) > rest:
                a -= 1
            rest -= comb(a, j)
            out.append(self.n - a)
        return tuple(out)

    def _image_of(self, g: Dihedral, r: int) -> int:
        return self.rank[_to_mask(g.apply_subset(self.subset[r]))]

    def _crossing_of(self, r: int) -> int:
        a, mask = self.mask[r], self.mask
        out = 0
        for s in range(self.size):
            if not _weakly_separated_masks(a, mask[s]):
                out |= 1 << s
        return out

    @cached_property
    def quads(self) -> tuple:
        """One entry per anchor and quadruple i < s < j < t, in the scan
        order of `find_moves`: the ranks (r_is, r_sj, r_jt, r_it, r_ij,
        r_st) of anchor+{i,s}, +{s,j}, +{j,t}, +{i,t}, +{i,j} and +{s,t},
        the six sets of the exchange relation D[I+ij] D[I+st] = D[I+is]
        D[I+jt] + D[I+it] D[I+sj].  For k < 2 there are none."""
        rank = self.rank
        points = [1 << x for x in range(1, self.n + 1)]
        out = []
        for a in map(sum, combinations(points, self.k - 2)) if self.k >= 2 else ():
            for i, s, j, t in combinations([x for x in points if not a & x], 4):
                out.append(tuple(rank[a | p] for p in (i | s, s | j, j | t, i | t, i | j, s | t)))
        return tuple(out)

    def quad_move(self, q: int, forward: bool) -> "Move":
        """The move of quad q removing anchor+{i,j} if forward, else anchor+{s,t}."""
        r_ij, r_st = self.quads[q][4:]
        ij, st = self.mask[r_ij], self.mask[r_st]
        return Move(ij, st) if forward else Move(st, ij)

    @cached_property
    def quad_tests(self) -> tuple:
        """(side bits, diagonal bits, 1 << q) for each quad index q, from its ranks."""
        return tuple(
            (1 << r_is | 1 << r_sj | 1 << r_jt | 1 << r_it, 1 << r_ij | 1 << r_st, 1 << q)
            for q, (r_is, r_sj, r_jt, r_it, r_ij, r_st) in enumerate(self.quads)
        )

    @cached_property
    def steps(self) -> tuple:
        """Per quad index q, the bits the walk needs to apply its move, from
        its ranks: (the diagonal bits, the bit of anchor+{i,j}, the int of
        the quad indices whose six sets avoid both diagonals, the `quad_tests`
        of the quads through anchor+{s,t}, and of those through anchor+{i,j})."""
        through = {}  # rank -> quad_tests of the quads whose six sets hold it
        for ranks, test in zip(self.quads, self.quad_tests):
            for r in ranks:
                through.setdefault(r, []).append(test)
        # rank -> (int over the quad indices through it, their tests)
        through = {r: (sum(t[2] for t in tests), tuple(tests)) for r, tests in through.items()}
        out = []
        for (*_, r_ij, r_st), (_, diags, _) in zip(self.quads, self.quad_tests):
            (touch_ij, via_ij), (touch_st, via_st) = through[r_ij], through[r_st]
            out.append((diags, 1 << r_ij, ~(touch_ij | touch_st), via_st, via_ij))
        return tuple(out)

    def live(self, bits: int, tests) -> int:
        """The int over the quad indices of `tests` whose four sides and
        one diagonal are in the collection `bits`: its moves among them.
        A quad with its sides and both diagonals present raises the
        ValueError that `apply_move` raises for it."""
        out = 0
        for sides, diags, qbit in tests:
            if bits & sides == sides:
                d = bits & diags
                if d == diags:
                    st = self.quads[qbit.bit_length() - 1][5]
                    raise ValueError(f"move target {self.subset[st]} already present")
                if d:
                    out |= qbit
        return out

    @cached_property
    def base(self) -> "WSCollection":
        """The fan-shaped maximal collection: all boundary subsets together
        with the prefix-plus-run family [1..i] + [j..j+k-i-1], k(n-k)+1
        members for 1 <= k < n.  Every caller shares this one object, so it
        must not be changed."""
        k, n = self.k, self.n
        sets = set(boundary_sets(k, n))
        for i in range(1, k):
            for j in range(i + 2, n + i - k + 1):
                sets.add(tuple(range(1, i + 1)) + tuple(range(j, j + k - i)))
        rank = self.rank
        out = WSCollection(self, sum(1 << rank[_to_mask(t)] for t in sets))
        assert len(out) == k * (n - k) + 1
        return out

    @cached_property
    def top_inner(self) -> int:
        """The int of the ranks of the non-boundary subsets that contain n:
        a collection's height is the bit count of its `bits` & this."""
        k, n, top = self.k, self.n, 1 << self.n
        boundary = {_to_mask((n - j + x - 1) % n + 1 for x in range(k)) for j in range(k)}
        tops = (top | _to_mask(t) for t in combinations(range(1, n), k - 1)) if k else ()
        return sum(1 << self.rank[m] for m in tops if m not in boundary)


@lru_cache(maxsize=32)
def _table(k: int, n: int) -> _Table:
    return _Table(k, n)


@total_ordering
class WSCollection:
    """A collection of k-subsets of [1..n]: one int `bits` over the subset
    ranks of the (k, n) table.  `sets` lists the members as sorted tuples
    in sorted order; collections compare as (k, n, sets) do.

    Build collections from outside with `of`, which checks every member;
    the constructor trusts its arguments.  The hash is computed once, so
    the attributes must not be reassigned.
    """

    __slots__ = ("k", "n", "bits", "table", "_hash", "_ranks")

    def __init__(self, table: _Table, bits: int):
        self.k = table.k
        self.n = table.n
        self.bits = bits
        self.table = table
        self._hash = hash((table.k, table.n, bits))
        self._ranks = None

    @staticmethod
    def of(k: int, n: int, sets: Iterable[Iterable[int]]) -> "WSCollection":
        """Check and canonicalise members given as iterables of ints; a
        repeated member is an error."""
        _require_dims(k, n, "k and n")
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k} and n={n}")
        table = _table(k, n)
        rank = table.rank
        ranks = set()
        for s in sets:
            t = check_in_range(s, n)
            if len(t) != k:
                raise ValueError(f"{t} is not a {k}-subset")
            r = rank[_to_mask(t)]
            if r in ranks:
                raise ValueError(f"{t} appears more than once in the collection")
            ranks.add(r)
        c = _Unbuilt.__new__(_Unbuilt)
        c.k, c.n, c.table = k, n, table
        c._ranks = tuple(sorted(ranks))
        return c

    @staticmethod
    def of_masks(k: int, n: int, masks: Iterable[int]) -> "WSCollection":
        """Trusted constructor from member bitmasks, each a k-subset of
        [1..n]; a repeated mask counts once."""
        table = _table(k, n)
        rank = table.rank
        bits = 0
        for m in masks:
            bits |= 1 << rank[m]
        return WSCollection(table, bits)

    def ranks(self) -> tuple[int, ...]:
        """Member ranks, ascending; decoded from `bits` on first use."""
        if self._ranks is None:
            self._ranks = _from_mask(self.bits)
        return self._ranks

    def sort_key(self) -> tuple:
        """(k, n, ranks()): sorting by this key gives the order of `<`, with
        the comparisons made on tuples of ints.  It decodes the ranks, so it
        pays off where they are decoded anyway, as in a printed listing."""
        return (self.k, self.n, self.ranks())

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        subset = self.table.subset
        return tuple(subset[r] for r in self.ranks())

    def masks(self) -> list[int]:
        """Member bitmasks in the order of `sets`."""
        mask = self.table.mask
        return [mask[r] for r in self.ranks()]

    def __contains__(self, s) -> bool:
        # a non-iterable, a bool or another non-int element is no member
        try:
            t = tuple(s)
            r = self.table.rank[_subset_mask(t)]
        except (TypeError, ValueError):
            return False
        return r >= 0 and bool(self.bits >> r & 1) and self.table.subset[r] == t

    def __len__(self) -> int:
        ranks = self._ranks
        return len(ranks) if ranks is not None else self.bits.bit_count()

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, WSCollection):
            return NotImplemented
        return self.bits == other.bits and self.k == other.k and self.n == other.n

    def __lt__(self, other) -> bool:
        if not isinstance(other, WSCollection):
            return NotImplemented
        if self.k != other.k or self.n != other.n:
            return (self.k, self.n) < (other.k, other.n)
        # Lexicographic order of the ascending rank sequences: decided at
        # the lowest rank r in exactly one of the two.
        a, b = self.bits, other.bits
        d = a ^ b
        if not d:
            return False
        low = d & -d
        if a & low:
            return b > low  # b goes on past r
        return a < low  # a stops before r

    def __repr__(self) -> str:
        return f"WSCollection(k={self.k}, n={self.n}, sets={self.sets!r})"

    def non_boundary(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s for s in self.sets if not is_boundary(s, self.n))

    def to_json_dict(self) -> dict:
        return {"k": self.k, "n": self.n, "sets": [list(s) for s in self.sets]}

    def json_text(self) -> str:
        """`json.dumps(self.to_json_dict(), sort_keys=True)`, joined from
        the per-rank fragments of the table."""
        sets = ", ".join(map(self.table.fragment.__getitem__, self.ranks()))
        return '{"k": %d, "n": %d, "sets": [%s]}' % (self.k, self.n, sets)

    @staticmethod
    def from_json_dict(d: dict) -> "WSCollection":
        """A collection from its JSON object; a wrongly shaped object is a
        ValueError, and so is a boolean where an integer belongs."""
        if not isinstance(d, dict) or not {"k", "n", "sets"} <= d.keys():
            raise ValueError('a collection must be a JSON object with keys "k", "n" and "sets"')
        for key in ("k", "n"):
            if isinstance(d[key], bool):
                raise ValueError(f'"{key}" must be an integer, got {str(d[key]).lower()}')
        sets = d["sets"]
        if not isinstance(sets, list) or not all(
            isinstance(t, list) and all(map(_is_int, t)) for t in sets
        ):
            raise ValueError('"sets" must be a list of lists of integers')
        return WSCollection.of(d["k"], d["n"], sets)


class _Unbuilt(WSCollection):
    """A collection made by `of`.  Its int `bits`, of up to C(n, k) bits,
    and its hash are built on first use, so a large (k, n) that is only
    validated or printed never builds them.  `__getattr__` lives on this
    subclass because on `WSCollection` it would slow every attribute read
    in the walk."""

    __slots__ = ()

    def __getattr__(self, name):
        if name == "bits":
            self.bits = sum(map((1).__lshift__, self._ranks))
            return self.bits
        if name == "_hash":
            self._hash = hash((self.k, self.n, self.bits))
            return self._hash
        raise AttributeError(name)


def _sides(removes: int, adds: int) -> tuple[int, int, int, int] | None:
    """The side masks anchor+{i,s}, +{s,j}, +{j,t} and +{i,t} of the
    exchange that swaps the diagonal bitmasks removes and adds, or None
    unless they are anchor+{i,j} and anchor+{s,t}, in either role, for
    some i < s < j < t outside the anchor removes & adds."""
    anchor = removes & adds
    ij, st = removes ^ anchor, adds ^ anchor
    if ij.bit_count() != 2 or st.bit_count() != 2:
        return None
    i, s = ij & -ij, st & -st
    if s < i:
        i, s, ij, st = s, i, st, ij
    j, t = ij ^ i, st ^ s
    if not s < j < t:
        return None
    return anchor | i | s, anchor | s | j, anchor | j | t, anchor | i | t


@dataclass(frozen=True)
class Move:
    """Exchange move inside a maximal collection, held as the bitmasks of
    its two diagonals: it removes `removes_mask` and adds `adds_mask`, which
    are anchor+{i,j} and anchor+{s,t}, in either role, for a quadruple
    i < s < j < t whose four sides anchor+{i,s}, anchor+{s,j}, anchor+{j,t}
    and anchor+{i,t} are all present.  The anchor is the intersection of
    the diagonals and the quad their symmetric difference; `anchor`,
    `quad`, `removes`, `adds` and `sides` decode them on each read.

    Build moves from outside with `of`, which checks the two diagonals; the
    constructor trusts its arguments."""

    removes_mask: int
    adds_mask: int

    @staticmethod
    def of(removes: Iterable[int], adds: Iterable[int]) -> "Move":
        """The move swapping the diagonal removes for adds, each an iterable
        of ints; any pair that is not an exchange is a ValueError."""
        mv = Move(_subset_mask(removes), _subset_mask(adds))
        if _sides(mv.removes_mask, mv.adds_mask) is None:
            raise ValueError(f"{mv.removes} -> {mv.adds} is not an exchange of two diagonals")
        return mv

    @property
    def anchor(self) -> tuple[int, ...]:
        return _from_mask(self.removes_mask & self.adds_mask)

    @property
    def quad(self) -> tuple[int, ...]:
        """(i, s, j, t)."""
        return _from_mask(self.removes_mask ^ self.adds_mask)

    @property
    def removes(self) -> tuple[int, ...]:
        return _from_mask(self.removes_mask)

    @property
    def adds(self) -> tuple[int, ...]:
        return _from_mask(self.adds_mask)

    @property
    def sides(self) -> tuple[tuple[int, ...], ...]:
        """anchor+{i,s}, anchor+{s,j}, anchor+{j,t}, anchor+{i,t}."""
        return tuple(map(_from_mask, _sides(self.removes_mask, self.adds_mask)))

    def inverse(self) -> "Move":
        return Move(self.adds_mask, self.removes_mask)

    def translate(self, g: Dihedral) -> "Move":
        return Move(*(_to_mask(map(g.apply, d)) for d in (self.removes, self.adds)))

    def to_json_dict(self) -> dict:
        return {
            "anchor": list(self.anchor),
            "quad": list(self.quad),
            "removes": list(self.removes),
            "adds": list(self.adds),
        }


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[str, ...] = ()


def validate(c: WSCollection) -> ValidationReport:
    """Test every pair of members for weak separation.  Members are
    k-subsets of [1..n] by construction."""
    masks = c.masks()
    issues = []
    for x, a in enumerate(masks):
        for b in masks[x + 1:]:
            if not _weakly_separated_masks(a, b):
                issues.append(f"{_from_mask(a)} and {_from_mask(b)} are not weakly separated")
    return ValidationReport(not issues, tuple(issues))


ROWS_PER_MEMBER = 4


def _uses_rows(c: WSCollection) -> bool:
    """The cost rule: crossing rows when the table has at most
    `ROWS_PER_MEMBER` subsets per member of c, else the pair loop."""
    return c.table.size <= ROWS_PER_MEMBER * len(c)


def _separated(c: WSCollection) -> bool:
    """Whether c is weakly separated, `validate(c).ok`: one AND per member
    with crossing rows, else pair tests over its pairs, as `_uses_rows`
    decides, stopping at the first crossing."""
    if _uses_rows(c):
        bits, crossing = c.bits, c.table.crossing
        for r in c.ranks():
            if bits & crossing[r]:
                return False
        return True
    members = c.masks()
    for x, a in enumerate(members):
        if not all(map(partial(_weakly_separated_masks, a), members[x + 1:])):
            return False
    return True


def _separated_from(table: _Table, bits: int, r: int, members: Iterable[int] | None) -> bool:
    """Whether rank r is weakly separated from every member of the
    collection `bits` of the table: one AND with its crossing row when
    `members` is None, else pair tests against `members`, the bitmasks of
    the same collection."""
    if members is None:
        return not bits & table.crossing[r]
    return all(map(partial(_weakly_separated_masks, table.mask[r]), members))


def is_maximal(c: WSCollection) -> bool:
    """Whether c has k(n-k)+1 pairwise weakly separated members, which by
    purity is the same as maximal; a crossing c is not maximal."""
    return len(c) == c.k * (c.n - c.k) + 1 and _separated(c)


def require_maximal(c: WSCollection) -> None:
    """Raise ValueError unless `is_maximal(c)`, naming the wrong size or
    the first crossing pair of `validate`."""
    k, n = c.k, c.n
    if len(c) != k * (n - k) + 1:
        raise ValueError(
            f"the collection is not maximal: it has {len(c)} members, "
            f"a maximal collection of {k}-subsets of [1..{n}] has {k * (n - k) + 1}"
        )
    if not _separated(c):
        raise ValueError(f"the collection is not weakly separated: {validate(c).issues[0]}")


def boundary_sets(k: int, n: int) -> list[tuple[int, ...]]:
    return sorted(
        tuple(sorted((start + d) % n + 1 for d in range(k))) for start in range(n)
    )


def base_collection(k: int, n: int) -> WSCollection:
    """The fan-shaped maximal collection of k-subsets of [1..n], 1 <= k < n,
    kept by the (k, n) rank table (`_Table.base`).  Every caller of a
    (k, n) shares one object, so it must not be changed.  k and n must be
    ints: `_table` would hand a float or a bool the int table."""
    _require_dims(k, n, "k and n")
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    return _table(k, n).base


def translate(c: WSCollection, g: Dihedral) -> WSCollection:
    if g.n != c.n:
        raise ValueError("dihedral element acts on the wrong polygon")
    image = c.table.image[g.rot, g.refl]
    return WSCollection(c.table, sum(map((1).__lshift__, map(image.__getitem__, c.ranks()))))


def find_moves(c: WSCollection) -> list[Move]:
    """All exchange moves available in c (which should be maximal), read
    from one byte per rank, so that a large table builds no bit form of its
    quads: for each anchor and quadruple with all four sides present, exactly
    one diagonal is present in a maximal collection, and the move swaps it.
    A quad with its sides and both diagonals present raises the ValueError
    that `apply_move` raises for it."""
    table = c.table
    has = bytearray(table.size)
    for r in c.ranks():
        has[r] = 1
    moves = []
    for q, (r_is, r_sj, r_jt, r_it, r_ij, r_st) in enumerate(table.quads):
        if has[r_is] and has[r_sj] and has[r_jt] and has[r_it] and (has[r_ij] or has[r_st]):
            if has[r_ij] and has[r_st]:
                raise ValueError(f"move target {table.subset[r_st]} already present")
            moves.append(table.quad_move(q, has[r_ij]))
    return moves


def _flip(table: _Table, bits: int, removes: int, adds: int) -> int:
    """The collection `bits` of the table after the move that swaps the
    diagonal bitmasks removes for adds.  A pair that is not an exchange, an
    absent side, an absent removes or a present adds is a ValueError."""
    sides = _sides(removes, adds)
    if sides is None:
        raise ValueError(
            f"{_from_mask(removes)} -> {_from_mask(adds)} is not an exchange of two diagonals"
        )
    rank = table.rank
    for m in sides:
        r = rank[m]
        if r < 0 or not bits >> r & 1:
            raise ValueError(f"move side {_from_mask(m)} absent from collection")
    # with the sides present, both diagonals are k-subsets of [1..n] too
    r_out, r_in = rank[removes], rank[adds]
    if not bits >> r_out & 1:
        raise ValueError(f"move diagonal {_from_mask(removes)} absent from collection")
    if bits >> r_in & 1:
        raise ValueError(f"move target {_from_mask(adds)} already present")
    return bits ^ (1 << r_out | 1 << r_in)


def apply_move(c: WSCollection, mv: Move) -> WSCollection:
    return WSCollection(c.table, _flip(c.table, c.bits, mv.removes_mask, mv.adds_mask))


def _walk(seed: WSCollection) -> Iterator[tuple[int, int]]:
    """(bits, live) of each collection in the closure of the seed under
    exchange moves, in breadth-first order, where `live` is the int over
    the quad indices of its moves: set bit q stands for the move of
    `find_moves` on quad q, and the order of the set bits is theirs.

    Only the seed is tested against every quad.  A move on quad q removes
    one diagonal and adds the other, so only the quads through either
    diagonal can change.  The quads through the added one are re-tested;
    each quad through the removed one alone is dead afterwards: a side is
    gone, or its other diagonal is absent.  A collection with a quad whose
    sides and both diagonals are present raises the error of `apply_move`
    before any of its moves is followed.

    The walk goes level by level.  Every move has its inverse, so a
    neighbour of a collection at distance d from the seed is at distance
    d - 1, d or d + 1, and only those three levels are kept to recognise
    collections already seen.  A queued collection keeps its parent's
    moves and the quads to re-test, and its own moves are derived when it
    is taken from the queue.
    """
    table = seed.table
    steps, live = table.steps, table.live
    older, current = set(), {seed.bits}
    level = [(seed.bits, 0, 0, table.quad_tests)]
    while level:
        following, queued = set(), []
        for bits, inherited, kept, tests in level:
            moves = inherited & kept | live(bits, tests)
            yield bits, moves
            rest = moves
            while rest:
                low = rest & -rest
                rest ^= low
                diags, ij, keep, via_st, via_ij = steps[low.bit_length() - 1]
                nxt = bits ^ diags
                if nxt in following or nxt in current or nxt in older:
                    continue
                following.add(nxt)
                queued.append((nxt, moves, keep, via_ij if nxt & ij else via_st))
        older, current, level = current, following, queued


def enumerate_component(seed: WSCollection) -> set[WSCollection]:
    """Closure of the seed under all exchange moves (breadth-first)."""
    table = seed.table
    return {WSCollection(table, bits) for bits, _ in _walk(seed)}


def dihedral_orbits(cs: Iterable[WSCollection]) -> list[tuple[WSCollection, ...]]:
    """Partition collections into orbits of the polygon-symmetry action.
    Orbits are listed and internally sorted canonically.

    Within one (k, n) the distinct collections are taken in the caller's
    order, each one not yet placed gathering its orbit: its ranks are mapped
    through each `image[rot, refl]` of its table to the int `bits` of a
    translate, which is looked up among the collections not yet placed.  No
    collection is built: the orbits hold the given ones.  Each orbit is then
    sorted with `<`, its members taken in the caller's order, and the orbits
    by their least members, so a sorted list needs one comparison per
    collection and an unsorted one sorts only within orbits and leaders."""
    kn = attrgetter("k", "n")
    orbits = []
    for _, block in groupby(sorted(dict.fromkeys(cs), key=kn), key=kn):
        block = list(block)
        unplaced = {c.bits: x for x, c in enumerate(block)}
        table = block[0].table
        images = [table.image[g.rot, g.refl] for g in Dihedral.group(table.n)]
        found = []
        for c in block:
            if c.bits in unplaced:
                ranks = c.ranks()
                xs = [
                    unplaced.pop(sum(map((1).__lshift__, map(image.__getitem__, ranks))), -1)
                    for image in images
                ]
                found.append(tuple(sorted(block[x] for x in sorted(xs) if x >= 0)))
        found.sort(key=itemgetter(0))
        orbits += found
    return orbits


def height(c: WSCollection) -> int:
    """Number of non-boundary member sets containing the top index n."""
    return (c.bits & c.table.top_inner).bit_count()


@dataclass(frozen=True)
class Reduction:
    """A certified move path: applying its moves in order to the reduced
    collection produces `end`, the base collection.

    `path` holds each move as the pair (removes_mask, adds_mask) of its two
    diagonals as bitmasks, the two fields of a `Move`.  `moves` is the same
    path as a tuple of `Move`, built on first read, and `json_text` writes
    the path without building one."""

    path: tuple[tuple[int, int], ...]
    end: WSCollection

    @cached_property
    def moves(self) -> tuple[Move, ...]:
        return tuple(Move(removes, adds) for removes, adds in self.path)

    def to_json_dict(self) -> dict:
        return {
            "moves": [m.to_json_dict() for m in self.moves],
            "length": len(self.path),
            "end": self.end.to_json_dict(),
        }

    def json_text(self) -> str:
        """`json.dumps(self.to_json_dict(), sort_keys=True)`, each move's
        line joined from the per-rank fragments of the (k, n) table for its
        diagonals, of the (k - 2, n) table for its anchor and of the (4, n)
        table for its quad."""
        end = self.end
        lines = []
        if self.path:
            rank, fragment = end.table.rank, end.table.fragment
            anchors, quads = _table(end.k - 2, end.n), _table(4, end.n)
            for removes, adds in self.path:
                lines.append(
                    '{"adds": %s, "anchor": %s, "quad": %s, "removes": %s}'
                    % (
                        fragment[rank[adds]],
                        anchors.fragment[anchors.rank[removes & adds]],
                        quads.fragment[quads.rank[removes ^ adds]],
                        fragment[rank[removes]],
                    )
                )
        return '{"end": %s, "length": %d, "moves": [%s]}' % (
            end.json_text(), len(lines), ", ".join(lines)
        )


def _witness(table: _Table, bits: int) -> tuple[int, bool]:
    """(rot, refl) of the first g of `Dihedral.group` with the marker
    {1, n-2, n-1} in g . c, for c the collection `bits` of a (3, n) table,
    n >= 5: the marker is in g . c exactly when the image of its rank under
    g^-1 is in c."""
    n, image = table.n, table.image
    r = table.rank[_to_mask((1, n - 2, n - 1))]
    for refl in (False, True):
        for rot in range(n):
            if bits >> image[(rot, True) if refl else (-rot % n, False)][r] & 1:
                return rot, refl
    raise AssertionError("no dihedral translate contains the near-boundary marker")


def _pinch_index(table: _Table, bits: int, top: int) -> int:
    """The unique b with both prefix+{b,top-1} and prefix+{b,top} in the
    collection `bits` of the table, k in {2, 3}: the largest b in
    [2..top-2] (k=3) or [1..top-2] (k=2) whose prefix+{b,top} is present.
    For k=3 the collection must contain {1,top-2,top-1}."""
    k, rank = table.k, table.rank

    def has(m: int) -> bool:
        r = rank[m]
        return r >= 0 and bool(bits >> r & 1)

    pre = 2 if k == 3 else 0  # the prefix: {1} for triples, empty for pairs
    if k == 3 and not has(_to_mask((1, top - 2, top - 1))):
        raise ValueError(f"collection lacks {{1,{top-2},{top-1}}}")
    lo = 2 if k == 3 else 1
    for b in range(top - 2, lo - 1, -1):
        if has(pre | 1 << b | 1 << top):
            partner = pre | 1 << b | 1 << (top - 1)
            if not has(partner):
                raise ValueError(f"pinch candidate {b} lacks partner {_from_mask(partner)}")
            return b
    raise ValueError("no pinch index found")


def _pinch_down(table: _Table, bits: int, q: tuple[int, ...], moves: list) -> int:
    """Apply height-decreasing moves at the top index n of the table to the
    collection `bits` until its height is 0, and return the result.  Each
    move swaps prefix+{b,n} for prefix+{a,n-1}, where b is the pinch index
    and a the largest smaller index with prefix+{a,n} present; it is
    appended to `moves` as (removes_mask, adds_mask) with index x written
    q[x].  The level is internal, so a `_pinch_index` ValueError here is a
    construction fault: it is raised as an AssertionError naming the level
    and the reason."""
    k, top, rank = table.k, table.n, table.rank
    qbit = [1 << x for x in q]
    pre, qpre = (2, qbit[1]) if k == 3 else (0, 0)
    lo = 2 if k == 3 else 1
    t0, t1 = 1 << top, 1 << (top - 1)
    inner = table.top_inner
    while bits & inner:
        try:
            b = _pinch_index(table, bits, top)
        except ValueError as exc:
            raise AssertionError(f"pinch at level {top}: {exc}") from None
        a = next((x for x in range(b - 1, lo - 1, -1) if bits >> rank[pre | 1 << x | t0] & 1), None)
        if a is None:
            raise AssertionError("no companion index below the pinch index")
        # the replay checks the move: its sides, removes present and adds absent
        bits ^= 1 << rank[pre | 1 << b | t0] | 1 << rank[pre | 1 << a | t1]
        moves.append((qpre | qbit[b] | qbit[top], qpre | qbit[a] | qbit[top - 1]))
    return bits


def _undo_moves(g: Dihedral, m: int, p: tuple[int, ...]) -> list[tuple[int, int]]:
    """Moves reducing g . base(3,m) to base(3,m), index x written p[x], as
    (removes_mask, adds_mask) pairs.  Only k=3 takes a witness, so only k=3
    has symmetry to undo.

    With g = rho^rot sigma^refl: the descent of sigma (if g reflects) written
    through p . rho^rot, then for i = rot-1, ..., 0 the descent of rho
    written through p . rho^i.  A descent takes a generator's translate of
    base(3, top) to base(3, top) for top = m, ..., 5, with one move per top
    for sigma and two for rho."""
    moves = []
    steps = [(g.rot, True)] if g.refl else []
    for i, refl in steps + [(i, False) for i in range(g.rot - 1, -1, -1)]:
        # index x -> the bit of p[rho^i(x)]
        f = (0, *(1 << x for x in p[i + 1 : m + 1]), *(1 << x for x in p[1 : i + 1]))
        for top in range(m, 4, -1):
            if not refl:
                moves.append((f[2] | f[3] | f[top], f[1] | f[2] | f[top - 1]))
            moves.append((f[2] | f[top - 1] | f[top], f[1] | f[top - 2] | f[top - 1]))
    return moves


def _moves_to_base(c: WSCollection) -> list[tuple[int, int]]:
    """Moves reducing c to the base collection, as (removes_mask, adds_mask)
    pairs in the indexing of c, one level m = n, ..., k+2 at a time.  At
    level m, `bits` is a maximal collection of the (k, m) table whose index
    x is the input's p[x].  For k=3 the witness g puts the near-boundary
    marker in g . c, and the level is translated by it; pinch moves written
    through q = p . g^-1 (q = p for k=2, which takes no witness) bring its
    height at m to 0, and stripping m leaves the next level's collection,
    with p = q.  For k=3 that leaves g^-1 . base(3, m) at each level, so the
    undo moves follow the loop, innermost level first.  The replay, not
    this function, checks the moves and that they land on the base."""
    k, table, bits = c.k, c.table, c.bits
    p = q = tuple(range(c.n + 1))
    moves, undo = [], []
    for m in range(c.n, k + 1, -1):
        if k == 3:
            rot, refl = _witness(table, bits)
            image = table.image[rot, refl]
            bits = sum(1 << image[r] for r in _from_mask(bits))
            ginv = Dihedral(m, rot, refl).inverse()
            q = (0, *(p[ginv.apply(x)] for x in range(1, m + 1)))
            undo.append((ginv, m, p))
        bits = _pinch_down(table, bits, q, moves)
        mask, table = table.mask, _table(k, m - 1)
        rank, top = table.rank, 1 << m
        bits = sum(1 << rank[s] for s in map(mask.__getitem__, _from_mask(bits)) if not s & top)
        p = q
    for ginv, m, p in reversed(undo):
        moves += _undo_moves(ginv, m, p)
    return moves


def _replay(c: WSCollection, path: list[tuple[int, int]]) -> None:
    """Certify the path from the certified collection c to the base
    collection on `bits`.  Each (removes, adds) pair is checked and flipped
    by `_flip`, the one move check that `apply_move` makes too, and the
    rank flipped in is certified against the whole new collection: one AND
    with its crossing row when `_uses_rows(c)`, else pair tests against the
    set of member masks, kept up to date move by move, so that with c
    certified every collection on the path is.  The last must be the base.
    A failure is an AssertionError naming the move and, for a move `_flip`
    rejects, its reason: only the construction can cause it."""
    table = c.table
    rank = table.rank
    bits = c.bits
    members = None if _uses_rows(c) else set(c.masks())
    for x, (removes, adds) in enumerate(path):
        try:
            bits = _flip(table, bits, removes, adds)
        except ValueError as exc:
            raise _replay_error(x, path, str(exc)) from None
        if members is not None:
            members.remove(removes)
            members.add(adds)
        if not _separated_from(table, bits, rank[adds], members):
            raise _replay_error(x, path, "the reduction produced a non-separated collection")
    if bits != table.base.bits:
        raise AssertionError("reduction did not land on the base collection")


def _replay_error(x: int, path: list[tuple[int, int]], why: str) -> AssertionError:
    removes, adds = path[x]
    return AssertionError(
        f"reduction move {x + 1} of {len(path)}, {_from_mask(removes)} -> {_from_mask(adds)}: {why}"
    )


def reduce_to_base(c: WSCollection) -> Reduction:
    """A certified sequence of exchange moves from c to the base collection.

    The moves follow the paper's construction (`_moves_to_base`): at each
    level pinch moves down to the top index, found and applied on the
    level's `bits`; for k=3 a dihedral witness first, and after the last
    level the moves that undo each level's symmetry (`_undo_moves`).  Each
    move is kept as the pair of its diagonals' bitmasks in the indexing of c.

    c must have k in {2, 3} and k < n, and is checked by `require_maximal`;
    then every move is replayed on `bits` (`_replay`) with the one move
    check, `_flip`, and a separation check of the rank it adds, which with
    c certified is a full validation of every collection on the path.  A
    path that breaks would falsify the construction, not the input, and
    raises AssertionError.  The result's `moves` are built only when read;
    `Reduction.json_text` prints the path without them.
    """
    if c.k not in (2, 3):
        raise ValueError("reduction implemented for k in {2,3} only")
    if c.k >= c.n:
        raise ValueError(f"reduction needs k < n, got k={c.k} and n={c.n}")
    require_maximal(c)
    path = _moves_to_base(c)
    _replay(c, path)
    return Reduction(path=tuple(path), end=c.table.base)


def sizes_histogram(cs: Iterable[WSCollection]) -> dict[int, int]:
    hist: dict[int, int] = {}
    for c in cs:
        hist[len(c)] = hist.get(len(c), 0) + 1
    return dict(sorted(hist.items()))
