"""Maximal weakly separated collections: validation, the base collection,
exchange moves, flip-graph enumeration, dihedral orbits, height, and the
constructive reduction to the base collection for k in {2,3}.

A collection is one int over the lexicographic ranks of its member
k-subsets, and an exchange move is a presence check plus an XOR on it;
member sets are sorted tuples only at the boundary (`WSCollection.of`,
`.sets`, JSON, and the properties of a `Move`); a listing line is joined
from per-rank JSON fragments (`_Table.json_line`, behind `json_text`).
The full listings of the CLI never build a collection per state: they
take the walk's ints, decode each once, sort the rank tuples (within one
table their order is that of `<`), print each line from its ranks, count
orbits with `_orbits` and sizes with `int.bit_count`.

A move is the pair (removes_mask, adds_mask) of its two diagonals as
bitmasks, which alone fix it: the anchor is their intersection and the
quad their symmetric difference.  `_sides` derives the four sides from
the pair, or rejects a pair that is not an exchange; `Move.of` and
`_flip` ask it.  `_flip` is the one check of a move on a collection's
`bits` (an exchange, its four sides and removed diagonal present, its
added diagonal absent) and flips it: `apply_move` and the replay of
`reduce_to_base` both call it.

`reduce_to_base` works on ints from its ingress check to its output, on
the one table of its input: the path is built as (removes_mask, adds_mask)
pairs, each level collection of the construction is the input's `bits`
read through an index map from the level's indices to the input's, the
path is replayed and certified on `bits` (`_flip` and one separation check
per move), and `Reduction.json_text` prints it from per-rank fragments; a
`Move` is built only when a caller reads `Reduction.moves`.

`find_moves` scans every quad of the (k, n) table for one collection.  The
closure walk (`enumerate_component`) scans only its seed: it carries each
collection's moves as its live-move set, one int over the quad indices,
and after a move re-tests only the quads through the diagonal it added,
read from the per-rank index `through`, so its state is linear in the
quads.  Each rank table also holds crossing rows, `crossing[r]` the int of
the ranks not weakly separated from rank r, so that "r is separated from
every member" is one AND.  The k=3 lift generator certifies every lift.

One byte-table kernel (`_Table._through`) reads a collection's `bits` one
byte at a time: at byte position j, slot v holds the sum over the set bits
x of v of f(8j + x), and the result is the sum of the slots the bytes pick.
Per table there are three such tables.  The rotation by one and a
reflection, f(r) = 1 << image[r], give the dihedral translates
(`_Table.translates`, read by the orbit partition `_orbits` and by the
closure of the k=3 lift generator); the decode, f(r) = (r,), gives the
member ranks (`_Table.ranks_of`, behind `WSCollection.ranks` and `sets`,
and read by the listings and by the lift generator).  A slot is filled
when first read, and every byte position shares one empty row until a slot
of its own is written, so a one-off orbit or decode at a large (k, n)
builds only what it reads.  `_from_mask` decodes single masks, byte values
and error messages only.  `translate` maps each member rank through
`_Table._image_of`; `reduce_to_base`'s witness and levels map indices, not
ranks.

A maximal collection is one that is separated and whose every non-member
crosses some member.  By purity (Oh-Postnikov-Speyer, arXiv:1109.4434;
Danilov-Karzanov-Koshevoy, 2010) that is the same as a separated collection
of k(n-k)+1 members, and that is what `is_maximal` tests and
`require_maximal` demands; `propagate`, `reduce_to_base` and the k=3 verbs
call the latter first.

A check of separation (`is_maximal` and `require_maximal`, and so the
public `lift`) asks `_separated`, and the replay of `reduce_to_base` (which
checks one rank per move) asks `_uses_rows`: either takes the crossing rows
once the pair tests the table's pair loops have already run
(`_Table.pair_tests`) cover filling the rows of the collection's members
that are still empty, C(n, k) pair tests each, and pair tests otherwise,
which for `_separated` are `validate` itself.  A row costs C(n, k) pair
tests once and one AND per use after, so a table checked repeatedly moves
to rows once its pair loops have paid for them, a table whose member rows
are filled takes them at once, and a one-off check at a large (k, n) keeps
the pair loop and fills no row.  The rule decides only how, never whether:
both ways answer the predicate of `validate(c).ok`.  A caller that reports
a failure takes its message from `validate`, which is the pair loop and the
report, so the messages do not depend on the rule.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, total_ordering
from itertools import combinations, groupby, repeat
from math import comb
from operator import attrgetter, itemgetter
from typing import Collection, Iterable, Iterator

from .subsets import (
    Dihedral,
    _bounded_mask,
    _from_mask,
    _is_int,
    _require_dims,
    _to_mask,
    _weakly_separated_masks,
    as_subset,
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


def _bit_of(image: dict, r: int) -> int:
    return 1 << image[r]


def _singleton(r: int) -> tuple[int]:
    return (r,)


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
    `json.dumps` writes it, from which `json_line` builds a listing line;
    `_image_of(g, r)` is the rank of the image of rank r under the dihedral
    element g.  The byte tables of the one kernel `_through` are `_steps`,
    of the rotation by one and the reflection, which `translates` reads,
    and `_decode`, of the rank decode, which `ranks_of` reads; each is
    filled slot by slot as read, and its byte positions share one empty row
    until one of their slots is written (copy-on-write), since a table may
    serve a single decode or orbit, as the one-off `sets` of a large
    collection, the end of a `reduce-base` path or `orbits` of one
    collection at a large (k, n) do.  `crossing[r]` is the int of the ranks
    whose subsets are not weakly separated from that of rank r (C(n, k)
    pair tests per row, so only for tables whose every rank is in use), and
    `pair_tests` counts the pair tests the table's pair loops (`validate`
    and the pair side of `_separated_from`) have run, against which
    `_uses_rows` weighs filling rows.

    The table is the one holder of what is built per (k, n): besides the
    ranks and rows, the exchange quads (`quads`, six ranks each, which are
    the exchange relations `propagate` evaluates and from which the walk's
    bit forms `quad_tests` and `through` are built) and the base collection
    (`base`).  All of it goes with the table, once `_table` (the 32 most
    recently used) has evicted it and no collection refers to it.
    """

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        self.size = comb(n, k)
        self.rank = _Lazy(self._rank_of)
        self.subset = _Lazy(self._subset_of)
        self.mask = _Lazy(lambda r: _to_mask(self.subset[r]))
        self.fragment = _Lazy(lambda r: "[%s]" % ", ".join(map(str, self.subset[r])))
        self._line_head = '{"k": %d, "n": %d, "sets": [' % (k, n)
        self.crossing = _Lazy(self._crossing_of)
        self.pair_tests = 0

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

    def _byte_table(self, f, zero) -> tuple:
        """An empty byte table of f over the ranks: (rows, empty, f), where
        rows[j] is the row of byte position j, whose slot v holds the sum,
        from `zero`, of f(8j + x) over the set bits x of v, or None until
        read.  Every position shares the row `empty`, which holds only
        `zero` in slot 0, until `_through` first writes a slot of its own."""
        empty = [zero] + [None] * 255
        return [empty] * (self.size + 7 >> 3), empty, f

    @cached_property
    def _steps(self) -> tuple:
        """The byte tables of the rotation by one and of the reflection,
        f(r) = 1 << image[r], each over its own lazily filled rank map
        `image` of the dihedral element (1, False) or (0, True)."""
        return tuple(
            self._byte_table(partial(_bit_of, _Lazy(partial(self._image_of, Dihedral(self.n, *key)))), 0)
            for key in ((1, False), (0, True))
        )

    @cached_property
    def _decode(self) -> tuple:
        """The byte table of the rank decode: f(r) = (r,)."""
        return self._byte_table(_singleton, ())

    def ranks_of(self, bits: int) -> tuple[int, ...]:
        """The ranks of the collection `bits`, ascending."""
        return self._through(self._decode, bits)

    def json_line(self, ranks: Iterable[int]) -> str:
        """The JSON text of the collection of the given ranks, ascending, as
        `json.dumps(c.to_json_dict(), sort_keys=True)` writes it: the
        table's head '{"k": k, "n": n, "sets": [', their `fragment`s and
        "]}".  The one line format of `json_text` and of the listings, which
        print it straight from decoded ranks."""
        return self._line_head + ", ".join(map(self.fragment.__getitem__, ranks)) + "]}"

    def translates(self, bits: int) -> list[int]:
        """The 2n translates of the collection `bits` under `Dihedral.group`,
        in the order x_0, ..., x_(n-1), sigma(x_0), ..., sigma(x_(n-1)) for
        x_i = rho^i(bits), each read through one of `_steps`."""
        rho, sigma = self._steps
        through = self._through
        xs = [bits]
        for _ in range(self.n - 1):
            xs.append(through(rho, xs[-1]))
        return xs + [through(sigma, x) for x in xs]

    @staticmethod
    def _through(byte_table: tuple, bits: int):
        """The sum of the slots of `byte_table` that the bytes of `bits`
        pick, one per byte position.  A slot read while empty is filled
        first, its row copied off the shared empty row when it is that, so a
        table fills only the slots its collections read."""
        rows, empty, f = byte_table
        b = bits.to_bytes(len(rows), "little")
        try:
            return sum(map(list.__getitem__, rows, b), empty[0])
        except TypeError:  # an empty slot
            for j, v in enumerate(b):
                row = rows[j]
                if row[v] is None:
                    if row is empty:
                        row = rows[j] = empty.copy()
                    row[v] = sum(map(f, [8 * j + x for x in _from_mask(v)]), empty[0])
            return sum(map(list.__getitem__, rows, b), empty[0])

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
        """(side bits, diagonal bits, q) for each quad index q, from its ranks."""
        return tuple(
            (1 << r_is | 1 << r_sj | 1 << r_jt | 1 << r_it, 1 << r_ij | 1 << r_st, q)
            for q, (r_is, r_sj, r_jt, r_it, r_ij, r_st) in enumerate(self.quads)
        )

    @cached_property
    def through(self) -> list:
        """Per rank r, the quads whose six sets hold r: (the int over their
        indices, their `quad_tests` in index order), or None if there are none."""
        tests = [[] for _ in range(self.size)]
        for ranks, test in zip(self.quads, self.quad_tests):
            for r in ranks:
                tests[r].append(test)
        for r, ts in enumerate(tests):
            bits = bytearray(len(self.quads) + 7 >> 3)  # adding up each 1 << q is quadratic
            for _, _, q in ts:
                bits[q >> 3] |= 1 << (q & 7)
            tests[r] = (int.from_bytes(bits, "little"), tuple(ts)) if ts else None
        return tests

    def live(self, bits: int, tests) -> int:
        """The int over the quad indices of `tests` whose four sides and
        one diagonal are in the collection `bits`: its moves among them.
        A quad with its sides and both diagonals present raises the
        ValueError that `apply_move` raises for it."""
        out = 0
        for sides, diags, q in tests:
            if bits & sides == sides:
                d = bits & diags
                if d == diags:
                    raise ValueError(f"move target {self.subset[self.quads[q][5]]} already present")
                if d:
                    out |= 1 << q
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


def _member_mask(t: tuple[int, ...]) -> int:
    """The bitmask of the checked subset t, sorted; an element above
    `sys.maxsize` is a ValueError naming t, since no int has that bit."""
    if t and t[-1] > sys.maxsize:
        raise ValueError(f"subset {t} has an element above {sys.maxsize}, too large for a bitmask")
    return _to_mask(t)


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
        repeated member is an error.  A member of k distinct plain ints in
        [1..n], in any order, goes to its bitmask in one pass
        (`subsets._bounded_mask`); any other goes through `check_in_range`,
        which names its fault or accepts it (an int subclass), and then has
        its size checked, and an element above `sys.maxsize` is refused
        before its bit is formed.  The first faulty member is the one
        named."""
        _require_dims(k, n, "k and n")
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k} and n={n}")
        table = _table(k, n)
        rank = table.rank
        ranks = set()
        top = min(n, sys.maxsize)
        for s in sets:
            t = tuple(s)
            m = _bounded_mask(t, top) if len(t) == k else None
            if m is None:
                t = check_in_range(t, n)
                if len(t) != k:
                    raise ValueError(f"{t} is not a {k}-subset")
                m = _member_mask(t)
            r = rank[m]
            if r in ranks:
                raise ValueError(f"{table.subset[r]} appears more than once in the collection")
            ranks.add(r)
        c = _Unbuilt.__new__(_Unbuilt)
        c.k, c.n, c.table = k, n, table
        c._ranks = tuple(sorted(ranks))
        return c

    def ranks(self) -> tuple[int, ...]:
        """Member ranks, ascending; decoded from `bits` on first use."""
        if self._ranks is None:
            self._ranks = self.table.ranks_of(self.bits)
        return self._ranks

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        subset = self.table.subset
        return tuple(subset[r] for r in self.ranks())

    def masks(self) -> list[int]:
        """Member bitmasks in the order of `sets`."""
        mask = self.table.mask
        return [mask[r] for r in self.ranks()]

    def __contains__(self, s) -> bool:
        # a non-iterable, a bool or another non-int element, an element out
        # of [1..n] or an unsorted member is no member; no mask wider than
        # [1..n] is formed, and a collection made by `of` builds no `bits`
        try:
            t = tuple(s)
            if check_in_range(t, self.n) != t:
                return False
            m = _member_mask(t)
        except (TypeError, ValueError):
            return False
        r = self.table.rank[m]
        if r < 0:
            return False
        ranks = self.ranks()
        x = bisect_left(ranks, r)
        return x < len(ranks) and ranks[x] == r

    def __len__(self) -> int:
        return len(self.ranks())

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
        """`json.dumps(self.to_json_dict(), sort_keys=True)`: the table's
        `json_line` of its ranks."""
        return self.table.json_line(self.ranks())

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
            isinstance(t, list) and all(type(x) is int or _is_int(x) for x in t) for t in sets
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
        mv = Move(_to_mask(as_subset(removes)), _to_mask(as_subset(adds)))
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
    c.table.pair_tests += len(masks) * (len(masks) - 1) // 2
    issues = []
    for x, a in enumerate(masks):
        for b in masks[x + 1:]:
            if not _weakly_separated_masks(a, b):
                issues.append(f"{_from_mask(a)} and {_from_mask(b)} are not weakly separated")
    return ValidationReport(not issues, tuple(issues))


def _uses_rows(c: WSCollection) -> bool:
    """Crossing rows once the pair tests the table's pair loops have run,
    `table.pair_tests`, cover filling the rows of c's members that are
    still empty, C(n, k) pair tests each; else the pair loop.  A fresh
    table takes the pair loop, and a table whose member rows are filled
    takes the rows."""
    ranks, table = c.ranks(), c.table
    empty = len(ranks) - sum(map(table.crossing.__contains__, ranks))
    return table.size * empty <= table.pair_tests


def _separated(c: WSCollection) -> bool:
    """Whether c is weakly separated, `validate(c).ok`: one AND per member
    with crossing rows, stopping at the first crossing, else `validate`
    itself, whose pair tests count towards the rows, as `_uses_rows`
    decides."""
    if _uses_rows(c):
        bits, crossing = c.bits, c.table.crossing
        return not any(map(bits.__and__, map(crossing.__getitem__, c.ranks())))
    return validate(c).ok


def _separated_from(table: _Table, bits: int, r: int, members: Collection[int] | None) -> bool:
    """Whether rank r is weakly separated from every member of the
    collection `bits` of the table: one AND with its crossing row when
    `members` is None, else pair tests against `members`, the bitmasks of
    the same collection, counted in `table.pair_tests`."""
    if members is None:
        return not bits & table.crossing[r]
    table.pair_tests += len(members)
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
    image = partial(c.table._image_of, g)
    return WSCollection(c.table, sum(map((1).__lshift__, map(image, c.ranks()))))


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
    collections already seen.  A queued collection holds only its parent's
    moves and the quad q of its move; when it is taken from the queue, the
    quads that avoid both diagonals of q and the quads to re-test are read
    from `through` for the two diagonals and its own moves derived.  Its
    move on q, which is live, leads back to its parent, so it is not tried.
    """
    table = seed.table
    quads, quad_tests, through, live = table.quads, table.quad_tests, table.through, table.live
    older, current = set(), {seed.bits}
    level = [(seed.bits, 0, None)]
    while level:
        following, queued = set(), []
        for bits, inherited, q in level:
            if q is None:
                moves = live(bits, quad_tests)
            else:
                _, _, _, _, r_ij, r_st = quads[q]
                (touch_ij, via_ij), (touch_st, via_st) = through[r_ij], through[r_st]
                tests = via_ij if bits >> r_ij & 1 else via_st
                moves = inherited & ~(touch_ij | touch_st) | live(bits, tests)
            yield bits, moves
            rest = moves if q is None else moves & ~(1 << q)
            while rest:
                low = rest & -rest
                rest ^= low
                q = low.bit_length() - 1
                nxt = bits ^ quad_tests[q][1]
                if nxt in following or nxt in current or nxt in older:
                    continue
                following.add(nxt)
                queued.append((nxt, moves, q))
        older, current, level = current, following, queued


def enumerate_component(seed: WSCollection) -> set[WSCollection]:
    """Closure of the seed under all exchange moves (breadth-first)."""
    table = seed.table
    return {WSCollection(table, bits) for bits, _ in _walk(seed)}


def _orbits(table: _Table, bits: list[int]) -> Iterator[list[int]]:
    """The dihedral orbits among the distinct collections `bits` of the
    table, as lists of indices into `bits`.  Each collection not yet
    placed, in the order of `bits`, gathers its orbit: its 2n translates,
    from the byte tables of the table (`_Table.translates`), are looked up
    among the collections not yet placed.  No collection is built and no
    member decoded."""
    unplaced = {b: x for x, b in enumerate(bits)}
    translates = table.translates
    for b in bits:
        if b in unplaced:
            yield [x for x in map(unplaced.pop, translates(b), repeat(-1)) if x >= 0]


def dihedral_orbits(cs: Iterable[WSCollection]) -> list[tuple[WSCollection, ...]]:
    """Partition collections into orbits of the polygon-symmetry action.
    Orbits are listed and internally sorted canonically.

    Within one (k, n) the distinct collections are partitioned in the
    caller's order by `_orbits`, so the orbits hold the given ones.  Each
    orbit is then sorted with `<`, its members taken in the caller's order,
    and the orbits by their least members, so a sorted list needs one
    comparison per collection and an unsorted one sorts only within orbits
    and leaders."""
    kn = attrgetter("k", "n")
    orbits = []
    for _, block in groupby(sorted(dict.fromkeys(cs), key=kn), key=kn):
        block = list(block)
        found = [
            tuple(sorted(block[x] for x in sorted(xs)))
            for xs in _orbits(block[0].table, [c.bits for c in block])
        ]
        found.sort(key=itemgetter(0))
        orbits += found
    return orbits


def height(c: WSCollection) -> int:
    """Number of non-boundary member sets containing the top index n."""
    n = c.n
    return sum(n in s and not is_boundary(s, n) for s in c.sets)


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


def _witness(table: _Table, bits: int, m: int, p: tuple[int, ...]) -> tuple[int, bool]:
    """(rot, refl) of the first g of `Dihedral.group(m)` with the marker
    {1, m-2, m-1} in g . L, for L the level collection on [1..m], m >= 5,
    of the collection `bits` of a (3, n) table in the frame p: the marker is
    in g . L exactly when p(g^-1(marker)) is in `bits`.  The inverse of a
    rotation by rot takes x to x - rot (mod m), and a reflection, sigma then
    the rotation by rot, is its own inverse."""
    rank = table.rank
    marker = (1, m - 2, m - 1)
    sigma = (0, 2, 1, *range(m, 2, -1))  # 1 <-> 2 and x >= 3 -> m+3-x
    for refl in (False, True):
        for rot in range(m):
            ys = [sigma[x] + rot if refl else x - rot for x in marker]  # g^-1(x), before mod m
            if bits >> rank[sum(1 << p[(y - 1) % m + 1] for y in ys)] & 1:
                return rot, refl
    raise AssertionError("no dihedral translate contains the near-boundary marker")


def _pinch_index(table: _Table, bits: int, top: int, bit: list[int]) -> int:
    """The unique b with both prefix+{b,top-1} and prefix+{b,top} in the
    level collection, k in {2, 3}: the largest b in [2..top-2] (k=3) or
    [1..top-2] (k=2) whose prefix+{b,top} is present.  The level collection
    is read from the collection `bits` of the table through the frame
    `bit`, bit[x] being the bit of the table's index that level index x
    stands for, so that a level set is a member when the sum of its bits
    is; messages name level indices.  For k=3 the collection must contain
    {1,top-2,top-1}."""
    k, rank = table.k, table.rank

    def has(m: int) -> bool:
        r = rank[m]
        return r >= 0 and bool(bits >> r & 1)

    pre = bit[1] if k == 3 else 0  # the prefix: {1} for triples, empty for pairs
    if k == 3 and not has(pre | bit[top - 2] | bit[top - 1]):
        raise ValueError(f"collection lacks {{1,{top-2},{top-1}}}")
    lo = 2 if k == 3 else 1
    for b in range(top - 2, lo - 1, -1):
        if has(pre | bit[b] | bit[top]):
            if not has(pre | bit[b] | bit[top - 1]):
                partner = (2 if k == 3 else 0) | 1 << b | 1 << (top - 1)
                raise ValueError(f"pinch candidate {b} lacks partner {_from_mask(partner)}")
            return b
    raise ValueError("no pinch index found")


def _pinch_down(table: _Table, bits: int, top: int, bit: list[int], moves: list) -> int:
    """Apply height-decreasing moves at the top index of the level
    collection of `bits` in the frame `bit` (as in `_pinch_index`) until
    its height is 0, and return the result.  Each move swaps prefix+{b,top}
    for prefix+{a,top-1}, where b is the pinch index and a the largest
    smaller index with prefix+{a,top} present; it is appended to `moves` as
    (removes_mask, adds_mask), the masks it reads in `bits`.

    The level ends when the pinch index is the least index, 2 for k=3 and 1
    for k=2, which is when its height is 0: with the marker {1,top-2,top-1}
    present, every k=3 member holding top either holds 1 or is a boundary
    set, so each non-boundary one is prefix+{b,top} with b above the least
    index; at height 0 the level minus top is maximal on [1..top-1] by
    purity and holds the boundary partner prefix+{lo,top-1}.  The level is
    internal, so a `_pinch_index` ValueError here is a construction fault:
    it is raised as an AssertionError naming the level and the reason."""
    k, rank = table.k, table.rank
    pre, lo = (bit[1], 2) if k == 3 else (0, 1)
    t0, t1 = bit[top], bit[top - 1]
    while True:
        try:
            b = _pinch_index(table, bits, top, bit)
        except ValueError as exc:
            raise AssertionError(f"pinch at level {top}: {exc}") from None
        if b == lo:
            return bits
        a = next((x for x in range(b - 1, lo - 1, -1) if bits >> rank[pre | bit[x] | t0] & 1), None)
        if a is None:
            raise AssertionError("no companion index below the pinch index")
        # the replay checks the move: its sides, removes present and adds absent
        removes, adds = pre | bit[b] | t0, pre | bit[a] | t1
        bits ^= 1 << rank[removes] | 1 << rank[adds]
        moves.append((removes, adds))


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
    pairs in the indexing of c, one level m = n, ..., k+2 at a time, all on
    the `bits` of c's own table.  At level m the frame p (p[x] for x in
    1..m) names the index of c that level index x stands for, and the level
    collection, a maximal collection on [1..m], is the set of F with p(F) a
    current member.  For k=3 the witness g puts the near-boundary marker in
    g . L, which the frame q = p . g^-1 reads (q = p for k=2, which takes no
    witness); pinch moves written through q bring its height at m to 0.
    The next level's collection is then the same `bits` read through q on
    [1..m-1], so p = q and nothing is stripped.  For k=3 that leaves
    g^-1 . base(3, m) at each level, so the undo moves follow the loop,
    innermost level first.  The replay, not this function, checks the moves
    and that they land on the base."""
    k, table, bits = c.k, c.table, c.bits
    p = q = tuple(range(c.n + 1))
    moves, undo = [], []
    for m in range(c.n, k + 1, -1):
        if k == 3:
            ginv = Dihedral(m, *_witness(table, bits, m, p)).inverse()
            q = (0, *(p[ginv.apply(x)] for x in range(1, m + 1)))
            undo.append((ginv, m, p))
        bits = _pinch_down(table, bits, m, [1 << x for x in q], moves)
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
    set of member masks, kept up to date move by move and counted in
    `table.pair_tests`, so that with c certified every collection on the
    path is; the rule is asked once, before the first move.  The last must
    be the base.
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
    level pinch moves down to the top index, found and applied on c's own
    `bits`, read through the level's index map; for k=3 a dihedral witness
    first, and after the last level the moves that undo each level's
    symmetry (`_undo_moves`).  Each move is kept as the pair of its
    diagonals' bitmasks in the indexing of c, and no rank table other than
    c's is built.

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
