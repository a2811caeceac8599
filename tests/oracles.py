"""Independent brute-force oracles used to derive expected test values, and
generators of test inputs.

These deliberately avoid the code paths they check: weak separation is
decided by exhaustive partition search and, as a second reference, by
forbidden crossing patterns, diameters by scanning every cyclic
interval, the Stieffel subset by a classical staircase-matrix determinant
identity, q->1 specialization against plain commutative multiplication,
normal forms by a rewriter over Laurent objects with a caller-chosen
rewriting order, quasi-commutation by comparing the products of that
rewriter monomial by monomial, value propagation by evaluating the exchange
relation on every edge of the move-graph walk, the exchange quads of the
rank table by listing sorted tuples, the exchange relations on a value
assignment by evaluating them on that listing, the move-graph closure by
scanning every state with `find_moves`, and the maximal weakly separated
collections by a clique search of the weak-separation graph that makes no
moves.

`component_of_base` is not an oracle: it caches the move-graph closure of
the base collection for the tests that share one.  Nor is `_edges`: it
keeps the edges `propagate_every_edge` has taken from `find_moves` and
`apply_move`, so that a walk from every start of one component makes each
move once.  Nor are the generators of test inputs: `complete_to_maximal`,
a greedy completion in lexicographic order, and the wiring words of
`reduced_words_of_longest`, `shuffles` and `all_optimal_words`, and
`word_poly`, one rewritten word as a polynomial.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from wsep.laurent import Laurent, ONE, Q, Q_MINUS_Q_INV, ZERO
from wsep.positivity import Propagation, _det
from wsep.quantum import Gen, NCPoly, Word, _encode, normalize_word
from wsep.subsets import _from_mask, _is_int, weakly_separated
from wsep.wscoll import (
    WSCollection,
    _sides,
    apply_move,
    base_collection,
    boundary_sets,
    enumerate_component,
    find_moves,
)


@lru_cache(maxsize=None)
def component_of_base(k: int, n: int) -> frozenset:
    """The closure of base(k, n) under exchange moves, computed once per
    test run."""
    return frozenset(enumerate_component(base_collection(k, n)))


def precedes_bf(A, B) -> bool:
    return all(a < b for a in A for b in B)


def weakly_separated_bf(I, J) -> bool:
    """Definition verbatim: try every partition of the difference set."""

    def case(I, J):
        if len(I) < len(J):
            return False
        diff = sorted(set(J) - set(I))
        middle = set(I) - set(J)
        for r in range(len(diff) + 1):
            for low in combinations(diff, r):
                high = [x for x in diff if x not in low]
                if precedes_bf(low, middle) and precedes_bf(middle, high):
                    return True
        return False

    return case(I, J) or case(J, I)


def weakly_separated_by_crossings(I, J) -> bool:
    """Weak separation via forbidden crossing patterns.

    For |I| < |J|: no element of I-J sits strictly between two elements of
    J-I.  For |I| = |J|: the merged difference sets must not alternate
    I,J,I,J (equivalently at most 3 blocks), i.e. no crossing chords on the
    n-gon.
    """
    sI, sJ = frozenset(I), frozenset(J)
    if len(sI) > len(sJ):
        sI, sJ = sJ, sI
    dI = sorted(sI - sJ)
    dJ = sorted(sJ - sI)
    if len(sI) < len(sJ):
        if not dJ:
            return True
        return not any(dJ[0] < b < dJ[-1] for b in dI)
    tagged = sorted([(x, 0) for x in dI] + [(x, 1) for x in dJ])
    blocks = 0
    prev = None
    for _, tag in tagged:
        if tag != prev:
            blocks += 1
            prev = tag
    return blocks <= 3


def complete_to_maximal(c: WSCollection) -> WSCollection:
    """Greedy completion of a weakly separated c in lexicographic order:
    each k-subset weakly separated from every member taken so far joins,
    so the result is maximal by inclusion."""
    chosen = list(c.sets)
    for cand in combinations(range(1, c.n + 1), c.k):
        if cand not in c and all(weakly_separated(cand, s) for s in chosen):
            chosen.append(cand)
    return WSCollection.of(c.k, c.n, chosen)


def diameter_bf(K, n) -> int:
    best = n
    for start in range(1, n + 1):
        for length in range(len(K), n + 1):
            interval = {(start - 1 + d) % n + 1 for d in range(length)}
            if set(K) <= interval:
                best = min(best, length)
                break
    return best


def staircase_matrix(x_rows, k, m):
    """The k-by-(k+m) matrix embedding a k-by-m matrix into the Grassmannian
    chart: alternating-sign antidiagonal in the first k columns, the matrix
    in the last m."""
    M = [[Fraction(0)] * (k + m) for _ in range(k)]
    for i in range(1, k + 1):
        M[i - 1][k - i] = Fraction((-1) ** (i - 1))
        for j in range(1, m + 1):
            M[i - 1][k + j - 1] = Fraction(x_rows[i - 1][j - 1])
    return M


def maximal_minor(M, cols) -> Fraction:
    return _det([[row[c - 1] for c in cols] for row in M])


def submatrix_minor(x_rows, rows, cols) -> Fraction:
    return _det([[Fraction(x_rows[r - 1][c - 1]) for c in cols] for r in rows])


def commutative_image(terms) -> dict:
    """q -> 1 image of a noncommutative polynomial: monomials commute, so
    words collapse onto their sorted forms."""
    out: dict = {}
    for word, coeff in terms.items():
        key = tuple(sorted(word))
        val = out.get(key, 0) + coeff.at_one()
        if val:
            out[key] = val
        elif key in out:
            del out[key]
    return out


def inversion_positions(word: Word) -> list[int]:
    return [p for p in range(len(word) - 1) if word[p] > word[p + 1]]


def normalize_word_bf(
    k: int,
    m: int,
    word: Iterable[Gen],
    coeff: Laurent = ONE,
    pick: Callable[[list[int]], int] | None = None,
) -> dict[Word, Laurent]:
    """Rewrite coeff * word into normal form, returning monomial -> Laurent.

    `pick` selects which inversion to rewrite next (given the list of
    inversion positions); the default takes the leftmost.  Any strategy must
    produce the same normal form.
    """
    word = tuple(word)
    _encode(word, k, m)  # the ingress check of `normalize_word`
    out: dict[Word, Laurent] = {}
    stack: list[tuple[Word, Laurent]] = [(word, coeff)]
    while stack:
        w, c = stack.pop()
        invs = inversion_positions(w)
        if not invs:
            acc = out.get(w, ZERO) + c
            if acc:
                out[w] = acc
            elif w in out:
                del out[w]
            continue
        p = invs[0] if pick is None else invs[pick(invs)]
        (s, t), (i, j) = w[p], w[p + 1]
        swapped = w[:p] + ((i, j), (s, t)) + w[p + 2:]
        if s == i or t == j:
            stack.append((swapped, c * Q))
        elif t < j:
            stack.append((swapped, c))
        else:
            stack.append((swapped, c))
            stack.append((w[:p] + ((i, t), (s, j)) + w[p + 2:], c * Q_MINUS_Q_INV))
    return out


def word_poly(k: int, m: int, word: Iterable[Gen], coeff: Laurent = ONE) -> NCPoly:
    """coeff * word as a polynomial in normal form, through the checked
    `normalize_word`."""
    return NCPoly(k, m, normalize_word(k, m, word, coeff))


def product_bf(p, r) -> dict[Word, Laurent]:
    """Terms of the product p * r of two NCPolys: every concatenation
    rewritten on its own by `normalize_word_bf`, the results summed."""
    out: dict[Word, Laurent] = {}
    for w1, c1 in p.terms().items():
        for w2, c2 in r.terms().items():
            for w, c in normalize_word_bf(p.k, p.m, w1 + w2, c1 * c2).items():
                acc = out.get(w, ZERO) + c
                if acc:
                    out[w] = acc
                elif w in out:
                    del out[w]
    return out


def quasi_commutation_bf(p, r) -> int | None:
    """c with r*p == q^c * (p*r): the `product_bf` terms of both orders
    compared monomial by monomial, each coefficient of r*p being q^d times
    that of p*r for one d; None when the monomials differ or the shifts do
    not all agree."""
    pr = product_bf(p, r)
    rp = product_bf(r, p)
    if pr.keys() != rp.keys():
        return None
    shifts = set()
    for w, c in pr.items():
        a, b = sorted(rp[w].items()), sorted(c.items())
        d = a[0][0] - b[0][0]
        if len(a) != len(b) or any(ea - eb != d or va != vb for (ea, va), (eb, vb) in zip(a, b)):
            return None
        shifts.add(d)
    return shifts.pop() if len(shifts) == 1 else None


@lru_cache(maxsize=1)
def _edges(k: int, n: int) -> dict:
    """The move graph of the (k, n) collections visited so far, filled as
    `propagate_every_edge` visits them: the `bits` of a collection -> one
    tuple per move of `find_moves`, in its order, of the four side masks,
    removes_mask, adds_mask and the `bits` after `apply_move`.  Only the
    (k, n) in use is kept."""
    return {}


def propagate_every_edge(c, vals, mode="exact", rel_tol=1e-9) -> Propagation:
    """What `propagate` computes, by a plain breadth-first walk over the move
    graph that evaluates the exchange relation on every edge it visits and
    compares every re-derivation.  The edges of each collection come from
    `find_moves` and `apply_move` the first time it is visited (`_edges`)."""
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    known = {}  # keyed by subset bitmask
    for s, m in zip(c.sets, c.masks()):
        if s not in vals:
            raise ValueError(f"no value supplied for member {s}")
        v = vals[s]
        if not v > 0:
            raise ValueError(f"value for {s} is not positive")
        known[m] = float(v) if mode == "float" else Fraction(v)

    def close(a, b) -> bool:
        if mode == "exact":
            return a == b
        scale = max(abs(a), abs(b))
        return scale == 0 or abs(a - b) <= rel_tol * scale

    def values() -> dict:
        return {_from_mask(m): v for m, v in known.items()}

    graph = _edges(c.k, c.n)
    seen = {c.bits}
    queue = deque([c.bits])
    while queue:
        bits = queue.popleft()
        edges = graph.get(bits)
        if edges is None:
            cur = WSCollection(c.table, bits)
            edges = graph[bits] = tuple(
                (*_sides(mv.removes_mask, mv.adds_mask), mv.removes_mask, mv.adds_mask,
                 apply_move(cur, mv).bits)
                for mv in find_moves(cur)
            )
        for m_is, m_sj, m_jt, m_it, removes, adds, nxt in edges:
            numerator = known[m_is] * known[m_jt] + known[m_it] * known[m_sj]
            if known[removes] == 0:
                return Propagation(False, values(), f"division by zero at {_from_mask(removes)}")
            value = numerator / known[removes]
            if adds in known:
                if not close(known[adds], value):
                    return Propagation(
                        False,
                        values(),
                        f"inconsistent re-derivation of {_from_mask(adds)}: "
                        f"{known[adds]} vs {value}",
                    )
            else:
                known[adds] = value
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return Propagation(True, values(), None)


def quads_bf(k: int, n: int) -> list[tuple]:
    """Every exchange quad of (k, n) in scan order (anchors, then
    i < s < j < t, lexicographically), as tuples only: (anchor, i, s, j, t,
    the sorted sets anchor+{i,s}, +{s,j}, +{j,t}, +{i,t}, +{i,j}, +{s,t}).
    For k < 2 there are none."""
    out = []
    for anchor in combinations(range(1, n + 1), k - 2) if k >= 2 else ():
        rest = [x for x in range(1, n + 1) if x not in anchor]
        for i, s, j, t in combinations(rest, 4):
            pairs = ((i, s), (s, j), (j, t), (i, t), (i, j), (s, t))
            out.append((anchor, i, s, j, t, tuple(tuple(sorted(anchor + p)) for p in pairs)))
    return out


def short_plucker_violations(
    values: Mapping[tuple[int, ...], object], k: int, n: int, rel_tol: float = 0.0
) -> list[tuple]:
    """Quadruples (anchor, i, s, j, t) whose exchange relation D[I+ij]
    D[I+st] = D[I+is] D[I+jt] + D[I+it] D[I+sj] fails on the given (possibly
    partial) value assignment, in the order of `quads_bf`.  A relation with
    a missing value is skipped.  k and n must be ints."""
    if not (_is_int(k) and _is_int(n)):
        raise ValueError(f"k and n must be integers, got {k!r} and {n!r}")
    out = []
    for anchor, i, s, j, t, sets in quads_bf(k, n):
        if any(K not in values for K in sets):
            continue
        v_is, v_sj, v_jt, v_it, v_ij, v_st = map(values.__getitem__, sets)
        lhs = v_ij * v_st
        rhs = v_is * v_jt + v_it * v_sj
        if rel_tol == 0.0:
            bad = lhs != rhs
        else:
            scale = max(abs(lhs), abs(rhs))
            bad = scale != 0 and abs(lhs - rhs) > rel_tol * scale
        if bad:
            out.append((anchor, i, s, j, t))
    return out


def closure_by_moves(seed) -> set:
    """The closure of a collection under exchange moves as a plain
    breadth-first walk that scans every state with `find_moves` and applies
    each move with `apply_move`."""
    seen = {seed}
    queue = deque([seed])
    while queue:
        c = queue.popleft()
        for mv in find_moves(c):
            d = apply_move(c, mv)
            if d not in seen:
                seen.add(d)
                queue.append(d)
    return seen


def maximal_weakly_separated_bf(k: int, n: int) -> set[tuple[tuple[int, ...], ...]]:
    """Every inclusion-maximal pairwise weakly separated collection of
    k-subsets of [1..n], as sorted tuples of members: the maximal cliques of
    the weak-separation graph (Bron-Kerbosch with pivoting, 1973), decided
    by `weakly_separated_bf`.  The boundary sets are weakly separated from
    every k-subset, so the search is seeded with them."""
    subsets = list(combinations(range(1, n + 1), k))
    nbrs = [
        sum(1 << y for y, J in enumerate(subsets) if y != x and weakly_separated_bf(I, J))
        for x, I in enumerate(subsets)
    ]
    seed = 0
    for s in boundary_sets(k, n):
        seed |= 1 << subsets.index(s)
    out = set()

    def expand(clique: int, cand: int, excl: int) -> None:
        if not cand and not excl:
            out.add(tuple(subsets[x] for x in _from_mask(clique)))
            return
        pivot = max(_from_mask(cand | excl), key=lambda u: (nbrs[u] & cand).bit_count())
        for v in _from_mask(cand & ~nbrs[pivot]):
            bit = 1 << v
            expand(clique | bit, cand & nbrs[v], excl & nbrs[v])
            cand &= ~bit
            excl |= bit

    rest = (1 << len(subsets)) - 1 & ~seed
    for x in _from_mask(seed):
        rest &= nbrs[x]
    expand(seed, rest, 0)
    return out


def reduced_words_of_longest(size: int) -> list[tuple[int, ...]]:
    """All reduced words for the order-reversing permutation of [1..size]."""
    out = []

    def rec(perm: tuple[int, ...], suffix: tuple[int, ...]):
        if all(perm[i] == i + 1 for i in range(size)):
            out.append(suffix)
            return
        for i in range(1, size):
            if perm[i - 1] > perm[i]:
                nxt = list(perm)
                nxt[i - 1], nxt[i] = nxt[i], nxt[i - 1]
                rec(tuple(nxt), (i,) + suffix)

    rec(tuple(range(size, 0, -1)), ())
    return out


def shuffles(black: Sequence[int], red: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All interleavings of a black and a red word keeping the relative order
    of each part, red letters negated as in `wsep.wiring`."""
    total = len(black) + len(red)
    for positions in combinations(range(total), len(red)):
        pos = set(positions)
        word = []
        bi = ri = 0
        for p in range(total):
            if p in pos:
                word.append(-red[ri])
                ri += 1
            else:
                word.append(black[bi])
                bi += 1
        yield tuple(word)


def all_optimal_words(k: int, m: int) -> Iterator[tuple[int, ...]]:
    """Every optimal word for 0 <= k <= m: the shuffles of a black word that
    spends (m-k choose 2) letters on levels above k with any red word."""
    optimal_blacks = [
        w
        for w in reduced_words_of_longest(m)
        if sum(1 for x in w if k + 1 <= x <= m - 1) == comb(m - k, 2)
    ]
    reds = reduced_words_of_longest(k)
    return (w for bw in optimal_blacks for rw in reds for w in shuffles(bw, rw))
