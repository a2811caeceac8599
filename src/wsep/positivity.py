"""Positivity tests: sample points of the real Grassmannian with positive
maximal minors, direct Pluecker evaluation, and propagation of values along
exchange moves via the three-term exchange relation

    D[I+ij] * D[I+st] = D[I+is] * D[I+jt] + D[I+it] * D[I+sj]   (i<s<j<t)

which is subtraction-free, so positive inputs propagate to positive outputs.
Propagation works for every k: maximal collections are pure and their move
graph is connected (Oh-Postnikov-Speyer, arXiv:1109.4434; Danilov-Karzanov-
Koshevoy 2010).  Each distinct exchange relation is evaluated once per walk.
Default arithmetic is exact rational; float mode exists for sweeps and is
checked against a relative tolerance.

Propagation starts from a maximal collection: one of k(n-k)+1 pairwise
weakly separated members, which by purity is the same as maximal.  Anything
else is a ValueError, because a walk from it need not reach every k-subset.

The exchange moves of a collection and the collections they lead to are
cached for the most recent `_MOVE_EDGES_CACHED` (8192) collections, at least
|W(4,8)| = 5470, so a walk over a larger component recomputes edges rather
than growing memory.  The cache is keyed on the (k, n) rank table and the
collection's bits, and gives the next collections as bits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping

from .subsets import _from_mask
from .wscoll import Move, WSCollection, _Table, apply_move, find_moves, require_maximal


@dataclass(frozen=True)
class GrassmannPoint:
    """A full-rank k-by-n matrix; rows span the point's subspace."""

    rows: tuple[tuple, ...]

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def __post_init__(self):
        if not self.rows or any(len(r) != self.n for r in self.rows):
            raise ValueError("matrix rows must be non-empty and equal length")
        if all(v == 0 for v in self.plucker_vector().values()):
            raise ValueError("matrix is not of full rank")

    def minor(self, cols: Iterable[int]):
        cols = tuple(cols)
        sub = [[self.rows[r][c - 1] for c in cols] for r in range(self.k)]
        return _det(sub)

    def plucker_vector(self) -> dict[tuple[int, ...], object]:
        return {
            K: self.minor(K) for K in combinations(range(1, self.n + 1), self.k)
        }

    def as_floats(self) -> "GrassmannPoint":
        return GrassmannPoint(tuple(tuple(float(x) for x in r) for r in self.rows))


def _det(mat):
    if len(mat) == 1:
        return mat[0][0]
    total = None
    for c in range(len(mat)):
        sub = [row[:c] + row[c + 1:] for row in mat[1:]]
        term = mat[0][c] * _det(sub)
        if c % 2:
            term = -term
        total = term if total is None else total + term
    return total


def vandermonde_point(nodes: Iterable[Fraction | int], k: int) -> GrassmannPoint:
    """Rows are successive powers of the nodes; with 0 < x_1 < ... < x_n all
    maximal minors are positive (each is a Vandermonde determinant)."""
    xs = [Fraction(x) for x in nodes]
    if any(x <= 0 for x in xs):
        raise ValueError("nodes must be positive")
    if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
        raise ValueError("nodes must be strictly increasing")
    if k < 1 or k > len(xs):
        raise ValueError("need 1 <= k <= number of nodes")
    return GrassmannPoint(tuple(tuple(x ** i for x in xs) for i in range(k)))


_MOVE_EDGES_CACHED = 8192


@lru_cache(maxsize=_MOVE_EDGES_CACHED)
def _move_edges(table: _Table, bits: int) -> tuple[tuple[Move, int], ...]:
    """The exchange moves of the collection `bits` over `table`, each with
    the bits of the collection it leads to."""
    c = WSCollection(table, bits)
    return tuple((mv, apply_move(c, mv).bits) for mv in find_moves(c))


@dataclass(frozen=True)
class Propagation:
    ok: bool
    values: dict
    witness: str | None = None


def propagate(
    c: WSCollection,
    vals: Mapping[tuple[int, ...], object],
    mode: str = "exact",
    rel_tol: float = 1e-9,
) -> Propagation:
    """Extend positive values given on the members of the maximal collection
    c to every k-subset by walking the move graph, for any k; each move
    computes the missing diagonal from the exchange relation.  Re-derivations
    of an already-known value must agree (exactly, or within rel_tol in float
    mode).  A collection that is not maximal is a ValueError.

    Each distinct relation is evaluated once: values are never overwritten
    and every input of a move is known when the move is first met, so a
    later visit would repeat the same computation and comparison.  A value
    that does not agree with itself (an inf or nan float) is evaluated
    again on every visit."""
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    require_maximal(c)
    known = {}  # keyed by subset bitmask
    for s, m in zip(c.sets, c.masks()):
        if s not in vals:
            raise ValueError(f"no value supplied for member {s}")
        v = vals[s]
        if not v > 0:
            raise ValueError(f"value for {s} is not positive")
        known[m] = float(v) if mode == "float" else v

    def close(a, b) -> bool:
        if mode == "exact":
            return a == b
        scale = max(abs(a), abs(b))
        return scale == 0 or abs(a - b) <= rel_tol * scale

    def values() -> dict:
        return {_from_mask(m): v for m, v in known.items()}

    checked = set()  # (removes, adds) masks of relations already verified
    table = c.table
    seen = {c.bits}
    queue = deque([c.bits])
    while queue:
        for mv, nxt in _move_edges(table, queue.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
            key = (mv.removes_mask, mv.adds_mask)
            if key in checked:
                continue
            m_is, m_sj, m_jt, m_it = mv.side_masks
            numerator = known[m_is] * known[m_jt] + known[m_it] * known[m_sj]
            if known[mv.removes_mask] == 0:
                return Propagation(False, values(), f"division by zero at {mv.removes}")
            value = numerator / known[mv.removes_mask]
            if mv.adds_mask in known:
                if not close(known[mv.adds_mask], value):
                    return Propagation(
                        False,
                        values(),
                        f"inconsistent re-derivation of {mv.adds}: "
                        f"{known[mv.adds_mask]} vs {value}",
                    )
            else:
                known[mv.adds_mask] = value
            if close(value, value):
                checked.add(key)
    return Propagation(True, values(), None)


POSITIVE = "POSITIVE"
NOT_DETERMINED = "NOT-DETERMINED"


@dataclass(frozen=True)
class Verdict:
    verdict: str
    values: dict
    witness: str | None = None


def positivity_test(
    c: WSCollection,
    vals: Mapping[tuple[int, ...], object],
    mode: str = "exact",
    rel_tol: float = 1e-9,
) -> Verdict:
    """POSITIVE when propagation succeeds and every derived coordinate is
    positive; otherwise NOT-DETERMINED with a witness."""
    result = propagate(c, vals, mode=mode, rel_tol=rel_tol)
    if not result.ok:
        return Verdict(NOT_DETERMINED, result.values, result.witness)
    bad = [K for K, v in result.values.items() if not v > 0]
    if bad:
        return Verdict(NOT_DETERMINED, result.values, f"non-positive value at {min(bad)}")
    return Verdict(POSITIVE, result.values, None)


def short_plucker_violations(
    values: Mapping[tuple[int, ...], object], k: int, n: int, rel_tol: float = 0.0
) -> list[tuple]:
    """Quadruples (anchor, i, s, j, t) whose six-term exchange relation fails
    on the given (possibly partial) value assignment."""
    out = []
    universe = range(1, n + 1)
    for anchor in combinations(universe, k - 2):
        rest = [x for x in universe if x not in anchor]
        for i, s, j, t in combinations(rest, 4):
            need = [
                tuple(sorted(anchor + pair))
                for pair in ((i, j), (s, t), (i, s), (j, t), (i, t), (s, j))
            ]
            if any(K not in values for K in need):
                continue
            lhs = values[need[0]] * values[need[1]]
            rhs = values[need[2]] * values[need[3]] + values[need[4]] * values[need[5]]
            if rel_tol == 0.0:
                bad = lhs != rhs
            else:
                scale = max(abs(lhs), abs(rhs))
                bad = scale != 0 and abs(lhs - rhs) > rel_tol * scale
            if bad:
                out.append((anchor, i, s, j, t))
    return out
