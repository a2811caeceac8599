"""Positivity tests: sample points of the real Grassmannian with positive
maximal minors, direct Pluecker evaluation, and propagation of values along
exchange moves via the three-term exchange relation

    D[I+ij] * D[I+st] = D[I+is] * D[I+jt] + D[I+it] * D[I+sj]   (i<s<j<t)

which is subtraction-free, so positive inputs propagate to positive outputs.
Propagation works for every k: maximal collections are pure and their move
graph is connected (Oh-Postnikov-Speyer, arXiv:1109.4434; Danilov-Karzanov-
Koshevoy 2010).  Each exchange relation is evaluated once per walk, in
float mode once per direction.  Default arithmetic is exact rational; float
mode exists for sweeps and is checked against a relative tolerance.

Propagation starts from a maximal collection: one of k(n-k)+1 pairwise
weakly separated members, which by purity is the same as maximal.  Anything
else is a ValueError, because a walk from it need not reach every k-subset.
Exact mode converts each member value with `Fraction` at ingress, so an int
or float input is read as the rational it stands for.

The walk visits the collections of the component in the breadth-first order
of `wscoll._walk` from the start, the moves of each in `find_moves` order.
A move is named by its relation id 2*q + d: q is its quad index in the rank
table, and d is 0 when it removes anchor+{i,j} and 1 when it removes
anchor+{s,t}; the ranks of its six sets are in `quads[q]`.  The first walk
over a table's component that runs to its end compiles it: a state index,
and per state the indices of its neighbours and the int over its relation
ids.  The rank table keeps the compiled component as `table.component`
when it has at most `_COMPONENT_STATES` (8192) states, at least |W(4,8)| =
5470; later calls walk it breadth-first by index.  A larger component,
such as the 18600 states of W(3,9), is not kept (`table.component` is
False): every call streams `_walk`, which holds only three breadth-first
levels, so memory stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .subsets import _from_mask
from .wscoll import WSCollection, _require_ints, _table, _walk, require_maximal


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


_COMPONENT_STATES = 8192


def _stream(c: WSCollection, keep: bool) -> Iterator[int]:
    """The int over the relation ids of the moves of each collection of
    `_walk(c)`, in its order.  With `keep`, a walk that runs to its end
    sets `table.component` to the compiled component, or to False once the
    walk passes the bound."""
    table = c.table
    quads, steps = table.quads, table.steps
    record = [] if keep else None
    for bits, live in _walk(c):
        rels = 0
        while live:
            low = live & -live
            live ^= low
            q = low.bit_length() - 1
            # bit 2q + d: d is 0 when the move removes anchor+{i,j}
            rels |= (1 if bits & quads[q][1] else 2) << 2 * q
        if record is not None:
            record.append((bits, rels))
            if len(record) > _COMPONENT_STATES:
                record = None
                table.component = False
        yield rels
    if record is not None:
        index = {bits: x for x, (bits, _) in enumerate(record)}
        nbrs = tuple(
            tuple(index[bits ^ steps[rel >> 1][0]] for rel in _from_mask(rels))
            for bits, rels in record
        )
        table.component = (index, nbrs, tuple(rels for _, rels in record))


def _visit(component: tuple, start: int) -> Iterator[int]:
    """The int over the relation ids of each state of a compiled component,
    breadth-first from the state with index `start`: the order of `_walk`."""
    _, nbrs, rels = component
    seen = bytearray(len(nbrs))
    seen[start] = 1
    order = [start]
    for x in order:
        for y in nbrs[x]:
            if not seen[y]:
                seen[y] = 1
                order.append(y)
    return map(rels.__getitem__, order)


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
    later visit would repeat the same computation and comparison.  In exact
    mode a relation checked in one direction holds in the other as well,
    since all values are positive rationals.  In float mode each direction
    is checked, and a value that does not agree with itself (an inf or nan)
    is evaluated again on every visit."""
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    require_maximal(c)
    exact = mode == "exact"
    known = {}  # keyed by subset rank
    for s, r in zip(c.sets, c.ranks()):
        if s not in vals:
            raise ValueError(f"no value supplied for member {s}")
        v = vals[s]
        if not v > 0:
            raise ValueError(f"value for {s} is not positive")
        if not exact:
            known[r] = float(v)
            continue
        try:
            known[r] = Fraction(v)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"value for {s} is not a rational number") from None

    def close(a, b) -> bool:
        if exact:
            return a == b
        scale = max(abs(a), abs(b))
        return scale == 0 or abs(a - b) <= rel_tol * scale

    table = c.table

    def values() -> dict:
        subset = table.subset
        return {subset[r]: v for r, v in known.items()}

    component = table.component
    if component:
        source = _visit(component, component[0][c.bits])
    else:
        source = _stream(c, keep=component is None)
    quads = table.quads
    todo = (1 << 2 * len(quads)) - 1  # relation ids not yet checked
    for rels in source:
        new = rels & todo
        while new:
            low = new & -new
            new ^= low
            rel = low.bit_length() - 1
            # as for d = 0, the move removing anchor+{i,j}, then swapped for d = 1
            r_is, r_sj, r_jt, r_it, rm, add = quads[rel >> 1][5]
            if rel & 1:
                rm, add = add, rm
            numerator = known[r_is] * known[r_jt] + known[r_it] * known[r_sj]
            if not known[rm]:
                return Propagation(False, values(), f"division by zero at {table.subset[rm]}")
            value = numerator / known[rm]
            if add in known:
                if not close(known[add], value):
                    return Propagation(
                        False,
                        values(),
                        f"inconsistent re-derivation of {table.subset[add]}: {known[add]} vs {value}",
                    )
            else:
                known[add] = value
            if exact:
                todo &= ~(3 << (rel & -2))  # both directions: ids 2q and 2q + 1
            elif close(value, value):
                todo ^= low
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
    on the given (possibly partial) value assignment, in the order of the
    (k, n) table's `quads`.  k and n must be ints: `_table` would hand a
    float the int table."""
    _require_ints(k, n)
    table = _table(k, n)
    subset = table.subset
    out = []
    for _, _, _, mv, _, ranks in table.quads:
        sets = [subset[r] for r in ranks]
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
            out.append((mv.anchor, mv.i, mv.s, mv.j, mv.t))
    return out
