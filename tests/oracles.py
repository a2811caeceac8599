"""Independent brute-force oracles used to derive expected test values.

These deliberately avoid the code paths they check: weak separation is
decided by exhaustive partition search, diameters by scanning every cyclic
interval, the Stieffel subset by a classical staircase-matrix determinant
identity, q->1 specialization against plain commutative multiplication,
and value propagation by evaluating the exchange relation on every edge of
the move-graph walk.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations

from wsep.positivity import Propagation, _det, _move_edges
from wsep.subsets import _from_mask


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


def propagate_every_edge(c, vals, mode="exact", rel_tol=1e-9) -> Propagation:
    """`propagate` as a plain breadth-first walk that evaluates the exchange
    relation on every edge it visits and compares every re-derivation."""
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
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

    seen = {c}
    queue = deque([c])
    while queue:
        cur = queue.popleft()
        for mv, nxt in _move_edges(cur):
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
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return Propagation(True, values(), None)
