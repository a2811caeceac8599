"""Positivity tests: sample points of the real Grassmannian with positive
maximal minors, direct Pluecker evaluation, and propagation of values along
exchange moves via the three-term exchange relation

    D[I+ij] * D[I+st] = D[I+is] * D[I+jt] + D[I+it] * D[I+sj]   (i<s<j<t)

which is subtraction-free, so positive inputs propagate to positive outputs.
Propagation works for every k.  Maximal collections are clusters: pure,
with a connected move graph (Oh-Postnikov-Speyer, arXiv:1109.4434;
Danilov-Karzanov-Koshevoy 2010), and every Pluecker coordinate is a
subtraction-free Laurent polynomial in the values on any one of them.  So
positive values on a maximal collection extend to one set of values,
whatever order the relations derive them in.  Propagation is one closure
over the exchange quads: a list of the quads not yet handled, walked in
index order pass after pass, from which each quad leaves once it has
derived a value or been checked.  So each relation is evaluated once per
call, in float mode once per direction.  Default arithmetic is exact
rational; float mode exists for sweeps and is checked against a relative
tolerance.

Propagation starts from a maximal collection: one of k(n-k)+1 pairwise
weakly separated members, which by purity is the same as maximal.  Anything
else is a ValueError, because the relations need not reach every k-subset
from it.  So is a member value that is not a finite real number (a str is
not parsed, a bool is not a number, and an inf or a NaN, float or
`Decimal`, is turned away before the sign test) or not positive.  Exact
mode converts each member value with `Fraction` at ingress, so an int or
float input is read as the rational it stands for.  It then runs on ints:
each value is a reduced numerator and positive denominator, in two lists
indexed by subset rank.  A derivation combines the ints of its relation
and reduces the result once, by building its `Fraction`; a check is one
integer cross-multiplication.  Each value's `Fraction` is built once, at
ingress or at derivation, and kept for the returned values and witness
texts in the list that holds the floats in float mode.

A relation is named by its id 2*q + d: q is its quad index in the rank
table, and d is 0 when it derives anchor+{s,t} from anchor+{i,j} and 1 the
other way round; `quads[q]` is the tuple of the ranks of its six sets.  A
failed check names the least failing id.  Nothing about positivity is kept
between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import isfinite
from numbers import Rational, Real
from typing import Iterable, Mapping

from .wscoll import WSCollection, require_maximal


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


@dataclass(frozen=True)
class Propagation:
    ok: bool
    values: dict
    witness: str | None = None


def _finite(v: Real | Decimal) -> bool:
    """v is neither infinite nor a NaN; asked of a Decimal without a
    comparison, which signals on a NaN."""
    if isinstance(v, Rational):
        return True
    if isinstance(v, Decimal):
        return v.is_finite()
    return isfinite(v)


def propagate(
    c: WSCollection,
    vals: Mapping[tuple[int, ...], object],
    mode: str = "exact",
    rel_tol: float = 1e-9,
) -> Propagation:
    """Extend positive values given on the members of the maximal collection
    c to every k-subset through the exchange relations, for any k, and
    check every relation on the result.  Re-derivations of an already-known
    value must agree (exactly, or within rel_tol in float mode).  A
    collection that is not maximal, or a member value that is not a
    finite positive real number, is a ValueError.

    One list holds the quads not yet handled, in index order, and each
    pass walks it.  A quad whose four sides and one diagonal are known (a
    flag per rank: a float that underflows to 0.0 is known) derives the
    other diagonal; a quad whose six values are all known is checked.
    Either way it leaves the list.  Passes repeat until one derives
    nothing.  A derivation checks its relation in both directions in exact
    mode, since all values are positive rationals; in float mode it checks
    the one direction, unless the value does not agree with itself (an inf
    or nan), and the other direction is checked at once.  A check never
    changes what is known, so the values are derived in the same order
    whatever the checks find.  A failed check is recorded and the closure
    runs on: the result carries the witness of the least failing relation
    id and every value.  A division by zero in a derivation returns at once.

    Exact mode runs on reduced int numerator/denominator pairs: a derived
    value is reduced once, by its `Fraction`, and a check is one integer
    cross-multiplication."""
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    require_maximal(c)
    exact = mode == "exact"
    table = c.table
    subset, quads, size = table.subset, table.quads, table.size
    # has[r] is 1 once rank r has a value, value[r]: a Fraction in exact
    # mode, which is also num[r] / den[r], reduced; a float in float mode.
    has, value, num, den = bytearray(size), [None] * size, [0] * size, [0] * size
    for s, r in zip(c.sets, c.ranks()):
        if s not in vals:
            raise ValueError(f"no value supplied for member {s}")
        v = vals[s]
        if isinstance(v, bool) or not isinstance(v, (Real, Decimal)) or not _finite(v):
            raise ValueError(f"value for {s} is not a rational number")
        if not v > 0:
            raise ValueError(f"value for {s} is not positive")
        if exact:
            try:
                v = Fraction(v)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"value for {s} is not a rational number") from None
            num[r], den[r] = v.numerator, v.denominator
        else:
            v = float(v)
        value[r], has[r] = v, 1

    def close(a, b) -> bool:
        scale = max(abs(a), abs(b))
        return scale == 0 or abs(a - b) <= rel_tol * scale

    def values() -> dict:
        return {subset[r]: value[r] for r in range(size) if has[r]}

    def check(rel: int) -> str | None:
        """Float mode: check relation `rel`, its six values known; a
        witness when it fails."""
        r_is, r_sj, r_jt, r_it, rm, add = quads[rel >> 1]
        if rel & 1:
            rm, add = add, rm
        if not value[rm]:
            return f"division by zero at {subset[rm]}"
        v = (value[r_is] * value[r_jt] + value[r_it] * value[r_sj]) / value[rm]
        if not close(value[add], v):
            return f"inconsistent re-derivation of {subset[add]}: {value[add]} vs {v}"
        return None

    failed, why = 2 * len(quads), None  # the least failing relation id, its witness
    pending = range(len(quads))  # the quads not yet handled, in index order
    grown = True
    while grown:
        grown, left = False, []
        for q in pending:
            r_is, r_sj, r_jt, r_it, rm, add = quads[q]
            if not (has[r_is] and has[r_sj] and has[r_jt] and has[r_it] and (has[rm] or has[add])):
                left.append(q)
                continue
            known_both = has[rm] and has[add]
            # derives (or checks) the other diagonal: anchor+{s,t} for d = 0
            rel = 2 * q + (not has[rm])
            if rel & 1:
                rm, add = add, rm
            if exact:
                # top / bot = (is*jt + it*sj) / rm, each value read as num / den
                d_is_jt, d_it_sj = den[r_is] * den[r_jt], den[r_it] * den[r_sj]
                top = (num[r_is] * num[r_jt] * d_it_sj + num[r_it] * num[r_sj] * d_is_jt) * den[rm]
                bot = d_is_jt * d_it_sj * num[rm]
                if known_both:
                    if num[add] * bot != top * den[add] and rel < failed:
                        failed = rel
                        why = (
                            f"inconsistent re-derivation of {subset[add]}: "
                            f"{value[add]} vs {Fraction(top, bot)}"
                        )
                    continue
                v = value[add] = Fraction(top, bot)
                num[add], den[add] = v.numerator, v.denominator
            else:
                done = None  # the direction a derivation checked
                if not known_both:
                    if not value[rm]:
                        return Propagation(False, values(), f"division by zero at {subset[rm]}")
                    v = (value[r_is] * value[r_jt] + value[r_it] * value[r_sj]) / value[rm]
                    value[add] = v
                    if close(v, v):
                        done = rel
                for x in (2 * q, 2 * q + 1):
                    text = x != done and x < failed and check(x)
                    if text:
                        failed, why = x, text
                        break
                if known_both:
                    continue
            has[add] = 1
            grown = True
        pending = left
    missing = has.find(0)
    if missing >= 0:
        raise AssertionError(f"no exchange relation derived a value for {subset[missing]}")
    return Propagation(why is None, values(), why)


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
    positive; otherwise NOT-DETERMINED with a witness.  An exact value's
    sign is its numerator's: a `Fraction` keeps its denominator positive."""
    result = propagate(c, vals, mode=mode, rel_tol=rel_tol)
    if not result.ok:
        return Verdict(NOT_DETERMINED, result.values, result.witness)
    if mode == "exact":
        bad = [K for K, v in result.values.items() if v.numerator <= 0]
    else:
        bad = [K for K, v in result.values.items() if not v > 0]
    if bad:
        return Verdict(NOT_DETERMINED, result.values, f"non-positive value at {min(bad)}")
    return Verdict(POSITIVE, result.values, None)
