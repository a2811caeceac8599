"""Subset-level combinatorics: weak separation, the Stieffel map, commutation
exponents, the dihedral action on the n-gon, and diameter/boundary notions.

Internally a subset is an int bitmask, bit x set for each element x
(`_to_mask`, `_from_mask`); weak separation and the commutation exponents are
decided with bit operations.  The public functions take and return subsets
as sorted tuples of distinct 1-based integers, which `as_subset` and
`check_in_range` produce and check at ingress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def as_subset(xs: Iterable[int]) -> tuple[int, ...]:
    """Canonical form: strictly increasing tuple; rejects duplicates and
    elements that are not ints (a bool is not the int it equals)."""
    t = tuple(xs)
    for x in t:
        if not _is_int(x):
            raise ValueError(f"subset element {x!r} is not an integer")
    t = tuple(sorted(t))
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"duplicate elements in subset {t}")
    if t and t[0] < 1:
        raise ValueError(f"subset elements must be >= 1, got {t}")
    return t


def check_in_range(K: Iterable[int], n: int) -> tuple[int, ...]:
    t = as_subset(K)
    if t and t[-1] > n:
        raise ValueError(f"subset {t} not contained in [1..{n}]")
    return t


def parse_subset(text: str) -> tuple[int, ...]:
    """Comma-separated integers in any order, e.g. "5,1,3", as the sorted
    subset (1, 3, 5); "" is the empty set."""
    text = text.strip()
    if not text:
        return ()
    try:
        xs = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f'subset "{text}" is not a comma-separated list of integers') from None
    return as_subset(xs)


def _is_int(x) -> bool:
    """An int that is not a bool (JSON `true` loads as True, which is 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_dims(a, b, names: str) -> None:
    """Two dimensions are ints (a bool is not); `names` names them in the
    message, as "k and n"."""
    if not (_is_int(a) and _is_int(b)):
        raise ValueError(f"{names} must be integers, got {a!r} and {b!r}")


def _to_mask(K: Iterable[int]) -> int:
    """The bitmask of a subset: bit x is set for each element x."""
    m = 0
    for x in K:
        m |= 1 << x
    return m


def _subset_mask(xs: Iterable[int]) -> int:
    """`_to_mask(as_subset(xs))` in one pass over xs: an element that is not
    a plain int >= 1, or a mask with fewer bits than xs has elements, hands
    xs to `as_subset`, which raises its error for any xs it rejects (an int
    subclass that is not a bool passes)."""
    t = tuple(xs)
    m = 0
    for x in t:
        if type(x) is not int or x < 1:
            as_subset(t)
        m |= 1 << x
    if m.bit_count() != len(t):
        as_subset(t)
    return m


def _from_mask(m: int) -> tuple[int, ...]:
    """The sorted tuple of the elements of a bitmask."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def precedes(I: Iterable[int], J: Iterable[int]) -> bool:
    """Every element of I is strictly below every element of J (vacuous if
    either side is empty)."""
    I, J = tuple(I), tuple(J)
    if not I or not J:
        return True
    return max(I) < min(J)


def _precedes_masks(I: int, J: int) -> bool:
    """`precedes` on bitmasks: every bit of I lies below the lowest bit of J."""
    return not J or I < (J & -J)


def _span(m: int) -> int:
    """The bits from the lowest to the highest set bit of m, inclusive."""
    return ((1 << m.bit_length()) - 1) & ~((m & -m) - 1)


def _split_sizes(first: int, second: int):
    """Split second-first into the parts below / above first-second.

    Returns the sizes (low, high) when the split exhausts the difference --
    i.e. when the pair satisfies the separation condition with `first` in
    the large role -- else None.  The split is forced: an element strictly
    inside the span of first-second can join neither part.
    """
    d_first = first & ~second
    d_second = second & ~first
    if d_second & _span(d_first):
        return None
    low = (d_second & ((d_first & -d_first) - 1)).bit_count() if d_first else 0
    return low, d_second.bit_count() - low


def _weakly_separated_masks(I: int, J: int) -> bool:
    """Weak separation of two subsets given as bitmasks.  With A = I-J and
    B = J-I: when |I| >= |J| it suffices that B has no element inside the
    span of A, and when |J| >= |I| that A has none inside the span of B.

    This is the test of `_split_sizes` in both roles without the sizes,
    written out here because `validate` runs it on every pair."""
    A = I & ~J
    B = J & ~I
    a, b = I.bit_count(), J.bit_count()
    return (a >= b and not B & _span(A)) or (b >= a and not A & _span(B))


def weakly_separated(I: Iterable[int], J: Iterable[int]) -> bool:
    """Weak separation of two subsets of the same ground set [1..n], decided
    on their bitmasks; a subset that `as_subset` rejects is a ValueError."""
    return _weakly_separated_masks(_subset_mask(I), _subset_mask(J))


@dataclass(frozen=True)
class MinorIndex:
    """Row/column index pair of a quantum minor in the k-by-m algebra."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    k: int
    m: int

    def __post_init__(self):
        _require_dims(self.k, self.m, "k and m")
        object.__setattr__(self, "rows", as_subset(self.rows))
        object.__setattr__(self, "cols", as_subset(self.cols))
        if not self.rows or len(self.rows) != len(self.cols):
            raise ValueError("row and column sets must be non-empty of equal size")
        if self.rows[-1] > self.k:
            raise ValueError(f"row set {self.rows} exceeds k={self.k}")
        if self.cols[-1] > self.m:
            raise ValueError(f"column set {self.cols} exceeds m={self.m}")

    @property
    def size(self) -> int:
        return len(self.rows)


def stieffel_subset(mi: MinorIndex) -> tuple[int, ...]:
    """The k-subset of [1..k+m] attached to a minor index: shift the column
    set up by k and fill with the complement of the reversed row set."""
    w0 = {mi.k + 1 - a for a in mi.rows}
    kept = [x for x in range(1, mi.k + 1) if x not in w0]
    return tuple(sorted(kept + [b + mi.k for b in mi.cols]))


def plucker_exponent(I: Iterable[int], J: Iterable[int]) -> int | None:
    """Commutation exponent of two equal-size Pluecker index sets: |high| -
    |low| of the canonical split when I takes the large role, the negated
    swap otherwise; None when the pair is not weakly separated.  A subset
    that `as_subset` rejects is a ValueError."""
    mI, mJ = _subset_mask(I), _subset_mask(J)
    if mI.bit_count() != mJ.bit_count():
        raise ValueError("plucker_exponent needs equal-size subsets")
    split = _split_sizes(mI, mJ)
    if split is not None:
        low, high = split
        return high - low
    split = _split_sizes(mJ, mI)
    if split is not None:
        low, high = split
        return -(high - low)
    return None


def minor_exponent(p: MinorIndex, r: MinorIndex) -> int | None:
    """Commutation exponent of two quantum minors, or None when they do not
    quasi-commute.  Antisymmetric by construction."""
    if (p.k, p.m) != (r.k, r.m):
        raise ValueError("minor indices must share the same algebra dimensions")
    c = plucker_exponent(stieffel_subset(p), stieffel_subset(r))
    return None if c is None else c + p.size - r.size


@dataclass(frozen=True)
class Dihedral:
    """Symmetry of the n-gon in (rotation, reflection) normal form.

    An element acts as rot steps of the basic rotation after an optional
    basic reflection: g = rho^rot * sigma^refl, where rho sends x to x+1
    (mod n) and sigma swaps 1,2 and sends x >= 3 to n+3-x.

    n must be an int >= 1, rot an int and refl a bool; a bool is not an int
    here.  rot is stored reduced mod n.
    """

    n: int
    rot: int = 0
    refl: bool = False

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not _is_int(self.rot):
            raise ValueError(f"rot must be an integer, got {self.rot!r}")
        if not isinstance(self.refl, bool):
            raise ValueError(f"refl must be a bool, got {self.refl!r}")
        object.__setattr__(self, "rot", self.rot % self.n)

    @staticmethod
    def group(n: int):
        for refl in (False, True):
            for rot in range(n):
                yield Dihedral(n, rot, refl)

    def apply(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ValueError(f"index {x} outside [1..{self.n}]")
        if self.refl:
            if x == 1:
                x = 2
            elif x == 2:
                x = 1
            else:
                x = self.n + 3 - x
        return (x - 1 + self.rot) % self.n + 1

    def apply_subset(self, K: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self.apply(x) for x in K))

    def __mul__(self, other: "Dihedral") -> "Dihedral":
        """Composition self o other (apply other first)."""
        if self.n != other.n:
            raise ValueError("dihedral elements act on different polygons")
        rot = (self.rot + (-other.rot if self.refl else other.rot)) % self.n
        return Dihedral(self.n, rot, self.refl != other.refl)

    def inverse(self) -> "Dihedral":
        if self.refl:
            return Dihedral(self.n, self.rot, True)
        return Dihedral(self.n, -self.rot % self.n, False)


def diameter(K: Iterable[int], n: int) -> int:
    """Minimal length of a cyclic interval of [1..n] containing K."""
    t = check_in_range(K, n)
    if not t:
        raise ValueError("diameter of the empty set is undefined")
    best_gap = max(
        (t[(i + 1) % len(t)] - t[i] - 1) % n for i in range(len(t))
    )
    return n - best_gap


def is_boundary(K: Iterable[int], n: int) -> bool:
    """K consists of |K| cyclically consecutive indices."""
    t = check_in_range(K, n)
    return diameter(t, n) == len(t)
