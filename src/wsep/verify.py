"""Cross-check battery: the symbolic oracle against the closed-form
combinatorial predicates and exponents, plus the realization-level identities.
Each check is independent and reports (name, ok, detail)."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from itertools import combinations

from .laurent import Q, Q_INV
from .subsets import MinorIndex, minor_exponent, plucker_exponent, stieffel_subset, weakly_separated
from .quantum import (
    plucker_realize,
    qplucker_relation_holds,
    quantum_minor,
    quasi_commutation_exponent,
    verify_embedding,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def all_minor_indices(k: int, m: int, sizes=None) -> list[MinorIndex]:
    sizes = sizes or range(1, min(k, m) + 1)
    out = []
    for l in sizes:
        for rows in combinations(range(1, k + 1), l):
            for cols in combinations(range(1, m + 1), l):
                out.append(MinorIndex(rows, cols, k, m))
    return out


def _pairs_agree(name: str, labels: list, polys: list, formula, separated) -> CheckResult:
    """Every ordered pair (p, r) of `labels`, realized as the same places
    of `polys`: the oracle's exponent is `formula(p, r)`, and it is None
    exactly when `separated(p, r)` is False."""
    checked = 0
    for p, P in zip(labels, polys):
        for r, R in zip(labels, polys):
            oracle = quasi_commutation_exponent(P, R)
            expected = formula(p, r)
            if oracle != expected or (oracle is None) == separated(p, r):
                return CheckResult(
                    name, False, f"mismatch at {p} vs {r}: oracle={oracle}, formula={expected}"
                )
            checked += 1
    return CheckResult(name, True, f"{checked} ordered pairs agree")


def _minors_separated(p: MinorIndex, r: MinorIndex) -> bool:
    return weakly_separated(stieffel_subset(p), stieffel_subset(r))


def _minor_pairs_agree(k: int, m: int, sizes=None) -> CheckResult:
    minors = all_minor_indices(k, m, sizes)
    polys = list(map(quantum_minor, minors))
    return _pairs_agree(f"minors_{k}x{m}", minors, polys, minor_exponent, _minors_separated)


def _plucker_pairs_agree(k: int, n: int) -> CheckResult:
    subsets = list(combinations(range(1, n + 1), k))
    polys = [plucker_realize(K, k, n) for K in subsets]
    return _pairs_agree(f"plucker_{k}_{n}", subsets, polys, plucker_exponent, weakly_separated)


def _covers(n: int, a: int, b: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each ordered pair (I, J) of an a-subset and a b-subset of [1..n] with
    I | J = [1..n]: one per interleaving pattern of two such subsets whose
    union has n elements."""
    for I in combinations(range(1, n + 1), a):
        rest = tuple(x for x in range(1, n + 1) if x not in I)
        if len(rest) <= b:
            for shared in combinations(I, b - len(rest)):
                yield I, tuple(sorted(rest + shared))


def _plucker_patterns(k: int) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """One ordered pair (n, I, J) per interleaving pattern of two k-subsets:
    the representative with I | J = [1..n], k <= n <= 2k, in Gr(k, n).  The
    exponent of a pair depends only on how I and J interleave, so these
    stand for every n; there are sum C(n, k) C(k, 2k - n) of them, 63 at
    k = 3 and 321 at k = 4."""
    for n in range(k, 2 * k + 1):
        for I, J in _covers(n, k, k):
            yield n, I, J


def _minor_patterns(rows: int) -> Iterator[tuple[MinorIndex, MinorIndex]]:
    """One ordered pair (p, r) of minor indices per interleaving pattern of
    two minors that use at most `rows` rows between them: the
    representative in the R-by-C algebra whose row sets cover [1..R] and
    whose column sets cover [1..C].  The exponent of a pair depends only on
    how the row sets interleave and how the column sets do, so these stand
    for every k and m; there are 405 of them with at most three rows."""
    for R in range(1, rows + 1):
        for a in range(1, R + 1):
            for b in range(1, R + 1):
                for C in range(max(a, b), a + b + 1):
                    for P, Q in _covers(R, a, b):
                        for Pc, Qc in _covers(C, a, b):
                            yield MinorIndex(P, Pc, R, C), MinorIndex(Q, Qc, R, C)


def check_straightening() -> CheckResult:
    """The three-term exchange identity with q-coefficients, k=2, n=4."""
    P = {K: plucker_realize(K, 2, 4) for K in combinations(range(1, 5), 2)}
    lhs = P[(1, 3)] * P[(2, 4)]
    rhs = (P[(1, 2)] * P[(3, 4)]).scale(Q) + (P[(1, 4)] * P[(2, 3)]).scale(Q_INV)
    ok = lhs == rhs
    return CheckResult("straightening", ok, "q-weighted exchange identity" if ok else "failed")


def check_exchange_relations() -> CheckResult:
    for n in (4, 5):
        for I in combinations(range(1, n + 1), 3):
            for J in combinations(range(1, n + 1), 1):
                if not qplucker_relation_holds(I, J, 2, n):
                    return CheckResult(
                        "exchange_relations", False, f"failed at I={I}, J={J}, n={n}"
                    )
    return CheckResult("exchange_relations", True, "all (I,J) for k=2, n in {4,5}")


def check_embedding() -> CheckResult:
    for mi in all_minor_indices(2, 2):
        if not verify_embedding(mi):
            return CheckResult("embedding_2x2", False, f"failed at {mi}")
    return CheckResult("embedding_2x2", True, "all 2x2 minors embed correctly")


def check_quasi_central() -> CheckResult:
    for n in (4, 5):
        delta = plucker_realize((1, 2), 2, n)
        for K in combinations(range(1, n + 1), 2):
            c = quasi_commutation_exponent(delta, plucker_realize(K, 2, n))
            expected = len(set(K) - {1, 2})
            if c != expected:
                return CheckResult(
                    "quasi_central", False, f"initial coordinate vs {K} (n={n}): {c}"
                )
    return CheckResult("quasi_central", True, "initial coordinate quasi-commutes with all")


def check_aux_exponents() -> CheckResult:
    """The two bridge identities behind the minor exponent formula: powers of
    the initial coordinate against realized Stieffel coordinates.  Each
    power and each coordinate is built once, before the pair loop."""
    k = m = 2
    n = k + m
    delta = plucker_realize(tuple(range(1, k + 1)), k, n)
    minors = all_minor_indices(k, m)
    power = {s: delta.pow(s - 1) for s in {mi.size for mi in minors}}
    realized = {mi: plucker_realize(stieffel_subset(mi), k, n) for mi in minors}
    for p in minors:
        for r in minors:
            c1 = quasi_commutation_exponent(power[p.size], realized[r])
            if c1 != r.size * (p.size - 1):
                return CheckResult("aux_exponents", False, f"power identity fails at {p},{r}")
            c2 = quasi_commutation_exponent(realized[p], power[r.size])
            if c2 != p.size * (1 - r.size):
                return CheckResult("aux_exponents", False, f"swap identity fails at {p},{r}")
    return CheckResult("aux_exponents", True, "both auxiliary exponent identities hold")


SMALL_SUITE = [
    partial(_minor_pairs_agree, 2, 2),
    partial(_minor_pairs_agree, 2, 3, sizes=(1, 2)),
    partial(_plucker_pairs_agree, 2, 4),
    partial(_plucker_pairs_agree, 2, 5),
    check_straightening,
    check_exchange_relations,
    check_embedding,
    check_quasi_central,
    check_aux_exponents,
]

FULL_SUITE = SMALL_SUITE + [partial(_minor_pairs_agree, 1, 3), partial(_minor_pairs_agree, 3, 3)]

_SUITES = {"small": SMALL_SUITE, "full": FULL_SUITE}


def run_suite(suite: str = "small") -> list[CheckResult]:
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    return sorted((fn() for fn in _SUITES[suite]), key=lambda r: r.name)
