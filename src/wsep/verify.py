"""Cross-check battery: the symbolic oracle against the closed-form
combinatorial predicates and exponents, plus the realization-level identities.
Each check is independent and reports (name, ok, detail)."""

from __future__ import annotations

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


def _minor_pairs_agree(k: int, m: int, sizes=None) -> CheckResult:
    minors = all_minor_indices(k, m, sizes)
    polys = {mi: quantum_minor(mi) for mi in minors}
    checked = 0
    for a in range(len(minors)):
        for b in range(len(minors)):
            p, r = minors[a], minors[b]
            oracle = quasi_commutation_exponent(polys[p], polys[r])
            formula = minor_exponent(p, r)
            separated = weakly_separated(stieffel_subset(p), stieffel_subset(r))
            if (oracle is not None) != separated or oracle != formula:
                return CheckResult(
                    f"minors_{k}x{m}",
                    False,
                    f"mismatch at {p} vs {r}: oracle={oracle}, formula={formula}",
                )
            checked += 1
    return CheckResult(f"minors_{k}x{m}", True, f"{checked} ordered pairs agree")


def _plucker_pairs_agree(k: int, n: int) -> CheckResult:
    subsets = list(combinations(range(1, n + 1), k))
    polys = {K: plucker_realize(K, k, n) for K in subsets}
    checked = 0
    for I in subsets:
        for J in subsets:
            oracle = quasi_commutation_exponent(polys[I], polys[J])
            formula = plucker_exponent(I, J)
            if oracle != formula or (oracle is None) == weakly_separated(I, J):
                return CheckResult(
                    f"plucker_{k}_{n}",
                    False,
                    f"mismatch at {I} vs {J}: oracle={oracle}, formula={formula}",
                )
            checked += 1
    return CheckResult(f"plucker_{k}_{n}", True, f"{checked} ordered pairs agree")


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
    the initial coordinate against realized Stieffel coordinates."""
    k = m = 2
    n = k + m
    delta = plucker_realize(tuple(range(1, k + 1)), k, n)
    minors = all_minor_indices(k, m)
    for p in minors:
        for r in minors:
            sp = plucker_realize(stieffel_subset(p), k, n)
            sr = plucker_realize(stieffel_subset(r), k, n)
            c1 = quasi_commutation_exponent(delta.pow(p.size - 1), sr)
            if c1 != r.size * (p.size - 1):
                return CheckResult("aux_exponents", False, f"power identity fails at {p},{r}")
            c2 = quasi_commutation_exponent(sp, delta.pow(r.size - 1))
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
