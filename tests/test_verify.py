from collections import Counter
from itertools import combinations, product

import pytest

from wsep import quantum
from wsep.quantum import plucker_realize, quantum_minor, quasi_commutation_exponent
from wsep.subsets import minor_exponent, plucker_exponent, weakly_separated
from wsep.verify import (
    _minor_pairs_agree,
    _minor_patterns,
    _minors_separated,
    _plucker_pairs_agree,
    _plucker_patterns,
    run_suite,
)


def test_small_suite_all_green():
    results = run_suite("small")
    assert [r.name for r in results] == sorted(r.name for r in results)
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_full_suite_covers_3x3_minors():
    results = run_suite("full")
    names = {r.name for r in results}
    assert "minors_3x3" in names
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_plucker_3_6_pairs_agree():
    result = _plucker_pairs_agree(3, 6)
    assert result.ok, result.detail
    assert result.detail == "400 ordered pairs agree"


def test_one_representative_per_interleaving_pattern():
    # each representative covers [1..n] and relabels onto a pattern of its
    # own, one exponent table entry each; the k = 4 ones are the
    # gr4-patterns pin's
    reps = list(_plucker_patterns(3))
    assert len(reps) == 63 and sum(1 for _ in _plucker_patterns(4)) == 321
    quantum._EXPONENTS.clear()
    for n, I, J in reps:
        assert set(I) | set(J) == set(range(1, n + 1))
        c = quasi_commutation_exponent(plucker_realize(I, 3, n), plucker_realize(J, 3, n))
        assert c == plucker_exponent(I, J), (I, J)
        assert (c is not None) == weakly_separated(I, J), (I, J)
    assert len(quantum._EXPONENTS) == 63


def test_minor_criterion_for_at_most_three_rows():
    # one representative per interleaving pattern of two minors that use at
    # most three rows between them, each in the algebra its rows and columns
    # cover, and so each with a key of its own; with the invariance of
    # tests/test_subsets.py::TestPatternInvariance, the paper's criterion
    # for every m with at most three rows
    reps = list(_minor_patterns(3))
    assert len(reps) == 405 and sum(1 for _ in _minor_patterns(2)) == 42
    quantum._EXPONENTS.clear()
    for p, r in reps:
        assert set(p.rows) | set(r.rows) == set(range(1, p.k + 1))
        assert set(p.cols) | set(r.cols) == set(range(1, p.m + 1))
        c = quasi_commutation_exponent(quantum_minor(p), quantum_minor(r))
        assert c == minor_exponent(p, r), (p, r)
        assert (c is not None) == _minors_separated(p, r), (p, r)
    assert len(quantum._EXPONENTS) == 405


@pytest.mark.parametrize("k, m, pairs", [(3, 4, 1156), (4, 4, 4761)])
def test_minor_pairs_agree_beyond_the_full_suite(k, m, pairs):
    # the paper's pair criterion on every ordered minor pair of Mat_{k x m}
    result = _minor_pairs_agree(k, m)
    assert result.ok, result.detail
    assert result.detail == f"{pairs} ordered pairs agree"


def test_plucker_4_8_pair_sample_agrees():
    # the paper's criterion at k = 4 on every 97th ordered Gr(4,8) pair; each
    # pair that misses the exponent table rewrites its two products of 4x4
    # minors, 24 terms each, on a throwaway leaf table
    subsets = list(combinations(range(1, 9), 4))
    exponents = Counter()
    for I, J in list(product(subsets, subsets))[::97]:
        c = quasi_commutation_exponent(plucker_realize(I, 4, 8), plucker_realize(J, 4, 8))
        assert c == plucker_exponent(I, J), (I, J)
        assert (c is not None) == weakly_separated(I, J), (I, J)
        exponents[c] += 1
    assert exponents == {None: 21, -2: 6, -1: 8, 0: 4, 1: 9, 2: 3}
