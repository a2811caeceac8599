from collections import Counter
from itertools import combinations, product

import pytest

from wsep.quantum import plucker_realize, quasi_commutation_exponent
from wsep.subsets import plucker_exponent, weakly_separated
from wsep.verify import _minor_pairs_agree, _plucker_pairs_agree, run_suite


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


@pytest.mark.parametrize("k, m, pairs", [(3, 4, 1156), (4, 4, 4761)])
def test_minor_pairs_agree_beyond_the_full_suite(k, m, pairs):
    # the paper's pair criterion on every ordered minor pair of Mat_{k x m}
    result = _minor_pairs_agree(k, m)
    assert result.ok, result.detail
    assert result.detail == f"{pairs} ordered pairs agree"


def test_plucker_4_8_pair_sample_agrees():
    # the paper's criterion at k = 4 on every 97th ordered Gr(4,8) pair; the
    # 4x4 minors meet more relabelled concatenations than the pattern table
    # holds, so the sample also empties the table at its real bound
    subsets = list(combinations(range(1, 9), 4))
    exponents = Counter()
    for I, J in list(product(subsets, subsets))[::97]:
        c = quasi_commutation_exponent(plucker_realize(I, 4, 8), plucker_realize(J, 4, 8))
        assert c == plucker_exponent(I, J), (I, J)
        assert (c is not None) == weakly_separated(I, J), (I, J)
        exponents[c] += 1
    assert exponents == {None: 21, -2: 6, -1: 8, 0: 4, 1: 9, 2: 3}
