"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are pinned here: symbolic and rational checks are exact
(tolerance 0), float-mode reconstruction must stay within relative error 1e-9.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from wsep.laurent import Q, Q_INV
from wsep.subsets import Dihedral, MinorIndex, minor_exponent, plucker_exponent, stieffel_subset
from wsep.quantum import (
    plucker_realize,
    qplucker_relation_holds,
    quantum_minor,
    quasi_commutation_exponent,
    verify_embedding,
)
from wsep.verify import all_minor_indices
from wsep.wscoll import (
    WSCollection,
    base_collection,
    dihedral_orbits,
    reduce_to_base,
    translate,
)
from wsep.reduction import f_set, generate_w3, lift, pinch_point, project
from wsep.wiring import chambers, parse_word, word_collection
from wsep.positivity import GrassmannPoint, propagate, vandermonde_point

from oracles import all_optimal_words, component_of_base, sizes_histogram, weakly_separated_bf
from test_wscoll import random_greedy_maximal


def report(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_oracle_formula_equivalence():
    started = time.time()
    pairs_checked = 0
    configs = [(2, 2, None), (2, 3, (1, 2))]
    for k, m, sizes in configs:
        minors = all_minor_indices(k, m, sizes)
        polys = {mi: quantum_minor(mi) for mi in minors}
        for p in minors:
            for r in minors:
                oracle = quasi_commutation_exponent(polys[p], polys[r])
                separated = weakly_separated_bf(stieffel_subset(p), stieffel_subset(r))
                formula = minor_exponent(p, r)
                assert (oracle is not None) == separated, (p, r)
                assert oracle == formula, (p, r)
                pairs_checked += 1
    elapsed = time.time() - started
    report(
        1,
        elapsed < 60,
        f"{pairs_checked} minor pairs: symbolic verdict+exponent == closed form "
        f"(exact), {elapsed:.2f}s < 60s",
    )


def test_criterion_02_realized_coordinate_exponents():
    checked = 0
    for n in (4, 5):
        coords = {K: plucker_realize(K, 2, n) for K in combinations(range(1, n + 1), 2)}
        for I in coords:
            for J in coords:
                assert quasi_commutation_exponent(coords[I], coords[J]) == plucker_exponent(I, J), (I, J, n)
                checked += 1
    P = {K: plucker_realize(K, 2, 4) for K in combinations(range(1, 5), 2)}
    straightening = (
        P[(1, 3)] * P[(2, 4)]
        == (P[(1, 2)] * P[(3, 4)]).scale(Q) + (P[(1, 4)] * P[(2, 3)]).scale(Q_INV)
    )
    report(
        2,
        straightening,
        f"{checked} realized coordinate pairs match the split-count formula exactly; "
        "q-weighted three-term identity holds symbolically",
    )


def test_criterion_03_exchange_relations():
    checked = 0
    for n in (4, 5):
        for I in combinations(range(1, n + 1), 3):
            for J in combinations(range(1, n + 1), 1):
                assert qplucker_relation_holds(I, J, 2, n), (I, J, n)
                checked += 1
    report(3, True, f"all {checked} defining exchange relations vanish symbolically (k=2, n in 4,5)")


def test_criterion_04_embedding():
    minors = all_minor_indices(2, 2)
    for mi in minors:
        assert verify_embedding(mi), mi
    # the scalar factor is pinned: dropping the q power must break the l=2 case
    mi = MinorIndex((1, 2), (1, 2), 2, 2)
    phi = {
        (i, j): plucker_realize(stieffel_subset(MinorIndex((i,), (j,), 2, 2)), 2, 4)
        for i in (1, 2)
        for j in (1, 2)
    }
    image = phi[(1, 1)] * phi[(2, 2)] - (phi[(1, 2)] * phi[(2, 1)]).scale(Q_INV)
    delta = plucker_realize((1, 2), 2, 4)
    with_q = (delta * plucker_realize((3, 4), 2, 4)).scale(Q)
    without_q = delta * plucker_realize((3, 4), 2, 4)
    report(
        4,
        image == with_q and image != without_q,
        f"all {len(minors)} minors (k=m=2) embed with the q^(l choose 2) scalar and "
        "the determinant-power factor; scalar is sensitive",
    )


def test_criterion_05_counting():
    catalan = [comb(2 * i, i) // (i + 1) for i in range(10)]
    counts = {n: len(component_of_base(2, n)) for n in range(4, 9)}
    assert [counts[n] for n in range(4, 9)] == [2, 5, 14, 42, 132]
    assert [catalan[n - 2] for n in range(4, 9)] == [2, 5, 14, 42, 132]
    w36 = component_of_base(3, 6)
    assert len(w36) == 34
    orbits = dihedral_orbits(w36)
    assert len(orbits) == 5
    printed = [
        [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 4, 5)],
        [(1, 2, 4), (1, 2, 5), (1, 4, 5), (2, 4, 5)],
        [(1, 2, 4), (1, 3, 4), (1, 4, 5), (1, 4, 6)],
        [(1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5)],
        [(1, 3, 5), (1, 3, 6), (1, 4, 5), (2, 3, 5)],
    ]
    boundary = [s for s in base_collection(3, 6).sets if s not in base_collection(3, 6).non_boundary()]
    reps = [WSCollection.of(3, 6, boundary + extra) for extra in printed]
    rep_orbits = [
        frozenset(translate(rep, g) for g in Dihedral.group(6)) for rep in reps
    ]
    assert all(o <= w36 for o in rep_orbits)
    assert frozenset().union(*rep_orbits) == w36
    assert len({frozenset(o) for o in rep_orbits}) == 5
    report(
        5,
        True,
        "|W(2,n)| = 2,5,14,42,132 for n=4..8; |W(3,6)| = 34 in 5 dihedral orbits "
        "matching the five listed representatives",
    )


def test_criterion_06_purity():
    for n in range(4, 10):
        assert set(sizes_histogram(component_of_base(2, n))) == {2 * (n - 2) + 1}
    for n in range(5, 8):
        assert set(sizes_histogram(component_of_base(3, n))) == {3 * (n - 3) + 1}
    rng = random.Random(606)
    for _ in range(120):
        c = random_greedy_maximal(2, 9, rng)
        assert len(c) == 2 * 7 + 1
    for _ in range(120):
        c = random_greedy_maximal(3, 8, rng)
        assert len(c) == 3 * 5 + 1
    for n in (6, 7, 8):
        for _ in range(40):
            c = random_greedy_maximal(4, n, rng)
            assert len(c) == 4 * (n - 4) + 1
    report(
        6,
        True,
        "all BFS and random-greedy maximal collections have size k(n-k)+1 for "
        "k=2 (n<=9), k=3 (n<=8) and k=4 (n<=8)",
    )


def test_criterion_07_transitivity():
    reduced = 0
    for k, nmax in ((2, 8), (3, 7)):
        for n in range(k + 2, nmax + 1):
            target = base_collection(k, n)
            comp = component_of_base(k, n)
            # connectivity: independent generators/counts confirm the BFS saw
            # everything, and random completions always land inside it
            if k == 2:
                assert len(comp) == comb(2 * (n - 2), n - 2) // (n - 1)
            rng = random.Random(700 + 10 * k + n)
            for _ in range(15):
                assert random_greedy_maximal(k, n, rng) in comp
            for c in comp:
                red = reduce_to_base(c)
                assert red.end == target
                reduced += 1
    assert frozenset(generate_w3(7)) == component_of_base(3, 7)
    translates = 0
    for k, n in ((2, 7), (2, 8), (3, 6), (3, 7), (3, 8)):
        base = base_collection(k, n)
        for g in Dihedral.group(n):
            red = reduce_to_base(translate(base, g))
            assert red.end == base
            translates += 1
    report(
        7,
        True,
        f"move graph connected on W(2,n<=8) and W(3,n<=7); {reduced} collections and "
        f"{translates} dihedral base translates reduce to the base collection with "
        "every intermediate validated",
    )


def test_criterion_08_wiring():
    word = parse_word("2 1r 1 2 3 2r 2 1 4 1r 3 2 1")
    chs = chambers(word, 3, 5)
    assert len(chs) == 15
    expected = {
        1: [((3,), (1,)), ((2,), (1,)), ((2,), (3,)), ((2,), (4,)), ((1,), (4,)), ((1,), (5,))],
        2: [((2, 3), (1, 2)), ((2, 3), (1, 3)), ((2, 3), (2, 3)), ((1, 2), (2, 3)), ((1, 2), (3, 4)), ((1, 2), (4, 5))],
        3: [((1, 2, 3), (1, 2, 3)), ((1, 2, 3), (2, 3, 4)), ((1, 2, 3), (3, 4, 5))],
    }
    for level, labels in expected.items():
        got = [
            (c.red, c.black)
            for c in sorted((c for c in chs if c.level == level), key=lambda c: c.start)
        ]
        assert got == labels, level
    collected = set()
    word_count = 0
    for w in all_optimal_words(3, 3):
        c = word_collection(w, 3, 3)
        word_count += 1
        for g in Dihedral.group(6):
            collected.add(translate(c, g))
    assert frozenset(collected) == component_of_base(3, 6)
    report(
        8,
        True,
        f"example word reproduces all 15 chamber labels; {word_count} reduced "
        "shuffles closed under the dihedral action give exactly the 34 collections",
    )


def test_criterion_09_reduction():
    bnd = [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 5, 6), (1, 2, 6)]
    C = WSCollection.of(3, 6, bnd + [(1, 3, 6), (1, 4, 6), (2, 3, 6), (3, 4, 6)])
    assert f_set(C) == {2, 3}
    assert lift(C, 2).non_boundary() == (
        (1, 2, 6), (1, 3, 6), (1, 4, 6), (1, 5, 6), (2, 3, 6), (3, 4, 6),
    )
    assert lift(C, 3).non_boundary() == (
        (1, 3, 6), (1, 3, 7), (1, 4, 6), (1, 5, 6), (2, 3, 6), (3, 4, 6),
    )
    round_trips = 0
    for n in (4, 5, 6, 7):
        marker = (1, n - 2, n - 1)
        for c in component_of_base(3, n):
            if marker not in c:
                continue
            down, b = project(c), pinch_point(c)
            assert b in f_set(down)
            assert lift(down, b) == c
            assert len(down) == len(c) - 3
            round_trips += 1
    assert frozenset(generate_w3(7)) == component_of_base(3, 7)
    report(
        9,
        True,
        f"worked example reproduced exactly; {round_trips} projection/lift round "
        "trips hold; recursive generation at n=7 equals the move-graph enumeration",
    )


def test_criterion_10_positivity():
    rng = random.Random(1010)
    cases = [(2, 4), (2, 5), (2, 6), (2, 7), (3, 6)]
    points = 0
    for k, n in cases:
        collections = sorted(component_of_base(k, n))
        for _ in range(20):
            nodes = sorted(rng.sample(range(1, 120), n))
            nodes = [Fraction(x, rng.randint(1, 3)) for x in nodes]
            nodes = sorted(set(nodes))
            while len(nodes) < n:
                nodes.append(nodes[-1] + 1)
            exact = vandermonde_point(nodes, k)
            pv = exact.plucker_vector()
            pvf = GrassmannPoint(tuple(tuple(map(float, r)) for r in exact.rows)).plucker_vector()
            points += 1
            for c in collections:
                res = propagate(c, {K: pv[K] for K in c.sets})
                assert res.ok and res.values == pv, (k, n, c)
                resf = propagate(c, {K: pvf[K] for K in c.sets}, mode="float")
                assert resf.ok, (k, n, c)
                for K, v in pvf.items():
                    assert abs(resf.values[K] - v) <= 1e-9 * abs(v), (k, n, K)
    report(
        10,
        points == 100,
        f"{points} sample points: every collection in W(2,n<=7) and W(3,6) "
        "reconstructs all coordinates exactly (rational) and within 1e-9 (float)",
    )
