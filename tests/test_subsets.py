import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from wsep import subsets
from wsep.subsets import (
    Dihedral,
    MinorIndex,
    as_subset,
    check_in_range,
    diameter,
    _from_mask,
    is_boundary,
    minor_exponent,
    parse_subset,
    plucker_exponent,
    precedes,
    _precedes_masks,
    stieffel_subset,
    _to_mask,
    weakly_separated,
    _weakly_separated_masks,
)
from wsep.quantum import NCPoly, quantum_minor, quasi_commutation_exponent

from oracles import (
    diameter_bf,
    maximal_minor,
    staircase_matrix,
    submatrix_minor,
    weakly_separated_bf,
    weakly_separated_by_crossings,
)


def all_subsets(n):
    out = [()]
    for k in range(1, n + 1):
        out.extend(combinations(range(1, n + 1), k))
    return out


class TestPrecedes:
    def test_disjoint_intervals(self):
        assert precedes((1, 2), (3, 5))

    def test_overlap(self):
        assert not precedes((1, 4), (3, 5))

    def test_vacuous(self):
        assert precedes((), (1,))
        assert precedes((1,), ())


class TestWeaklySeparated:
    def test_crossing_pair(self):
        assert weakly_separated_bf((1, 3), (2, 4)) is False
        assert not weakly_separated((1, 3), (2, 4))

    def test_initial_interval_separates_from_everything(self):
        for n in (4, 5, 6):
            for k in (2, 3):
                for K in combinations(range(1, n + 1), k):
                    assert weakly_separated(tuple(range(1, k + 1)), K)

    def test_preceding_pair(self):
        assert weakly_separated((1, 2), (3, 4))

    def test_three_crossings(self):
        assert weakly_separated_bf((1, 3, 5), (2, 4, 6)) is False
        assert not weakly_separated((1, 3, 5), (2, 4, 6))

    def test_exhaustive_against_bruteforce_and_crossings(self):
        # all pairs of subsets of [1..6]: partition search, canonical split,
        # and the crossing criterion must agree
        subsets = all_subsets(6)
        for I in subsets:
            for J in subsets:
                expected = weakly_separated_bf(I, J)
                assert weakly_separated(I, J) == expected, (I, J)
                assert weakly_separated_by_crossings(I, J) == expected, (I, J)

    @given(st.data())
    def test_symmetric_and_reflexive(self, data):
        n = data.draw(st.integers(2, 8))
        I = data.draw(st.sets(st.integers(1, n), max_size=n))
        J = data.draw(st.sets(st.integers(1, n), max_size=n))
        assert weakly_separated(I, I)
        assert weakly_separated(I, J) == weakly_separated(J, I)

    @given(
        st.sets(st.integers(1, 12), max_size=12),
        st.sets(st.integers(1, 12), max_size=12),
    )
    def test_bitmask_predicate_matches_bruteforce(self, I, J):
        # any sizes, equal or not, empty included
        expected = weakly_separated_bf(I, J)
        assert _weakly_separated_masks(_to_mask(I), _to_mask(J)) == expected
        assert weakly_separated(sorted(I), sorted(J)) == expected

    @given(
        st.sets(st.integers(1, 12), max_size=12),
        st.sets(st.integers(1, 12), max_size=12),
    )
    def test_mask_round_trip_and_precedes(self, I, J):
        assert _from_mask(_to_mask(I)) == tuple(sorted(I))
        assert _precedes_masks(_to_mask(I), _to_mask(J)) == precedes(I, J)

    def test_dihedral_invariance_exhaustive(self):
        for n in (4, 5, 6, 7):
            group = list(Dihedral.group(n))
            for k in range(1, n + 1):
                pool = list(combinations(range(1, n + 1), k))
                for I in pool:
                    for J in pool:
                        expected = weakly_separated(I, J)
                        assert all(
                            weakly_separated(g.apply_subset(I), g.apply_subset(J))
                            == expected
                            for g in group
                        ), (I, J, n)


class TestStieffel:
    def test_classical_matrix_oracle(self):
        # the minor of the plain matrix equals (up to sign) the maximal minor
        # of the staircase matrix on the mapped column set
        rng = random.Random(7)
        for k, m in [(2, 2), (2, 3), (3, 3), (3, 4)]:
            x = [[rng.randint(1, 50) for _ in range(m)] for _ in range(k)]
            M = staircase_matrix(x, k, m)
            for l in range(1, min(k, m) + 1):
                for rows in combinations(range(1, k + 1), l):
                    for cols in combinations(range(1, m + 1), l):
                        mi = MinorIndex(rows, cols, k, m)
                        lhs = submatrix_minor(x, rows, cols)
                        rhs = maximal_minor(M, stieffel_subset(mi))
                        assert abs(lhs) == abs(rhs), (rows, cols)

    def test_examples(self):
        assert stieffel_subset(MinorIndex((1,), (2,), 2, 2)) == (1, 4)
        assert stieffel_subset(MinorIndex((1, 2), (1, 2), 2, 2)) == (3, 4)
        assert stieffel_subset(MinorIndex((2,), (3,), 3, 3)) == (1, 3, 6)

    def test_injective_and_k_sized(self):
        for k, m in [(2, 3), (3, 3)]:
            seen = {}
            for l in range(1, min(k, m) + 1):
                for rows in combinations(range(1, k + 1), l):
                    for cols in combinations(range(1, m + 1), l):
                        s = stieffel_subset(MinorIndex(rows, cols, k, m))
                        assert len(s) == k
                        assert s not in seen
                        seen[s] = (rows, cols)


class TestPluckerExponent:
    def test_far_apart(self):
        # derived symbolically: the realized product picks up q^2 on swap
        from wsep.quantum import plucker_realize

        p = plucker_realize((1, 2), 2, 4)
        r = plucker_realize((3, 4), 2, 4)
        assert quasi_commutation_exponent(p, r) == 2
        assert plucker_exponent((1, 2), (3, 4)) == 2

    def test_identical(self):
        assert plucker_exponent((1, 3), (1, 3)) == 0

    def test_crossing_is_none(self):
        assert plucker_exponent((1, 3), (2, 4)) is None

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            plucker_exponent((1, 2), (1, 2, 3))

    def test_initial_interval_always_defined(self):
        for n in (4, 5, 6, 7):
            for k in (2, 3):
                for K in combinations(range(1, n + 1), k):
                    assert plucker_exponent(K, tuple(range(1, k + 1))) is not None

    def test_antisymmetric(self):
        for n in (5, 6):
            for I in combinations(range(1, n + 1), 2):
                for J in combinations(range(1, n + 1), 2):
                    c = plucker_exponent(I, J)
                    d = plucker_exponent(J, I)
                    assert (c is None) == (d is None)
                    if c is not None:
                        assert c == -d


class TestMinorExponent:
    def test_known_small_cases_against_oracle(self):
        cases = [
            (((1,), (1,)), ((1,), (2,)), 1),
            (((1,), (1,)), ((2,), (1,)), 1),
            (((1,), (2,)), ((2,), (1,)), 0),
            (((1,), (1,)), ((2,), (2,)), None),
        ]
        for (a, b), (c, d), expected in cases:
            p = MinorIndex(a, b, 2, 2)
            r = MinorIndex(c, d, 2, 2)
            assert minor_exponent(p, r) == expected
            oracle = quasi_commutation_exponent(quantum_minor(p), quantum_minor(r))
            assert oracle == expected

    def test_antisymmetric(self):
        minors = [
            MinorIndex(rows, cols, 2, 3)
            for l in (1, 2)
            for rows in combinations((1, 2), l)
            for cols in combinations((1, 2, 3), l)
        ]
        for p in minors:
            for r in minors:
                c = minor_exponent(p, r)
                d = minor_exponent(r, p)
                assert (c is None) == (d is None)
                if c is not None:
                    assert c == -d

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minor_exponent(
                MinorIndex((1,), (1,), 2, 2), MinorIndex((1,), (1,), 2, 3)
            )


def embedding(data, size, top):
    """(f, n): a random order-preserving map f of [1..size] into [1..n],
    size <= n <= top, as the tuple of its images after a 0, so f[x] is the
    image of x."""
    n = data.draw(st.integers(size, top))
    images = data.draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
    return (0, *sorted(images)), n


def minor_pair(data, R, C):
    """Two random minor indices of the R-by-C algebra and their images
    under random order-preserving maps of the rows into [1..k] and of the
    columns into [1..m], k <= 6 and m <= 10; rows and columns that neither
    minor uses are embedded too."""

    def index():
        l = data.draw(st.integers(1, min(R, C)))
        rows, cols = (
            data.draw(st.lists(st.integers(1, top), min_size=l, max_size=l, unique=True))
            for top in (R, C)
        )
        return MinorIndex(rows, cols, R, C)

    p, r = index(), index()
    (f, k), (g, m) = embedding(data, R, 6), embedding(data, C, 10)

    def image(mi):
        return MinorIndex([f[x] for x in mi.rows], [g[x] for x in mi.cols], k, m)

    return p, r, image(p), image(r)


class TestPatternInvariance:
    """Both sides depend only on how the indices compare: an
    order-preserving relabelling changes no exponent and no separation."""

    @given(st.data())
    def test_plucker_pairs(self, data):
        k = data.draw(st.integers(1, 5))
        C = data.draw(st.integers(k, 2 * k))
        I, J = (
            tuple(sorted(data.draw(st.lists(st.integers(1, C), min_size=k, max_size=k, unique=True))))
            for _ in range(2)
        )
        f, _ = embedding(data, C, 16)
        fI, fJ = tuple(f[x] for x in I), tuple(f[x] for x in J)
        assert plucker_exponent(fI, fJ) == plucker_exponent(I, J)
        assert weakly_separated(fI, fJ) == weakly_separated(I, J)

    @given(st.data())
    def test_minor_pairs(self, data):
        p, r, fp, fr = minor_pair(data, data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6)))
        assert minor_exponent(fp, fr) == minor_exponent(p, r)
        stieffel = weakly_separated(stieffel_subset(p), stieffel_subset(r))
        assert weakly_separated(stieffel_subset(fp), stieffel_subset(fr)) == stieffel

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_minor_pairs_on_the_oracle(self, data):
        # the oracle rewrites in the algebra's own letters, and its exponent
        # table keys a pair of minors by how they interleave; copies with no
        # shape are computed in full on both sides, so this checks that key
        p, r, fp, fr = minor_pair(data, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)))

        def unkeyed(mi):
            return NCPoly(mi.k, mi.m, quantum_minor(mi).terms())

        assert quasi_commutation_exponent(unkeyed(fp), unkeyed(fr)) == quasi_commutation_exponent(
            unkeyed(p), unkeyed(r)
        )


class TestLargeElements:
    """A pair with an element far above its size is decided on its
    interleaving pattern, with no mask as wide as its largest element."""

    PAIRS = [
        ((1, 10**8), (2, 3), (1, 4), (2, 3)),
        ((2, 3), (1, 10**8), (2, 3), (1, 4)),
        ((5, 10**8, 10**9), (10**8, 10**8 + 1, 10**12), (1, 2, 4), (2, 3, 5)),
        ((7, 10**20), (7, 10**20), (1, 2), (1, 2)),
    ]

    @pytest.mark.parametrize("I, J, small_I, small_J", PAIRS)
    def test_pattern_decides_in_small_memory(self, I, J, small_I, small_J):
        tracemalloc.start()
        try:
            got = weakly_separated(I, J), plucker_exponent(I, J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert got == (weakly_separated(small_I, small_J), plucker_exponent(small_I, small_J))
        assert got[0] == weakly_separated_bf(I, J)

    @given(
        st.sets(st.integers(1, 12), max_size=6),
        st.sets(st.integers(1, 12), max_size=6),
        st.integers(100, 10**12),
    )
    def test_relabelled_pairs_match_direct_masks(self, I, J, scale):
        # every scaled element is above |I| + |J| + 64, so the scaled pair
        # is relabelled and the pair itself is not
        I, J = sorted(I), sorted(J)
        bI, bJ = [x * scale for x in I], [x * scale for x in J]
        assert weakly_separated(bI, bJ) == weakly_separated(I, J)
        if len(I) == len(J):
            assert plucker_exponent(bI, bJ) == plucker_exponent(I, J)

    @pytest.mark.parametrize(
        "I, J, message",
        [
            ((1, 10**8), (2, 2), "duplicate elements in subset"),
            ((1, 10**8), (0, 3), "subset elements must be >= 1"),
            ((1, 10**8), (True, 3), "subset element True is not an integer"),
            ((1, 1), (2, 10**8), "duplicate elements in subset"),
            ((1, 10**8), (2, 3, 4), "plucker_exponent needs equal-size subsets"),
        ],
    )
    def test_errors_are_those_of_small_elements(self, I, J, message):
        with pytest.raises(ValueError, match=message):
            plucker_exponent(I, J)
        if "equal-size" not in message:
            with pytest.raises(ValueError, match=message):
                weakly_separated(I, J)


class TestDihedral:
    def test_rotation_example(self):
        assert Dihedral(6, 1).apply_subset((1, 2, 4)) == (2, 3, 5)

    def test_reflection_example(self):
        assert Dihedral(6, 0, True).apply_subset((1, 3, 4)) == (2, 5, 6)

    def test_identity(self):
        g = Dihedral(7)
        assert g.apply_subset((1, 4, 6)) == (1, 4, 6)

    def test_group_laws(self):
        for n in (3, 5, 6):
            elems = list(Dihedral.group(n))
            assert len(elems) == 2 * n
            assert len(set(elems)) == 2 * n
            for g in elems:
                gi = g.inverse()
                assert g * gi == Dihedral(n)
                assert gi * g == Dihedral(n)
            rng = random.Random(n)
            for _ in range(30):
                g, h = rng.choice(elems), rng.choice(elems)
                x = rng.randint(1, n)
                assert (g * h).apply(x) == g.apply(h.apply(x))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0,), "n must be a positive integer, got 0"),
            ((6.0,), "n must be a positive integer, got 6.0"),
            (("6",), "n must be a positive integer, got '6'"),
            ((True,), "n must be a positive integer, got True"),
            ((6, 1.5), "rot must be an integer, got 1.5"),
            ((6, 1.0), "rot must be an integer, got 1.0"),
            ((6, True), "rot must be an integer, got True"),
            ((6, 1, 1), "refl must be a bool, got 1"),
            ((6, 0, None), "refl must be a bool, got None"),
        ],
    )
    def test_ingress(self, args, message):
        with pytest.raises(ValueError) as caught:
            Dihedral(*args)
        assert str(caught.value) == message

    def test_generators_have_dihedral_relation(self):
        n = 7
        rho = Dihedral(n, 1)
        sigma = Dihedral(n, 0, True)
        assert sigma * sigma == Dihedral(n)
        lhs = sigma * rho
        rhs = rho.inverse() * sigma
        assert lhs == rhs


class TestDiameter:
    def test_boundary_triple(self):
        assert diameter((1, 2, 3), 6) == 3
        assert is_boundary((1, 2, 3), 6)

    def test_almost_boundary(self):
        assert diameter((1, 3, 4), 6) == 4
        assert not is_boundary((1, 3, 4), 6)

    def test_spread(self):
        assert diameter((1, 3, 5), 6) == 5

    def test_wraparound_boundary(self):
        assert is_boundary((1, 5, 6), 6)
        assert is_boundary((1, 2, 6), 6)

    def test_against_interval_scan(self):
        for n in (4, 6, 7):
            for k in (1, 2, 3):
                for K in combinations(range(1, n + 1), k):
                    assert diameter(K, n) == diameter_bf(K, n), (K, n)

    def test_messages(self):
        for f in (diameter, is_boundary):
            for K, message in [
                ((1, 9), "subset (1, 9) not contained in [1..8]"),
                ((2, 2), "duplicate elements in subset (2, 2)"),
                ((0, 2), "subset elements must be >= 1, got (0, 2)"),
                ((1, 2.0), "subset element 2.0 is not an integer"),
                ((), "diameter of the empty set is undefined"),
            ]:
                with pytest.raises(ValueError) as caught:
                    f(K, 8)
                assert str(caught.value) == message

    def test_is_boundary_checks_once(self, monkeypatch):
        calls = []
        check = subsets.check_in_range
        monkeypatch.setattr(subsets, "check_in_range", lambda K, n: calls.append(K) or check(K, n))
        assert is_boundary((8, 1, 2), 8) and not is_boundary([1, 3, 4], 8)
        assert calls == [(8, 1, 2), [1, 3, 4]]


class TestParsing:
    def test_round_trip(self):
        assert parse_subset("1,3,5") == (1, 3, 5)
        assert parse_subset(" 5, 1,3 ") == (1, 3, 5)
        assert parse_subset("") == ()

    def test_unreadable_text_named(self):
        with pytest.raises(ValueError) as exc:
            parse_subset("1,,3")
        assert str(exc.value) == 'subset "1,,3" is not a comma-separated list of integers'
        with pytest.raises(ValueError, match=r"duplicate elements in subset \(1, 1\)"):
            parse_subset("1,1")

    @pytest.mark.parametrize("f", [weakly_separated, plucker_exponent])
    @pytest.mark.parametrize("bad", [(1, 1, 4), (0, 2), (True, 4), (1.5,), (2, "3")])
    def test_pair_functions_reject_what_as_subset_rejects(self, f, bad):
        # the repeated 1 of (1, 1, 4) used to be counted once
        with pytest.raises(ValueError) as expected:
            as_subset(bad)
        for args in [(bad, (2, 3)), ((2, 3), bad), (iter(bad), (2, 3))]:
            with pytest.raises(ValueError) as exc:
                f(*args)
            assert str(exc.value) == str(expected.value)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            as_subset((1, 1, 2))

    def test_canonical_input_is_returned_as_is(self):
        for t in [(), (1,), (1, 2, 3), (2, 5, 9), (1, 10**9)]:
            assert as_subset(t) is t
            assert as_subset(list(t)) == t and as_subset(iter(t)) == t

    def test_other_input_is_sorted_and_checked(self):
        class Int(int):
            pass

        assert as_subset((3, 1, 2)) == (1, 2, 3)
        assert as_subset([Int(2), 1]) == (1, 2)
        assert as_subset({5, 1}) == (1, 5)
        for bad, message in [
            ((1, 1), "duplicate elements in subset (1, 1)"),
            ((3, 1, 3), "duplicate elements in subset (1, 3, 3)"),
            ((0,), "subset elements must be >= 1, got (0,)"),
            ((2, -1), "subset elements must be >= 1, got (-1, 2)"),
            ((1, True), "subset element True is not an integer"),
            ((1, 2, 1.5), "subset element 1.5 is not an integer"),
            ((2, 1, "3"), "subset element '3' is not an integer"),
            ((0, 0, "3"), "subset element '3' is not an integer"),
            ((0, 0), "duplicate elements in subset (0, 0)"),
        ]:
            with pytest.raises(ValueError) as caught:
                as_subset(bad)
            assert str(caught.value) == message

    def test_non_int_elements_rejected(self):
        assert check_in_range([3, 1], 4) == (1, 3)
        for bad in (True, False, 1.0):
            for check in (as_subset, lambda K: check_in_range(K, 4)):
                with pytest.raises(ValueError, match=f"subset element {bad!r} is not an integer"):
                    check((bad, 2))
        with pytest.raises(ValueError, match="subset element True is not an integer"):
            MinorIndex((True,), (1,), 1, 1)

    def test_minor_index_invariants(self):
        with pytest.raises(ValueError):
            MinorIndex((1, 3), (1, 2), 2, 3)  # row set exceeds k
        with pytest.raises(ValueError):
            MinorIndex((1,), (1, 2), 2, 3)  # unequal sizes
