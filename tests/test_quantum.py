import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from wsep.laurent import Laurent, ONE, Q, Q_INV
from wsep.subsets import MinorIndex, plucker_exponent, stieffel_subset
from wsep.verify import all_minor_indices
from wsep import quantum, subsets
from wsep.quantum import (
    NCPoly,
    _LEAF_COEFFS,
    _items,
    _laurents,
    _leaf_coeff,
    _product,
    _rewrite,
    embedding_images,
    embedding_respects_relations,
    normalize_word,
    plucker_realize,
    qplucker_relation_holds,
    quantum_minor,
    quasi_commutation_exponent,
    verify_embedding,
)

from oracles import (
    commutative_image,
    normalize_word_bf,
    product_bf,
    quasi_commutation_bf,
    word_poly,
)


# column counts on both sides of each change of the letter code's width
WIDTHS = (1, 2, 3, 4, 7, 8, 16)


def gen(k, m, i, j):
    return NCPoly.generator(k, m, i, j)


def words(k, m, max_size):
    """Words in the k-by-m generators, their lengths uniform up to
    max_size; half of them in descending order, the order with the most
    inversions."""
    gens = st.sampled_from([(i, j) for i in range(1, k + 1) for j in range(1, m + 1)])
    return st.tuples(
        st.integers(0, max_size).flatmap(lambda n: st.lists(gens, min_size=n, max_size=n)),
        st.booleans(),
    ).map(lambda wd: sorted(wd[0], reverse=True) if wd[1] else wd[0])


class TestNormalize:
    def test_same_row_q_factor(self):
        out = normalize_word(2, 2, [(1, 2), (1, 1)])
        assert out == {((1, 1), (1, 2)): Q}

    def test_same_column_q_factor(self):
        out = normalize_word(2, 2, [(2, 1), (1, 1)])
        assert out == {((1, 1), (2, 1)): Q}

    def test_antidiagonal_commutes(self):
        out = normalize_word(2, 2, [(2, 1), (1, 2)])
        assert out == {((1, 2), (2, 1)): ONE}

    def test_diagonal_cross_term(self):
        out = normalize_word(2, 2, [(2, 2), (1, 1)])
        assert out == {
            ((1, 1), (2, 2)): ONE,
            ((1, 2), (2, 1)): Q - Q_INV,
        }

    def test_out_of_bounds_generator(self):
        with pytest.raises(ValueError):
            normalize_word(2, 2, [(3, 1)])

    def test_constructors_check_words(self):
        with pytest.raises(ValueError, match=r"x\[3,1\] outside the 2x2 algebra"):
            NCPoly(2, 2, {((1, 1), (3, 1)): ONE})
        with pytest.raises(ValueError, match="outside"):
            NCPoly.generator(2, 2, 1, 0)
        with pytest.raises(ValueError, match="outside"):
            normalize_word(2, 2, [(1, 1), (2, 3)])
        # x[1,2] x[1,1] is q x[1,1] x[1,2]; kept as given it would compare unequal
        with pytest.raises(ValueError, match="not in normal form"):
            NCPoly(2, 2, {((1, 2), (1, 1)): ONE})

    def test_constructors_check_types(self):
        with pytest.raises(ValueError, match=r"x\[1.5,1\] outside the 2x2 algebra"):
            NCPoly(2, 2, {((1.5, 1),): ONE})
        with pytest.raises(ValueError, match="outside"):
            normalize_word(2, 2, [(1, 1.0)])
        with pytest.raises(ValueError, match="not a Laurent polynomial"):
            NCPoly(2, 2, {((1, 1),): 3})
        with pytest.raises(ValueError, match="not a Laurent polynomial"):
            NCPoly.scalar(2, 2, 1)
        # a bool is not the int it equals
        with pytest.raises(ValueError, match=r"x\[True,1\] outside the 2x2 algebra"):
            normalize_word(2, 2, [(True, 1)])
        with pytest.raises(ValueError, match=r"x\[1,True\] outside the 2x2 algebra"):
            NCPoly(2, 2, {((1, True),): ONE})
        with pytest.raises(ValueError, match="outside"):
            NCPoly.generator(2, 2, 1, False)
        for make in (
            lambda: NCPoly(2, 2.0),
            lambda: NCPoly.generator(True, 2, 1, 1),
            lambda: normalize_word(2.0, 2, [(1, 1)]),
            lambda: MinorIndex((1,), (1,), 1.5, 2),
        ):
            with pytest.raises(ValueError, match="k and m must be integers"):
                make()
        for make in (
            lambda: plucker_realize((1, 2), 2.0, 4),
            lambda: plucker_realize((1, 2), 2, 4.0),
        ):
            with pytest.raises(ValueError, match="k and n must be integers"):
                make()
        with pytest.raises(ValueError, match="not a Laurent polynomial"):
            normalize_word(2, 2, [(1, 1)], 3)

    @pytest.mark.parametrize("k, m", [(-1, -3), (-4, -4), (0, 2), (2, 0), (-2, 5)])
    def test_dimensions_below_one_rejected(self, k, m):
        message = re.escape(f"k and m must be at least 1, got {k} and {m}")
        for make in (
            lambda: NCPoly(k, m),
            lambda: NCPoly.one(k, m),
            lambda: normalize_word(k, m, []),
            lambda: embedding_images(k, m),
        ):
            with pytest.raises(ValueError, match=message):
                make()

    def test_embedding_caches_reject_what_equals_a_cached_algebra(self):
        # 2.0 == 2 and True == 1 hash alike: a cache that did not key by
        # type would hand them the cached (2, 1) answers
        assert embedding_respects_relations(2, 1)
        for make in (
            lambda: embedding_images(2.0, 1),
            lambda: embedding_images(2, True),
            lambda: embedding_respects_relations(2.0, 1),
        ):
            with pytest.raises(ValueError, match="k and m must be integers"):
                make()

    def test_plucker_realize_checks_K_once(self, monkeypatch):
        cases = [
            ((), 0, "row and column sets must be non-empty of equal size"),
            ((1,), 2, "need a 2-subset, got (1,)"),
            ((1, 5), 2, "subset (1, 5) not contained in [1..4]"),
            ((True, 2), 2, "subset element True is not an integer"),
            ((2, 2), 2, "duplicate elements in subset (2, 2)"),
        ]
        for K, k, message in cases:
            with pytest.raises(ValueError) as caught:
                plucker_realize(K, k, 4)
            assert str(caught.value) == message
        for K in combinations(range(1, 7), 3):
            p, minor = plucker_realize(K, 3, 6), quantum_minor(MinorIndex((1, 2, 3), K, 3, 6))
            assert p == minor
            assert list(p.terms()) == list(minor.terms())
        # K goes through as_subset once, in check_in_range
        calls = []
        as_subset = subsets.as_subset
        monkeypatch.setattr(subsets, "as_subset", lambda xs: calls.append(xs) or as_subset(xs))
        plucker_realize((5, 2, 4), 3, 6)
        assert calls == [(5, 2, 4)]

    def test_many_term_coefficient(self):
        word = [(3, 3), (2, 2), (1, 1), (2, 3)]
        c = Laurent({-2: 3, 0: -1, 5: 2})
        plain = normalize_word(3, 3, word)
        assert len(plain) > 1
        scaled = normalize_word(3, 3, word, c)
        assert scaled == {w: v * c for w, v in plain.items()}
        assert list(scaled) == list(plain)

    def test_deep_cross_terms_match_reference(self):
        # nine cross terms on one rewriting path: (q - q^-1)^9
        word = [(3, 3), (2, 2), (1, 1)] * 3
        assert normalize_word(3, 3, word) == normalize_word_bf(3, 3, word)

    def test_leaf_coefficients(self):
        for e in range(-3, 4):
            power = Laurent.term(1, e)
            for b in range(7):
                assert Laurent(_leaf_coeff(e, b)) == power
                assert _LEAF_COEFFS[e, b] is _leaf_coeff(e, b)
                power = power * (Q - Q_INV)

    def test_leaves_share_their_coefficients(self):
        # leaves with equal e and b, within one rewriting and across two,
        # hold the one table tuple of q^e (q - q^-1)^b
        shift = 3 .bit_length()
        mask = (1 << shift) - 1
        word = [i << shift | i for i in (3, 2, 1, 3, 2, 1)]
        leaves = _rewrite(word, mask) + _rewrite(word[::-1], mask)
        coeffs = [c for _, c in leaves]
        for c in coeffs:
            # q^e (q - q^-1)^b has b + 1 terms, the first at q^(e + b)
            b = len(c) - 1
            assert c is _LEAF_COEFFS[c[0][0] - b, b]
        assert len({id(c) for c in coeffs}) < len(coeffs)
        assert all(c is d for c in coeffs for d in coeffs if c == d)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_confluence_under_random_strategies(self, data):
        k = data.draw(st.integers(1, 3))
        m = data.draw(st.sampled_from(WIDTHS))
        word = data.draw(words(k, m, 9))
        seed = data.draw(st.integers(0, 2**16))
        rng = random.Random(seed)
        expected = normalize_word_bf(k, m, word, pick=lambda invs: rng.randrange(len(invs)))
        assert normalize_word(k, m, word) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_products_match_reference(self, data):
        # concatenations reach 9 letters, so cross terms stack up
        k = data.draw(st.integers(1, 3))
        m = data.draw(st.sampled_from(WIDTHS))
        coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), min_size=1, max_size=2)

        def poly(max_letters):
            acc = NCPoly.zero(k, m)
            for _ in range(data.draw(st.integers(1, 3))):
                word = data.draw(words(k, m, max_letters))
                acc = acc + word_poly(k, m, word, Laurent(data.draw(coeffs)))
            return acc

        p, r = poly(5), poly(4)
        assert (p * r).terms() == product_bf(p, r)

    @settings(max_examples=120)
    @given(st.data())
    def test_specialization_matches_commutative_ring(self, data):
        k = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 3))
        word = data.draw(
            st.lists(st.tuples(st.integers(1, k), st.integers(1, m)), max_size=6)
        )
        coeff = Laurent.term(data.draw(st.integers(-4, 4)), data.draw(st.integers(-2, 2)))
        out = normalize_word(k, m, word, coeff)
        at_one = {w: c.at_one() for w, c in out.items() if c.at_one()}
        assert at_one == commutative_image({tuple(word): coeff})


class TestArithmetic:
    def test_ordered_product(self):
        p = gen(2, 2, 1, 1) * gen(2, 2, 1, 2)
        assert p.terms() == {((1, 1), (1, 2)): ONE}

    def test_swap_product_gains_q(self):
        p = gen(2, 2, 1, 2) * gen(2, 2, 1, 1)
        assert p.terms() == {((1, 1), (1, 2)): Q}

    def test_zero_annihilates(self):
        p = gen(2, 2, 1, 2)
        assert (p * NCPoly.zero(2, 2)).is_zero()

    def test_associative_and_distributive(self):
        rng = random.Random(3)

        def rand_poly():
            t = {}
            for _ in range(rng.randint(1, 3)):
                w = tuple(
                    (rng.randint(1, 2), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))
                )
                for k_, v in normalize_word(2, 3, w, Laurent.term(rng.randint(-3, 3))).items():
                    t[k_] = t.get(k_, Laurent()) + v
            return NCPoly(2, 3, t)

        for _ in range(25):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gen(2, 2, 1, 1) * gen(2, 3, 1, 1)

    @pytest.mark.parametrize("bad", [2, 1.0, None, "q"], ids=repr)
    def test_scale_factor_must_be_laurent(self, bad):
        with pytest.raises(ValueError, match=r"scale factor .* is not a Laurent polynomial"):
            gen(2, 2, 1, 1).scale(bad)

    @pytest.mark.parametrize("bad", [True, False, -1, 2.0, "2", None], ids=repr)
    def test_power_must_be_a_non_negative_int(self, bad):
        with pytest.raises(ValueError, match=r"power .* is not a non-negative integer"):
            gen(2, 2, 1, 1).pow(bad)

    def test_powers(self):
        x = gen(2, 2, 2, 2) + gen(2, 2, 1, 1)
        assert x.pow(0) == NCPoly.one(2, 2)
        assert x.pow(1) == x
        assert x.pow(3) == x * x * x


class TestQuantumMinor:
    def test_singleton(self):
        assert quantum_minor(MinorIndex((1,), (1,), 2, 2)) == gen(2, 2, 1, 1)

    def test_two_by_two(self):
        d = quantum_minor(MinorIndex((1, 2), (1, 2), 2, 2))
        assert d.terms() == {
            ((1, 1), (2, 2)): ONE,
            ((1, 2), (2, 1)): Laurent.term(-1, -1),
        }

    def test_two_by_two_mixed_columns(self):
        d = quantum_minor(MinorIndex((1, 2), (1, 3), 2, 3))
        assert d.terms() == {
            ((1, 1), (2, 3)): ONE,
            ((1, 3), (2, 1)): Laurent.term(-1, -1),
        }

    def test_determinant_is_central_in_2x2(self):
        d = quantum_minor(MinorIndex((1, 2), (1, 2), 2, 2))
        for i in (1, 2):
            for j in (1, 2):
                assert quasi_commutation_exponent(gen(2, 2, i, j), d) == 0


class TestQuasiCommutation:
    def test_row_neighbours(self):
        assert quasi_commutation_exponent(gen(2, 2, 1, 1), gen(2, 2, 1, 2)) == 1

    def test_self(self):
        p = quantum_minor(MinorIndex((1, 2), (1, 2), 2, 2))
        assert quasi_commutation_exponent(p, p) == 0

    def test_diagonal_pair_fails(self):
        assert quasi_commutation_exponent(gen(2, 2, 1, 1), gen(2, 2, 2, 2)) is None

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            quasi_commutation_exponent(NCPoly.zero(2, 2), gen(2, 2, 1, 1))

    @pytest.mark.parametrize("bad", [None, 3, ONE, {((1, 1),): ONE}], ids=repr)
    def test_non_polynomial_rejected(self, bad):
        x = gen(2, 2, 1, 1)
        with pytest.raises(ValueError, match=r"argument p = .* is not an NCPoly"):
            quasi_commutation_exponent(bad, x)
        with pytest.raises(ValueError, match=r"argument r = .* is not an NCPoly"):
            quasi_commutation_exponent(x, bad)

    def test_scalar_multiples(self):
        p = word_poly(2, 3, [(2, 3), (1, 1)], Laurent({-1: 2, 2: -3}))
        for c in (Laurent.term(-5, 3), Laurent({0: 1, 1: 4})):
            assert quasi_commutation_exponent(p, p.scale(c)) == 0
            assert quasi_commutation_exponent(NCPoly.scalar(2, 3, c), p) == 0

    def test_cancelled_terms_are_not_monomials(self):
        # the raw products of x[2,2] and the central 2x2 determinant hold
        # coefficients that cancel to zero; they must not count as monomials
        p = gen(2, 2, 2, 2)
        r = quantum_minor(MinorIndex((1, 2), (1, 2), 2, 2))
        raw, _ = self.raw_products(p, r)
        assert any(0 in acc.values() for acc in raw.values())
        assert quasi_commutation_exponent(p, r) == quasi_commutation_bf(p, r) == 0
        assert quasi_commutation_exponent(r, p) == 0

    @staticmethod
    def raw_products(p, r):
        a, b, B = _items(p._t), _items(r._t), p.m.bit_length()
        return _product(a, b, B, {}), _product(b, a, B, {})

    @staticmethod
    def assert_none_both_ways(p, r):
        for x, y in ((p, r), (r, p)):
            assert quasi_commutation_exponent(x, y) is None
            assert quasi_commutation_bf(x, y) is None

    def test_first_word_cancels_in_the_other_product(self):
        # r's x[2,2] comes first, so p*r begins with x[2,1] x[2,2], at
        # -2q + 2q^3, and r*p holds that word at 2q^2 - 2q^2: there is no
        # lowest nonzero exponent to take c from
        p = gen(2, 2, 2, 1).scale(Laurent.term(-1)) + gen(2, 2, 2, 2).scale(Q)
        r = (
            gen(2, 2, 2, 2).scale(Laurent.term(2, 1))
            + gen(2, 2, 2, 1).scale(Laurent.term(2, 1))
            + word_poly(2, 2, [(1, 1), (2, 2)], Laurent.term(-1))
            + word_poly(2, 2, [(1, 2), (2, 1)], Q_INV)
        )
        pr, rp = self.raw_products(p, r)
        first = next(w for w, acc in pr.items() if any(acc.values()))
        assert pr[first] == {1: -2, 3: 2} and rp[first] == {2: 0}
        self.assert_none_both_ways(p, r)

    def test_word_cancels_on_one_side_only(self):
        # p*r = -x11^2 + (q^2 - 1) x11 x12 + q x12^2, and in r*p the
        # x11 x12 coefficient is q - q: both raw products hold three words
        p = gen(2, 2, 1, 1) - gen(2, 2, 1, 2).scale(Q)
        r = -(gen(2, 2, 1, 1) + gen(2, 2, 1, 2))
        pr, rp = self.raw_products(p, r)
        assert len(pr) == len(rp) == 3
        assert list(rp.values())[1] == {1: 0}
        self.assert_none_both_ways(p, r)

    def test_words_shift_by_different_powers(self):
        # r*p = q x11 x12 + x12^2 against p*r = x11 x12 + x12^2
        p = gen(2, 2, 1, 1) + gen(2, 2, 1, 2)
        r = gen(2, 2, 1, 2)
        pr, rp = self.raw_products(p, r)
        assert list(pr.values()) == [{0: 1}, {0: 1}]
        assert list(rp.values()) == [{1: 1}, {0: 1}]
        self.assert_none_both_ways(p, r)

    def test_other_product_has_more_terms_on_a_word(self):
        # both products hold the same four words, and every term of p*r
        # meets r*p unshifted, but r*p holds x12^2 x21 x22 at q^-1 - q - q^3
        # against -q in p*r: counting matched words, not terms, misses it
        p = word_poly(2, 2, [(1, 1), (2, 2)]) + word_poly(2, 2, [(1, 2), (2, 1)], Q)
        r = NCPoly.one(2, 2) - word_poly(2, 2, [(1, 2), (2, 2)])
        pr, rp = self.raw_products(p, r)
        assert pr.keys() == rp.keys() and len(pr) == 4
        assert list(pr.values())[-1] == {1: -1}
        assert rp[list(pr)[-1]] == {1: -1, -1: 1, 3: -1}
        self.assert_none_both_ways(p, r)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        k = data.draw(st.integers(1, 3))
        m = data.draw(st.sampled_from(WIDTHS))
        coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), min_size=1, max_size=3)
        coeff = coeffs.map(Laurent).filter(bool)

        def poly():
            acc = NCPoly.zero(k, m)
            while acc.is_zero():
                for _ in range(data.draw(st.integers(1, 3))):
                    word = data.draw(words(k, m, 3))
                    acc = acc + word_poly(k, m, word, data.draw(coeff))
            return acc

        p = poly()
        kind = data.draw(st.sampled_from(["random", "self", "scaled", "row", "power"]))
        if kind == "random":
            r = poly()
        elif kind == "self":
            r = p
        elif kind == "scaled":
            r = p.scale(data.draw(coeff))
        elif kind == "power":
            r = p * p
        else:
            i = data.draw(st.integers(1, k))
            j, t = sorted(data.draw(st.lists(st.integers(1, m), min_size=2, max_size=2)))
            p, r = gen(k, m, i, j).scale(data.draw(coeff)), gen(k, m, i, t)
        c = quasi_commutation_exponent(p, r)
        assert c == quasi_commutation_bf(p, r)
        if kind in ("self", "scaled", "power"):
            assert c == 0
        elif kind == "row":
            assert c == (j < t)


class TestRealizedCoordinates:
    def test_basic_realization(self):
        p = plucker_realize((1, 2), 2, 4)
        assert p == quantum_minor(MinorIndex((1, 2), (1, 2), 2, 4))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            plucker_realize((1, 2, 3), 2, 4)

    def test_initial_interval_quasi_commutes_with_all(self):
        for n in (4, 5):
            delta = plucker_realize((1, 2), 2, n)
            for K in combinations(range(1, n + 1), 2):
                c = quasi_commutation_exponent(delta, plucker_realize(K, 2, n))
                assert c is not None

    def test_exchange_relations_small(self):
        assert qplucker_relation_holds((1, 3, 4), (2,), 2, 4)
        assert qplucker_relation_holds((2, 3, 4), (1,), 2, 4)

    def test_straightening_identity(self):
        P = {K: plucker_realize(K, 2, 4) for K in combinations(range(1, 5), 2)}
        lhs = P[(1, 3)] * P[(2, 4)]
        rhs = (P[(1, 2)] * P[(3, 4)]).scale(Q) + (P[(1, 4)] * P[(2, 3)]).scale(Q_INV)
        assert lhs == rhs


class TestEmbedding:
    def test_generator_images_satisfy_relations(self):
        assert embedding_respects_relations(2, 2)

    def test_shape_above_the_cap_rejected(self):
        with pytest.raises(ValueError, match="k\\+m = 9 exceeds the bound 8"):
            verify_embedding(MinorIndex((1,), (1,), 1, 8))

    def test_caches_hold_every_default_shape(self):
        # every (k, m) with k, m >= 1 and k + m <= 8, the default cap
        shapes = sum(1 for k in range(1, 8) for m in range(1, 9 - k))
        for cached in (embedding_images, embedding_respects_relations):
            maxsize = cached.cache_info().maxsize
            assert maxsize is not None and maxsize >= shapes

    def test_image_exponent_example(self):
        phi = {
            (i, j): plucker_realize(
                stieffel_subset(MinorIndex((i,), (j,), 2, 2)), 2, 4
            )
            for i in (1, 2)
            for j in (1, 2)
        }
        assert quasi_commutation_exponent(phi[(1, 1)], phi[(1, 2)]) == 1

    def test_singletons_trivially_embed(self):
        assert verify_embedding(MinorIndex((1,), (2,), 2, 2))

    def test_full_minor_embeds_with_q_factor(self):
        mi = MinorIndex((1, 2), (1, 2), 2, 2)
        assert verify_embedding(mi)
        # the identity pins the scalar: image equals q * D * (coordinate of {3,4})
        phi = {
            (i, j): plucker_realize(
                stieffel_subset(MinorIndex((i,), (j,), 2, 2)), 2, 4
            )
            for i in (1, 2)
            for j in (1, 2)
        }
        image = phi[(1, 1)] * phi[(2, 2)] - (phi[(1, 2)] * phi[(2, 1)]).scale(Q_INV)
        expected = (
            plucker_realize((1, 2), 2, 4) * plucker_realize((3, 4), 2, 4)
        ).scale(Q)
        assert image == expected


def test_str_is_deterministic_lex():
    d = quantum_minor(MinorIndex((1, 2), (1, 2), 2, 2))
    assert str(d) == "1 * x[1,1] x[2,2] - q^-1 * x[1,2] x[2,1]"
    p = word_poly(2, 2, [(2, 2), (1, 1)])
    assert str(p) == "1 * x[1,1] x[2,2] + (q - q^-1) * x[1,2] x[2,1]"


def product_by_rewrite(p, r):
    """p * r with no table: each concatenation of original letter codes
    rewritten by `_rewrite` from its first letter, in the order the product
    meets them, so the terms come in the order of the table-free product."""
    out = {}
    mask = (1 << p.m.bit_length()) - 1
    for w1, c1 in p._t.items():
        for w2, c2 in r._t.items():
            leaves = _rewrite(list(w1 + w2), mask)
            for x1, v1 in c1.items():
                for x2, v2 in c2.items():
                    for w, coeff in leaves:
                        acc = out.setdefault(w, {})
                        for d, u in coeff:
                            d += x1 + x2
                            acc[d] = acc.get(d, 0) + u * v1 * v2
    return _laurents(out)


def random_poly(rng, k, m, max_letters=4, max_terms=3):
    """A sum of up to max_terms normalized random words, of mixed lengths
    from 0 to max_letters, with random Laurent coefficients."""
    acc = NCPoly.zero(k, m)
    for _ in range(rng.randint(1, max_terms)):
        word = [(rng.randint(1, k), rng.randint(1, m)) for _ in range(rng.randint(0, max_letters))]
        coeff = Laurent({rng.randint(-2, 2): rng.choice([-3, -1, 1, 2]) for _ in range(2)})
        acc = acc + word_poly(k, m, word, coeff)
    return acc


def empty_tables():
    """Empty the module tables, `_PATTERNS` and `_EXPONENTS`, so that the
    next product or exponent is computed cold."""
    quantum._PATTERNS.clear()
    quantum._EXPONENTS.clear()


class TestPatternTable:
    """`NCPoly.__mul__` and `normalize_word` look each concatenation up in
    `_PATTERNS`, and `quasi_commutation_exponent` each pair of minors in
    `_EXPONENTS`; their results must not depend on what the tables hold."""

    @staticmethod
    def ordered(p):
        return list(p._t.items())

    def test_scalars_and_the_empty_word(self):
        empty_tables()
        a, b = Laurent({-1: 2, 3: 1}), Laurent.term(-5, 2)
        s, t = NCPoly.scalar(2, 3, a), NCPoly.scalar(2, 3, b)
        for _ in range(2):  # cold, then warm
            assert (s * t).terms() == {(): a * b}
            assert (NCPoly.one(2, 3) * NCPoly.one(2, 3)).terms() == {(): ONE}
            assert quasi_commutation_exponent(s, t) == 0
        # the empty word times itself is keyed by B alone
        assert (3 .bit_length(),) in quantum._PATTERNS
        x = word_poly(2, 3, [(2, 3), (1, 1)])
        assert (s * x).terms() == x.scale(a).terms()
        assert (x * s).terms() == x.scale(a).terms()

    def test_mixed_lengths(self):
        # one polynomial holding words of lengths 0 to 3
        k, m = 2, 3
        p = (
            NCPoly.one(k, m)
            + gen(k, m, 2, 2)
            + word_poly(k, m, [(2, 1), (1, 3)], Q)
            + word_poly(k, m, [(2, 3), (1, 2), (1, 1)], Q_INV)
        )
        assert {len(w) for w in p.terms()} == {0, 1, 2, 3}
        empty_tables()
        for _ in range(2):
            for a, b in ((p, p), (p, gen(k, m, 1, 1)), (gen(k, m, 2, 3), p)):
                assert self.ordered(a * b) == list(product_by_rewrite(a, b).items())
                assert (a * b).terms() == product_bf(a, b)
            assert quasi_commutation_exponent(p, p) == 0

    @pytest.mark.parametrize("m", [7, 8])
    def test_letter_width_changes(self, m):
        # B = m.bit_length() is 3 at m = 7 and 4 at m = 8, and the table
        # keys and the decoding must read the letters at either
        empty_tables()
        rng = random.Random(m)
        for _ in range(30):
            p, r = random_poly(rng, 3, m), random_poly(rng, 3, m)
            assert self.ordered(p * r) == list(product_by_rewrite(p, r).items())
            assert (p * r).terms() == product_bf(p, r)
        cols = (2, 5, m)
        a = quantum_minor(MinorIndex((1, 3), cols[:2], 3, m))
        b = quantum_minor(MinorIndex((2, 3), cols[1:], 3, m))
        assert quasi_commutation_exponent(a, b) == quasi_commutation_bf(a, b)
        assert (a * b).terms() == product_bf(a, b)

    def test_keys_carry_the_width(self):
        # the codes (13, 10) are x[3,1] x[2,2] at B = 2, which commute, and
        # x[1,5] x[1,2] at B = 3, which do not: a key without B would hand
        # the second product the first one's leaves
        empty_tables()
        g = NCPoly.generator
        p = g(3, 2, 3, 1) + g(3, 2, 1, 1)
        assert (p * g(3, 2, 2, 2)).terms() == product_bf(p, g(3, 2, 2, 2))
        r = g(1, 5, 1, 5) + g(1, 5, 1, 1) + g(1, 5, 1, 3) + g(1, 5, 1, 4)
        assert (r * g(1, 5, 1, 2)).terms()[(1, 2), (1, 5)] == Q
        assert (r * g(1, 5, 1, 2)).terms() == product_bf(r, g(1, 5, 1, 2))
        assert {(2, 13, 10), (3, 13, 10)} <= quantum._PATTERNS.keys()

    def test_cold_and_warm_agree_on_gr36(self):
        subsets = list(combinations(range(1, 7), 3))
        polys = {K: plucker_realize(K, 3, 6) for K in subsets}
        cold = {}
        for I in subsets:
            for J in subsets:
                empty_tables()
                product = self.ordered(polys[I] * polys[J])
                empty_tables()
                cold[I, J] = product, quasi_commutation_exponent(polys[I], polys[J])
        for (I, J), (product, exponent) in cold.items():
            assert self.ordered(polys[I] * polys[J]) == product
            assert quasi_commutation_exponent(polys[I], polys[J]) == exponent
        for x, y in [(0, 7), (3, 19), (12, 12)]:
            I, J = subsets[x], subsets[y]
            assert cold[I, J][0] == list(product_by_rewrite(polys[I], polys[J]).items())

    def test_cold_and_warm_agree_on_random_products(self):
        # normalize_word goes through `_product` too, keyed by B and its
        # word, so its entries are shared with the products'
        rng, word_rng = random.Random(11), random.Random(12)
        cases = []
        for _ in range(120):
            k, m = rng.randint(1, 3), rng.choice(WIDTHS)
            word = [
                (word_rng.randint(1, k), word_rng.randint(1, m))
                for _ in range(word_rng.randint(0, 6))
            ]
            coeff = Laurent({word_rng.randint(-2, 2): word_rng.choice([-2, 1, 3]) for _ in range(2)})
            cases.append((random_poly(rng, k, m), random_poly(rng, k, m), (k, m, word, coeff)))
        cold = []
        for p, r, args in cases:
            empty_tables()
            product = self.ordered(p * r)
            empty_tables()
            cold.append((product, list(normalize_word(*args).items())))
        for (p, r, args), (product, normal) in zip(cases, cold):
            assert self.ordered(p * r) == product == list(product_by_rewrite(p, r).items())
            assert list(normalize_word(*args).items()) == normal
            assert dict(normal) == normalize_word_bf(*args)

    def test_bound_holds_and_eviction_keeps_results(self, monkeypatch):
        subsets = list(combinations(range(1, 7), 3))
        polys = {K: plucker_realize(K, 3, 6) for K in subsets}
        expected = {(I, J): self.ordered(polys[I] * polys[J]) for I in subsets[:8] for J in subsets}
        monkeypatch.setattr(quantum, "_PATTERNS_CACHED", 50)
        empty_tables()
        sizes = []
        for (I, J), product in expected.items():
            assert self.ordered(polys[I] * polys[J]) == product
            sizes.append(len(quantum._PATTERNS))
            assert sizes[-1] <= 50
        # the table filled up and was emptied along the way
        assert any(b < a for a, b in zip(sizes, sizes[1:]))


class TestExponentTable:
    """`quasi_commutation_exponent` answers a pair it has seen up to
    relabelling from `_EXPONENTS`, without forming either product."""

    @pytest.mark.parametrize(
        "first, second, exponent",
        [
            # weakly separated
            (((1, 2, 3), (4, 5, 6)), ((2, 3, 4), (5, 6, 7)), 3),
            # not weakly separated: None is an answer, and is stored too
            (((1, 3, 5), (2, 4, 6)), ((2, 4, 6), (3, 5, 7)), None),
        ],
    )
    def test_a_seen_pattern_is_not_rewritten(self, first, second, exponent, monkeypatch):
        (I, J), (K, L) = first, second
        empty_tables()
        assert quasi_commutation_exponent(plucker_realize(I, 3, 7), plucker_realize(J, 3, 7)) == exponent
        p, r = plucker_realize(K, 3, 7), plucker_realize(L, 3, 7)

        def no_product(*args):
            raise AssertionError("a seen pattern was rewritten")

        monkeypatch.setattr(quantum, "_product", no_product)
        assert quasi_commutation_exponent(p, r) == exponent
        assert len(quantum._EXPONENTS) == 1

    def test_keys_carry_the_width(self, monkeypatch):
        # the letters 13 and 10 are x[3,1] and x[2,2] at B = 2 and x[1,5]
        # and x[1,2] at B = 3: one code tuple for two pairs, each with its
        # own answer, and each product keys its leaves by its own B
        empty_tables()
        g = NCPoly.generator
        pairs = [
            (g(3, 2, 3, 1) + g(3, 2, 1, 1), g(3, 2, 2, 2)),
            (g(1, 5, 1, 5) + g(1, 5, 1, 1) + g(1, 5, 1, 3) + g(1, 5, 1, 4), g(1, 5, 1, 2)),
        ]
        keys = []
        product = quantum._product

        def keyed_product(a, b, B, table):
            out = product(a, b, B, table)
            keys.append((B, set(table)))
            return out

        monkeypatch.setattr(quantum, "_product", keyed_product)
        for p, r in pairs:
            assert (13,) in p._t and list(r._t) == [(10,)]
            assert quasi_commutation_exponent(p, r) == quasi_commutation_bf(p, r)
        assert [B for B, _ in keys] == [2, 2, 3, 3]
        assert (2, 13, 10) in keys[0][1] and (3, 13, 10) in keys[2][1]

    def test_bound_holds_and_clearing_keeps_answers(self, monkeypatch):
        subsets = list(combinations(range(1, 7), 3))
        polys = {K: plucker_realize(K, 3, 6) for K in subsets}
        monkeypatch.setattr(quantum, "_PATTERNS_CACHED", 10)
        empty_tables()
        sizes = []
        for I in subsets:
            for J in subsets:
                c = quasi_commutation_exponent(polys[I], polys[J])
                assert c == plucker_exponent(I, J), (I, J)
                sizes.append(len(quantum._EXPONENTS))
                assert sizes[-1] <= 10
        # the table filled up and was emptied along the way
        assert any(b < a for a, b in zip(sizes, sizes[1:]))

    def test_one_entry_per_interleaving_pattern(self):
        # the 1,225 ordered Gr(3,7) pairs come to the 63 interleaving
        # patterns at k = 3
        subsets = list(combinations(range(1, 8), 3))
        polys = {K: plucker_realize(K, 3, 7) for K in subsets}
        empty_tables()
        for I in subsets:
            for J in subsets:
                c = quasi_commutation_exponent(polys[I], polys[J])
                assert c == plucker_exponent(I, J), (I, J)
        assert len(quantum._EXPONENTS) == 63


class TestShapes:
    """`quasi_commutation_exponent` keys `_EXPONENTS` by how the rows and the
    columns of two minors interleave; a polynomial that is not a minor has
    no shape, and its pairs are computed and not stored."""

    @pytest.mark.parametrize("k, m", [(3, 3), (2, 7)])
    def test_minor_answers_match_the_unkeyed_path(self, k, m):
        minors = list(map(quantum_minor, all_minor_indices(k, m)))
        equal = [NCPoly(k, m, minor.terms()) for minor in minors]
        assert all(e._shape is None for e in equal)
        for p, P in zip(minors, equal):
            for r, R in zip(minors, equal):
                assert quasi_commutation_exponent(p, r) == quasi_commutation_exponent(P, R)

    def test_warm_pair_forms_no_product(self, monkeypatch):
        subsets = list(combinations(range(1, 8), 3))
        polys = {K: plucker_realize(K, 3, 7) for K in subsets}
        for I in subsets:
            for J in subsets:
                quasi_commutation_exponent(polys[I], polys[J])

        def no_product(*args):
            raise AssertionError("a warm pair formed a product")

        monkeypatch.setattr(quantum, "_product", no_product)
        for I, J in [((1, 2, 3), (5, 6, 7)), ((1, 3, 5), (2, 4, 6)), ((2, 4, 7), (2, 4, 7))]:
            p, r = plucker_realize(I, 3, 7), plucker_realize(J, 3, 7)
            assert quasi_commutation_exponent(p, r) == plucker_exponent(I, J)

    def test_general_polynomial_matches_brute_force(self):
        # the square of the initial coordinate, as in check_aux_exponents,
        # and a minor scaled by q, which has the minor's exponents but is
        # not a minor
        empty_tables()
        delta = plucker_realize((1, 2), 2, 4)
        square, scaled = delta.pow(2), delta.scale(Q)
        assert square._shape is None and scaled._shape is None
        for K in combinations(range(1, 5), 2):
            sk = plucker_realize(K, 2, 4)
            for p, r in ((square, sk), (sk, square), (square, delta), (square, square), (scaled, sk), (sk, scaled)):
                assert quasi_commutation_exponent(p, r) == quasi_commutation_bf(p, r), K
        assert not quantum._EXPONENTS

    def test_a_miss_leaves_the_leaf_table_alone(self):
        # a minor pair's answer is kept in `_EXPONENTS` and any other pair's
        # nowhere, so the leaves of a miss's products are not kept either
        empty_tables()
        delta, other = plucker_realize((1, 2), 2, 5), plucker_realize((3, 5), 2, 5)
        square = delta.pow(2)
        before = dict(quantum._PATTERNS)
        for p, r in ((delta, other), (square, other), (other, square)):
            c = quasi_commutation_exponent(p, r)
            assert c == quasi_commutation_bf(p, r)
            assert quantum._PATTERNS == before
        assert len(quantum._EXPONENTS) == 1
