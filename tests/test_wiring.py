import random
import re
from itertools import combinations
from math import comb

import pytest

from oracles import (
    all_optimal_words,
    component_of_base,
    is_wiring_parametrizable_bf,
    reduced_words_of_longest,
    shuffles,
)
from wsep.subsets import Dihedral, precedes
from wsep.wiring import (
    black_part,
    chamber_minor,
    chambers,
    format_word,
    is_optimal,
    is_wiring_parametrizable,
    parse_word,
    red_part,
    validate_word,
    word_collection,
)
from wsep.wscoll import (
    base_collection,
    is_maximal,
    translate,
    validate,
)

EXAMPLE = "2 1r 1 2 3 2r 2 1 4 1r 3 2 1"


def random_reduced_word_of_longest(size, rng):
    """Random reduced word via random descent peeling."""
    perm = list(range(size, 0, -1))
    peeled = []
    while any(perm[i] != i + 1 for i in range(size)):
        descents = [i for i in range(1, size) if perm[i - 1] > perm[i]]
        i = rng.choice(descents)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        peeled.append(i)
    return tuple(reversed(peeled))


def random_optimal_word(k, m, rng):
    while True:
        bw = random_reduced_word_of_longest(m, rng)
        if sum(1 for x in bw if k + 1 <= x <= m - 1) == comb(m - k, 2):
            break
    rw = random_reduced_word_of_longest(k, rng)
    total = len(bw) + len(rw)
    red_slots = set(rng.sample(range(total), len(rw)))
    word, bi, ri = [], 0, 0
    for p in range(total):
        if p in red_slots:
            word.append(-rw[ri])
            ri += 1
        else:
            word.append(bw[bi])
            bi += 1
    return tuple(word)


class TestWords:
    def test_parse_format_round_trip(self):
        w = parse_word(EXAMPLE)
        assert format_word(w) == EXAMPLE
        assert black_part(w) == (2, 1, 2, 3, 2, 1, 4, 3, 2, 1)
        assert red_part(w) == (1, 2, 1)

    def test_example_word_valid_and_optimal(self):
        w = parse_word(EXAMPLE)
        assert validate_word(w, 3, 5)
        # exactly one high black letter, matching (m-k choose 2) = 1
        assert is_optimal(w, 3, 5)

    def test_square_of_a_letter_invalid(self):
        assert not validate_word(parse_word("1 1"), 2, 2)

    def test_wrong_length_invalid(self):
        assert not validate_word(parse_word("1"), 2, 3)

    @pytest.mark.parametrize("k, m", [(2, 1), (-1, 2), (4, 3)])
    def test_k_out_of_range(self, k, m):
        message = f"need 0 <= k <= m, got k={k} and m={m}"
        for f in (validate_word, is_optimal, chambers, word_collection):
            with pytest.raises(ValueError, match=message):
                f(parse_word("1r"), k, m)

    @pytest.mark.parametrize("k, m", [(1.5, 3), (2, 3.0), (True, 3), (2, False), ("2", 3)])
    def test_k_and_m_must_be_ints(self, k, m):
        message = re.escape(f"k and m must be integers, got {k!r} and {m!r}")
        for f in (validate_word, is_optimal, chambers, word_collection):
            with pytest.raises(ValueError, match=message):
                f(parse_word("1 2 1"), k, m)

    @pytest.mark.parametrize(
        "text, token",
        [
            ("2 x 1", "x"),
            (" 2 1.5r 1 ", "1.5r"),
            ("r", "r"),
            # a sign or an underscore, which int() would read
            ("-1 2", "-1"),
            ("1 -2r", "-2r"),
            ("+3", "+3"),
            ("2 1_0", "1_0"),
            ("1_0r", "1_0r"),
        ],
    )
    def test_letter_not_an_int(self, text, token):
        message = f'letter "{token}" of word "{text.strip()}" is not an integer with an optional "r"'
        with pytest.raises(ValueError) as caught:
            parse_word(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "text, token", [("2 0 1", "0"), ("1 0r", "0r"), (" 00 ", "00"), ("0 x", "0")]
    )
    def test_letter_zero(self, text, token):
        message = f'letter "{token}" of word "{text.strip()}" is 0; letter indices are 1-based'
        with pytest.raises(ValueError) as caught:
            parse_word(text)
        assert str(caught.value) == message

    def test_equal_ranks_every_shuffle_optimal(self):
        for bw in reduced_words_of_longest(3):
            for rw in reduced_words_of_longest(3):
                for w in shuffles(bw, rw):
                    assert is_optimal(w, 3, 3)

    def test_reduced_word_counts(self):
        assert len(reduced_words_of_longest(2)) == 1
        assert len(reduced_words_of_longest(3)) == 2
        assert len(reduced_words_of_longest(4)) == 16


class TestChambers:
    def setup_method(self):
        self.word = parse_word(EXAMPLE)
        self.chs = chambers(self.word, 3, 5)

    def test_count_is_km(self):
        assert len(self.chs) == 15

    def test_level_one_labels_left_to_right(self):
        got = [(c.red, c.black) for c in sorted(self.chs, key=lambda c: c.start) if c.level == 1]
        assert got == [
            ((3,), (1,)),
            ((2,), (1,)),
            ((2,), (3,)),
            ((2,), (4,)),
            ((1,), (4,)),
            ((1,), (5,)),
        ]

    def test_level_two_labels(self):
        got = [(c.red, c.black) for c in sorted(self.chs, key=lambda c: c.start) if c.level == 2]
        assert got == [
            ((2, 3), (1, 2)),
            ((2, 3), (1, 3)),
            ((2, 3), (2, 3)),
            ((1, 2), (2, 3)),
            ((1, 2), (3, 4)),
            ((1, 2), (4, 5)),
        ]

    def test_level_three_labels(self):
        got = [(c.red, c.black) for c in self.chs if c.level == 3]
        assert got == [
            ((1, 2, 3), (1, 2, 3)),
            ((1, 2, 3), (2, 3, 4)),
            ((1, 2, 3), (3, 4, 5)),
        ]

    def test_label_cardinality_equals_level(self):
        for c in self.chs:
            assert len(c.red) == len(c.black) == c.level

    def test_consecutive_chambers_differ_by_one_swap(self):
        for h in (1, 2, 3):
            level = [c for c in self.chs if c.level == h]
            level.sort(key=lambda c: c.start)
            for a, b in zip(level, level[1:]):
                diff = len(set(a.red) ^ set(b.red)) + len(set(a.black) ^ set(b.black))
                assert diff == 2

    def test_spans_cover_word(self):
        for h in (1, 2, 3):
            level = sorted((c for c in self.chs if c.level == h), key=lambda c: c.start)
            assert level[0].start == 0
            assert level[-1].end == len(self.word)

    def test_invalid_word_rejected(self):
        with pytest.raises(ValueError):
            chambers(parse_word("1 1"), 2, 2)


class TestWordCollection:
    def test_example_lands_in_w38(self):
        col = word_collection(parse_word(EXAMPLE), 3, 5)
        assert (col.k, col.n, len(col)) == (3, 8, 16)
        assert validate(col).ok
        assert is_maximal(col)

    def test_minor_pairs_satisfy_chamber_order(self):
        # any two chamber minors compare componentwise in one direction
        chs = chambers(parse_word(EXAMPLE), 3, 5)
        minors = [chamber_minor(c, 3, 5) for c in chs]
        for p in minors:
            for r in minors:
                a, b = set(p.rows), set(p.cols)
                i, j = set(r.rows), set(r.cols)
                fwd = precedes(a - i, i - a) and precedes(j - b, b - j)
                bwd = precedes(i - a, a - i) and precedes(b - j, j - b)
                assert fwd or bwd

    def test_non_optimal_rejected(self):
        # valid reduced shuffle for (2,4) with too many high letters
        bad = None
        for bw in reduced_words_of_longest(4):
            if sum(1 for x in bw if x == 3) > comb(2, 2):
                bad = tuple(bw[:0]) + tuple(bw)
                break
        assert bad is not None
        word = tuple(list(bad[:1]) + [-1] + list(bad[1:]))
        assert validate_word(word, 2, 4)
        assert not is_optimal(word, 2, 4)
        with pytest.raises(ValueError):
            word_collection(word, 2, 4)

    def test_all_shuffles_km3_cover_w36(self):
        collected = set()
        for w in all_optimal_words(3, 3):
            c = word_collection(w, 3, 3)
            for g in Dihedral.group(6):
                collected.add(translate(c, g))
        assert frozenset(collected) == component_of_base(3, 6)

    def test_random_optimal_words_give_maximal_collections(self):
        rng = random.Random(5)
        words = list(all_optimal_words(2, 4))
        for w in rng.sample(words, 25):
            col = word_collection(w, 2, 4)
            assert len(col) == 2 * 4 + 1
            assert validate(col).ok
            assert is_maximal(col)

    def test_sampled_optimal_words_up_to_rank_four(self):
        rng = random.Random(44)
        for k, m in [(2, 3), (3, 4), (4, 4)]:
            for _ in range(8):
                w = random_optimal_word(k, m, rng)
                assert is_optimal(w, k, m)
                col = word_collection(w, k, m)
                assert len(col) == k * m + 1
                assert validate(col).ok
                assert is_maximal(col)
                chs = chambers(w, k, m)
                assert len(chs) == k * m
                for ch in chs:
                    assert len(ch.red) == len(ch.black) == ch.level
                for h in range(1, k + 1):
                    level = sorted(
                        (c for c in chs if c.level == h), key=lambda c: c.start
                    )
                    for a, b in zip(level, level[1:]):
                        assert (
                            len(set(a.red) ^ set(b.red))
                            + len(set(a.black) ^ set(b.black))
                        ) == 2


class TestParametrizability:
    def test_fan_is_parametrizable(self):
        for n in (5, 6, 7):
            assert is_wiring_parametrizable(base_collection(2, n))

    def test_all_w25_parametrizable(self):
        assert all(is_wiring_parametrizable(c) for c in component_of_base(2, 5))

    def test_w29_has_non_parametrizable_member(self):
        bad = [c for c in component_of_base(2, 9) if not is_wiring_parametrizable(c)]
        assert bad

    def test_matches_search(self):
        # the long-chord form against the search over chords and edge pairs
        for n in range(4, 10):
            for c in component_of_base(2, n):
                assert is_wiring_parametrizable(c) == is_wiring_parametrizable_bf(c), c

    def test_k3_rejected(self):
        with pytest.raises(ValueError):
            is_wiring_parametrizable(base_collection(3, 6))

    def test_matches_word_collections_up_to_dihedral(self):
        # the parametrizable collections are exactly the dihedral translates
        # of word collections
        for n in (5, 6, 7):
            m = n - 2
            from_words = set()
            for w in all_optimal_words(2, m):
                c = word_collection(w, 2, m)
                for g in Dihedral.group(n):
                    from_words.add(translate(c, g))
            full = component_of_base(2, n)
            flagged = {c for c in full if is_wiring_parametrizable(c)}
            assert flagged == from_words
