import dataclasses
import json
import random
import re
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from oracles import (
    closure_by_moves,
    complete_to_maximal,
    component_of_base,
    diameter_bf,
    maximal_weakly_separated_bf,
    quads_bf,
    sizes_histogram,
    weakly_separated_bf,
)
from wsep import wscoll
from wsep.reduction import pinch_point
from wsep.subsets import Dihedral, _from_mask, _to_mask, weakly_separated
from wsep.wscoll import (
    Move,
    WSCollection,
    apply_move,
    base_collection,
    boundary_sets,
    dihedral_orbits,
    enumerate_component,
    find_moves,
    height,
    is_maximal,
    reduce_to_base,
    _table,
    translate,
    validate,
)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def diagonal_dichotomy_holds(c):
    """Whenever all four sides of a quadruple are present, exactly one of
    the two diagonals is; checked on sorted tuples, apart from find_moves."""
    members = frozenset(c.sets)
    universe = range(1, c.n + 1)
    for a in combinations(universe, c.k - 2):
        rest = [x for x in universe if x not in a]
        for i, s, j, t in combinations(rest, 4):
            if not all(
                tuple(sorted(a + pair)) in members
                for pair in ((i, s), (s, j), (j, t), (i, t))
            ):
                continue
            if (tuple(sorted(a + (i, j))) in members) == (
                tuple(sorted(a + (s, t))) in members
            ):
                return False
    return True


def random_greedy_maximal(k, n, rng):
    """Maximal collection built by greedy insertion in a random order; an
    independent path to maximality used by the purity sweeps."""
    chosen = []
    pool = list(combinations(range(1, n + 1), k))
    rng.shuffle(pool)
    for cand in pool:
        if all(weakly_separated(cand, s) for s in chosen):
            chosen.append(cand)
    return WSCollection.of(k, n, chosen)


class TestValidateComplete:
    def test_crossing_pair_named(self):
        c = WSCollection.of(2, 4, [(1, 3), (2, 4)])
        report = validate(c)
        assert not report.ok
        assert report.issues == ("(1, 3) and (2, 4) are not weakly separated",)

    def test_greedy_completion_of_empty_square(self):
        done = complete_to_maximal(WSCollection.of(2, 4, []))
        assert done.sets == ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4))

    def test_completion_fixed_point(self):
        for c in sorted(component_of_base(2, 5)):
            assert complete_to_maximal(c) == c


class TestBaseCollection:
    def test_3_6_non_boundary(self):
        assert base_collection(3, 6).non_boundary() == (
            (1, 2, 4),
            (1, 2, 5),
            (1, 3, 4),
            (1, 4, 5),
        )

    def test_size_formula(self):
        for k in (2, 3, 4):
            for n in range(k + 1, 10):
                assert len(base_collection(k, n)) == k * (n - k) + 1

    def test_2_n_is_the_fan(self):
        for n in (4, 5, 6, 7):
            fan = tuple((1, j) for j in range(3, n))
            assert base_collection(2, n).non_boundary() == fan

    def test_is_maximal_and_valid(self):
        for k, n in [(2, 6), (3, 6), (3, 7), (4, 8)]:
            c = base_collection(k, n)
            assert validate(c).ok
            assert is_maximal(c)

    def test_contains_all_boundary(self):
        for k, n in [(2, 7), (3, 7)]:
            member = frozenset(base_collection(k, n).sets)
            assert set(boundary_sets(k, n)) <= member
        c = base_collection(3, 6)
        assert [1, 2, 3] in c
        assert (True, 2, 3) not in c and 5 not in c

    def test_shares_the_table_after_eviction(self):
        # the rank table keeps the base collection, so evicting (2, 7) from
        # the table cache drops both, and the next ones share a new table
        base_collection(2, 7)
        for n in range(9, 42):
            WSCollection.of(1, n, [])
        base = base_collection(2, 7)
        assert base.table is WSCollection.of(2, 7, base.sets).table
        assert base.table is _table(2, 7)

    @pytest.mark.parametrize("k, n", [(3.0, 8), (True, 8), (3, 8.0)])
    def test_non_int_rejected(self, k, n):
        # the table cache is untyped: it would hand 3.0 or True the int
        # table, and with it the int base collection
        base_collection(3, 8)
        base_collection(1, 8)
        with pytest.raises(ValueError, match="k and n must be integers"):
            base_collection(k, n)


class TestMoves:
    def test_square_flip(self):
        c = WSCollection.of(2, 4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
        moves = find_moves(c)
        assert len(moves) == 1
        d = apply_move(c, moves[0])
        assert (2, 4) in d and (1, 3) not in d

    def test_base_6_move_listing(self):
        c = base_collection(3, 6)
        got = {(m.anchor, m.removes, m.adds) for m in find_moves(c)}
        assert ((1,), (1, 2, 4), (1, 3, 5)) in got
        sides = {(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5)}
        assert sides <= frozenset(c.sets)

    def test_move_is_involution(self):
        c = base_collection(3, 6)
        for mv in find_moves(c):
            d = apply_move(c, mv)
            assert apply_move(d, mv.inverse()) == c

    def test_public_constructors_check_moves(self):
        not_an_exchange = "is not an exchange of two diagonals"
        for removes, adds, message in [
            ((1, 2, 3), (1, 4, 5), not_an_exchange),  # sides, not diagonals
            ((1, 2, 5), (1, 3, 4), not_an_exchange),  # nested, not interleaved
            ((1, 2, 4), (1, 2, 4), not_an_exchange),  # equal diagonals
            ((1, 2, 4), (1, 2, 5), not_an_exchange),  # only three indices off the anchor
            ((1, 2, 4), (1, 3, 5, 6), not_an_exchange),  # different sizes
            ((1, 2, 4, 6), (1, 3, 5, 7), not_an_exchange),  # four indices each
            ((1, 2, 2), (1, 3, 5), "duplicate elements"),  # repeated element
            ((0, 2, 4), (0, 3, 5), "must be >= 1"),  # element below 1
            ((-1, 2, 4), (-1, 3, 5), "must be >= 1"),
            ((True, 3), (2, 4), "subset element True is not an integer"),
            ((1, 3.0), (2, 4), "subset element 3.0 is not an integer"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                Move.of(removes, adds)
        with pytest.raises(ValueError, match=re.escape("(1, 2, 3) -> (1, 4, 5) is not an")):
            Move.of([3, 2, 1], (1, 4, 5))

    def test_of_takes_any_iterable_of_ints(self):
        mv = Move(_to_mask((1, 2, 4)), _to_mask((1, 3, 5)))
        assert Move.of((1, 2, 4), (1, 3, 5)) == mv
        assert Move.of([1, 2, 4], [1, 3, 5]) == mv
        assert Move.of([4, 1, 2], iter((5, 3, 1))) == mv
        assert Move.of({1, 2, 4}, (x for x in (1, 3, 5))) == mv
        assert Move.of((1, 3, 5), [1, 2, 4]) == mv.inverse()

    def test_a_move_is_its_two_diagonal_masks(self):
        assert [(f.name, f.type) for f in dataclasses.fields(Move)] == [
            ("removes_mask", "int"), ("adds_mask", "int")
        ]
        removes, adds = (1, 2, 5, 7), (2, 3, 7, 8)
        mv = Move.of((2, 7, 1, 5), adds)
        assert vars(mv) == {"removes_mask": _to_mask(removes), "adds_mask": _to_mask(adds)}
        assert (mv.anchor, mv.quad, mv.removes, mv.adds) == ((2, 7), (1, 3, 5, 8), removes, adds)
        assert mv.sides == ((1, 2, 3, 7), (2, 3, 5, 7), (2, 5, 7, 8), (1, 2, 7, 8))
        assert mv.inverse().sides == mv.sides
        with pytest.raises(dataclasses.FrozenInstanceError):
            mv.removes_mask = 0

    def test_apply_move_messages(self):
        c = base_collection(2, 5)
        mv = Move.of((1, 3), (2, 4))
        assert mv in find_moves(c)
        stripped = WSCollection.of(2, 5, [s for s in c.sets if s != (2, 3)])
        crossing = WSCollection.of(2, 5, c.sets + ((2, 4),))
        trusted = Move(_to_mask((1, 2)), _to_mask((1, 3)))  # the constructor checks nothing
        for d, move, message in [
            (stripped, mv, "move side (2, 3) absent from collection"),
            (c, mv.inverse(), "move diagonal (2, 4) absent from collection"),
            (crossing, mv, "move target (2, 4) already present"),
            (c, trusted, "(1, 2) -> (1, 3) is not an exchange of two diagonals"),
        ]:
            with pytest.raises(ValueError) as caught:
                apply_move(d, move)
            assert str(caught.value) == message

    def test_find_moves_raises_what_apply_move_raises(self):
        # the quad 1 < 3 < 4 < 5 has its four sides and both diagonals: no
        # move swaps them, so find_moves lists none and raises
        c = WSCollection.of(2, 6, base_collection(2, 6).sets + ((3, 5),))
        with pytest.raises(ValueError) as applied:
            apply_move(c, Move.of((1, 4), (3, 5)))
        with pytest.raises(ValueError) as found:
            find_moves(c)
        assert str(found.value) == str(applied.value) == "move target (3, 5) already present"

    def test_masks_are_built_with_the_move(self):
        def masks_match(mv):
            # the two fields are the move; everything else is decoded from them
            assert vars(mv).keys() == {"removes_mask", "adds_mask"}
            a, (i, s, j, t) = mv.anchor, mv.quad
            assert i < s < j < t and not set(a) & {i, s, j, t}
            assert {mv.removes, mv.adds} == {tuple(sorted(a + (i, j))), tuple(sorted(a + (s, t)))}
            sides = [tuple(sorted(a + p)) for p in ((i, s), (s, j), (j, t), (i, t))]
            assert mv.sides == tuple(sides)
            assert wscoll._sides(mv.removes_mask, mv.adds_mask) == tuple(map(_to_mask, sides))
            assert mv.removes_mask == _to_mask(mv.removes)
            assert mv.adds_mask == _to_mask(mv.adds)

        moves = [
            Move.of((1, 2, 4), (1, 3, 5)),
            Move.of((1, 3, 5), (1, 2, 4)),
            Move.of((1, 2, 5, 7), (2, 3, 7, 8)),
            Move(_to_mask((2, 4)), _to_mask((1, 3))),
        ]
        moves += [mv.inverse() for mv in moves]
        moves += [mv.translate(g) for mv in moves[:2] for g in Dihedral.group(6)]
        moves += [mv.translate(g) for mv in moves[2:3] for g in Dihedral.group(8)]
        for c in [base_collection(3, 7), base_collection(4, 8)]:
            moves += find_moves(c)
        for mv in moves:
            masks_match(mv)

    def test_internal_moves_are_valid(self):
        # moves built without the checks pass them, and equal checked ones
        rng = random.Random(13)
        for k, n in ((2, 7), (3, 8)):
            c = random_greedy_maximal(k, n, rng)
            moves = find_moves(c) + list(reduce_to_base(c).moves)
            moves += [mv.inverse() for mv in moves]
            moves += [mv.translate(Dihedral(n, 2, True)) for mv in moves]
            for mv in moves:
                assert Move.of(mv.removes, mv.adds) == mv

    def test_absent_side_rejected(self):
        c = base_collection(2, 5)
        mv = find_moves(c)[0]
        stripped = WSCollection.of(2, 5, [s for s in c.sets if s != mv.sides[0]])
        with pytest.raises(ValueError):
            apply_move(stripped, mv)

    def test_diagonal_dichotomy_on_enumerations(self):
        for c in component_of_base(2, 6):
            assert diagonal_dichotomy_holds(c)
        for c in component_of_base(3, 6):
            assert diagonal_dichotomy_holds(c)

    def test_moves_commute_with_dihedral_action(self):
        rng = random.Random(11)
        cs = sorted(component_of_base(3, 6))
        for _ in range(30):
            c = rng.choice(cs)
            moves = find_moves(c)
            mv = rng.choice(moves)
            g = rng.choice(list(Dihedral.group(6)))
            lhs = translate(apply_move(c, mv), g)
            rhs = apply_move(translate(c, g), mv.translate(g))
            assert lhs == rhs


class TestEnumeration:
    def test_small_counts(self):
        assert len(component_of_base(2, 4)) == 2
        assert len(component_of_base(2, 5)) == 5
        assert len(component_of_base(3, 6)) == 34

    def test_catalan_counts(self):
        for n in range(4, 10):
            assert len(component_of_base(2, n)) == catalan(n - 2)

    def test_every_member_contains_boundary(self):
        for k, n in ((3, 6), (2, 7)):
            for c in component_of_base(k, n):
                assert set(boundary_sets(k, n)) <= frozenset(c.sets)
        rng = random.Random(8)
        for _ in range(20):
            c = random_greedy_maximal(3, 7, rng)
            assert set(boundary_sets(3, 7)) <= frozenset(c.sets)

    def test_every_k3_member_has_almost_boundary_subset(self):
        from wsep.subsets import diameter

        for n in (6, 7):
            for c in component_of_base(3, n):
                assert any(diameter(s, n) == 4 for s in c.sets)

    def test_k1_has_no_moves(self):
        base = base_collection(1, 5)
        assert find_moves(base) == []
        assert enumerate_component(base) == {base}

    def test_seed_choice_does_not_matter(self):
        cs = component_of_base(2, 6)
        other = enumerate_component(max(cs))
        assert frozenset(other) == cs


class TestQuads:
    """The rank table's quads, ints only, and the moves built from them
    against a listing of sorted tuples."""

    @pytest.mark.parametrize("k, n", [(2, 6), (3, 7), (4, 8), (5, 10), (0, 4), (1, 5), (1, 1)])
    def test_quads_match_listing(self, k, n):
        table = _table(k, n)
        expected = quads_bf(k, n)
        assert len(table.quads) == len(table.quad_tests) == len(expected)
        for q, (ranks, (anchor, i, s, j, t, sets)) in enumerate(zip(table.quads, expected)):
            assert type(ranks) is tuple and len(ranks) == 6
            assert all(type(r) is int for r in ranks)
            assert tuple(table.subset[r] for r in ranks) == sets
            sides, diags, index = table.quad_tests[q]
            assert sides == sum(1 << r for r in ranks[:4])
            assert diags == 1 << ranks[4] | 1 << ranks[5] and index == q
            for forward, removes, adds in ((True, sets[4], sets[5]), (False, sets[5], sets[4])):
                mv, checked = table.quad_move(q, forward), Move.of(removes, adds)
                assert mv == checked and vars(mv) == vars(checked)
                assert (mv.anchor, mv.quad, mv.sides) == (anchor, (i, s, j, t), sets[:4])

    @pytest.mark.parametrize("k, n", [(2, 6), (3, 7), (4, 8), (1, 5)])
    def test_through_matches_listing(self, k, n):
        table = _table(k, n)
        sets = [s for *_, s in quads_bf(k, n)]
        assert len(table.through) == table.size
        for r in range(table.size):
            qs = [q for q, six in enumerate(sets) if table.subset[r] in six]
            if not qs:
                assert table.through[r] is None
                continue
            touch, tests = table.through[r]
            assert touch == sum(1 << q for q in qs)
            assert len(tests) == len(qs) and all(t is table.quad_tests[q] for t, q in zip(tests, qs))
        assert all(e is None for e in table.through) == (k < 2)

    def test_find_moves_builds_no_bit_form(self):
        # the walk's quad_tests hold C(n, k)-bit side ints per quad, and
        # through an int over the quad indices per rank
        base = base_collection(5, 10)
        table = wscoll._Table(5, 10)
        assert find_moves(WSCollection(table, base.bits)) == find_moves(base)
        assert "quad_tests" not in vars(table) and "through" not in vars(table)


class TestIncrementalWalk:
    """The walk's live-move sets and crossing rows against the one-state
    scan `find_moves`, `apply_move` and the pair loop of `validate`."""

    @staticmethod
    def live_moves(table, bits, live):
        return [table.quad_move(q, bits >> table.quads[q][4] & 1) for q in _from_mask(live)]

    @pytest.mark.parametrize("k, n", [(3, 8), (4, 8)])
    def test_live_moves_match_find_moves_on_every_state(self, k, n):
        table = _table(k, n)
        states = 0
        for bits, live in wscoll._walk(base_collection(k, n)):
            assert self.live_moves(table, bits, live) == find_moves(WSCollection(table, bits))
            states += 1
        assert states == len(component_of_base(k, n))

    def test_walk_matches_scan_on_random_seeds(self):
        # separated or not, maximal or not: the same closure, or the same error
        rng = random.Random(17)
        for _ in range(150):
            k, n = rng.choice([(2, 6), (3, 6), (3, 7), (4, 8)])
            pool = list(combinations(range(1, n + 1), k))
            sets = set(base_collection(k, n).sets)
            sets -= set(rng.sample(sorted(sets), rng.randint(0, 2)))
            sets |= set(rng.sample(pool, rng.randint(0, 3)))
            seed = WSCollection.of(k, n, sets)
            try:
                expected = closure_by_moves(seed)
            except ValueError as exc:
                with pytest.raises(ValueError) as caught:
                    enumerate_component(seed)
                assert str(caught.value) == str(exc)
            else:
                assert enumerate_component(seed) == expected

    def test_non_separated_seed_raises(self):
        # the fan at 1 with the crossing diagonal (3,5) added: the quad
        # 1 < 3 < 4 < 5 has its four sides and both diagonals
        seed = WSCollection.of(2, 6, base_collection(2, 6).sets + ((3, 5),))
        with pytest.raises(ValueError) as expected:
            apply_move(seed, Move.of((1, 4), (3, 5)))
        assert str(expected.value) == "move target (3, 5) already present"
        with pytest.raises(ValueError, match=r"^move target \(3, 5\) already present$"):
            enumerate_component(seed)

    def test_crossing_rows(self):
        table = _table(3, 6)
        for r in range(table.size):
            a = table.subset[r]
            expected = [s for s in range(table.size) if not weakly_separated_bf(a, table.subset[s])]
            assert list(_from_mask(table.crossing[r])) == expected

    def test_crossing_rows_decide_validate(self):
        rng = random.Random(23)
        for k, n in [(2, 7), (3, 7), (4, 8)]:
            table = _table(k, n)
            pool = list(combinations(range(1, n + 1), k))
            cs = list(component_of_base(k, n))[:40]
            cs += [WSCollection.of(k, n, rng.sample(pool, rng.randint(0, 12))) for _ in range(150)]
            ok = 0
            for c in cs:
                certified = not any(c.bits & table.crossing[r] for r in c.ranks())
                assert certified == validate(c).ok
                ok += certified
            assert 40 < ok < len(cs)  # both answers occur

    @pytest.mark.parametrize("k, n, count", [(3, 8, 2136), (4, 8, 5470)])
    def test_closure_is_every_maximal_collection(self, k, n, count):
        expected = maximal_weakly_separated_bf(k, n)
        assert len(expected) == count
        assert {c.sets for c in component_of_base(k, n)} == expected


class TestMaximalityByPurity:
    """`is_maximal` against the clique-search oracle, which makes no moves
    and does not count members: every maximal collection passes; one member
    fewer or one non-member more never does; a member swapped for a
    non-member passes exactly when the oracle lists the result; and none of
    it raises, crossing input included."""

    @pytest.mark.parametrize("k, n", [(2, 6), (3, 7), (4, 8)])
    def test_against_oracle(self, k, n):
        expected = maximal_weakly_separated_bf(k, n)
        table = _table(k, n)
        every = (1 << table.size) - 1
        rng = random.Random(53)
        answers = []
        for sets in sorted(expected):
            c = WSCollection.of(k, n, sets)
            assert is_maximal(c)
            others = _from_mask(every & ~c.bits)
            for r in c.ranks():
                assert not is_maximal(WSCollection(table, c.bits ^ 1 << r))
            for r in others:
                assert not is_maximal(WSCollection(table, c.bits | 1 << r))
            for r in c.ranks():
                swapped = WSCollection(table, c.bits ^ 1 << r | 1 << rng.choice(others))
                answers.append(is_maximal(swapped))
                assert answers[-1] == (swapped.sets in expected)
        assert True in answers and False in answers

    @pytest.mark.parametrize("k, n", [(0, 0), (0, 3), (1, 4), (3, 3)])
    def test_edges_of_the_range(self, k, n):
        # k(n-k)+1 is C(n, k) here: the maximal collection holds every k-subset
        every = WSCollection.of(k, n, combinations(range(1, n + 1), k))
        assert len(every) == k * (n - k) + 1 and is_maximal(every)
        assert complete_to_maximal(WSCollection.of(k, n, [])) == every

    @pytest.mark.parametrize("k, n", [(-1, 4), (2, -3), (3, 2), (1, -1)])
    def test_out_of_range_rejected(self, k, n):
        with pytest.raises(ValueError) as exc:
            WSCollection.of(k, n, [])
        assert str(exc.value) == f"need 0 <= k <= n, got k={k} and n={n}"


class TestCrossingRule:
    """`_separated` and its callers give the same answers, moves and errors
    with crossing rows as with the pair loop, the rule takes the rows once
    the table's counted pair tests have paid for them, and a one-off check
    at a large table fills no row."""

    @staticmethod
    def pair_loop(monkeypatch):
        monkeypatch.setattr(wscoll, "_uses_rows", lambda c: False)

    @staticmethod
    def rows(monkeypatch):
        monkeypatch.setattr(wscoll, "_uses_rows", lambda c: True)

    @staticmethod
    def cases():
        rng = random.Random(41)
        cs = list(component_of_base(2, 7)) + list(component_of_base(3, 7))
        cs += rng.sample(sorted(component_of_base(3, 8)), 200)
        return cs

    def test_the_rule(self):
        rows = wscoll._uses_rows
        # a fresh (4, 8) table, 70 subsets: the base has 17 members, so a
        # check by the pair loop runs 136 pair tests, and the rows take
        # 70 * 17 = 1190 while every member row is empty
        table = wscoll._Table(4, 8)
        c = WSCollection(table, base_collection(4, 8).bits)
        checks = 0
        while not rows(c) and checks < 20:
            assert is_maximal(c) and len(table.crossing) == 0
            checks += 1
        assert (checks, table.pair_tests) == (9, 9 * 136)
        assert is_maximal(c) and sorted(table.crossing) == list(c.ranks())
        assert table.pair_tests == 9 * 136
        # rows exactly when the count reaches 70 per empty member row; a
        # filled row of a non-member counts for nothing
        table = wscoll._Table(4, 8)
        c = WSCollection(table, c.bits)
        table.crossing[next(r for r in range(table.size) if r not in c.ranks())]
        table.pair_tests = 70 * 17 - 1
        assert not rows(c)
        table.pair_tests += 1
        assert rows(c)
        table.crossing[c.ranks()[0]]
        table.pair_tests = 70 * 16 - 1
        assert not rows(c)
        # the pair side of `_separated_from` counts one test per member
        assert wscoll._separated_from(table, c.bits, c.ranks()[1], c.masks())
        assert table.pair_tests == 70 * 16 + 16 and rows(c)
        # with every member row filled, rows on any count
        table = wscoll._Table(4, 8)
        for r in c.ranks():
            table.crossing[r]
        assert table.pair_tests == 0 and rows(WSCollection(table, c.bits))

    def test_reductions_match_pair_loop(self, monkeypatch):
        cs = self.cases()
        default = [reduce_to_base(c).moves for c in cs]
        self.rows(monkeypatch)
        assert [reduce_to_base(c).moves for c in cs] == default
        self.pair_loop(monkeypatch)
        assert [reduce_to_base(c).moves for c in cs] == default

    def test_maximality_matches_pair_loop(self, monkeypatch):
        # maximal collections and random subcollections of them
        rng = random.Random(43)
        cs = self.cases()
        cs += [WSCollection.of(c.k, c.n, rng.sample(c.sets, rng.randint(0, len(c)))) for c in cs]
        completed = {}
        for mode in (self.pair_loop, self.rows):
            mode(monkeypatch)
            completed[mode] = [is_maximal(c) for c in cs]
        assert completed[self.rows] == completed[self.pair_loop]
        assert 501 <= completed[self.rows].count(True) < len(cs)

    def test_separated_matches_pair_tests(self, monkeypatch):
        rng = random.Random(47)
        for k, n in [(2, 7), (3, 7), (3, 8)]:
            table = _table(k, n)
            pool = list(combinations(range(1, n + 1), k))
            for _ in range(150):
                c = WSCollection.of(k, n, rng.sample(pool, rng.randint(1, 2 * n)))
                ranks = rng.sample(c.ranks(), rng.randint(0, len(c)))
                expected = [
                    all(weakly_separated_bf(table.subset[r], s) for s in c.sets) for r in ranks
                ]
                for mode in (self.pair_loop, self.rows):
                    mode(monkeypatch)
                    members = None if wscoll._uses_rows(c) else c.masks()
                    got = [wscoll._separated_from(table, c.bits, r, members) for r in ranks]
                    assert got == expected
                    assert wscoll._separated(c) == validate(c).ok

    @pytest.mark.parametrize("mode", ["rows", "pair_loop"])
    def test_errors_do_not_depend_on_the_rule(self, monkeypatch, mode):
        # two crossings: the message names the first pair of `validate`
        sets = [s for s in base_collection(3, 8).sets if s not in ((1, 3, 4), (1, 6, 7))]
        crossing = WSCollection.of(3, 8, sets + [(1, 3, 5), (2, 4, 6)])
        first = "(1, 2, 4) and (1, 3, 5) are not weakly separated"
        assert validate(crossing).issues[0] == first
        getattr(self, mode)(monkeypatch)
        with pytest.raises(ValueError) as exc:
            reduce_to_base(crossing)
        assert str(exc.value) == f"the collection is not weakly separated: {first}"
        with pytest.raises(ValueError) as exc:
            wscoll.require_maximal(crossing)
        assert str(exc.value) == f"the collection is not weakly separated: {first}"

    def test_replay_checks_every_added_member_by_pair_loop(self, monkeypatch):
        self.pair_loop(monkeypatch)
        TestHeightAndReduction().test_replay_checks_every_added_member(monkeypatch)

    @pytest.mark.parametrize("k, n", [(2, 40), (3, 13)])
    def test_large_table_fills_no_row(self, k, n):
        table = _table(k, n)
        table.crossing.clear()
        c = translate(base_collection(k, n), Dihedral(n, 1))
        assert validate(c).ok and is_maximal(c)
        wscoll.require_maximal(c)
        assert reduce_to_base(c).end == base_collection(k, n)
        assert len(table.crossing) == 0


class TestOrbits:
    def test_orbit_stabilizer(self):
        for k, n in [(2, 8), (3, 7), (4, 8)]:
            cs = component_of_base(k, n)
            orbits = dihedral_orbits(cs)
            assert sum(len(o) for o in orbits) == len(cs)
            assert all(2 * n % len(o) == 0 for o in orbits)
            assert frozenset().union(*orbits) == cs

    def test_orbits_match_least_first_partition(self):
        # the partition taken one least collection at a time, orbits sorted;
        # (2, 4) has 6 ranks in one partial byte, (3, 8) 56 ranks in 7 bytes
        rng = random.Random(4)
        cases = [(3, 7, None), (3, 7, 100), (2, 4, None), (2, 8, None), (4, 7, None), (3, 8, 300)]
        for k, n, sample in cases:
            cs = sorted(component_of_base(k, n))
            pool = set(cs if sample is None else rng.sample(cs, sample))
            expected = []
            rest = set(pool)
            while rest:
                c = min(rest)
                orbit = {translate(c, g) for g in Dihedral.group(n)} & rest
                rest -= orbit
                expected.append(tuple(sorted(orbit)))
            assert dihedral_orbits(pool) == sorted(expected), (k, n, sample)

    def test_mixed_k_pool_lists_each_k_in_turn(self):
        # two collections of different k may share their bits int
        k2, k3 = component_of_base(2, 6), component_of_base(3, 6)
        assert dihedral_orbits(k2 | k3) == dihedral_orbits(k2) + dihedral_orbits(k3)

    def test_mixed_n_pool_acts_on_each_polygon(self):
        n6, n7 = component_of_base(3, 6), component_of_base(3, 7)
        assert dihedral_orbits(n7 | n6) == dihedral_orbits(n6) + dihedral_orbits(n7)

    def test_repeated_collections_count_once(self):
        cs = sorted(component_of_base(3, 7))
        assert dihedral_orbits(cs + cs[::3] + cs[:5]) == dihedral_orbits(set(cs))

    def test_sorted_and_shuffled_lists_agree(self):
        cs = sorted(component_of_base(3, 7))
        shuffled = list(cs)
        random.Random(5).shuffle(shuffled)
        assert dihedral_orbits(shuffled) == dihedral_orbits(cs)

    def test_w36_has_five_orbits(self):
        orbits = dihedral_orbits(component_of_base(3, 6))
        assert len(orbits) == 5
        assert sorted(len(o) for o in orbits) == [3, 3, 4, 12, 12]

    def test_w24_single_orbit(self):
        assert len(dihedral_orbits(component_of_base(2, 4))) == 1

    def test_base_orbit_contains_base(self):
        orbits = dihedral_orbits(component_of_base(3, 6))
        base = base_collection(3, 6)
        assert any(base in o for o in orbits)


class TestTranslateTables:
    """`_Table.translates` reads the byte tables of one rotation and one
    reflection, filled slot by slot from the `image` maps."""

    def test_translates_in_group_order(self):
        # rho^0, ..., rho^(n-1), then sigma after each of them
        n = 7
        powers = [Dihedral(n)]
        for _ in range(n - 1):
            powers.append(Dihedral(n, 1) * powers[-1])
        group = powers + [Dihedral(n, 0, True) * g for g in powers]
        for c in sorted(component_of_base(3, n))[:40]:
            assert c.table.translates(c.bits) == [translate(c, g).bits for g in group]

    def test_filled_slots_are_ors_over_the_image_map(self):
        cs = component_of_base(3, 7)
        table = next(iter(cs)).table
        for c in cs:
            table.translates(c.bits)
        filled = 0
        for (rows, empty, _), (rot, refl) in zip(table._steps, [(1, False), (0, True)]):
            assert len(rows) == 5 and empty == [0] + [None] * 255
            for j, row in enumerate(rows):
                assert len(row) == 256 and row[0] == 0
                for v, entry in enumerate(row):
                    if v and entry is not None:
                        filled += 1
                        ranks = [8 * j + x for x in _from_mask(v)]
                        piece = WSCollection(table, sum(1 << r for r in ranks))
                        assert entry == translate(piece, Dihedral(7, rot, refl)).bits
        assert filled

    def test_one_off_fills_only_the_slots_it_reads(self):
        c = base_collection(7, 14)
        table = c.table
        vars(table).pop("_steps", None)  # as a fresh process has them
        assert dihedral_orbits([c]) == [(c,)]
        filled = sum(v is not None for rows, _, _ in table._steps for row in rows for v in row[1:])
        assert 0 < filled <= 2 * 14 * len(c)
        # a position none of whose slots was written still shares the empty row
        for rows, empty, _ in table._steps:
            assert empty == [0] + [None] * 255
            assert sum(row is not empty for row in rows) <= filled


class TestRankDecode:
    """`_Table.ranks_of` reads the byte table of f(r) = (r,), the kernel of
    the translates, filled slot by slot."""

    @pytest.mark.parametrize("k, n", [(2, 4), (3, 7), (3, 8), (4, 9)])
    @given(data=st.data())
    def test_decode_matches_from_mask(self, k, n, data):
        # 6, 35, 56 and 126 ranks: a partial last byte but for (3, 8)
        table = _table(k, n)
        full = (1 << table.size) - 1
        top = 1 << table.size - 1
        bits = data.draw(st.one_of(st.sampled_from([0, full, top, top | 1]), st.integers(0, full)))
        assert table.ranks_of(bits) == _from_mask(bits)
        assert WSCollection(table, bits).ranks() == _from_mask(bits)

    def test_filled_slots_are_the_ranks_of_their_byte(self):
        table = _table(4, 8)
        for c in component_of_base(4, 8):
            assert c.ranks() == _from_mask(c.bits)
        rows, empty, _ = table._decode
        assert len(rows) == 9 and empty == [()] + [None] * 255
        for j, row in enumerate(rows):
            for v, entry in enumerate(row):
                assert entry is None or entry == tuple(8 * j + x for x in _from_mask(v))

    def test_one_decode_allocates_only_the_rows_it_reads(self):
        # a translate of base(3, 40) has 112 members over 1,235 byte
        # positions: 256 slots for every position would take 2.5 MB
        c = translate(base_collection(3, 40), Dihedral(40, 7, True))
        table = c.table
        vars(table).pop("_decode", None)  # as a fresh table has it
        tracemalloc.start()
        try:
            ranks = table.ranks_of(c.bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ranks == _from_mask(c.bits)
        assert peak < 1 << 20
        rows, empty, _ = table._decode
        assert sum(row is not empty for row in rows) <= len(c)


class TestPurity:
    def test_bfs_purity(self):
        for k, nmax in [(2, 9), (3, 7)]:
            for n in range(k + 2, nmax + 1):
                expected = k * (n - k) + 1
                hist = sizes_histogram(component_of_base(k, n))
                assert set(hist) == {expected}

    def test_random_greedy_purity(self):
        rng = random.Random(2024)
        for k, n, reps in [(2, 9, 60), (3, 8, 120)]:
            for _ in range(reps):
                c = random_greedy_maximal(k, n, rng)
                assert len(c) == k * (n - k) + 1

    def test_k4_size_bound(self):
        # purity holds for every k (Oh-Postnikov-Speyer; Danilov-Karzanov-Koshevoy)
        rng = random.Random(99)
        for n in (6, 7, 8):
            for _ in range(40):
                c = random_greedy_maximal(4, n, rng)
                assert len(c) == 4 * (n - 4) + 1


class TestHeightAndReduction:
    def test_base_has_height_zero(self):
        for n in (5, 6, 7):
            c = base_collection(3, n)
            assert height(c) == 0
            assert (1, 2, n - 1) in c and (1, n - 2, n - 1) in c

    def test_pinch_of_base(self):
        for n in (5, 6, 7):
            assert pinch_point(base_collection(3, n)) == 2

    def test_pinch_requires_marker(self):
        lacking = min(
            c for c in component_of_base(3, 6) if (1, 4, 5) not in c
        )
        with pytest.raises(ValueError, match=r"collection lacks \{1,4,5\}"):
            pinch_point(lacking)

    def test_reduce_base_is_trivial(self):
        r = reduce_to_base(base_collection(3, 6))
        assert r.moves == ()

    def test_reduce_everything_small(self):
        for k, n in [(2, 6), (3, 6)]:
            target = base_collection(k, n)
            for c in component_of_base(k, n):
                red = reduce_to_base(c)
                assert red.end == target

    def test_reduce_dihedral_translates(self):
        for k, n in [(2, 7), (2, 8), (3, 6), (3, 7), (3, 8)]:
            base = base_collection(k, n)
            for g in Dihedral.group(n):
                red = reduce_to_base(translate(base, g))
                assert red.end == base

    def test_reduce_random_collections_at_larger_n(self):
        rng = random.Random(88)
        for k, n, reps in [(3, 8, 10), (2, 9, 10)]:
            target = base_collection(k, n)
            for _ in range(reps):
                c = random_greedy_maximal(k, n, rng)
                assert reduce_to_base(c).end == target

    def test_witness_exists_for_all_w36(self):
        for c in component_of_base(3, 6):
            g = Dihedral(6, *wscoll._witness(c.table, c.bits, 6, tuple(range(7))))
            assert (1, 4, 5) in translate(c, g)

    @pytest.mark.parametrize("k", [2, 3])
    def test_reduction_builds_no_other_table(self, monkeypatch, k):
        # every level is read through an index map on the input's own table
        rng = random.Random(35 + k)
        cs = [random_greedy_maximal(k, 9, rng) for _ in range(4)]
        cs.append(translate(base_collection(k, 9), Dihedral(9, 4, True)))
        base = base_collection(k, 9)
        real, calls = wscoll._table, []

        def recorded(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(wscoll, "_table", recorded)
        ends = [reduce_to_base(c).end for c in cs]
        assert calls == []
        assert ends == [base] * len(cs)

    @pytest.mark.parametrize("m", range(5, 15))
    def test_level_end_lemma(self, m):
        # With the marker {1,m-2,m-1} present, a triple {s,t,m} with 1 < s < t
        # is separated from it only as the boundary set {m-2,m-1,m}, so every
        # non-boundary member holding m is {1,b,m}, with b above the least
        # index 2; for pairs, {b,m} is non-boundary exactly for b above 1.
        marker = (1, m - 2, m - 1)
        separated = [(s, t) for s, t in combinations(range(2, m), 2) if weakly_separated_bf((s, t, m), marker)]
        assert separated == [(m - 2, m - 1)]
        assert diameter_bf((m - 2, m - 1, m), m) == 3
        assert [b for b in range(2, m) if diameter_bf((1, b, m), m) != 3] == list(range(3, m - 1))
        assert [b for b in range(1, m) if diameter_bf((b, m), m) != 2] == list(range(2, m - 1))

    @pytest.mark.parametrize("k, n", [(2, 7), (2, 8), (3, 7), (3, 8)])
    def test_level_ends_exactly_at_height_zero(self, k, n):
        # the descent's stopping test, the pinch index at the least index,
        # against height 0, on every collection that holds the k=3 marker
        bit, lo = [1 << x for x in range(n + 1)], k - 1
        for c in component_of_base(k, n):
            if k == 2 or (1, n - 2, n - 1) in c:
                assert (wscoll._pinch_index(c.table, c.bits, n, bit) == lo) == (height(c) == 0)

    @pytest.mark.parametrize("k, n", [(2, 8), (3, 7), (4, 7)])
    def test_height_counts_by_diameter(self, k, n):
        for c in component_of_base(k, n):
            assert height(c) == sum(n in s and diameter_bf(s, n) != k for s in c.sets)

    def test_height_is_zero_for_k_0_and_k_n(self):
        for n in (1, 4, 7):
            assert height(WSCollection.of(0, n, [()])) == 0
            assert height(WSCollection.of(n, n, [range(1, n + 1)])) == 0

    def test_reduction_rejects_non_maximal(self):
        with pytest.raises(ValueError):
            reduce_to_base(WSCollection.of(2, 5, [(1, 2), (2, 3)]))

    def test_reduction_rejects_k4(self):
        with pytest.raises(ValueError):
            reduce_to_base(base_collection(4, 8))

    @pytest.mark.parametrize(
        "k, n, g",
        [(2, 7, Dihedral(7, 3)), (3, 7, None), (3, 7, Dihedral(7)), (3, 40, Dihedral(40, 7, True))],
        ids=["k2-empty-anchors", "k3", "empty-path", "k3-pair-loop"],
    )
    def test_json_text_is_json_dumps(self, k, n, g):
        # g None: the greatest collection of W(3,7); (3, 40) is above the crossing-row rule
        c = max(component_of_base(k, n)) if g is None else translate(base_collection(k, n), g)
        red = reduce_to_base(c)
        assert red.json_text() == json.dumps(red.to_json_dict(), sort_keys=True)
        assert (red.path == ()) == (c == base_collection(k, n))

    def test_replay_checks_every_added_member(self, monkeypatch):
        # Break the rank lookup during the replay only, so that the last
        # move flips in a set X in place of its target A: X is separated
        # from A but crosses another member.  Certifying the path's `adds`
        # alone would miss it.  A is met nowhere on the path of c before the
        # last move, so the break touches that move alone.
        base = base_collection(3, 6)

        def target_met_once(c):
            path = wscoll._moves_to_base(c)
            adds = path[-1][1] if path else None
            return path and _from_mask(adds) not in c and all(adds not in mv for mv in path[:-1])

        c = next(c for c in sorted(component_of_base(3, 6)) if target_met_once(c))
        path = wscoll._moves_to_base(c)
        removes, adds = (_from_mask(m) for m in path[-1])
        X = next(
            X for X in combinations(range(1, 7), 3)
            if X not in base
            and X not in (removes, adds)
            and weakly_separated(X, adds)
        )
        assert any(not weakly_separated(X, Y) for Y in base.sets)
        real_moves_to_base = wscoll._moves_to_base

        def moves_then_break(*args):
            # _moves_to_base ranks level collections itself; break only the replay
            out = real_moves_to_base(*args)
            monkeypatch.setitem(c.table.rank, _to_mask(adds), c.table.rank[_to_mask(X)])
            return out

        monkeypatch.setattr(wscoll, "_moves_to_base", moves_then_break)
        last = f"move {len(path)} of {len(path)}, {removes} -> {adds}"
        with pytest.raises(AssertionError, match=f"{re.escape(last)}: .*non-separated"):
            reduce_to_base(c)


class TestReplayFailures:
    """Each way `_replay` rejects a path, on the path of the greatest
    collection of W(3,7) tampered; a move is named with `_flip`'s reason."""

    C = max(component_of_base(3, 7))

    def replay_fails(self, c, path, x, why):
        removes, adds = (_from_mask(m) for m in path[x])
        with pytest.raises(AssertionError) as caught:
            wscoll._replay(c, path)
        assert str(caught.value) == f"reduction move {x + 1} of {len(path)}, {removes} -> {adds}: {why}"

    def path(self):
        path = wscoll._moves_to_base(self.C)
        wscoll._replay(self.C, path)
        assert len(path) > 4
        return path

    def test_not_an_exchange(self):
        # a side of move x in place of its added diagonal
        path, x = self.path(), 2
        removes, adds = path[x]
        side = wscoll._sides(removes, adds)[0]
        path[x] = (removes, side)
        why = f"{_from_mask(removes)} -> {_from_mask(side)} is not an exchange of two diagonals"
        self.replay_fails(self.C, path, x, why)

    def test_side_absent(self):
        # drop a move whose added diagonal is a side of the next move
        path = self.path()
        x = next(x for x in range(len(path) - 1) if path[x][1] in wscoll._sides(*path[x + 1]))
        added = path.pop(x)[1]
        self.replay_fails(self.C, path, x, f"move side {_from_mask(added)} absent from collection")

    @pytest.mark.parametrize("tamper", ["swap", "repeat"])
    def test_removed_diagonal_absent(self, tamper):
        path, x = self.path(), 3
        removes, adds = path[x]
        if tamper == "swap":
            path[x] = (adds, removes)
            absent = adds
        else:
            path.insert(x + 1, path[x])
            x, absent = x + 1, removes
        self.replay_fails(self.C, path, x, f"move diagonal {_from_mask(absent)} absent from collection")

    def test_added_diagonal_present(self):
        # every collection the replay accepts is separated, and no separated
        # collection holds a quad's sides and both its diagonals: only a
        # start that is not separated reaches this check
        path = self.path()
        adds = path[0][1]
        crossing = WSCollection(self.C.table, self.C.bits | 1 << self.C.table.rank[adds])
        self.replay_fails(crossing, path, 0, f"move target {_from_mask(adds)} already present")

    def test_not_landing_on_the_base(self):
        with pytest.raises(AssertionError, match="^reduction did not land on the base collection$"):
            wscoll._replay(self.C, self.path()[:-1])


class TestJson:
    def test_round_trip(self):
        c = base_collection(3, 6)
        assert WSCollection.from_json_dict(c.to_json_dict()) == c

    def test_json_text_is_sorted_json_dumps(self):
        rng = random.Random(8)
        cases = [
            WSCollection.of(0, 3, [()]),
            WSCollection.of(2, 4, []),
            base_collection(1, 5),
            base_collection(4, 12),
            *rng.sample(sorted(component_of_base(3, 7)), 5),
        ]
        for c in cases:
            assert c.json_text() == json.dumps(c.to_json_dict(), sort_keys=True)

    def test_move_json(self):
        mv = find_moves(base_collection(3, 6))[0]
        d = mv.to_json_dict()
        assert d == {"anchor": [1], "quad": [2, 3, 4, 5], "removes": [1, 2, 4], "adds": [1, 3, 5]}
        assert d["quad"] == list(mv.quad)


class TestLibraryIngress:
    """`WSCollection.of` and `Move` take ints, and a bool is not the int it
    equals."""

    def test_bool_for_k_or_n(self):
        with pytest.raises(ValueError, match="k and n must be integers, got True and 4"):
            WSCollection.of(True, 4, [(1,)])
        with pytest.raises(ValueError, match="k and n must be integers, got 2 and False"):
            WSCollection.of(2, False, [])

    def test_bool_or_float_element(self):
        with pytest.raises(ValueError, match="subset element True is not an integer"):
            WSCollection.of(2, 4, [(True, 2), (2, 3)])
        with pytest.raises(ValueError, match="subset element 2.0 is not an integer"):
            WSCollection.of(2, 4, [(1, 2.0)])
        with pytest.raises(ValueError, match="subset element True is not an integer"):
            Move.of((True, 3), (2, 4))

    @pytest.mark.parametrize(
        "sets, message",
        [
            ([(1, 2, 3), (True, 2, 4)], "subset element True is not an integer"),
            ([(1, 2, 3), (1, 2.0, 4)], "subset element 2.0 is not an integer"),
            ([(1, 2, 3), (1, "2", 4)], "subset element '2' is not an integer"),
            ([(1, 2, 3), (0, 1, 2)], "subset elements must be >= 1, got (0, 1, 2)"),
            ([(1, 2, 3), (4, -1, 2)], "subset elements must be >= 1, got (-1, 2, 4)"),
            ([(1, 2, 3), (1, 2, 2)], "duplicate elements in subset (1, 2, 2)"),
            ([(1, 2, 3), (2, 4, 2)], "duplicate elements in subset (2, 2, 4)"),
            ([(1, 2, 3), (1, 2, 9)], "subset (1, 2, 9) not contained in [1..8]"),
            ([(1, 2, 3), (10**9, 1, 2)], "subset (1, 2, 1000000000) not contained in [1..8]"),
            ([(1, 2, 3), (2, 1)], "(1, 2) is not a 3-subset"),
            ([(1, 2, 3), (4, 3, 2, 1)], "(1, 2, 3, 4) is not a 3-subset"),
            ([(1, 2, 3), ()], "() is not a 3-subset"),
            ([(1, 2, 3), (1, 2, 4), (3, 1, 2)], "(1, 2, 3) appears more than once in the collection"),
            # within one member: a non-int element, then a repeat, then an
            # element below 1, then one above n, then the size
            ([(9, 0, 0, 2.5)], "subset element 2.5 is not an integer"),
            ([(9, 0, 0)], "duplicate elements in subset (0, 0, 9)"),
            ([(9, 0, 1, 2)], "subset elements must be >= 1, got (0, 1, 2, 9)"),
            ([(9, 1, 2, 3)], "subset (1, 2, 3, 9) not contained in [1..8]"),
        ],
    )
    def test_of_messages(self, sets, message):
        with pytest.raises(ValueError) as caught:
            WSCollection.of(3, 8, sets)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "sets, message",
        [
            # the first faulty member is the one named, whatever its fault
            ([(1, 2, 9), (1, 2), (1, 1, 2)], "subset (1, 2, 9) not contained in [1..8]"),
            ([(1, 2), (1, 2, 9), (1, 1, 2)], "(1, 2) is not a 3-subset"),
            ([(1, 2, 3), (3, 2, 1), (0, 1, 2)], "(1, 2, 3) appears more than once in the collection"),
            ([(1, 2, 3), (1, 1, 2), (3, 2, 1)], "duplicate elements in subset (1, 1, 2)"),
            ([(1, 2, 3), (1, 2, 3.0), (0, 1, 2)], "subset element 3.0 is not an integer"),
        ],
    )
    def test_of_names_the_first_faulty_member(self, sets, message):
        with pytest.raises(ValueError) as caught:
            WSCollection.of(3, 8, sets)
        assert str(caught.value) == message

    def test_of_dimension_messages(self):
        with pytest.raises(ValueError) as caught:
            WSCollection.of(3.0, 8, [])
        assert str(caught.value) == "k and n must be integers, got 3.0 and 8"
        with pytest.raises(ValueError) as caught:
            WSCollection.of(9, 8, [])
        assert str(caught.value) == "need 0 <= k <= n, got k=9 and n=8"

    def test_of_accepts_unsorted_members_and_int_subclasses(self):
        class Int(int):
            pass

        want = WSCollection.of(3, 8, [(1, 2, 3), (1, 2, 4), (2, 5, 8)])
        for sets in [
            [(3, 1, 2), (4, 2, 1), (8, 5, 2)],
            [(2, 5, 8), [1, 2, 4], iter((1, 2, 3))],
            [(Int(1), Int(2), Int(3)), (1, Int(4), 2), (Int(8), 5, 2)],
            ({1, 2, 3}, (x for x in (4, 1, 2)), (2, 5, 8)),
        ]:
            c = WSCollection.of(3, 8, sets)
            assert c == want and c.sets == ((1, 2, 3), (1, 2, 4), (2, 5, 8))
            assert all(type(x) is int for s in c.sets for x in s)
        assert WSCollection.of(0, 3, [()]).sets == ((),)

    @pytest.mark.parametrize(
        "d, message",
        [
            ([], 'a collection must be a JSON object with keys "k", "n" and "sets"'),
            ({"k": 3, "n": 8}, 'a collection must be a JSON object with keys "k", "n" and "sets"'),
            ({"k": True, "n": 8, "sets": "x"}, '"k" must be an integer, got true'),
            ({"k": 3, "n": False, "sets": "x"}, '"n" must be an integer, got false'),
            ({"k": 3, "n": 8, "sets": "x"}, '"sets" must be a list of lists of integers'),
            ({"k": 3, "n": 8, "sets": [(1, 2, 3)]}, '"sets" must be a list of lists of integers'),
            ({"k": 3, "n": 8, "sets": [[0, 1, 2], [1, 2, True]]}, '"sets" must be a list of lists of integers'),
            ({"k": 3, "n": 8, "sets": [[0, 1, 2], [1, 2, 3.0]]}, '"sets" must be a list of lists of integers'),
            ({"k": 3, "n": 8, "sets": [[1, 2, 3], ["1", 2, 4]]}, '"sets" must be a list of lists of integers'),
            ({"k": 3.0, "n": 8, "sets": []}, "k and n must be integers, got 3.0 and 8"),
            ({"k": 3, "n": 8, "sets": [[1, 2, 3], [0, 1, 2]]}, "subset elements must be >= 1, got (0, 1, 2)"),
            ({"k": 3, "n": 8, "sets": [[1, 2, 3], [1, 2, 2]]}, "duplicate elements in subset (1, 2, 2)"),
            ({"k": 3, "n": 8, "sets": [[1, 2, 3], [9, 1, 2]]}, "subset (1, 2, 9) not contained in [1..8]"),
            ({"k": 3, "n": 8, "sets": [[1, 2, 3], [1, 2]]}, "(1, 2) is not a 3-subset"),
            ({"k": 3, "n": 8, "sets": [[1, 2, 3], [3, 2, 1]]}, "(1, 2, 3) appears more than once in the collection"),
        ],
    )
    def test_from_json_dict_messages(self, d, message):
        with pytest.raises(ValueError) as caught:
            WSCollection.from_json_dict(d)
        assert str(caught.value) == message

    def test_from_json_dict_accepts_unsorted_members(self):
        c = WSCollection.from_json_dict({"k": 3, "n": 8, "sets": [[2, 5, 8], [3, 1, 2]]})
        assert c.sets == ((1, 2, 3), (2, 5, 8))


class TestBitmaskKernel:
    """The int-per-collection layout against plain sorted-tuple computations."""

    def test_order_matches_sets(self):
        rng = random.Random(5)
        pool = list(combinations(range(1, 7), 3))
        cs = list(component_of_base(3, 6))
        for _ in range(200):  # unequal sizes, one a prefix of another
            cs.append(WSCollection.of(3, 6, rng.sample(pool, rng.randint(0, 6))))
        assert sorted(cs) == sorted(cs, key=lambda c: c.sets)
        assert [c.sets for c in sorted(cs)] == sorted(c.sets for c in cs)
        assert min(cs).sets == min(c.sets for c in cs)

    def test_rank_tuples_give_the_order(self):
        # the listings sort decoded rank tuples: within one (k, n) their order is that of `<`
        rng = random.Random(6)
        cs = list(component_of_base(3, 7)) + list(component_of_base(2, 6))
        pool = list(combinations(range(1, 7), 3))
        cs += [WSCollection.of(3, 6, rng.sample(pool, rng.randint(0, 6))) for _ in range(200)]
        rng.shuffle(cs)
        by_ranks = sorted(cs, key=lambda c: (c.k, c.n, c.table.ranks_of(c.bits)))
        assert by_ranks == sorted(cs)

    def test_of_rejects_repeated_member(self):
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            WSCollection.of(2, 4, [(1, 2), (1, 3), (3, 1)])

    def test_ranks_are_lexicographic(self):
        for k, n in [(0, 3), (1, 5), (2, 6), (3, 7), (4, 8), (6, 9)]:
            table = _table(k, n)
            subsets = list(combinations(range(1, n + 1), k))
            assert table.size == len(subsets)
            for r, s in enumerate(subsets):
                assert table.subset[r] == s
                assert table.rank[table.mask[r]] == r
        table = _table(3, 6)
        for m in (0, 1 | 2 | 4, 2 | 4, 2 | 4 | 128, 2 | 4 | 8 | 16):
            assert table.rank[m] == -1

    def test_large_ground_set(self):
        # C(30, 10) ~ 3e7 subsets: only the members are ranked, and the
        # C(30, 10)-bit int is not built until a comparison needs it
        _table.cache_clear()
        sets = [tuple(range(i, i + 10)) for i in range(1, 22, 2)]
        c = WSCollection.of(10, 30, sets)
        assert c.sets == tuple(sets) and len(c) == len(sets)
        assert validate(c).ok
        assert c.to_json_dict()["sets"] == [list(s) for s in sets]
        assert len(_table(10, 30).rank) == len(sets)
        with pytest.raises(AttributeError):
            object.__getattribute__(c, "bits")
        assert tuple(range(1, 11)) in c and (1, 2) not in c
        with pytest.raises(AttributeError):
            object.__getattribute__(c, "bits")
        assert c == WSCollection.of(10, 30, reversed(sets))
        assert hash(c) == hash(WSCollection.of(10, 30, sets))

    def test_membership_forms_no_wide_int(self):
        # an element above n is no member and no mask of it is formed; a
        # collection made by `of` answers from its ranks, with no `bits`
        c = WSCollection.of(3, 10**6, [(1, 2, 3), (999998, 999999, 1000000)])
        base = base_collection(3, 6)
        tracemalloc.start()
        try:
            got = [s in c for s in [(1, 2, 10**8), (1, 2, 3), (999998, 999999, 1000000), (1, 2, 4), (3, 2, 1)]]
            got += [(1, 2, 10**8) in base, (1, 2, 3) in base]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [False, True, True, False, False, False, True]
        assert peak < 1 << 20
        with pytest.raises(AttributeError):
            object.__getattribute__(c, "bits")

    @pytest.mark.parametrize("k, n", [(2, 6), (3, 8), (4, 9)])
    def test_membership_and_size_from_ranks_or_bits(self, k, n):
        # `of` answers from the ranks it keeps, with no `bits`; the same
        # collection built from its `bits` decodes its ranks on first use
        subsets = list(combinations(range(1, n + 1), k))
        sets = subsets[::3]
        table = _table(k, n)
        bits = sum(1 << table.rank[_to_mask(s)] for s in sets)
        made, built = WSCollection.of(k, n, sets), WSCollection(table, bits)
        assert len(made) == len(WSCollection(table, bits)) == len(sets)
        probes = subsets + [s[::-1] for s in sets]  # every member and non-member, and unsorted members
        probes += [(0, *s[1:]) for s in sets] + [(*s[:-1], n + 1) for s in sets]  # out of range
        want = [p in set(sets) for p in probes]
        assert [p in made for p in probes] == want
        assert [p in built for p in probes] == want
        assert len(built) == len(sets)
        with pytest.raises(AttributeError):
            object.__getattribute__(made, "bits")

    def test_element_too_large_for_a_bitmask(self):
        # no int has bit 10**30: such a member is refused by name, and is no member
        n = 10**30
        with pytest.raises(ValueError, match=r"^subset \(1, 2, 10{30}\) has an element above"):
            WSCollection.of(3, n, [(1, 2, 3), (2, 1, n)])
        c = WSCollection.of(3, n, [(1, 2, 3)])
        assert (1, 2, n) not in c and (1, 2, 3) in c

    def test_translate_matches_tuple_image(self):
        for c in component_of_base(3, 6):
            for g in Dihedral.group(6):
                image = tuple(sorted(g.apply_subset(s) for s in c.sets))
                assert translate(c, g).sets == image

    def test_find_moves_matches_tuple_scan(self):
        for k, n in [(2, 6), (3, 6), (4, 7)]:
            for c in sorted(component_of_base(k, n))[:40]:
                members = frozenset(c.sets)
                expected = []
                universe = range(1, n + 1)
                for a in combinations(universe, k - 2):
                    rest = [x for x in universe if x not in a]
                    for i, s, j, t in combinations(rest, 4):
                        sides = [tuple(sorted(a + p)) for p in ((i, s), (s, j), (j, t), (i, t))]
                        if not all(x in members for x in sides):
                            continue
                        ij, st = tuple(sorted(a + (i, j))), tuple(sorted(a + (s, t)))
                        if ij in members:
                            expected.append((a, ij, st))
                        elif st in members:
                            expected.append((a, st, ij))
                got = [(m.anchor, m.removes, m.adds) for m in find_moves(c)]
                assert got == expected
