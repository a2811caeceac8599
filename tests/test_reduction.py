import pytest

from oracles import component_of_base
from wsep import reduction
from wsep.reduction import (
    _f_set,
    _lift,
    _lift_maps,
    _w3_bits,
    f_set,
    generate_w3,
    lift,
    pinch_point,
    project,
    w3_floor,
)
from wsep.wscoll import (
    WSCollection,
    _table,
    base_collection,
    enumerate_component,
    is_maximal,
    validate,
)

BOUNDARY6 = [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 5, 6), (1, 2, 6)]


def short_base6():
    """base(3, 6) without (1,3,4): weakly separated, one member short."""
    return WSCollection.of(3, 6, [s for s in base_collection(3, 6).sets if s != (1, 3, 4)])


def crossing_base6():
    """base(3, 6) with (1,3,4) replaced by (1,3,5), which crosses (1,2,4)."""
    return WSCollection.of(3, 6, short_base6().sets + ((1, 3, 5),))


def worked_example():
    return WSCollection.of(
        3, 6, BOUNDARY6 + [(1, 3, 6), (1, 4, 6), (2, 3, 6), (3, 4, 6)]
    )


class TestFSet:
    def test_worked_example(self):
        C = worked_example()
        assert f_set(C) == {2, 3}

    def test_exclusion_reason(self):
        # 4 fails against the member {2,3,6}: {1,4}-{2,3} does not precede
        from wsep.subsets import precedes

        assert not precedes({1, 4} - {2, 3}, {2, 3} - {1, 4})

    def test_floor(self):
        assert f_set(WSCollection.of(3, 3, [(1, 2, 3)])) == {2}

    def test_never_empty_on_enumerations(self):
        for n in (5, 6, 7):
            for c in component_of_base(3, n):
                assert f_set(c)


class TestLift:
    def test_worked_example_b2(self):
        C2 = lift(worked_example(), 2)
        assert C2.non_boundary() == (
            (1, 2, 6),
            (1, 3, 6),
            (1, 4, 6),
            (1, 5, 6),
            (2, 3, 6),
            (3, 4, 6),
        )

    def test_worked_example_b3(self):
        C3 = lift(worked_example(), 3)
        assert C3.non_boundary() == (
            (1, 3, 6),
            (1, 3, 7),
            (1, 4, 6),
            (1, 5, 6),
            (2, 3, 6),
            (3, 4, 6),
        )

    def test_inadmissible_index_rejected(self):
        with pytest.raises(ValueError):
            lift(worked_example(), 4)

    def test_size_increases_by_three(self):
        for c in sorted(component_of_base(3, 6))[:8]:
            for b in sorted(f_set(c)):
                assert len(lift(c, b)) == len(c) + 3


class TestProjectPinch:
    def test_round_trip_from_worked_example(self):
        C = worked_example()
        C2, C3 = lift(C, 2), lift(C, 3)
        assert pinch_point(C2) == 2 and project(C2) == C
        assert pinch_point(C3) == 3 and project(C3) == C

    def test_project_base(self):
        for n in (5, 6, 7, 8):
            assert project(base_collection(3, n)) == base_collection(3, n - 1)

    def test_pinch_of_base(self):
        for n in (5, 6, 7):
            assert pinch_point(base_collection(3, n)) == 2

    def test_missing_marker_rejected(self):
        lacking = min(c for c in component_of_base(3, 6) if (1, 4, 5) not in c)
        with pytest.raises(ValueError):
            project(lacking)

    def test_requires_k3(self):
        with pytest.raises(ValueError):
            project(base_collection(2, 6))

    def test_double_top_sets_dropped(self):
        C2 = lift(worked_example(), 2)
        n = C2.n
        assert (1, n - 1, n) in C2 and (n - 2, n - 1, n) in C2
        proj = project(C2)
        assert all(n not in s for s in proj.sets)

    def test_bijection_on_all_marked_collections(self):
        for n in (4, 5, 6, 7):
            marker = (1, n - 2, n - 1)
            for c in component_of_base(3, n) if n > 4 else {w3_floor()}:
                if marker not in c:
                    continue
                down = project(c)
                b = pinch_point(c)
                assert b in f_set(down)
                assert lift(down, b) == c


class TestIngress:
    CALLS = [project, pinch_point, f_set, lambda c: lift(c, 2)]

    @pytest.mark.parametrize("call", CALLS)
    def test_crossing_collection_rejected(self, call):
        with pytest.raises(ValueError, match=r"not weakly separated: \(1, 2, 4\) and \(1, 3, 5\)"):
            call(crossing_base6())

    @pytest.mark.parametrize("call", CALLS)
    def test_non_maximal_collection_rejected(self, call):
        with pytest.raises(ValueError, match="not maximal: it has 9 members"):
            call(short_base6())

    def test_trusted_path_matches_public(self):
        # the generator's lift maps every rank of the lower table through a
        # list per index, the public one only the members, through a dict
        table = _table(3, 8)
        maps = _lift_maps(table)
        for c in component_of_base(3, 7):
            assert _f_set(c.table, c.bits, c.ranks()) == f_set(c)
            for b in f_set(c):
                bits, lifted = _lift(table, c.ranks(), maps[b])
                public = lift(c, b)
                assert WSCollection(table, bits) == public
                assert sorted(lifted) == list(public.ranks())

    def test_trusted_lift_certifies_its_output(self, monkeypatch):
        # the generator takes its indices from the trusted `_f_set`; with
        # every index admitted, its crossing rows catch the crossing lifts
        monkeypatch.setattr(reduction, "_f_set", lambda table, bits, ranks: set(range(2, table.n)))
        with pytest.raises(AssertionError, match="lift produced a non-separated collection"):
            _w3_bits(6)

    def test_large_lift_fills_no_row(self):
        # a one-off lift at a large n is certified by the pair loop
        table = _table(3, 31)
        table.crossing.clear()
        c = lift(base_collection(3, 30), 2)
        assert len(c) == 85 and c == base_collection(3, 31)
        assert len(table.crossing) == 0


class TestGenerate:
    def test_counts(self):
        assert len(generate_w3(4)) == 1
        assert len(generate_w3(5)) == 5
        assert len(generate_w3(6)) == 34

    def test_matches_move_graph_at_7(self):
        assert frozenset(generate_w3(7)) == component_of_base(3, 7)

    def test_matches_move_graph_at_8(self):
        # larger cross-check of the two independent generators
        g8 = generate_w3(8)
        assert len(g8) == 2136
        assert frozenset(g8) == component_of_base(3, 8)

    def test_all_outputs_maximal(self):
        for c in generate_w3(6):
            assert validate(c).ok
            assert is_maximal(c)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            generate_w3(3)

    @pytest.mark.parametrize("n", [7.0, "7", None])
    def test_rejects_non_int_n(self, n):
        with pytest.raises(ValueError, match="must be integers"):
            generate_w3(n)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_int_levels_match_move_graph(self, n):
        walked = {c.bits for c in enumerate_component(base_collection(3, n))}
        assert _w3_bits(n) == walked
        assert {(c.k, c.n, c.bits) for c in generate_w3(n)} == {(3, n, b) for b in walked}
