import hashlib
import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import component_of_base, propagate_every_edge, short_plucker_violations
from test_wscoll import random_greedy_maximal
from wsep.positivity import (
    NOT_DETERMINED,
    POSITIVE,
    GrassmannPoint,
    Propagation,
    positivity_test,
    propagate,
    vandermonde_point,
)
from wsep.wscoll import WSCollection, base_collection, boundary_sets

SQUARE = WSCollection.of(2, 4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])


def restricted(values, c):
    return {K: values[K] for K in c.sets}


class TestVandermonde:
    def test_chord_minors(self):
        pv = vandermonde_point([1, 2, 3, 4], 2).plucker_vector()
        assert pv[(1, 3)] == 2 and pv[(2, 4)] == 2
        for (i, j), v in pv.items():
            assert v == j - i

    def test_repeated_nodes_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_point([1, 1, 2], 2)

    def test_non_positive_nodes_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_point([0, 1, 2], 2)

    def test_all_minors_positive_3_6(self):
        pv = vandermonde_point([1, 2, 3, 4, 5, 6], 3).plucker_vector()
        assert len(pv) == 20
        assert all(v > 0 for v in pv.values())

    def test_rational_nodes(self):
        pv = vandermonde_point([Fraction(1, 3), Fraction(1, 2), 2, 3], 2).plucker_vector()
        assert all(v > 0 for v in pv.values())


class TestPropagate:
    def test_square_worked_example(self):
        pv = vandermonde_point([1, 2, 3, 4], 2).plucker_vector()
        res = propagate(SQUARE, restricted(pv, SQUARE))
        assert res.ok
        assert res.values[(2, 4)] == Fraction(1 * 1 + 3 * 1, 2)
        assert res.values == pv

    def test_exact_reconstruction_3_6(self):
        pv = vandermonde_point([1, 2, 3, 5, 7, 11], 3).plucker_vector()
        for c in sorted(component_of_base(3, 6))[:6]:
            res = propagate(c, restricted(pv, c))
            assert res.ok and res.values == pv

    def test_float_mode_tolerance(self):
        exact = vandermonde_point([1, 2, 3, 4, 5, 6, 7], 2)
        pv = GrassmannPoint(tuple(tuple(map(float, r)) for r in exact.rows)).plucker_vector()
        c = base_collection(2, 7)
        res = propagate(c, restricted(pv, c), mode="float")
        assert res.ok
        for K, v in pv.items():
            assert abs(res.values[K] - v) <= 1e-9 * abs(v)

    def test_missing_value_rejected(self):
        vals = {K: Fraction(1) for K in SQUARE.sets if K != (1, 3)}
        with pytest.raises(ValueError):
            propagate(SQUARE, vals)

    def test_zero_value_rejected(self):
        vals = {K: Fraction(1) for K in SQUARE.sets}
        vals[(1, 3)] = Fraction(0)
        with pytest.raises(ValueError):
            propagate(SQUARE, vals)

    def test_k4_rejected(self):
        with pytest.raises(ValueError, match="no value supplied"):
            propagate(base_collection(4, 8), {})

    def test_path_independence_randomized(self):
        # every re-derivation along the move graph must agree: run over many
        # random points and every collection of a small case
        rng = random.Random(17)
        for _ in range(10):
            nodes = sorted(rng.sample(range(1, 60), 5))
            pv = vandermonde_point(nodes, 2).plucker_vector()
            for c in component_of_base(2, 5):
                res = propagate(c, restricted(pv, c))
                assert res.ok and res.values == pv

    def test_propagated_values_satisfy_exchange_everywhere(self):
        vals = {K: Fraction(1) for K in SQUARE.sets}
        res = propagate(SQUARE, vals)
        assert res.ok
        assert short_plucker_violations(res.values, 2, 4) == []


class TestShortPluckerViolations:
    @staticmethod
    def quadruples(k, n):
        """(anchor, i, s, j, t, the six sets of its relation) in order."""
        universe = range(1, n + 1)
        for anchor in combinations(universe, k - 2):
            rest = [x for x in universe if x not in anchor]
            for i, s, j, t in combinations(rest, 4):
                pairs = ((i, j), (s, t), (i, s), (j, t), (i, t), (s, j))
                yield (anchor, i, s, j, t), {tuple(sorted(anchor + p)) for p in pairs}

    def test_one_doubled_value(self):
        pv = vandermonde_point([1, 2, 3, 5, 8, 13, 21], 3).plucker_vector()
        assert short_plucker_violations(pv, 3, 7) == []
        for K in [(1, 2, 3), (2, 4, 6), (3, 5, 7)]:
            vals = dict(pv)
            vals[K] *= 2
            want = [quad for quad, sets in self.quadruples(3, 7) if K in sets]
            assert want
            assert short_plucker_violations(vals, 3, 7) == want
            # a relation with a missing value is skipped
            del vals[K]
            assert short_plucker_violations(vals, 3, 7) == []
            float_vals = {S: float(v) for S, v in pv.items()}
            float_vals[K] *= 1 + 1e-6
            assert short_plucker_violations(float_vals, 3, 7, rel_tol=1e-9) == want
            assert short_plucker_violations(float_vals, 3, 7, rel_tol=1e-3) == []

    def test_non_int_rejected(self):
        # a float k is turned away by name, not by a TypeError from range()
        assert short_plucker_violations({}, 3, 7) == []
        with pytest.raises(ValueError, match="k and n must be integers"):
            short_plucker_violations({}, 3.0, 7)


def assert_agrees_with_every_edge(c, vals, mode="exact", rel_tol=1e-9):
    """`propagate` against the every-edge oracle.  Exact results are equal,
    because the values are unique.  Float results have the same verdict,
    the same keys when they succeed, values within rel_tol, and a failure's
    first witness may name another relation, of the same kind."""
    res = propagate(c, vals, mode=mode, rel_tol=rel_tol)
    want = propagate_every_edge(c, vals, mode=mode, rel_tol=rel_tol)
    if mode == "exact":
        assert (res.ok, res.witness, res.values) == (want.ok, want.witness, want.values)
        assert all(type(v) is Fraction for v in [*res.values.values(), *want.values.values()])
        return res
    assert res.ok == want.ok
    if res.ok:
        assert res.values.keys() == want.values.keys()
        for K, v in want.values.items():
            assert math.isclose(res.values[K], v, rel_tol=rel_tol), K
    else:
        prefix = "inconsistent re-derivation of "
        assert res.witness.startswith(prefix) and want.witness.startswith(prefix)
    return res


class TestEveryEdgeOracle:
    """`propagate` derives each value once and checks each relation once;
    the oracle walks the move graph and evaluates the relation on every
    edge."""

    def test_exact_random_collections(self):
        rng = random.Random(41)
        for k in (2, 3):
            for _ in range(3):
                c = random_greedy_maximal(k, 8, rng)
                vals = {K: Fraction(rng.randint(1, 40), rng.randint(1, 7)) for K in c.sets}
                assert assert_agrees_with_every_edge(c, vals).ok

    def test_float_mode(self):
        rng = random.Random(43)
        exact = vandermonde_point(sorted(rng.sample(range(1, 40), 8)), 3)
        pv = GrassmannPoint(tuple(tuple(map(float, r)) for r in exact.rows)).plucker_vector()
        for _ in range(3):
            c = random_greedy_maximal(3, 8, rng)
            assert assert_agrees_with_every_edge(c, restricted(pv, c), mode="float").ok

    def test_zero_tolerance_witnesses(self):
        rng = random.Random(47)
        collections = [base_collection(3, 8)] + [random_greedy_maximal(3, 8, rng) for _ in range(3)]
        for c in collections:
            vals = {K: 10 ** rng.uniform(0, 10) for K in c.sets}
            assert not assert_agrees_with_every_edge(c, vals, mode="float", rel_tol=0.0).ok

    def test_overflow_witnesses(self):
        # inf does not agree with itself, so a derivation that overflows
        # leaves its relation unchecked, and the check made right after the
        # derivation reports it
        rng = random.Random(53)
        for c in [base_collection(3, 8), random_greedy_maximal(3, 8, rng)]:
            vals = {K: 1e200 if x % 3 == 0 else rng.uniform(1, 10) for x, K in enumerate(c.sets)}
            res = assert_agrees_with_every_edge(c, vals, mode="float")
            assert "inf" in res.witness or "nan" in res.witness


class TestEveryStart:
    """`propagate` from every collection of W(3,7) and from two of W(4,8)
    against the every-edge oracle."""

    @staticmethod
    def starts():
        rng = random.Random(61)
        return sorted(component_of_base(3, 7)) + [
            base_collection(4, 8),
            random_greedy_maximal(4, 8, rng),
        ]

    def test_exact(self):
        rng = random.Random(67)
        for c in self.starts():
            vals = {K: Fraction(rng.randint(1, 40), rng.randint(1, 7)) for K in c.sets}
            assert assert_agrees_with_every_edge(c, vals).ok

    def test_exact_int_values(self):
        # int / int is a float; both sides read each int as its rational
        rng = random.Random(83)
        for c in [*sorted(component_of_base(3, 7))[::60], base_collection(4, 8)]:
            vals = {K: rng.randint(1, 40) for K in c.sets}
            assert assert_agrees_with_every_edge(c, vals).ok

    def test_float(self):
        rng = random.Random(71)
        for c in self.starts():
            vals = {K: rng.uniform(1, 10) for K in c.sets}
            assert assert_agrees_with_every_edge(c, vals, mode="float").ok
            assert not assert_agrees_with_every_edge(c, vals, mode="float", rel_tol=0.0).ok


class TestAnyK:
    def test_vandermonde_4_8_reconstructed(self):
        rng = random.Random(59)
        pv = vandermonde_point([1, 2, 3, 5, 8, 13, 21, 34], 4).plucker_vector()
        for _ in range(2):
            c = random_greedy_maximal(4, 8, rng)
            v = positivity_test(c, restricted(pv, c))
            assert v.verdict == POSITIVE
            assert len(v.values) == 70 and v.values == pv

    def test_vandermonde_5_10_reconstructed(self):
        # the move graph of W(5,10) has millions of states; the relations
        # reach every minor without walking it
        pv = vandermonde_point([1, 2, 3, 5, 8, 13, 21, 34, 55, 89], 5).plucker_vector()
        for c in [base_collection(5, 10), random_greedy_maximal(5, 10, random.Random(73))]:
            v = positivity_test(c, restricted(pv, c))
            assert v.verdict == POSITIVE
            assert len(v.values) == 252 and v.values == pv

    def test_large_rationals_5_10(self):
        # beyond the every-edge oracle's reach; short_plucker_violations
        # checks every relation again with Fraction arithmetic
        rng = random.Random(79)
        for c in [base_collection(5, 10), random_greedy_maximal(5, 10, rng)]:
            vals = {K: Fraction(rng.randint(1, 2**64), rng.randint(1, 2**64)) for K in c.sets}
            v = positivity_test(c, vals)
            assert v.verdict == POSITIVE, v.witness
            assert len(v.values) == 252 and restricted(v.values, c) == vals
            for x in v.values.values():
                assert type(x) is Fraction and math.gcd(x.numerator, x.denominator) == 1
            assert short_plucker_violations(v.values, 5, 10) == []

    def test_inconsistent_witness_text(self, monkeypatch):
        # swapping the ranks of (1, 2) and (2, 3) in the first relation of
        # (2, 6) makes it disagree with the others
        c = base_collection(2, 6)
        quads = list(c.table.quads)
        r_is, r_sj, *rest = quads[0]
        quads[0] = (r_sj, r_is, *rest)
        monkeypatch.setattr(c.table, "quads", tuple(quads))
        res = propagate(c, {K: Fraction(i + 2, i + 1) for i, K in enumerate(c.sets)})
        assert not res.ok
        assert res.witness == "inconsistent re-derivation of (2, 5): 67/16 vs 4121/1008"

    def test_underived_subset_is_internal_error(self, monkeypatch):
        # with no exchange relations nothing reaches (2, 4), the one
        # 2-subset of [1..4] that SQUARE lacks
        monkeypatch.setattr(SQUARE.table, "quads", ())
        with pytest.raises(AssertionError, match=r"derived a value for \(2, 4\)"):
            propagate(SQUARE, {K: 1 for K in SQUARE.sets})


def float_digest(values) -> str:
    """sha256 over one line per value, `K repr(v)`, in subset order."""
    text = "".join(f"{K} {v!r}\n" for K, v in sorted(values.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def ratio_values(c):
    """(r+2)/(r+1) on the r-th member of c, as floats."""
    return {K: float(Fraction(r + 2, r + 1)) for r, K in enumerate(c.sets)}


class TestOrder:
    """Float values depend on the order the relations derive them in, and a
    failure's witness on the order the checks are made in: both pinned."""

    @pytest.mark.parametrize(
        "k, n, digest",
        [
            (4, 9, "9094f02b760183690e37ad1e337fff45e06c79b6a4d70306682278a3cd346cf1"),
            (5, 10, "c1cb277a20c370467d01202aba9060a019957c347cc501dfd512ba873de29e05"),
            (6, 12, "7e6ad088615185720b919a707292c203cadece4043de293f2ee6691f4595faed"),
        ],
    )
    def test_float_values_of_the_base(self, k, n, digest):
        c = base_collection(k, n)
        res = propagate(c, ratio_values(c), mode="float")
        assert res.ok and len(res.values) == math.comb(n, k)
        assert float_digest(res.values) == digest

    def test_float_values_of_a_random_collection(self):
        rng = random.Random(89)
        c = random_greedy_maximal(3, 8, rng)
        res = propagate(c, {K: rng.uniform(1, 10) for K in c.sets}, mode="float")
        assert res.ok and len(res.values) == 56
        assert float_digest(res.values) == (
            "b8f82a60973a7d782432b99f29984c540fd6bdfea235776b108f1ff6e47ae1f7"
        )

    def test_zero_tolerance_witness(self):
        rng = random.Random(97)
        c = random_greedy_maximal(3, 8, rng)
        res = propagate(c, {K: 10 ** rng.uniform(0, 10) for K in c.sets}, mode="float", rel_tol=0.0)
        assert not res.ok and len(res.values) == 56
        assert res.witness == (
            "inconsistent re-derivation of (1, 3, 6): 341.61319648930595 vs 341.61319648930606"
        )

    @pytest.mark.parametrize(
        "k, n, witness",
        [
            (2, 6, "(1, 4): 1.3333333333333333 vs 1.333333333333333"),
            (3, 8, "(1, 3, 8): 7.286237373737374 vs 7.286237373737375"),
        ],
    )
    def test_zero_tolerance_witness_of_the_base(self, k, n, witness):
        # at (2, 6) the least failing relation, 13, is the reverse of the
        # one that derived (3, 5), and is checked right after that derivation
        c = base_collection(k, n)
        res = propagate(c, ratio_values(c), mode="float", rel_tol=0.0)
        assert not res.ok and res.witness == f"inconsistent re-derivation of {witness}"

    def test_overflow_witness_of_the_base(self):
        c = base_collection(2, 6)
        vals = {K: 1e200 if r % 3 == 0 else v for r, (K, v) in enumerate(ratio_values(c).items())}
        res = propagate(c, vals, mode="float")
        assert not res.ok and len(res.values) == 15
        assert res.witness == "inconsistent re-derivation of (2, 4): inf vs inf"

    def test_underflow_to_zero_is_a_known_value(self):
        # products of 1e-200 underflow to 0.0: those values are known, and
        # dividing by one of them is the witness
        c = base_collection(3, 6)
        vals = {K: 1e-200 if r % 2 else 1.0 for r, K in enumerate(c.sets)}
        res = propagate(c, vals, mode="float")
        assert not res.ok and res.witness == "division by zero at (2, 3, 6)"
        assert len(res.values) == 20
        assert sorted(K for K, v in res.values.items() if v == 0.0) == [(2, 3, 6), (2, 4, 6)]

    def test_derivation_by_zero_stops_the_float_closure(self):
        # the values over and under the float range make (1, 3, 5) a known
        # 0.0 before a relation has to divide by it to derive its other
        # diagonal: the closure stops there, with the values it has
        c = base_collection(3, 7)
        vals = {
            (1, 2, 3): 1e-150, (1, 2, 4): 1e150, (1, 2, 5): 1e-250, (1, 2, 6): 1e300,
            (1, 2, 7): 1e-200, (1, 3, 4): 1e-300, (1, 4, 5): 1e-200, (1, 5, 6): 1e200,
            (1, 6, 7): 1e-200, (2, 3, 4): 1e-250, (3, 4, 5): 1e-200, (4, 5, 6): 1e250,
            (5, 6, 7): 1e-300,
        }
        assert set(vals) == set(c.sets)
        res = propagate(c, vals, mode="float")
        assert not res.ok and res.witness == "division by zero at (1, 3, 5)"
        assert res.values[(1, 3, 5)] == 0.0 and len(res.values) < 35

    @pytest.mark.parametrize(
        "mode, witness",
        [
            ("exact", "inconsistent re-derivation of (2, 5): 4121/1008 vs 223/64"),
            ("float", "inconsistent re-derivation of (2, 5): 4.088293650793651 vs 3.484375"),
        ],
    )
    def test_least_failing_relation_is_the_witness(self, monkeypatch, mode, witness):
        # Swap two side ranks in quads 1 and 10 of (2, 6).  From the base
        # neither derives a value, so their checks alone fail; quad 10 is
        # checked in an earlier pass than quad 1.  The witness is quad 1's,
        # the lower relation id, and the closure runs to its end.
        c = base_collection(2, 6)
        vals = {K: Fraction(r + 2, r + 1) for r, K in enumerate(c.sets)}
        clean = propagate(c, vals, mode=mode)
        quads = list(c.table.quads)
        for q in (1, 10):
            r_is, r_sj, *rest = quads[q]
            quads[q] = (r_sj, r_is, *rest)
        monkeypatch.setattr(c.table, "quads", tuple(quads))
        res = propagate(c, vals, mode=mode)
        assert not res.ok and res.witness == witness
        assert len(res.values) == 15 and res.values == clean.values


class TestExactIngress:
    def test_int_values_are_read_as_rationals(self):
        # int / int is a float, whose rounding made a re-derivation of
        # (1, 2, 5) differ from itself in the last place
        c = base_collection(3, 9)
        v = positivity_test(c, {K: 10 ** (3 * i) for i, K in enumerate(c.sets)})
        assert v.verdict == POSITIVE, v.witness
        assert len(v.values) == 84
        assert all(type(x) is Fraction for x in v.values.values())
        assert short_plucker_violations(v.values, 3, 9) == []

    def test_float_value_is_its_exact_rational(self):
        vals = {K: Fraction(1) for K in SQUARE.sets}
        vals[(1, 3)] = 0.1
        res = propagate(SQUARE, vals)
        assert res.ok and res.values[(1, 3)] == Fraction(0.1)
        assert res.values[(2, 4)] == 2 / Fraction(0.1)

    def test_infinite_value_rejected(self):
        vals = {K: Fraction(1) for K in SQUARE.sets}
        vals[(1, 3)] = float("inf")
        with pytest.raises(ValueError, match=r"value for \(1, 3\) is not a rational number"):
            propagate(SQUARE, vals)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("bad", ["2", None, 1 + 0j, True], ids=repr)
    def test_non_number_rejected_before_the_sign_test(self, mode, bad):
        # a str is not parsed, and a bool is not a number
        vals = {K: Fraction(1) for K in SQUARE.sets}
        vals[(1, 3)] = bad
        with pytest.raises(ValueError, match=r"value for \(1, 3\) is not a rational number"):
            propagate(SQUARE, vals, mode=mode)
        with pytest.raises(ValueError, match=r"value for \(1, 3\) is not a rational number"):
            positivity_test(SQUARE, vals, mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize(
        "bad",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            Decimal("NaN"),
            Decimal("sNaN"),
            Decimal("Infinity"),
            Decimal("-Infinity"),
        ],
        ids=repr,
    )
    def test_non_finite_rejected_before_the_sign_test(self, mode, bad):
        # a Decimal NaN signals on comparison, and an inf would reach the
        # closure in float mode
        vals = {K: Fraction(1) for K in SQUARE.sets}
        vals[(1, 3)] = bad
        with pytest.raises(ValueError, match=r"value for \(1, 3\) is not a rational number"):
            propagate(SQUARE, vals, mode=mode)
        with pytest.raises(ValueError, match=r"value for \(1, 3\) is not a rational number"):
            positivity_test(SQUARE, vals, mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_finite_decimal_and_huge_int_accepted(self, mode):
        vals = {K: Fraction(1) for K in SQUARE.sets}
        vals[(1, 3)] = Decimal("0.5")
        vals[(1, 2)] = 10**400 if mode == "exact" else 10**300
        assert propagate(SQUARE, vals, mode=mode).ok


@pytest.mark.parametrize("big", [10**400, Fraction(10**400, 3), Decimal("1e400")], ids=["int", "Fraction", "Decimal"])
def test_float_mode_value_too_large_for_a_float(big):
    c = base_collection(2, 5)
    vals = {K: Fraction(1) for K in c.sets}
    vals[(1, 2)] = big
    for f in (propagate, positivity_test):
        with pytest.raises(ValueError) as caught:
            f(c, vals, mode="float")
        assert str(caught.value) == "value for (1, 2) is too large for float mode"
    assert propagate(c, vals).ok


class FractionSub(Fraction):
    """A `Fraction` subclass, which ingress reads as the `Fraction` it equals."""


# each kind turns a rational with an exact binary expansion (an integer,
# for int) into the value of that type which stands for it
KINDS = {
    "int": int,
    "Fraction": Fraction,
    "Fraction subclass": FractionSub,
    "Decimal": lambda x: Decimal(x.numerator) / Decimal(x.denominator),
    "float": float,
}


class TestIngressParity:
    """A member value of type int, `Fraction`, a `Fraction` subclass,
    `Decimal` or float is read as the number it stands for, in both modes:
    the same values and witness, and the same error for a value that is not
    positive."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_same_values(self, mode, kind):
        c = base_collection(3, 7)
        for halves in (False, True):
            # halves: no int stands for x / 2, so int reads the integer x
            base = {K: Fraction(r + 2, 2 if halves and kind != "int" else 1) for r, K in enumerate(c.sets)}
            want = propagate(c, base, mode=mode)
            res = propagate(c, {K: KINDS[kind](v) for K, v in base.items()}, mode=mode)
            assert res == want and res.ok
            assert all(type(v) is (Fraction if mode == "exact" else float) for v in res.values.values())

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_mixed_kinds(self, mode):
        c = base_collection(3, 7)
        kinds = list(KINDS.values())
        base = {K: Fraction(r + 2) for r, K in enumerate(c.sets)}
        mixed = {K: kinds[r % len(kinds)](v) for r, (K, v) in enumerate(base.items())}
        assert propagate(c, mixed, mode=mode) == propagate(c, base, mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_same_witness(self, monkeypatch, mode, kind):
        # the swapped sides of test_least_failing_relation_is_the_witness
        c = base_collection(2, 6)
        base = {K: Fraction(2 * r + 2) for r, K in enumerate(c.sets)}
        quads = list(c.table.quads)
        r_is, r_sj, *rest = quads[1]
        quads[1] = (r_sj, r_is, *rest)
        monkeypatch.setattr(c.table, "quads", tuple(quads))
        want = propagate(c, base, mode=mode)
        res = propagate(c, {K: KINDS[kind](v) for K, v in base.items()}, mode=mode)
        assert not want.ok and res == want

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize(
        "kind, bad",
        [(kind, bad) for kind in KINDS for bad in (Fraction(0), Fraction(-1), Fraction(-3, 2))
         if kind != "int" or bad.denominator == 1],
        ids=str,
    )
    def test_same_error(self, mode, kind, bad):
        vals = {K: Fraction(1) for K in SQUARE.sets}
        vals[(1, 3)] = KINDS[kind](bad)
        for f in (propagate, positivity_test):
            with pytest.raises(ValueError) as caught:
                f(SQUARE, vals, mode=mode)
            assert str(caught.value) == "value for (1, 3) is not positive"


class TestVerdicts:
    def test_positive_point_verdict(self):
        pv = vandermonde_point([2, 3, 5, 7, 11, 13], 3).plucker_vector()
        c = base_collection(3, 6)
        v = positivity_test(c, restricted(pv, c))
        assert v.verdict == POSITIVE
        assert v.values == pv

    def test_all_ones_square(self):
        v = positivity_test(SQUARE, {K: Fraction(1) for K in SQUARE.sets})
        assert v.verdict == POSITIVE
        assert v.values[(2, 4)] == 2

    def test_arbitrary_positive_values_extend_consistently(self):
        # a maximal collection has size k(n-k)+1, the dimension of the cone,
        # so its values are free coordinates: propagation never clashes
        rng = random.Random(23)
        c = base_collection(2, 6)
        for _ in range(12):
            vals = {K: Fraction(rng.randint(1, 40), rng.randint(1, 7)) for K in c.sets}
            v = positivity_test(c, vals)
            assert v.verdict == POSITIVE
            assert short_plucker_violations(v.values, 2, 6) == []

    def test_zero_tolerance_float_mode_reports_witness(self):
        # re-derivations see rounding noise; with no tolerance the clash is
        # reported instead of silently accepted
        rng = random.Random(31)
        c = base_collection(2, 7)
        hits = 0
        for _ in range(10):
            vals = {K: rng.randint(1, 50) / 7.0 for K in c.sets}
            v = positivity_test(c, vals, mode="float", rel_tol=0.0)
            if v.verdict == NOT_DETERMINED:
                hits += 1
                assert "inconsistent" in v.witness
        assert hits > 0

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_non_positive_value_is_witnessed(self, monkeypatch, mode):
        # propagation keeps positive values positive, so a sign check can
        # only fire on a value patched in after it: zero and a negative
        res = propagate(SQUARE, {K: Fraction(1) for K in SQUARE.sets}, mode=mode)
        for bad in (Fraction(0), Fraction(-1, 3)):
            values = dict(res.values)
            values[(2, 4)] = bad if mode == "exact" else float(bad)
            patched = Propagation(True, values, None)
            monkeypatch.setattr("wsep.positivity.propagate", lambda *a, **kw: patched)
            v = positivity_test(SQUARE, {}, mode=mode)
            assert v.verdict == NOT_DETERMINED and v.witness == "non-positive value at (2, 4)"

    def test_non_maximal_collection_rejected(self):
        # the boundary of Gr(2,5) alone reaches 5 of the 10 coordinates
        boundary = WSCollection.of(2, 5, boundary_sets(2, 5))
        with pytest.raises(ValueError, match="not maximal: it has 5 members.* has 7"):
            positivity_test(boundary, {K: Fraction(1) for K in boundary.sets})

    def test_crossing_collection_rejected(self):
        # right size, but (1,3) and (2,4) cross
        c = WSCollection.of(2, 5, boundary_sets(2, 5) + [(1, 3), (2, 4)])
        with pytest.raises(ValueError, match=r"\(1, 3\) and \(2, 4\) are not weakly separated"):
            positivity_test(c, {K: Fraction(1) for K in c.sets})

    def test_zero_on_collection_is_error(self):
        vals = {K: Fraction(1) for K in SQUARE.sets}
        vals[(1, 2)] = Fraction(0)
        with pytest.raises(ValueError):
            positivity_test(SQUARE, vals)


class TestGrassmannPoint:
    def test_rank_check(self):
        with pytest.raises(ValueError):
            GrassmannPoint(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))

    def test_minor_orientation(self):
        p = GrassmannPoint(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
        assert p.minor((1, 2)) == 1
