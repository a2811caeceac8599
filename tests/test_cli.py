import gc
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import wsep
from oracles import component_of_base, sizes_histogram, weakly_separated_bf
from wsep.cli import main
from wsep.reduction import generate_w3, pinch_point, project
from wsep.subsets import Dihedral
from wsep.wscoll import (
    WSCollection,
    apply_move,
    base_collection,
    dihedral_orbits,
    find_moves,
    translate,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


class TestWsCheck:
    def test_crossing_pair(self, capsys):
        code, out = run(capsys, "ws-check", "--i", "1,3", "--j", "2,4")
        assert json.loads(out) == {"weakly_separated": False}
        assert code == 1

    def test_separated_pair(self, capsys):
        code, out = run(capsys, "ws-check", "--i", "1,2", "--j", "3,4")
        assert json.loads(out) == {"weakly_separated": True}
        assert code == 0

    @pytest.mark.parametrize("text", ["1,,3", "1,a", "1.5", "1,"])
    def test_unreadable_subset_named(self, capsys, text):
        code = main(["ws-check", "--i", text, "--j", "2,4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f'error: subset "{text}" is not a comma-separated list of integers\n'


class TestExponent:
    def test_minor_mode(self, capsys):
        code, out = run(
            capsys, "exponent", "--a", "1", "--b", "1", "--c", "1", "--d", "2",
            "--k", "2", "--m", "2",
        )
        assert json.loads(out) == {"c": 1}
        assert code == 0

    def test_coordinate_mode(self, capsys):
        code, out = run(capsys, "exponent", "--i", "1,2", "--j", "3,4")
        assert json.loads(out) == {"c": 2}
        assert code == 0

    def test_undefined_exponent_exit_code(self, capsys):
        code, out = run(capsys, "exponent", "--i", "1,3", "--j", "2,4")
        assert json.loads(out) == {"c": None}
        assert code == 1

    def test_missing_flags_usage_error(self, capsys):
        code, _ = run(capsys, "exponent", "--a", "1")
        assert code == 2


class TestStieffel:
    def test_example(self, capsys):
        code, out = run(capsys, "stieffel", "--a", "1", "--b", "2", "--k", "2", "--m", "2")
        assert json.loads(out) == {"s": [1, 4]}
        assert code == 0


def library_listing(argv: str) -> str:
    """The stdout of a full listing, built from collection objects: sorted
    with `<`, one `json_text` line each, orbits by `dihedral_orbits` and
    sizes by `len`."""
    verb, *dims = argv.split()[::2]
    if verb == "gen-w3":
        cs = sorted(generate_w3(int(dims[0])))
        lines, summary = [c.json_text() for c in cs], {"count": len(cs)}
    else:
        cs = sorted(component_of_base(*map(int, dims)))
        orbits = dihedral_orbits(cs)
        summary = {"count": len(cs), "orbit_count": len(orbits)}
        if verb == "orbits":
            lines = ['{"representative": %s, "size": %d}' % (o[0].json_text(), len(o)) for o in orbits]
        else:
            lines = [c.json_text() for c in cs]
            summary["sizes_histogram"] = {str(size): v for size, v in sizes_histogram(cs).items()}
    return "".join(line + "\n" for line in lines) + json.dumps(summary, sort_keys=True) + "\n"


def no_collection(*args):
    raise RuntimeError("a WSCollection was built")


LISTINGS = [f"enumerate --k 2 --n {n}" for n in range(4, 9)]
LISTINGS += [f"enumerate --k 3 --n {n}" for n in (6, 7, 8)] + ["enumerate --k 4 --n 7", "enumerate --k 4 --n 8"]
LISTINGS += [f"gen-w3 --n {n}" for n in range(5, 9)]
LISTINGS += ["orbits --k 2 --n 8", "orbits --k 3 --n 8", "orbits --k 4 --n 8"]


class TestEnumerate:
    def test_count_only(self, capsys, monkeypatch):
        # counting builds no WSCollection per state: only the seed, built first
        base_collection(3, 6)
        monkeypatch.setattr(WSCollection, "__init__", no_collection)
        code, out = run(capsys, "enumerate", "--k", "3", "--n", "6", "--count-only")
        assert json.loads(out) == {"count": 34}
        assert code == 0

    @pytest.mark.parametrize("argv", LISTINGS)
    def test_listing_matches_collection_objects(self, capsys, argv):
        assert run(capsys, *argv.split()) == (0, library_listing(argv))

    @pytest.mark.parametrize("argv", ["enumerate --k 3 --n 7", "orbits --k 4 --n 7", "gen-w3 --n 7"])
    def test_full_listing_builds_no_collection_per_state(self, capsys, monkeypatch, argv):
        expected = library_listing(argv)  # builds the seed too
        monkeypatch.setattr(WSCollection, "__init__", no_collection)
        assert run(capsys, *argv.split()) == (0, expected)

    def test_full_listing_with_summary(self, capsys):
        code, out = run(capsys, "enumerate", "--k", "2", "--n", "4")
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 3
        summary = lines[-1]
        assert summary["count"] == 2
        assert summary["orbit_count"] == 1
        assert summary["sizes_histogram"] == {"5": 2}

    def test_deterministic_output(self, capsys):
        _, out1 = run(capsys, "enumerate", "--k", "2", "--n", "5")
        _, out2 = run(capsys, "enumerate", "--k", "2", "--n", "5")
        assert out1 == out2


class TestOrbits:
    def test_w36(self, capsys):
        code, out = run(capsys, "orbits", "--k", "3", "--n", "6")
        assert last_json(out) == {"count": 34, "orbit_count": 5}
        assert code == 0


class TestReduceBase:
    def test_round_trip(self, capsys, tmp_path):
        import wsep.wscoll as wscoll
        from wsep.subsets import Dihedral

        c = wscoll.translate(base_collection(3, 6), Dihedral(6, 2))
        f = tmp_path / "c.json"
        f.write_text(json.dumps(c.to_json_dict()))
        code, out = run(capsys, "reduce-base", "--file", str(f))
        payload = json.loads(out)
        assert code == 0
        assert payload["end"] == base_collection(3, 6).to_json_dict()
        assert payload["length"] == len(payload["moves"])

    def test_prints_the_path_without_building_a_move(self, capsys, tmp_path, monkeypatch):
        import wsep.wscoll as wscoll

        real, calls = wscoll.Move.__init__, []

        def counted(mv, *args):
            calls.append(args)
            real(mv, *args)

        c = translate(base_collection(3, 8), Dihedral(8, 3, True))
        f = tmp_path / "c.json"
        f.write_text(json.dumps(c.to_json_dict()))
        monkeypatch.setattr(wscoll.Move, "__init__", counted)
        code, out = run(capsys, "reduce-base", "--file", str(f))
        assert (code, calls) == (0, [])
        red = wscoll.reduce_to_base(c)
        assert calls == []
        assert out == json.dumps(red.to_json_dict(), sort_keys=True) + "\n"
        assert len(calls) == red.to_json_dict()["length"] > 0

    def test_a_path_failing_its_certification_exits_3(self, capsys, tmp_path, monkeypatch):
        import wsep.wscoll as wscoll

        real = wscoll._moves_to_base

        def one_move_dropped(c):
            # a move whose added diagonal is a side of the next move
            path = real(c)
            x = next(x for x in range(len(path) - 1) if path[x][1] in wscoll._sides(*path[x + 1]))
            return path[:x] + path[x + 1:]

        c = translate(base_collection(3, 8), Dihedral(8, 3, True))
        f = tmp_path / "c.json"
        f.write_text(json.dumps(c.to_json_dict()))
        monkeypatch.setattr(wscoll, "_moves_to_base", one_move_dropped)
        code = main(["reduce-base", "--file", str(f)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("internal assertion failed: reduction move ")

    def test_a_construction_fault_exits_3(self, capsys, tmp_path, monkeypatch):
        import wsep.wscoll as wscoll

        c = translate(base_collection(3, 8), Dihedral(8, 3, True))
        f = tmp_path / "c.json"
        f.write_text(json.dumps(c.to_json_dict()))
        # the witness searches an empty level collection, which holds no translate of the marker
        real = wscoll._witness
        monkeypatch.setattr(wscoll, "_witness", lambda table, bits, m, p: real(table, 0, m, p))
        code = main(["reduce-base", "--file", str(f)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        want = "internal assertion failed: no dihedral translate contains the near-boundary marker\n"
        assert captured.err == want

    def test_a_pinch_fault_exits_3(self, capsys, tmp_path, monkeypatch):
        import wsep.wscoll as wscoll

        c = translate(base_collection(3, 8), Dihedral(8, 3, True))
        f = tmp_path / "c.json"
        f.write_text(json.dumps(c.to_json_dict()))
        # the identity witness leaves the level without its marker, which
        # the pinch step finds; that is a fault of the reduction, not of the input
        monkeypatch.setattr(wscoll, "_witness", lambda table, bits, m, p: (0, False))
        code = main(["reduce-base", "--file", str(f)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == "internal assertion failed: pinch at level 8: collection lacks {1,6,7}\n"

    @pytest.mark.parametrize("k, n", [(3, 3), (2, 2)])
    def test_k_not_below_n_usage_error(self, capsys, tmp_path, k, n):
        # maximal by size, so only the check of k < n can reject it
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"k": k, "n": n, "sets": [list(range(1, n + 1))]}))
        code = main(["reduce-base", "--file", str(f)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: reduction needs k < n, got k={k} and n={n}\n"


class TestReduceBaseIngress:
    """`reduce-base` on random input: a maximal collection, a random
    translate of the base followed by a random walk of moves, returns 0 with
    a path that ends on the base; the same file with one mutation returns 2
    with exactly one `error:` line, unless the mutation yields another
    maximal collection, which must return 0 in the same way.  No input exits
    1 or 3, and none raises."""

    @staticmethod
    def maximal(d) -> bool:
        """Whether the file d holds a maximal collection with k in {2, 3}
        and k < n: k(n-k)+1 distinct k-subsets of [1..n], pairwise weakly
        separated by the brute-force oracle, which is maximal by purity."""
        k, n, sets = d["k"], d["n"], d["sets"]
        if k not in (2, 3) or not k < n:
            return False
        members = {tuple(sorted(s)) for s in sets}
        ground = set(range(1, n + 1))
        if len(members) != len(sets) or not all(len(set(t)) == k and set(t) <= ground for t in members):
            return False
        return len(members) == k * (n - k) + 1 and all(weakly_separated_bf(a, b) for a, b in combinations(members, 2))

    @settings(max_examples=150)
    @given(st.data())
    def test_exit_codes(self, data):
        k = data.draw(st.sampled_from((2, 3)), label="k")
        n = data.draw(st.integers(k + 2, 10 if k == 2 else 9), label="n")
        g = Dihedral(n, data.draw(st.integers(0, n - 1)), data.draw(st.booleans()))
        c = translate(base_collection(k, n), g)
        for pick in data.draw(st.lists(st.integers(0, 99), max_size=12), label="walk"):
            moves = find_moves(c)
            c = apply_move(c, moves[pick % len(moves)])
        d = c.to_json_dict()
        sets = d["sets"]
        mutation = data.draw(st.sampled_from(("none", "drop", "add", "replace", "k", "n")), label="mutation")
        if mutation == "drop":
            sets.pop(data.draw(st.integers(0, len(sets) - 1)))
        elif mutation == "add":
            sets.append(data.draw(st.lists(st.integers(-1, n + 1), min_size=k - 1, max_size=k + 1)))
        elif mutation == "replace":
            member = sets[data.draw(st.integers(0, len(sets) - 1))]
            member[data.draw(st.integers(0, k - 1))] = data.draw(st.integers(-1, n + 1))
        elif mutation != "none":
            d[mutation] += data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(d))), redirect_stdout(out), redirect_stderr(err):
            code = main(["reduce-base", "--file", "-"])
        if not self.maximal(d):
            assert (code, out.getvalue()) == (2, "")
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            return
        assert (code, err.getvalue()) == (0, "")
        rec = json.loads(out.getvalue())
        base = base_collection(d["k"], d["n"])
        assert rec["end"] == base.to_json_dict() and rec["length"] == len(rec["moves"])
        members = {tuple(sorted(s)) for s in d["sets"]}
        for mv in rec["moves"]:
            removes, adds = tuple(mv["removes"]), tuple(mv["adds"])
            assert removes in members and adds not in members
            members = members - {removes} | {adds}
        assert members == set(base.sets)


DEEP = "[" * 100000 + "]" * 100000


def call(argv):
    """main(argv) with stdout and stderr captured: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    """Exit 1 is a computed verdict and nothing else: JSON too deeply nested
    to decode is a usage error naming its file, and any other exception
    that escapes a verb exits 3 with one stderr line."""

    @staticmethod
    def files(tmp_path):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(base_collection(3, 6).to_json_dict()))
        vf = tmp_path / "v.json"
        vf.write_text(json.dumps({json.dumps(list(s)): "1" for s in base_collection(3, 6).sets}))
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP)
        return cf, vf, deep

    def test_deep_file(self, tmp_path):
        cf, vf, deep = self.files(tmp_path)
        for argv in [
            ["validate", "--file", str(deep)],
            ["reduce-base", "--file", str(deep)],
            ["lift", "--file", str(deep), "--b", "2"],
            ["reduce", "--file", str(deep)],
            ["positivity", "--collection", str(deep), "--values", str(vf)],
            ["positivity", "--collection", str(cf), "--values", str(deep)],
            ["positivity", "--mode", "float", "--collection", str(cf), "--values", str(deep)],
        ]:
            message = f"error: the JSON of {deep} is nested too deeply to decode\n"
            assert call(argv) == (2, "", message), argv

    def test_deep_file_on_stdin(self):
        with mock.patch.object(sys, "stdin", io.StringIO(DEEP)):
            assert call(["validate", "--file", "-"]) == (2, "", "error: the JSON of - is nested too deeply to decode\n")

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_deep_value_key(self, tmp_path, mode):
        cf, vf, _ = self.files(tmp_path)
        values = json.loads(vf.read_text())
        values[DEEP] = "1"
        vf.write_text(json.dumps(values))
        argv = ["positivity", "--mode", mode, "--collection", str(cf), "--values", str(vf)]
        assert call(argv) == (2, "", f"error: a value key of {vf} is nested too deeply to decode\n")

    def test_escaping_exception_exits_3(self, tmp_path, monkeypatch):
        from wsep import cli

        cf, _, _ = self.files(tmp_path)

        def raising(c):
            raise TypeError("unexpected\nfault")

        monkeypatch.setattr(cli, "validate", raising)
        code, out, err = call(["validate", "--file", str(cf)])
        assert (code, out) == (3, "")
        assert err == "internal error: TypeError('unexpected\\nfault')\n"


class TestFileIngress:
    """`validate`, `positivity` (exact and float mode, with its values file),
    `lift` and `reduce` on random files: a maximal collection (a random
    translate of the base followed by a random walk of moves) with member
    values, and then at most one mutation of the collection file or of the
    values file, nesting in a few thousand brackets among them.  `main`
    returns 0, 1 or 2 and raises nothing; 2 prints nothing on stdout and
    exactly one `error:` line; 0 and 1 print one JSON line and nothing on
    stderr; 1 comes only from `validate` and `positivity`."""

    VERBS = ("validate", "positivity-exact", "positivity-float", "lift", "reduce")
    COLLECTION = ("none", "drop", "add", "replace", "member", "k", "n", "nest")
    VALUES = ("drop", "extra", "value", "nest", "nest-key")

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_exit_codes(self, tmp_path_factory, data):
        verb = data.draw(st.sampled_from(self.VERBS), label="verb")
        k = 3 if verb in ("lift", "reduce") else data.draw(st.sampled_from((2, 3)), label="k")
        n = data.draw(st.integers(k + 1, 8), label="n")
        c = translate(base_collection(k, n), Dihedral(n, data.draw(st.integers(0, n - 1)), data.draw(st.booleans())))
        for pick in data.draw(st.lists(st.integers(0, 99), max_size=8), label="walk"):
            moves = find_moves(c)
            if moves:
                c = apply_move(c, moves[pick % len(moves)])
        d = c.to_json_dict()
        sets = d["sets"]
        values = {json.dumps(s): str(data.draw(st.fractions(min_value=1, max_value=100))) for s in sets}
        mutations = self.COLLECTION + (self.VALUES if verb.startswith("positivity") else ())
        mutation = data.draw(st.sampled_from(mutations), label="mutation")
        depth = data.draw(st.integers(1000, 5000), label="depth")
        if mutation == "drop":
            sets.pop(data.draw(st.integers(0, len(sets) - 1)))
        elif mutation == "add":
            sets.append(data.draw(st.lists(st.integers(-1, n + 1), min_size=k - 1, max_size=k + 1)))
        elif mutation == "replace":
            member = sets[data.draw(st.integers(0, len(sets) - 1))]
            member[data.draw(st.integers(0, k - 1))] = data.draw(st.integers(-1, n + 1))
        elif mutation == "member":
            sets[data.draw(st.integers(0, len(sets) - 1))] = data.draw(st.sampled_from((None, 1, "x", True, [1.5])))
        elif mutation in ("k", "n"):
            d[mutation] += data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        elif mutation in self.VALUES and mutation != "nest":
            keys = sorted(values)
            key = keys[data.draw(st.integers(0, len(keys) - 1))]
            if mutation == "drop":
                del values[key]
            elif mutation == "extra":
                values[data.draw(st.sampled_from(("[1]", "[0, 1, 2]", "x", "[true, 2]", "[2, 1, 3]")))] = "1"
            elif mutation == "value":
                values[key] = data.draw(st.sampled_from(("0", "-1", "x", "1/0", True, None, [1], 1e300, "1e400")))
            else:
                values["[" * depth + key + "]" * depth] = values.pop(key)
        texts = {"c": json.dumps(d), "v": json.dumps(values)}
        if mutation == "nest":
            which = "v" if verb.startswith("positivity") and data.draw(st.booleans()) else "c"
            texts[which] = "[" * depth + texts[which] + "]" * depth
        directory = tmp_path_factory.mktemp("ingress")
        for name, text in texts.items():
            (directory / f"{name}.json").write_text(text)
        cf, vf = str(directory / "c.json"), str(directory / "v.json")
        if verb == "validate":
            argv = ["validate", "--file", cf]
        elif verb == "lift":
            argv = ["lift", "--file", cf, "--b", str(data.draw(st.integers(-1, n + 1)))]
        elif verb == "reduce":
            argv = ["reduce", "--file", cf]
        else:
            argv = ["positivity", "--mode", verb.split("-")[1], "--collection", cf, "--values", vf]
        code, out, err = call(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            return
        assert err == "" and out.count("\n") == 1 and json.loads(out)
        assert code == 0 or verb in ("validate", "positivity-exact", "positivity-float")
        if mutation == "none":
            assert code == 0


class TestWiring:
    def test_chambers_and_collection(self, capsys):
        code, out = run(
            capsys, "wiring", "--word", "2 1r 1 2 3 2r 2 1 4 1r 3 2 1",
            "--k", "3", "--m", "5", "--chambers", "--collection",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["valid"] and payload["optimal"]
        assert len(payload["chambers"]) == 15
        assert payload["collection"]["n"] == 8

    def test_collection_of_large_ground_set(self, capsys):
        # C(19, 9) = 92378 subsets of which only the 91 members are used
        def longest(size, suffix):
            return [f"{j}{suffix}" for i in range(1, size) for j in range(i, 0, -1)]

        word = " ".join(longest(10, "") + longest(9, "r"))
        code, out = run(capsys, "wiring", "--word", word, "--k", "9", "--m", "10", "--collection")
        payload = json.loads(out)
        assert code == 0 and payload["optimal"]
        assert len(payload["collection"]["sets"]) == 9 * 10 + 1

    def test_invalid_word(self, capsys):
        code, out = run(capsys, "wiring", "--word", "1 1 1", "--k", "2", "--m", "2")
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_word_file(self, capsys, tmp_path):
        f = tmp_path / "words.txt"
        f.write_text("2 1r 1 2 3 2r 2 1 4 1r 3 2 1\n1 1\n")
        code, out = run(capsys, "wiring", "--word-file", str(f), "--k", "3", "--m", "5")
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert [l["valid"] for l in lines] == [True, False]
        assert code == 1

    @pytest.mark.parametrize("word, k, m", [("1r", 2, 1), ("1", -1, 2), ("1r", -1, 2), ("1 2 1", 4, 3)])
    def test_k_out_of_range(self, capsys, tmp_path, word, k, m):
        want = f"error: need 0 <= k <= m, got k={k} and m={m}\n"
        argv = ["--k", str(k), "--m", str(m), "--chambers", "--collection"]
        assert main(["wiring", "--word", word, *argv]) == 2
        assert capsys.readouterr() == ("", want)
        f = tmp_path / "words.txt"
        f.write_text(word + "\n")
        assert main(["wiring", "--word-file", str(f), *argv]) == 2
        assert capsys.readouterr() == ("", want)

    @pytest.mark.parametrize(
        "word, token",
        [("2 x 1", "x"), ("2 1.5r 1", "1.5r"), ("1 r", "r"), ("-1 2", "-1"), ("2 1_0", "1_0")],
    )
    def test_letter_not_an_int_names_it_and_the_word(self, capsys, tmp_path, word, token):
        want = f'error: letter "{token}" of word "{word}" is not an integer with an optional "r"\n'
        argv = ["--k", "2", "--m", "3"]
        assert main(["wiring", "--word", word, *argv]) == 2
        assert capsys.readouterr() == ("", want)
        f = tmp_path / "words.txt"
        f.write_text("1 2 1r 1\n" + word + "\n")
        assert main(["wiring", "--word-file", str(f), *argv]) == 2
        assert capsys.readouterr() == ("", want)

    @pytest.mark.parametrize("word, token", [("2 0 1", "0"), ("1 0r", "0r"), ("00", "00")])
    def test_letter_zero_names_it_and_the_word(self, capsys, tmp_path, word, token):
        want = f'error: letter "{token}" of word "{word}" is 0; letter indices are 1-based\n'
        argv = ["--k", "2", "--m", "3"]
        assert main(["wiring", "--word", word, *argv]) == 2
        assert capsys.readouterr() == ("", want)
        f = tmp_path / "words.txt"
        f.write_text("1 2 1r 1\n" + word + "\n")
        assert main(["wiring", "--word-file", str(f), *argv]) == 2
        assert capsys.readouterr() == ("", want)

    def test_k_zero(self, capsys):
        code, out = run(capsys, "wiring", "--word", "1 2 1", "--k", "0", "--m", "3", "--collection")
        assert code == 0
        assert json.loads(out)["collection"] == {"k": 0, "n": 3, "sets": [[]]}


class TestReductionVerbs:
    def test_reduce_and_lift_round_trip(self, capsys, tmp_path):
        c = base_collection(3, 6)
        f = tmp_path / "c.json"
        f.write_text(json.dumps(c.to_json_dict()))
        code, out = run(capsys, "reduce", "--file", str(f))
        payload = json.loads(out)
        assert code == 0
        assert payload["pinch_point"] == 2
        g = tmp_path / "b.json"
        g.write_text(json.dumps(payload["projection"]))
        code, out = run(capsys, "lift", "--file", str(g), "--b", "2")
        assert code == 0
        assert json.loads(out) == c.to_json_dict()

    def test_reduce_checks_its_input_once(self, capsys, tmp_path, monkeypatch):
        real, calls = wsep.reduction.require_maximal, []

        def counted(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(wsep.reduction, "require_maximal", counted)
        monkeypatch.setattr(wsep.wscoll, "require_maximal", counted)
        c = translate(base_collection(3, 8), Dihedral(8, 5))  # pinch point 6
        f = tmp_path / "c.json"
        f.write_text(json.dumps(c.to_json_dict()))
        code, out = run(capsys, "reduce", "--file", str(f))
        assert (code, len(calls)) == (0, 1)
        expected = {"projection": project(c).to_json_dict(), "pinch_point": pinch_point(c)}
        assert json.loads(out) == expected

    @staticmethod
    def usage_error(capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: the collection is {message}"]

    def test_crossing_collection_usage_error(self, capsys, tmp_path):
        # (1,3,5) in place of (1,3,4) crosses (1,2,4)
        sets = [s for s in base_collection(3, 6).sets if s != (1, 3, 4)] + [(1, 3, 5)]
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"k": 3, "n": 6, "sets": sets}))
        message = "not weakly separated: (1, 2, 4) and (1, 3, 5) are not weakly separated"
        self.usage_error(capsys, ["reduce", "--file", str(f)], message)
        self.usage_error(capsys, ["lift", "--file", str(f), "--b", "2"], message)

    def test_non_maximal_collection_usage_error(self, capsys, tmp_path):
        sets = [s for s in base_collection(3, 6).sets if s != (1, 3, 4)]
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"k": 3, "n": 6, "sets": sets}))
        message = (
            "not maximal: it has 9 members, "
            "a maximal collection of 3-subsets of [1..6] has 10"
        )
        self.usage_error(capsys, ["reduce", "--file", str(f)], message)
        self.usage_error(capsys, ["lift", "--file", str(f), "--b", "2"], message)

    def test_gen_w3_count(self, capsys):
        code, out = run(capsys, "gen-w3", "--n", "6", "--count-only")
        assert json.loads(out) == {"count": 34}


class TestPositivity:
    def test_positive_point(self, capsys, tmp_path):
        from wsep.positivity import vandermonde_point

        c = base_collection(2, 5)
        pv = vandermonde_point([1, 2, 3, 4, 5], 2).plucker_vector()
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(c.to_json_dict()))
        vf = tmp_path / "v.json"
        vf.write_text(
            json.dumps(
                {
                    json.dumps(list(K), separators=(",", ":")): str(pv[K])
                    for K in c.sets
                }
            )
        )
        code, out = run(
            capsys, "positivity", "--collection", str(cf), "--values", str(vf)
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "POSITIVE"
        assert payload["values"]["[2,4]"] == "2"

    def test_k4_positive_point(self, capsys, tmp_path):
        from wsep.positivity import vandermonde_point

        c = base_collection(4, 8)
        pv = vandermonde_point([1, 2, 3, 4, 5, 6, 7, 8], 4).plucker_vector()
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(c.to_json_dict()))
        vf = tmp_path / "v.json"
        vf.write_text(json.dumps({json.dumps(list(K)): str(pv[K]) for K in c.sets}))
        code, out = run(capsys, "positivity", "--collection", str(cf), "--values", str(vf))
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "POSITIVE"
        assert len(payload["values"]) == 70

    def test_zero_value_usage_error(self, capsys, tmp_path):
        c = base_collection(2, 4)
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(c.to_json_dict()))
        vf = tmp_path / "v.json"
        vals = {json.dumps(list(K), separators=(",", ":")): "1" for K in c.sets}
        vals["[1,3]"] = "0"
        vf.write_text(json.dumps(vals))
        code, _ = run(capsys, "positivity", "--collection", str(cf), "--values", str(vf))
        assert code == 2


    def test_non_maximal_collection_usage_error(self, capsys, tmp_path):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps({"k": 2, "n": 5, "sets": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}))
        vf = tmp_path / "v.json"
        vf.write_text(json.dumps({"[1,2]": "1", "[2,3]": "1", "[3,4]": "1", "[4,5]": "1", "[1,5]": "1"}))
        code = main(["positivity", "--collection", str(cf), "--values", str(vf)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: the collection is not maximal")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("n", [10**6, 10**30])
    def test_huge_n_is_not_maximal(self, capsys, tmp_path, n):
        # the member ranks reach C(n, 3); testing the value keys for
        # membership must not build the collection's int of that many bits
        sets = [[1, 2, 3], [999998, 999999, 1000000]]
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps({"k": 3, "n": n, "sets": sets}))
        vf = tmp_path / "v.json"
        vf.write_text(json.dumps({json.dumps(s): "1" for s in sets}))
        code = main(["positivity", "--collection", str(cf), "--values", str(vf)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: the collection is not maximal")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("key", ["[2,4,5]", "[5,4,2]", "[1,2]", "[1,2,3,4]"])
    def test_non_member_value_key_usage_error(self, capsys, tmp_path, key):
        # [2,4,5] is derived as 2 from these values; a key of the wrong size
        # names no member either
        c = base_collection(3, 5)
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(c.to_json_dict()))
        vf = tmp_path / "v.json"
        vals = {json.dumps(list(K)): "1" for K in c.sets}
        vf.write_text(json.dumps({**vals, key: "-7"}))
        code = main(["positivity", "--collection", str(cf), "--values", str(vf)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        name = sorted(json.loads(key))
        assert captured.err == f"error: value key {name} is not a member of the collection\n"

    def write_square(self, tmp_path, vals):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(base_collection(2, 4).to_json_dict()))
        vf = tmp_path / "v.json"
        vf.write_text(json.dumps(vals))
        return str(cf), str(vf)

    def test_value_keys_are_canonicalised(self, capsys, tmp_path):
        vals = {"[2,1]": "1", "[2,3]": "1", "[3,4]": "1", "[1,4]": "1", "[1,3]": "1"}
        cf, vf = self.write_square(tmp_path, vals)
        code, out = run(capsys, "positivity", "--collection", cf, "--values", vf)
        assert code == 0
        assert json.loads(out)["values"]["[1,2]"] == "1"

    def test_colliding_value_keys_usage_error(self, capsys, tmp_path):
        vals = {"[1,2]": "1", "[2,1]": "2", "[2,3]": "1", "[3,4]": "1", "[1,4]": "1", "[1,3]": "1"}
        cf, vf = self.write_square(tmp_path, vals)
        code = main(["positivity", "--collection", cf, "--values", vf])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "(1, 2)" in captured.err


class TestOracleVerify:
    def test_small_suite_passes(self, capsys):
        code, out = run(capsys, "oracle-verify", "--suite", "small")
        payload = json.loads(out)
        assert code == 0
        assert payload["fail"] == 0
        assert payload["pass"] >= 9


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_validate_verb(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"k": 2, "n": 4, "sets": [[1, 3], [2, 4]]}))
        code, out = run(capsys, "validate", "--file", str(f))
        assert code == 1
        assert not json.loads(out)["ok"]

    def test_duplicate_member_rejected(self, capsys, tmp_path):
        f = tmp_path / "dup.json"
        sets = [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3], [1, 3]]
        f.write_text(json.dumps({"k": 2, "n": 4, "sets": sets}))
        code = main(["validate", "--file", str(f)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "(1, 3)" in captured.err


class TestParserReuse:
    ARGVS = [
        ["ws-check", "--i", "1,3", "--j", "2,4"],
        ["enumerate", "--k", "2", "--n", "5", "--count-only"],
        ["no-such-command"],
        ["exponent", "--i", "1,2"],
        ["--help"],
        ["gen-w3", "--help"],
        ["enumerate", "--k", "3"],
        ["gen-w3", "--n", "6", "--count-only"],
        ["ws-check", "--i", "1,2", "--j", "3,4"],
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_one_parser_serves_every_call(self, capsys):
        from wsep import cli

        cli._parser.cache_clear()
        shared = [self.call(capsys, argv) for argv in self.ARGVS]
        assert cli._parser.cache_info().misses == 1
        fresh = []
        for argv in self.ARGVS:
            cli._parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert codes == [1, 0, ("SystemExit", 2), 2, ("SystemExit", 0), ("SystemExit", 0),
                         ("SystemExit", 2), 0, 0]


class TestMalformedFiles:
    def usage_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "text", ['{"k":2,"n":4,"sets":[1,2]}', '{"k":2,"n":4}', "[1,2]"]
    )
    def test_collection_file(self, capsys, tmp_path, text):
        f = tmp_path / "c.json"
        f.write_text(text)
        self.usage_error(capsys, ["validate", "--file", str(f)])

    @pytest.mark.parametrize("text", ['{"1": "2"}', '{"[1]": [2]}', '["x"]', '{"[1,2]": "1/0"}'])
    def test_values_file(self, capsys, tmp_path, text):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(base_collection(2, 4).to_json_dict()))
        vf = tmp_path / "v.json"
        vf.write_text(text)
        self.usage_error(capsys, ["positivity", "--collection", str(cf), "--values", str(vf)])


class TestBooleanIngress:
    """JSON `true` is not the integer 1, and `--m 0` is not a missing --m."""

    @staticmethod
    def one_error(capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        lines = captured.err.splitlines()
        assert len(lines) == 1
        return lines[0]

    def test_true_for_one_in_sets(self, capsys, tmp_path):
        f = tmp_path / "c.json"
        text = json.dumps(base_collection(3, 6).to_json_dict())
        f.write_text(text.replace("[1,", "[true,"))
        for verb in ("validate", "reduce-base", "reduce"):
            line = self.one_error(capsys, [verb, "--file", str(f)])
            assert line == 'error: "sets" must be a list of lists of integers'

    @pytest.mark.parametrize("key", ["k", "n"])
    def test_true_for_k_or_n(self, capsys, tmp_path, key):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({**base_collection(3, 6).to_json_dict(), key: True}))
        line = self.one_error(capsys, ["validate", "--file", str(f)])
        assert line == f'error: "{key}" must be an integer, got true'

    def positivity(self, capsys, tmp_path, vals, *mode):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(base_collection(3, 6).to_json_dict()))
        vf = tmp_path / "v.json"
        vf.write_text(json.dumps(vals))
        argv = ["positivity", "--collection", str(cf), "--values", str(vf), *mode]
        return self.one_error(capsys, argv)

    @staticmethod
    def ones():
        return {json.dumps(list(s)): 1 for s in base_collection(3, 6).sets}

    def test_true_as_value(self, capsys, tmp_path):
        vals = {**self.ones(), "[1, 2, 3]": True}
        line = self.positivity(capsys, tmp_path, vals)
        assert line == "error: value true of key '[1, 2, 3]' is not a rational number"

    def test_true_in_value_key(self, capsys, tmp_path):
        vals = self.ones()
        vals["[true, 2, 3]"] = vals.pop("[1, 2, 3]")
        line = self.positivity(capsys, tmp_path, vals)
        assert line == "error: value key '[true, 2, 3]' is not a JSON array of integers"

    @pytest.mark.parametrize("key", ["[1, 2", "abc"])
    def test_value_key_not_json(self, capsys, tmp_path, key):
        vals = self.ones()
        vals[key] = vals.pop("[1, 2, 3]")
        line = self.positivity(capsys, tmp_path, vals)
        assert line == f"error: value key {key!r} is not a JSON array of integers"

    def test_float_overflow(self, capsys, tmp_path):
        vals = {**self.ones(), "[1, 2, 4]": "1e400"}
        line = self.positivity(capsys, tmp_path, vals, "--mode", "float")
        assert line == "error: value of key [1, 2, 4] is too large for float mode"
        # exact mode takes the same value
        cf, vf = str(tmp_path / "c.json"), str(tmp_path / "v.json")
        code, _ = run(capsys, "positivity", "--collection", cf, "--values", vf)
        assert code == 0

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_stieffel_m_below_one(self, capsys, m):
        line = self.one_error(capsys, ["stieffel", "--a", "1", "--b", "1", "--k", "1", "--m", m])
        assert line == f"error: --m must be at least 1, got {m}"

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_exponent_m_below_one(self, capsys, m):
        argv = ["exponent", "--a", "1", "--b", "1", "--c", "1", "--d", "1", "--k", "1", "--m", m]
        line = self.one_error(capsys, argv)
        assert line == f"error: --m must be at least 1, got {m}"

    def test_exponent_flags_given_as_zero_are_not_missing(self, capsys):
        argv = ["exponent", "--a", "1", "--b", "1", "--c", "1", "--d", "1", "--k", "0", "--m", "1"]
        line = self.one_error(capsys, argv)
        assert line == "error: row set (1,) exceeds k=0"


class TestRangeIngress:
    """A collection whose k or n is out of range is a usage error for every
    verb that reads one, not an empty valid collection."""

    @pytest.mark.parametrize("k, n", [(-1, 4), (2, -3), (3, 2)])
    def test_every_verb(self, capsys, tmp_path, k, n):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps({"k": k, "n": n, "sets": []}))
        vf = tmp_path / "v.json"
        vf.write_text("{}")
        verbs = [
            ["validate", "--file", str(cf)],
            ["reduce-base", "--file", str(cf)],
            ["positivity", "--collection", str(cf), "--values", str(vf)],
            ["reduce", "--file", str(cf)],
            ["lift", "--file", str(cf), "--b", "2"],
        ]
        for argv in verbs:
            line = TestBooleanIngress.one_error(capsys, argv)
            assert line == f"error: need 0 <= k <= n, got k={k} and n={n}", argv

    @pytest.mark.parametrize("verb", ["validate", "reduce-base"])
    def test_element_too_large_for_a_bitmask(self, capsys, tmp_path, verb):
        # no int has bit 10**30, so the member is refused before its mask is formed
        n = 10**30
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps({"k": 3, "n": n, "sets": [[1, 2, n]]}))
        line = TestBooleanIngress.one_error(capsys, [verb, "--file", str(cf)])
        assert line == f"error: subset (1, 2, {n}) has an element above {sys.maxsize}, too large for a bitmask"

    def test_element_of_a_formable_mask_is_kept(self, capsys, tmp_path):
        n = 10**6
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps({"k": 3, "n": n, "sets": [[1, 2, n]]}))
        assert main(["validate", "--file", str(cf)]) == 0
        assert capsys.readouterr().out == '{"issues": [], "ok": true}\n'


def certify_cases():
    """(name, k, n, sets) of crossing and non-maximal collections, on tables
    that take crossing rows and on tables that keep the pair loop."""
    b6, b8 = base_collection(3, 6).sets, base_collection(3, 8).sets
    b13, b20 = base_collection(3, 13).sets, base_collection(2, 20).sets
    swap = lambda sets, out, new: [s for s in sets if s not in out] + new  # noqa: E731
    return [
        ("x36", 3, 6, swap(b6, [(1, 3, 4)], [(1, 3, 5)])),
        ("x38", 3, 8, swap(b8, [(1, 3, 4), (1, 6, 7)], [(1, 3, 5), (2, 4, 6)])),
        ("m38", 3, 8, swap(b8, [(1, 3, 4)], [])),
        ("x220", 2, 20, swap(b20, [(1, 5)], [(2, 6)])),
        ("x313", 3, 13, swap(b13, [(1, 3, 4)], [(1, 3, 5)])),
        ("m313", 3, 13, swap(b13, [(1, 3, 4)], [])),
    ]


# stderr of reduce-base, positivity, reduce and lift, which all check their
# input with `require_maximal`
CROSS_124_135 = "(1, 2, 4) and (1, 3, 5) are not weakly separated"
NOT_SEPARATED = f"the collection is not weakly separated: {CROSS_124_135}"
NOT_MAXIMAL_8 = (
    "the collection is not maximal: it has 15 members, "
    "a maximal collection of 3-subsets of [1..8] has 16"
)
NOT_MAXIMAL_13 = (
    "the collection is not maximal: it has 30 members, "
    "a maximal collection of 3-subsets of [1..13] has 31"
)
K3_ONLY = "reduction machinery is defined for k=3 collections"
CERTIFY_ERRORS = {
    "x36": [NOT_SEPARATED] * 4,
    "x38": [NOT_SEPARATED] * 4,
    "m38": [NOT_MAXIMAL_8] * 4,
    "x220": [
        "the collection is not weakly separated: (1, 3) and (2, 6) are not weakly separated",
        "the collection is not weakly separated: (1, 3) and (2, 6) are not weakly separated",
        K3_ONLY,
        K3_ONLY,
    ],
    "x313": [NOT_SEPARATED] * 4,
    "m313": [NOT_MAXIMAL_13] * 4,
}


class TestCertifyErrors:
    @pytest.mark.parametrize("name, k, n, sets", certify_cases())
    def test_exact_messages(self, capsys, tmp_path, name, k, n, sets):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps({"k": k, "n": n, "sets": [list(s) for s in sets]}))
        vf = tmp_path / "v.json"
        vf.write_text(json.dumps({json.dumps(list(s)): "1" for s in sets}))
        verbs = [
            ["reduce-base", "--file", str(cf)],
            ["positivity", "--collection", str(cf), "--values", str(vf)],
            ["reduce", "--file", str(cf)],
            ["lift", "--file", str(cf), "--b", "2"],
        ]
        for argv, message in zip(verbs, CERTIFY_ERRORS[name]):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), argv


class TestRemovedOptions:
    @pytest.mark.parametrize("flag", [["--format", "json"], ["--jobs", "1"]])
    def test_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([*flag, "oracle-verify", "--suite", "small"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestFilesClosed:
    def test_no_resource_warning(self, capsys, tmp_path):
        c = base_collection(2, 4)
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(c.to_json_dict()))
        vf = tmp_path / "v.json"
        vf.write_text(json.dumps({json.dumps(list(K)): "1" for K in c.sets}))
        wf = tmp_path / "words.txt"
        wf.write_text("2 1r 1 2 3 2r 2 1 4 1r 3 2 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", "--file", str(cf)]) == 0
            assert main(["positivity", "--collection", str(cf), "--values", str(vf)]) == 0
            assert main(["wiring", "--word-file", str(wf), "--k", "3", "--m", "5"]) == 0
            gc.collect()
        capsys.readouterr()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestClosedPipe:
    def test_exit_code_and_quiet_stderr(self):
        src = str(Path(wsep.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        # several hundred kB of output: far more than a pipe buffers
        proc = subprocess.Popen(
            [sys.executable, "-m", "wsep.cli", "enumerate", "--k", "3", "--n", "8"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""
        assert json.loads(first)["k"] == 3
