"""The four workloads. Each builds its inputs from the seed with the
benchmark's own code (reference.py), sends requests through wsep's public
entry points, and checks every output against the reference.

A workload is a fixed list of requests, replayed in order. The first
`fingerprint_requests` of them form one fingerprint set; the traced run
executes exactly that set, so its counts repeat exactly for a seed. The
`pinned` requests run once per process after the timed ones, untimed and
untraced, and their results join the fingerprint.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from collections import Counter
from itertools import combinations

import reference as ref


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


class Request:
    """One request; `inputs` is what the program receives from the seed,
    free of per-process details such as temp-file paths."""

    __slots__ = ("kind", "payload", "inputs", "index")

    def __init__(self, kind, payload, inputs, index):
        self.kind = kind
        self.payload = payload
        self.inputs = inputs
        self.index = index


class Outcome:
    """Result of checking one request: whether it is correct, the items it
    completed, whether its latency counts, and its share of the fingerprint."""

    __slots__ = ("ok", "items", "latency", "fp")

    def __init__(self, ok, items=0, latency=True, fp=None):
        self.ok = ok
        self.items = items
        self.latency = latency
        self.fp = fp


class Workload:
    name = ""
    whole_cycles = False
    fingerprint_requests = 0
    # Tail latency is read at this fixed percentile, and a run goes on until
    # at least ten latency samples lie beyond it.
    tail_percentile = 90.0

    def __init__(self, wsep, seed: int, workdir: str):
        self.wsep = wsep
        self.workdir = workdir
        self.tracer = None
        self.requests: list[Request] = []
        self.pinned: list[Request] = []
        self.build(_rng(self.name, seed))
        self.inputs_digest = ref.digest([(r.kind, repr(r.inputs)) for r in self.requests])

    @property
    def min_latency_samples(self) -> int:
        return math.ceil(10 / (1 - self.tail_percentile / 100.0))

    def add(self, kind, payload, inputs=None):
        inputs = payload if inputs is None else inputs
        self.requests.append(Request(kind, payload, inputs, len(self.requests)))

    def cli(self, argv):
        """One CLI request: wsep.cli.main(argv) with stdout captured."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.wsep.cli.main(list(argv))
        text = buf.getvalue()
        if self.tracer is not None:
            self.tracer.count("cli.main.stdout_bytes", len(text.encode()))
        return rc, text

    def fingerprint(self, parts: list) -> dict:
        raise NotImplementedError


class FlipGraph(Workload):
    """enumerate k=3 (full output), enumerate k=4 (count only) and gen-w3,
    all at n=7, in a seeded order; measured in whole cycles. The same three
    verbs at n=8 take about 7 s together against 0.3 s at n=7, so a run of
    them would hold a handful of requests and its medians would follow the
    host's speed swings; they run once per process as pinned checks."""

    name = "flipgraph"
    whole_cycles = True

    @staticmethod
    def verbs(n: int) -> dict:
        return {
            f"enumerate-3-{n}": (["enumerate", "--k", "3", "--n", str(n)], 3, n),
            f"enumerate-4-{n}": (["enumerate", "--k", "4", "--n", str(n), "--count-only"], 4, n),
            f"gen-w3-{n}": (["gen-w3", "--n", str(n), "--count-only"], 3, n),
        }

    def build(self, rng):
        verbs = self.verbs(7)
        kinds = sorted(verbs)
        rng.shuffle(kinds)
        for kind in kinds:
            self.add(kind, verbs[kind])
        self.fingerprint_requests = len(self.requests)
        for i, (kind, payload) in enumerate(sorted(self.verbs(8).items())):
            self.pinned.append(Request(kind, payload, payload, f"pinned{i}"))
        self._checked_full: set[int] = set()

    def run(self, req):
        return self.cli(req.payload[0])

    def check(self, req, out):
        rc, text = out
        if rc != 0:
            return Outcome(False)
        argv, k, n = req.payload
        lines = text.splitlines()
        summary = json.loads(lines[-1])
        count = summary.get("count")
        if "--count-only" in argv:
            return Outcome(count == ref.W_COUNT[(k, n)], count or 0, fp={req.kind: count})
        ok = (
            count == ref.W_COUNT[(k, n)] == len(lines) - 1
            and summary.get("orbit_count") == ref.W_ORBITS[(k, n)]
            and summary.get("sizes_histogram") == {str(k * (n - k) + 1): count}
        )
        colls = frozenset(tuple(tuple(s) for s in json.loads(line)["sets"]) for line in lines[:-1])
        ok = ok and len(colls) == count
        if ok and n not in self._checked_full:
            # Once per process and size: every line is a maximal collection,
            # and the recursive generator yields the same set as the walk.
            self._checked_full.add(n)
            ok = all(ref.is_maximal_collection(c, k, n) for c in colls)
            lifted = frozenset(c.sets for c in self.wsep.generate_w3(n))
            ok = ok and lifted == colls
        fp = {req.kind: count, f"orbits-{k}-{n}": summary.get("orbit_count"), f"set-{k}-{n}": ref.digest(sorted(colls))}
        return Outcome(ok, count or 0, fp=fp)

    def fingerprint(self, parts):
        fp = {}
        for part in parts:
            fp.update(part)
        return fp


class Certify(Workload):
    """reduce-base over seeded random-greedy maximal W(3,8) collections."""

    name = "certify"
    BATCH = 384
    fingerprint_requests = 64
    tail_percentile = 95.0

    def build(self, rng):
        self.base = ref.base_collection(3, 8)
        self.base_json = {"k": 3, "n": 8, "sets": [list(s) for s in sorted(self.base)]}
        for i in range(self.BATCH):
            sets = ref.random_maximal(rng, 3, 8)
            path = os.path.join(self.workdir, f"certify-{i}.json")
            with open(path, "w") as fh:
                json.dump({"k": 3, "n": 8, "sets": [list(s) for s in sets]}, fh)
            self.add("reduce-base", (path, sets), inputs=sets)

    def run(self, req):
        return self.cli(["reduce-base", "--file", req.payload[0]])

    def check(self, req, out):
        rc, text = out
        if rc != 0:
            return Outcome(False)
        rec = json.loads(text)
        moves = rec["moves"]
        ok = (
            rec["length"] == len(moves)
            and rec["end"] == self.base_json
            and ref.replay(req.payload[1], moves) == self.base
        )
        return Outcome(ok, 1, fp=(len(moves), ref.digest(moves)))

    def fingerprint(self, parts):
        hist = Counter(length for length, _ in parts)
        return {
            "paths": len(parts),
            "path_lengths": {str(k): v for k, v in sorted(hist.items())},
            "moves": ref.digest([d for _, d in parts]),
        }


class Positivity(Workload):
    """positivity_test on seeded maximal W(3,8) collections, each given the
    exact Pluecker values of its own seeded Vandermonde point."""

    name = "positivity"
    BATCH = 64
    fingerprint_requests = 16

    def build(self, rng):
        for _ in range(self.BATCH):
            sets = ref.random_maximal(rng, 3, 8)
            minors = ref.vandermonde_minors(ref.random_nodes(rng, 8), 3)
            vals = {s: minors[s] for s in sets}
            self.add("positivity", (sets, vals, minors), inputs=(sets, vals))

    def run(self, req):
        sets, vals, _ = req.payload
        c = self.wsep.WSCollection.of(3, 8, sets)
        return self.wsep.positivity_test(c, vals)

    def check(self, req, verdict):
        minors = req.payload[2]
        ok = verdict.verdict == "POSITIVE" and verdict.values == minors
        return Outcome(ok, 1, fp=ref.digest(sorted((k, str(v)) for k, v in verdict.values.items())))

    def fingerprint(self, parts):
        return {"tests": len(parts), "values": ref.digest(parts)}


class Oracle(Workload):
    """All ordered Gr(3,7) coordinate pairs through the quantum oracle, the
    3x3 embedding identity for every minor index, and oracle-verify --suite
    full through the CLI; seeded order, measured in whole cycles."""

    name = "oracle"
    whole_cycles = True
    # A pair takes about 3 ms; above p95 its latency mostly shows the host
    # descheduling the process for a few ms, not the program.
    tail_percentile = 95.0

    def build(self, rng):
        subsets = list(combinations(range(1, 8), 3))
        for I in subsets:
            for J in subsets:
                self.add("pair", (I, J))
        for size in (1, 2, 3):
            for rows in combinations((1, 2, 3), size):
                for cols in combinations((1, 2, 3), size):
                    self.add("embedding", (rows, cols))
        self.add("suite", ["oracle-verify", "--suite", "full"])
        rng.shuffle(self.requests)
        for i, req in enumerate(self.requests):
            req.index = i
        self.fingerprint_requests = len(self.requests)

    def run(self, req):
        w = self.wsep
        if req.kind == "pair":
            I, J = req.payload
            p = w.plucker_realize(I, 3, 7)
            r = w.plucker_realize(J, 3, 7)
            return w.quasi_commutation_exponent(p, r), w.plucker_exponent(I, J), w.weakly_separated(I, J)
        if req.kind == "embedding":
            rows, cols = req.payload
            return w.verify_embedding(w.MinorIndex(rows, cols, 3, 3))
        return self.cli(req.payload)

    def check(self, req, out):
        if req.kind == "pair":
            I, J = req.payload
            oracle, formula, separated = out
            expected = ref.exponent(I, J)
            ok = oracle == formula == expected and separated == (expected is not None)
            return Outcome(ok, 1, fp=("pair", expected))
        if req.kind == "embedding":
            return Outcome(out is True, 0, latency=False, fp=("embedding", out))
        rc, text = out
        rec = json.loads(text)
        ok = rc == 0 and rec["fail"] == 0 and rec["pass"] == len(rec["checks"]) > 0
        return Outcome(ok, 0, latency=False, fp=("suite", rec["pass"]))

    def fingerprint(self, parts):
        pairs = Counter(str(e) for kind, e in parts if kind == "pair")
        return {
            "pairs": sum(pairs.values()),
            "exponents": dict(sorted(pairs.items())),
            "embeddings": sum(1 for kind, v in parts if kind == "embedding" and v is True),
            "suite_pass": [v for kind, v in parts if kind == "suite"],
        }


WORKLOADS = {w.name: w for w in (FlipGraph, Certify, Positivity, Oracle)}
