"""Batch command-line surface with machine-readable JSON output.

Exit codes: 0 computed positive/affirmative answer, 1 computed negative
verdict, 2 usage error, 3 internal assertion failure, 141 (128 + SIGPIPE)
stdout closed by its reader before the output was written.  stdout carries
JSON or JSON-lines; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from .subsets import (
    MinorIndex,
    _is_int,
    check_in_range,
    minor_exponent,
    parse_subset,
    plucker_exponent,
    stieffel_subset,
    weakly_separated,
)
from .wscoll import (
    WSCollection,
    _pinch_index,
    _walk,
    base_collection,
    dihedral_orbits,
    enumerate_component,
    reduce_to_base,
    sizes_histogram,
    validate,
)
from .reduction import _w3_bits, generate_w3, lift, project
from .wiring import (
    chambers,
    format_word,
    is_optimal,
    parse_word,
    validate_word,
    word_collection,
)
from .positivity import POSITIVE, positivity_test
from .verify import run_suite

OK, NEGATIVE, USAGE, INTERNAL = 0, 1, 2, 3
PIPE_CLOSED = 128 + 13  # SIGPIPE


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _emit_lines(records) -> None:
    for rec in records:
        print(json.dumps(rec, sort_keys=True))


def _emit_texts(lines) -> None:
    """Print lines of JSON text already written as `_emit` would write them."""
    write = sys.stdout.write
    for line in lines:
        write(line + "\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_collection(path: str) -> WSCollection:
    return WSCollection.from_json_dict(json.loads(_read_text(path)))


def _load_values(path: str, n: int) -> dict:
    """Values keyed by canonical subsets of [1..n]; a file that is not an
    object from JSON arrays of integers to rationals, or two keys naming the
    same subset, is an error.  Booleans are neither integers nor rationals."""
    data = json.loads(_read_text(path))
    if not isinstance(data, dict):
        raise ValueError("a values file must be a JSON object mapping subsets to rationals")
    out = {}
    for key, val in data.items():
        K = json.loads(key)
        if not (isinstance(K, list) and all(map(_is_int, K))):
            raise ValueError(f"value key {key!r} is not a JSON array of integers")
        K = check_in_range(K, n)
        if K in out:
            raise ValueError(f"two value keys name the subset {K}")
        if isinstance(val, bool):
            raise ValueError(f"value {json.dumps(val)} of key {key!r} is not a rational number")
        try:
            out[K] = Fraction(val)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise ValueError(f"value {val!r} of key {key!r} is not a rational number") from None
    return out


def _values_to_json(values: dict) -> dict:
    return {
        json.dumps(list(K), separators=(",", ":")): str(v)
        for K, v in sorted(values.items())
    }


def cmd_ws_check(args) -> int:
    I = parse_subset(args.i)
    J = parse_subset(args.j)
    ok = weakly_separated(I, J)
    _emit({"weakly_separated": ok})
    return OK if ok else NEGATIVE


def cmd_exponent(args) -> int:
    if args.i is not None or args.j is not None:
        if args.i is None or args.j is None:
            raise ValueError("need both --i and --j for the coordinate exponent")
        c = plucker_exponent(parse_subset(args.i), parse_subset(args.j))
    else:
        if None in (args.a, args.b, args.c, args.d, args.k, args.m):
            raise ValueError("need --a --b --c --d --k --m for the minor exponent")
        if args.m < 1:
            raise ValueError(f"--m must be at least 1, got {args.m}")
        p = MinorIndex(parse_subset(args.a), parse_subset(args.b), args.k, args.m)
        r = MinorIndex(parse_subset(args.c), parse_subset(args.d), args.k, args.m)
        c = minor_exponent(p, r)
    _emit({"c": c})
    return OK if c is not None else NEGATIVE


def cmd_stieffel(args) -> int:
    if args.m is not None and args.m < 1:
        raise ValueError(f"--m must be at least 1, got {args.m}")
    m = args.m if args.m is not None else max(parse_subset(args.b) or (1,))
    mi = MinorIndex(parse_subset(args.a), parse_subset(args.b), args.k, m)
    _emit({"s": list(stieffel_subset(mi))})
    return OK


def cmd_enumerate(args) -> int:
    seed = base_collection(args.k, args.n)
    if args.count_only:
        _emit({"count": sum(1 for _ in _walk(seed))})
        return OK
    found = sorted(enumerate_component(seed), key=WSCollection.sort_key)
    _emit_texts(c.json_text() for c in found)
    summary = {
        "count": len(found),
        "orbit_count": len(dihedral_orbits(found)),
        "sizes_histogram": {str(k): v for k, v in sizes_histogram(found).items()},
    }
    _emit(summary)
    return OK


def cmd_orbits(args) -> int:
    found = enumerate_component(base_collection(args.k, args.n))
    orbits = dihedral_orbits(found)
    _emit_texts(
        '{"representative": %s, "size": %d}' % (o[0].json_text(), len(o)) for o in orbits
    )
    _emit({"count": len(found), "orbit_count": len(orbits)})
    return OK


def cmd_reduce_base(args) -> int:
    c = _load_collection(args.file)
    _emit_texts((reduce_to_base(c).json_text(),))
    return OK


def _wiring_payload(word, args) -> dict:
    if not validate_word(word, args.k, args.m):
        return {"word": format_word(word), "valid": False, "optimal": False}
    payload = {
        "word": format_word(word),
        "valid": True,
        "optimal": is_optimal(word, args.k, args.m),
    }
    if args.chambers:
        payload["chambers"] = [
            {
                "level": ch.level,
                "span": [ch.start, ch.end],
                "I": list(ch.red),
                "J": list(ch.black),
            }
            for ch in chambers(word, args.k, args.m)
        ]
    if args.collection and payload["optimal"]:
        payload["collection"] = word_collection(word, args.k, args.m).to_json_dict()
    return payload


def cmd_wiring(args) -> int:
    if args.word_file:
        text = _read_text(args.word_file)
        words = [parse_word(line) for line in text.splitlines() if line.strip()]
        payloads = [_wiring_payload(w, args) for w in words]
        _emit_lines(payloads)
        return OK if all(p["optimal"] for p in payloads) else NEGATIVE
    payload = _wiring_payload(parse_word(args.word), args)
    _emit(payload)
    return OK if payload["optimal"] else NEGATIVE


def cmd_lift(args) -> int:
    b_coll = _load_collection(args.file)
    _emit(lift(b_coll, args.b).to_json_dict())
    return OK


def cmd_reduce(args) -> int:
    c = _load_collection(args.file)
    projected = project(c)  # checks c, so the pinch index needs no second check
    b = _pinch_index(c.table, c.bits, c.n)
    _emit({"projection": projected.to_json_dict(), "pinch_point": b})
    return OK


def cmd_gen_w3(args) -> int:
    if args.count_only:
        _emit({"count": len(_w3_bits(args.n))})
        return OK
    found = generate_w3(args.n)
    _emit_texts(c.json_text() for c in sorted(found, key=WSCollection.sort_key))
    _emit({"count": len(found)})
    return OK


def cmd_positivity(args) -> int:
    c = _load_collection(args.collection)
    vals = _load_values(args.values, c.n)
    for K in vals:
        if K not in c:
            raise ValueError(f"value key {list(K)} is not a member of the collection")
    if args.mode == "float":
        for K, v in vals.items():
            try:
                vals[K] = float(v)
            except OverflowError:
                raise ValueError(f"value of key {list(K)} is too large for float mode") from None
    verdict = positivity_test(c, vals, mode=args.mode)
    payload = {
        "verdict": verdict.verdict,
        "values": _values_to_json(verdict.values),
    }
    if verdict.witness:
        payload["witness"] = verdict.witness
    _emit(payload)
    return OK if verdict.verdict == POSITIVE else NEGATIVE


def cmd_oracle_verify(args) -> int:
    results = run_suite(args.suite)
    payload = {
        "pass": sum(1 for r in results if r.ok),
        "fail": sum(1 for r in results if not r.ok),
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }
    _emit(payload)
    return OK if payload["fail"] == 0 else NEGATIVE


def cmd_validate(args) -> int:
    report = validate(_load_collection(args.file))
    _emit({"ok": report.ok, "issues": list(report.issues)})
    return OK if report.ok else NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="wsep", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ws-check", help="weak separation of two subsets")
    p.add_argument("--i", required=True)
    p.add_argument("--j", required=True)
    p.set_defaults(fn=cmd_ws_check)

    p = sub.add_parser("exponent", help="commutation exponent (minor or coordinate)")
    p.add_argument("--i")
    p.add_argument("--j")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--c")
    p.add_argument("--d")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(fn=cmd_exponent)

    p = sub.add_parser("stieffel", help="the k-subset attached to a minor index")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int)
    p.set_defaults(fn=cmd_stieffel)

    p = sub.add_parser("enumerate", help="move-graph closure of the base collection")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("orbits", help="dihedral orbit decomposition")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("reduce-base", help="certified move path to the base collection")
    p.add_argument("--file", default="-")
    p.set_defaults(fn=cmd_reduce_base)

    p = sub.add_parser("wiring", help="validate a word; chambers and collection")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word")
    group.add_argument("--word-file", help="file with one word per line ('-' for stdin)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--chambers", action="store_true")
    p.add_argument("--collection", action="store_true")
    p.set_defaults(fn=cmd_wiring)

    p = sub.add_parser("reduce", help="project a k=3 collection one level down")
    p.add_argument("--file", default="-")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("lift", help="lift a k=3 collection one level up")
    p.add_argument("--file", default="-")
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("gen-w3", help="recursive generation of all k=3 collections")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_gen_w3)

    p = sub.add_parser("positivity", help="propagate values and test positivity")
    p.add_argument("--collection", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(fn=cmd_positivity)

    p = sub.add_parser("oracle-verify", help="oracle-vs-formula cross-check battery")
    p.add_argument("--suite", choices=("small", "full"), default="small")
    p.set_defaults(fn=cmd_oracle_verify)

    p = sub.add_parser("validate", help="validate a collection file")
    p.add_argument("--file", default="-")
    p.set_defaults(fn=cmd_validate)

    return top


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of `main` rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone. Send the rest of the output to the null device,
        # so the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PIPE_CLOSED
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
