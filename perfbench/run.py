"""wsep benchmark: one workload per run, closed loop, a single client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; wsep is imported from ./src. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. Lines above it are for people.
Records, fingerprints and span files go under .bench_build/perfbench/.

Times are reported at nominal host speed. On a shared virtual machine the
speed of a core swings by a third or more within seconds, which would swamp
the differences the benchmark exists to show. So a fixed pure-Python
calibration loop runs, outside the timed code, before the first request and
after every request (and around each set-up); a measured time t is reported
as t * CAL_NOMINAL_S / c, with c the mean of the calibration times on its
two sides, each the median of three runs of the loop. On a two-core shared
virtual machine, calibrating only every 0.1 s left the p95 of the 3 ms
oracle requests a fifth above the p95 of their per-pair medians: the speed
swings that fast. The raw wall-clock figures are printed and kept in the
record.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
CAL_NOMINAL_S = 0.001

sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


class Unavailable(Exception):
    """The program under test cannot be imported from this checkout."""


_CAL_SUBSETS = tuple(combinations(range(1, 9), 3))
_CAL_LEFT = _CAL_SUBSETS[::2]
_CAL_RIGHT = _CAL_SUBSETS[::3]
_CAL_MEMBERS = frozenset(_CAL_SUBSETS[::5])
_CAL_FRACTIONS = tuple(Fraction(i + 1, 2 * i + 3) for i in range(40))


def calibration_time() -> float:
    """Time of a fixed loop of the work wsep does most: small frozensets of
    subset elements, symmetric differences, sorted tuples, hashing and
    membership tests, then exact Fraction arithmetic. Set work alone tracks
    the host's speed for the move-graph workloads but less well for the
    Fraction-heavy positivity; the mix tracks both. The garbage collector
    is held off while it runs, so its cost does not depend on the heap the
    workload has built."""
    fr = _CAL_FRACTIONS
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for a in _CAL_LEFT:
            fa = frozenset(a)
            for b in _CAL_RIGHT:
                d = tuple(sorted(fa ^ frozenset(b)))
                acc += hash(d) + (d in _CAL_MEMBERS)
        for i in range(len(fr)):
            a, b = fr[i], fr[i * 7 % len(fr)]
            acc = (a * b + fr[i * 3 % len(fr)]) / (a + b)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def host_factor() -> float:
    """CAL_NOMINAL_S over the median of three calibration runs: the factor
    that turns wall-clock time into nominal-host time. Call outside timed
    code."""
    return CAL_NOMINAL_S / statistics.median(calibration_time() for _ in range(3))


def setup(name: str, seed: int, workdir: str):
    """Import wsep in this fresh process and build the workload's inputs;
    returns the workload and the elapsed time (wall clock, nominal)."""
    before = host_factor()
    t0 = time.perf_counter()
    try:
        import wsep
        import wsep.cli
    except ImportError as exc:
        raise Unavailable(f"cannot import wsep from {ROOT / 'src'}: {exc}") from exc
    if not Path(wsep.__file__).resolve().is_relative_to(ROOT / "src"):
        raise Unavailable(f"wsep was imported from {wsep.__file__}, not from this checkout")
    wl = WORKLOADS[name](wsep, seed, workdir)
    elapsed = time.perf_counter() - t0
    return wl, elapsed, elapsed * (before + host_factor()) / 2


class BodyResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.busy = 0.0
        self.raw_busy = 0.0
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.requests = 0
        self.consistent = True
        self.fingerprint = None
        self.errors: list[str] = []


def body(wl, seconds: float, tracer=None, limit: int | None = None) -> BodyResult:
    """Replay the workload's requests one at a time. Without `limit`, run
    until `seconds` have passed, one fingerprint set is done and there are
    enough latency samples for the tail percentile (ending on a whole cycle
    for whole-cycle workloads); with it, run exactly `limit` requests. Then
    run the pinned requests. Only the timed requests themselves are timed;
    checks and calibration run between requests."""
    res = BodyResult()
    after = host_factor()
    first_fp: dict[int, object] = {}
    n = len(wl.requests)
    start = time.perf_counter()
    i = 0
    while True:
        if limit is not None:
            if i >= limit:
                break
        elif (
            time.perf_counter() - start >= seconds
            and i >= wl.fingerprint_requests
            and len(res.latencies) >= wl.min_latency_samples
            and (not wl.whole_cycles or i % n == 0)
        ):
            break
        req = wl.requests[i % n]
        i += 1
        res.attempted += 1
        ctx = tracer.request(req.kind) if tracer is not None else nullcontext()
        error = None
        t0 = time.perf_counter()
        try:
            with ctx:
                out = wl.run(req)
        except Exception as exc:  # a request that raises counts as failed
            error = exc
        raw = time.perf_counter() - t0
        before, after = after, host_factor()
        factor = (before + after) / 2
        res.busy += raw * factor
        res.raw_busy += raw
        if error is None:
            try:
                outcome = wl.check(req, out)
            except Exception as exc:
                error = exc
        if error is not None:
            res.failed += 1
            res.errors.append(f"{req.kind}#{req.index}: {error!r}")
            continue
        if outcome.latency:
            res.latencies.append(raw * factor)
            res.raw_latencies.append(raw)
        if not outcome.ok:
            res.failed += 1
            res.errors.append(f"{req.kind}#{req.index}: output disagrees with the reference")
            continue
        res.items += outcome.items
        if req.index in first_fp:
            if first_fp[req.index] != outcome.fp:
                res.consistent = False
                res.errors.append(f"{req.kind}#{req.index}: result differs on replay")
        else:
            first_fp[req.index] = outcome.fp
    res.requests = i
    pinned = []
    for req in wl.pinned:
        res.attempted += 1
        try:
            outcome = wl.check(req, wl.run(req))
        except Exception as exc:
            outcome = None
            res.errors.append(f"{req.kind}#{req.index}: {exc!r}")
        if outcome is None or not outcome.ok:
            res.failed += 1
            if outcome is not None:
                res.errors.append(f"{req.kind}#{req.index}: output disagrees with the reference")
            continue
        pinned.append(outcome.fp)
    if len(first_fp) >= wl.fingerprint_requests and len(pinned) == len(wl.pinned):
        fp = wl.fingerprint([first_fp[j] for j in range(wl.fingerprint_requests)] + pinned)
        res.fingerprint = json.loads(json.dumps(fp, sort_keys=True))
    return res


def tail(samples: list[float], percentile: float) -> float:
    """Nearest-rank percentile of the samples."""
    s = sorted(samples)
    return s[max(0, math.ceil(percentile / 100.0 * len(s)) - 1)]


def probe(args, kind: str) -> dict:
    """Run this script in a fresh process for one setup or one untraced
    fingerprint set, and return its JSON report."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--probe", kind,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_fingerprint(workload: str, seed: int, inputs: str, fp) -> tuple[bool, Path]:
    """Compare with the fingerprint stored by an earlier run of the same
    workload and seed (and so the same inputs) in this checkout; store it if
    there is none."""
    path = OUT / "fingerprints" / f"{workload}-seed{seed}-{inputs}.json"
    if fp is None:
        return False, path
    if path.exists():
        return json.loads(path.read_text()) == fp, path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fp, sort_keys=True, indent=1))
    return True, path


def finish(args, wl, correct: bool, res: BodyResult, metrics: dict, record: dict) -> int:
    """Write the record (unless the fingerprint disagrees with a stored one),
    print the report and the result line."""
    fp_ok, fp_path = check_fingerprint(args.workload, args.seed, wl.inputs_digest, res.fingerprint)
    if not fp_ok:
        res.errors.append(f"fingerprint differs from {fp_path} (or is incomplete)")
    correct = correct and fp_ok and res.failed == 0 and res.consistent
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        correct=correct, attempted=res.attempted, failed=res.failed,
        error_rate=res.failed / res.attempted, fingerprint=res.fingerprint,
        errors=res.errors[:20], metrics=metrics,
    )
    if fp_ok:
        rec_path = OUT / "records" / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
        rec_path.parent.mkdir(parents=True, exist_ok=True)
        rec_path.write_text(json.dumps(record, sort_keys=True, indent=1))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':52s} {res.failed / res.attempted:>16.6g} fraction "
          f"({res.failed} failed of {res.attempted})")
    for key, value in record.get("details", {}).items():
        print(f"  {key}: {value}")
    print(f"  fingerprint: {json.dumps(res.fingerprint, sort_keys=True)}")
    for err in res.errors[:20]:
        print(f"  error: {err}", file=sys.stderr)
    result = {"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_end_to_end(args, bench: dict, workdir: str) -> int:
    wl, own_raw, own_setup = setup(args.workload, args.seed, workdir)
    probes = [probe(args, "setup") for _ in range(SETUP_PROBES)]
    setups = [own_setup] + [p["setup_s"] for p in probes]
    raw_setups = [own_raw] + [p["raw_setup_s"] for p in probes]
    inputs_ok = all(p["inputs"] == wl.inputs_digest for p in probes)
    res = body(wl, args.seconds)
    if not inputs_ok:
        res.errors.append("the same seed produced different inputs in another process")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not res.latencies:  # every request raised; the result is marked incorrect
        res.latencies.append(res.busy)
        res.raw_latencies.append(res.raw_busy)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": res.items / res.busy,
        "latency_p50_ms": 1000.0 * statistics.median(res.latencies),
        "latency_tail_ms": 1000.0 * tail(res.latencies, wl.tail_percentile),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
    raw = {
        "setup_s": statistics.median(raw_setups),
        "items_per_s": res.items / res.raw_busy,
        "latency_p50_ms": 1000.0 * statistics.median(res.raw_latencies),
        "latency_tail_ms": 1000.0 * tail(res.raw_latencies, wl.tail_percentile),
    }
    details = {
        "requests": res.requests,
        "latency_samples": len(res.latencies),
        "latency_tail_percentile": wl.tail_percentile,
        "latency_samples_beyond_tail": sum(1 for x in res.latencies if x > values["latency_tail_ms"] / 1000.0),
        "items": res.items,
        "busy_s": round(res.busy, 6),
        "host_speed": round(res.raw_busy / res.busy, 4),
        "wall_clock": {k: round(v, 6) for k, v in raw.items()},
        "setup_samples_s": [round(s, 6) for s in setups],
    }
    return finish(args, wl, inputs_ok, res, metrics, {"details": details})


def run_traced(args, bench: dict, workdir: str) -> int:
    from tracing import Tracer, layer_metrics

    wl, _, _ = setup(args.workload, args.seed, workdir)
    untraced = probe(args, "cycle")
    tracer = Tracer()
    tracer.install()
    wl.tracer = tracer
    cache_before = tracer.move_cache_info()
    res = body(wl, args.seconds, tracer=tracer, limit=wl.fingerprint_requests)
    same = untraced["fingerprint"] == res.fingerprint
    if not same:
        res.errors.append("traced and untraced runs disagree on the fingerprint")
    overhead = res.busy / untraced["busy_s"]
    metrics = layer_metrics(tracer, bench["per_layer"], cache_before, overhead)
    spans_path = OUT / "traces" / f"spans_{args.workload}_seed{args.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    layers = {
        name: {"calls": tracer.calls[name], "self_s": round(tracer.self_time[name], 6)}
        for name in sorted(tracer.calls, key=tracer.self_time.get, reverse=True)
    }
    details = {
        "requests": res.requests,
        "traced_busy_s": round(res.busy, 6),
        "untraced_busy_s": round(untraced["busy_s"], 6),
        "spans": f"{len(tracer.spans)} written to {spans_path.relative_to(ROOT)}, "
                 f"{tracer.spans_dropped} beyond the cap",
    }
    return finish(args, wl, same and untraced["correct"], res, metrics,
                  {"details": details, "layers": layers, "counters": tracer.counters})


def run_probe(args, workdir: str) -> int:
    wl, raw, nominal = setup(args.workload, args.seed, workdir)
    if args.probe == "setup":
        report = {"setup_s": nominal, "raw_setup_s": raw, "inputs": wl.inputs_digest}
    else:
        res = body(wl, args.seconds, limit=wl.fingerprint_requests)
        report = {"busy_s": res.busy, "fingerprint": res.fingerprint,
                  "correct": res.failed == 0 and res.consistent}
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "cycle"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.exists():
        print(f"error: {bench_path} is missing; run from a checkout root", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp")
    try:
        if args.probe:
            return run_probe(args, workdir)
        if args.trace:
            return run_traced(args, bench, workdir)
        return run_end_to_end(args, bench, workdir)
    except Unavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
