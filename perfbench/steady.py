"""Steadiness check: run workloads repeatedly, one seed per run, and report
the median and quartiles of every end-to-end metric.

    python3 perfbench/steady.py --workloads certify,oracle --seeds 1-10 [--sets 2]

The spread of a metric is (Q3 - Q1) / median over the runs of one set, with
quartiles from statistics.quantiles(values, n=4). A metric is steady when
its spread is at most a third of its bound in BENCHMARK.json (setup_s is
exempt from the spread rule). With --sets 2 every seed is run twice and the
second set's median must not be worse than the first's by more than the
bound. The summary is also written under .bench_build/perfbench/steady/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs: dict = {w: [[] for _ in range(args.sets)] for w in workloads}
    all_correct = True
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                res = run_once(w, seed, args.seconds)
                runs[w][s].append(res)
                all_correct &= res["correct"] and res["failed"] == 0
                print(f"set {s + 1} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} wall={res['wall_s']:.1f}s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)

    summary: dict = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    print()
    print(f"{'workload':11s} {'metric':16s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        summary["workloads"][w] = {}
        for name, spec in bounds.items():
            sets = [summarise([r["metrics"][name]["value"] for r in runs[w][s]]) for s in range(args.sets)]
            first = sets[0]
            bound = spec["bound"]
            verdict = "steady"
            if name != "setup_s" and first["spread"] > bound:
                verdict = "UNSTEADY"
            elif name != "setup_s" and first["spread"] > bound / 3:
                verdict = "within bound"
            if args.sets == 2:
                a, b = first["median"], sets[1]["median"]
                worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
                if worse > bound:
                    verdict = "MEDIAN MOVED"
                first["second_median_worse_by"] = worse
            if verdict not in ("steady", "within bound"):
                steady = False
            summary["workloads"][w][name] = {"sets": sets, "bound": bound, "verdict": verdict}
            print(f"{w:11s} {name:16s} {first['median']:11.5g} {first['q1']:11.5g} "
                  f"{first['q3']:11.5g} {first['spread']:7.3f} {bound:6.2f}  {verdict}"
                  + (f" (second set worse by {first['second_median_worse_by']:+.3f})"
                     if args.sets == 2 else ""))
    out = ROOT / ".bench_build" / "perfbench" / "steady"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"summary-{int(time.time())}.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True))
    print(f"\nall runs correct: {all_correct}; summary written to {path.relative_to(ROOT)}")
    return 0 if (steady and all_correct) else 1


if __name__ == "__main__":
    sys.exit(main())
