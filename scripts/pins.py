#!/usr/bin/env python3
"""The pinned fresh-process checks.  Usage: python scripts/pins.py [NAME ...]

Each pin (all, or each one named) runs a child Python process from the repository root with
PYTHONPATH=src, under `timeout` where it has one (exit 124), and checks the child's exit code,
stdout and own peak RSS.  One line per pin gives name, exit code, stdout or digest, child peak RSS
and seconds; the run goes on past a failing pin and exits 1 if any failed.  The last line names
the interpreter that ran the children (the RSS bounds were measured on one version) and counts the
pins that passed.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CLI = ("-m", "wsep.cli")


class Pin(NamedTuple):
    """`argv` follows the interpreter; "{tmp}" in it names a fresh directory that `build` fills first."""

    name: str
    argv: tuple[str, ...]
    timeout: float | None = None
    stdout: str | None = None
    contains: str | None = None
    sha256: str | None = None
    rss_mb: float | None = None
    build: Callable[[Path], None] | None = None


def translated_base(k: int, n: int, rot: int, refl: bool, tmp: Path) -> None:
    """tmp/in.json: base(k, n) under Dihedral(n, rot, refl)."""
    from wsep.subsets import Dihedral
    from wsep.wscoll import base_collection, translate
    c = translate(base_collection(k, n), Dihedral(n, rot, refl))
    (tmp / "in.json").write_text(json.dumps(c.to_json_dict()))


def base_and_values(k: int, n: int, values: str, tmp: Path) -> None:
    """tmp/c.json: base(k, n); tmp/v.json: "ones", whose derived values are integers, or "ratios"."""
    from wsep.wscoll import base_collection
    b = base_collection(k, n)
    (tmp / "c.json").write_text(json.dumps(b.to_json_dict()))
    v = {json.dumps(list(K)): "1" if values == "ones" else f"{r + 2}/{r + 1}" for r, K in enumerate(b.sets)}
    (tmp / "v.json").write_text(json.dumps(v))


def reduce_base(k: int, n: int, rot: int, refl: bool, length: int, sha256: str, rss_mb: float) -> Pin:
    return Pin(f"reduce-base-{k}-{n}-{rot}" + "-refl" * refl, (*CLI, "reduce-base", "--file", "{tmp}/in.json"), 10,
               contains=f'"length": {length},', sha256=sha256, rss_mb=rss_mb,
               build=lambda tmp: translated_base(k, n, rot, refl, tmp))


def positivity(k, n, values, mode, sha256, timeout=15, rss_mb=60) -> Pin:
    argv = (*CLI, "positivity", "--collection", "{tmp}/c.json", "--values", "{tmp}/v.json", "--mode", mode)
    return Pin(f"positivity-{k}-{n}-{values}-{mode}", argv, timeout, contains='"verdict": "POSITIVE"', sha256=sha256,
               rss_mb=rss_mb, build=lambda tmp: base_and_values(k, n, values, tmp))


README_BLOCKS = r"""import re
text = open("README.md").read()
blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.S | re.M))
assert blocks, "README.md has no python block"
for b in blocks:
    # padded so that a traceback gives the line number in README.md
    source = "\n" * text.count("\n", 0, b.start(1)) + b.group(1)
    exec(compile(source, "README.md", "exec"), {})
print(f"{len(blocks)} python block(s) of README.md ran")
"""

NONPARAMETRIZABLE = """\
n=7: 0/42 non-parametrizable (0 orbits)
n=8: 0/132 non-parametrizable (0 orbits)
n=9: 24/429 non-parametrizable (2 orbits)
   chords: {1,3}, {1,4}, {1,7}, {1,8}, {4,6}, {4,7}
   chords: {1,3}, {1,4}, {1,7}, {4,6}, {4,7}, {7,9}
"""

# the paper's criterion at k = 4 for every n: the exponent of a Pluecker pair depends only on how I
# and J interleave (tests/test_subsets.py::TestPatternInvariance), and `verify._plucker_patterns`
# gives one representative per ordered pattern; no two share a pattern, so every pair misses the
# exponent table, and each miss rewrites its two products on a throwaway leaf table; the RSS bound
# (21.0 MB read on 3.11) guards that no miss keeps its leaves
GR4_PATTERNS = """from wsep.quantum import plucker_realize, quasi_commutation_exponent
from wsep.subsets import plucker_exponent, weakly_separated
from wsep.verify import _plucker_patterns
agree = total = 0
for n, I, J in _plucker_patterns(4):
    c = quasi_commutation_exponent(plucker_realize(I, 4, n), plucker_realize(J, 4, n))
    agree += c == plucker_exponent(I, J) and (c is not None) == weakly_separated(I, J)
    total += 1
print(f"{agree} of {total} interleaving patterns agree")
"""

# the paper's criterion for two quantum minors with at most four rows between them, so for every m
# at k <= 4: `verify._minor_patterns(4)` gives one representative per ordered pattern of how the row
# sets and the column sets interleave, and each pattern is one exponent table entry; the RSS bound
# (21.1 MB read on 3.11) guards the 3,812 entries and that no miss keeps its leaves
MINOR_4_ROW_PATTERNS = """from wsep import quantum
from wsep.quantum import quantum_minor, quasi_commutation_exponent
from wsep.subsets import minor_exponent
from wsep.verify import _minor_patterns, _minors_separated
agree = total = 0
for p, r in _minor_patterns(4):
    c = quasi_commutation_exponent(quantum_minor(p), quantum_minor(r))
    agree += c == minor_exponent(p, r) and (c is not None) == _minors_separated(p, r)
    total += 1
print(f"{agree} of {total} interleaving patterns agree, {len(quantum._EXPONENTS)} exponent table entries")
"""

# the first 200 states of the walk from base(6,12); the RSS bound guards the walk's per-table state,
# which is linear in the 34,650 exchange relations
WALK_START = ("import itertools; from wsep import wscoll; from wsep.wscoll import base_collection; "
              "print(sum(1 for _ in itertools.islice(wscoll._walk(base_collection(6, 12)), 200)))")

ORBITS_ONE_OFF = ("from wsep.wscoll import base_collection, dihedral_orbits; "
                  "print(len(dihedral_orbits([base_collection(7, 14)])))")

PINS = (
    Pin("readme-blocks", ("-c", README_BLOCKS), 30),
    Pin("purity-sweep", ("scripts/purity_sweep.py", "200", "0"), 30),
    Pin("lift-generator", ("scripts/count_collections.py", "9", "9"), 30),
    Pin("nonparametrizable", ("scripts/search_nonparametrizable.py", "7", "8", "9"), 30, NONPARAMETRIZABLE),
    # 480 of the 1430 triangulations at n = 10, in 30 orbits
    Pin("nonparametrizable-10", ("scripts/search_nonparametrizable.py", "10"), 30,
        sha256="8a1b670a520d8f173cbacfc5b541ae3180ccce13841f51da382a32c9f26e2878", rss_mb=25),
    Pin("gen-w3-9-count", (*CLI, "gen-w3", "--n", "9", "--count-only"), 30, '{"count": 18600}\n'),
    # the full listings: each collection's int decoded once, for the sort and for its line; the RSS
    # bounds guard the listings made with no collection object per state
    Pin("gen-w3-9", (*CLI, "gen-w3", "--n", "9"), 30,
        sha256="58fac13b01f06be40375922c4c53f854a923c881b820621135a7c9e14ec7aba8", rss_mb=32),
    Pin("enumerate-4-8-count", (*CLI, "enumerate", "--k", "4", "--n", "8", "--count-only"), 30, '{"count": 5470}\n'),
    # the bounds guard the levels held as sets of ints (gen-w3) and the walk's queue of (state, moves, quad)
    Pin("gen-w3-10-count", (*CLI, "gen-w3", "--n", "10", "--count-only"), 30, '{"count": 168565}\n', rss_mb=40.5),
    Pin("enumerate-3-10-count", (*CLI, "enumerate", "--k", "3", "--n", "10", "--count-only"), 30,
        '{"count": 168565}\n', rss_mb=41),
    # the descent reads every level on the input's own (k, 40) table through an index map and builds
    # no other table: the bounds guard that
    reduce_base(3, 40, 1, False, 2879, "264a774ed7769441dbcbf66dadd5267e75f6e588ab00be6708e85297a1ccddd9", 22),
    reduce_base(3, 40, 7, True, 4010, "f43228348c7aa0b7f46e95ac627dd5232fdae6c8fb7559f2a24ae53d3f128569", 22),
    reduce_base(2, 40, 1, False, 37, "4bb56c3357d47270f550d923fb179ae032ebaf5fe2371d67c7ed8510357d59af", 22),
    reduce_base(2, 40, 7, True, 51, "53fdc10cb7afbaf6a058f57e7e3bb67fe1960ead26a2ed4f05f4f80ed5f4f337", 22),
    positivity(4, 9, "ones", "exact", "95bd4282e63ed0dd1eb3a0331348a37d1bdd5aee0b9b81aa2712af29b061bfa2"),
    positivity(5, 10, "ones", "exact", "7062a69660c5210f19229d77e8c782fcc3e93ff52d83aab1f1c16e4fbcd3d930"),
    positivity(5, 10, "ratios", "exact", "d5ddd14e7efc9250cba63af4c3bc803f8a2773ac11c5535d0a31f0e2471951eb"),
    positivity(6, 12, "ratios", "exact", "da1c9e79bdbeb74fbc5d81602c8bb49ff3b0c6ef651ea699e031f93665c25fc3"),
    positivity(5, 10, "ratios", "float", "9343cfaef10f91367f72f047e5efe494d09ec0cfca59a746bc063482776526ba"),
    positivity(6, 12, "ratios", "float", "51c6ee2f37231b3e709bfa82917e8f8f9c6e431e4f59810d2836b6df0d75c7c7"),
    positivity(7, 14, "ratios", "exact", "f4570da8ddb8205837dd1ce8c9cc39f05b0cb15205f781050d70bd5cfd57dce5", 30, 100),
    positivity(7, 14, "ratios", "float", "05ac53714d049ec06a91c02f2c088a5ff4dd899132f74dc039ffdd7eb25c7ab9", 30, 100),
    Pin("oracle-verify-full", (*CLI, "oracle-verify", "--suite", "full"), 30,
        sha256="98c75db4ac4851b32d8bde38c11803a823c3d945b3b8c633dc2e721bfb6efd63", rss_mb=40),
    # the paper's criterion at k = 4 on every ordered Gr(4,8) pair: the 4,900 pairs come to the 321
    # interleaving patterns, so all but 321 are answered from the exponent table, keyed by how the two
    # minors' rows and columns interleave; each of the 321 misses rewrites its products on a throwaway
    # leaf table, and the RSS bound (21.0 MB read on 3.11) guards both
    Pin("gr48-all-pairs", ("-c", "from wsep import verify; r = verify._plucker_pairs_agree(4, 8); print(r.ok, r.detail)"),
        60, "True 4900 ordered pairs agree\n", rss_mb=27),
    # the paper's criterion on every ordered pair of quantum minors of the 4x5 algebra, where it
    # is new; the RSS bound (19.5 MB read on 3.11) guards the exponent table keyed by interleaving,
    # the leaf coefficients, and that no exponent miss keeps its leaves
    Pin("mat45-minor-pairs", ("-c", "from wsep import verify; r = verify._minor_pairs_agree(4, 5); print(r.ok, r.detail)"),
        60, "True 15625 ordered pairs agree\n", rss_mb=24),
    Pin("enumerate-4-9", (*CLI, "enumerate", "--k", "4", "--n", "9"), 60,
        sha256="6bce9640de2ade27f5d04f49aea7440847a75e844476cbab3f9ed3185cc63051", rss_mb=70),
    # 6815 orbits, each printed from the decoded ranks of its least member
    Pin("orbits-4-9", (*CLI, "orbits", "--k", "4", "--n", "9"), 60,
        sha256="9d6f5005444a8ee7310924d83d00940f9efc315ef583917602bc35b2b3260fb3", rss_mb=75),
    Pin("gr4-patterns", ("-c", GR4_PATTERNS), 60, "321 of 321 interleaving patterns agree\n", rss_mb=27),
    Pin("minor-4-row-patterns", ("-c", MINOR_4_ROW_PATTERNS), 60,
        "3812 of 3812 interleaving patterns agree, 3812 exponent table entries\n", rss_mb=27),
    Pin("walk-6-12-start", ("-c", WALK_START), 30, "200\n", rss_mb=80),
    # one orbit at a large table: the byte tables of the translates fill only the slots they read
    Pin("orbits-7-14-one-off", ("-c", ORBITS_ONE_OFF), 30, "1\n", rss_mb=30),
)

# Runs argv[2:] and writes its peak RSS in KB to the file argv[1].  On Linux an exec'd child's
# ru_maxrss starts at the peak RSS of the process that started it: started by the runner (grown by
# the inputs it built, or by a pytest session) it would read at least the runner's peak.
LAUNCH = """import os, sys
pid = os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as f:
    f.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run(pin: Pin) -> tuple[bool, float]:
    """Run `pin` and print its line; return whether it passed, and the child's peak RSS in MB."""
    with tempfile.TemporaryDirectory() as d:
        if pin.build is not None:
            pin.build(Path(d))
        argv = [sys.executable, *(a.replace("{tmp}", d) for a in pin.argv)]
        if pin.timeout is not None:
            argv = ["timeout", str(pin.timeout), *argv]
        maxrss = Path(d) / "maxrss"
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", LAUNCH, str(maxrss), *argv], cwd=ROOT,
                               env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True)
        seconds = time.perf_counter() - start
        rss_mb = int(maxrss.read_text()) / 1024 if maxrss.exists() else float("nan")
    out, digest = child.stdout, hashlib.sha256(child.stdout).hexdigest()
    failures = [why for failed, why in [
        (child.returncode != 0, "non-zero exit"),
        (pin.stdout is not None and out != pin.stdout.encode(), "stdout is not the pinned text"),
        (pin.contains is not None and pin.contains.encode() not in out, f"stdout lacks {pin.contains}"),
        (pin.sha256 not in (None, digest), f"stdout sha256 is not {pin.sha256}"),
        (pin.rss_mb is not None and not rss_mb < pin.rss_mb, f"peak RSS is not below {pin.rss_mb} MB"),
    ] if failed]
    shown = out.decode(errors="replace").strip() if pin.stdout and out.count(b"\n") == 1 else f"sha256 {digest}"
    print(f"{'FAIL' if failures else 'ok'} {pin.name}: exit {child.returncode}, stdout {shown}, "
          f"child peak RSS {rss_mb:.1f} MB, {seconds:.2f} s" + "".join(f"; {f}" for f in failures), flush=True)
    if failures:
        print("".join(f"    {line[:200]}\n" for line in (out + child.stderr).decode(errors="replace").splitlines()[-20:]))
    return not failures, rss_mb


def main(names: list[str]) -> int:
    if unknown := sorted(set(names) - {p.name for p in PINS}):
        print(f"unknown pin {' '.join(unknown)}; the pins are {' '.join(p.name for p in PINS)}", file=sys.stderr)
        return 2
    chosen = [p for p in PINS if not names or p.name in names]
    failed = [p.name for p in chosen if not run(p)[0]]
    print(f"Python {platform.python_version()}: {len(chosen) - len(failed)} of {len(chosen)} pins passed"
          + "".join(f"; FAIL {n}" for n in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
