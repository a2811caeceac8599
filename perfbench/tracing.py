"""Traced mode: spans and counters at the program's layer boundaries, taken
from outside by wrapping public functions.

The wsep modules import each other's functions by name, so a wrapper is
patched into every wsep module namespace that holds the original object,
and listed methods are replaced on their class. Wrappers pass straight
through while the tracer is inactive, which keeps the benchmark's own
checks out of the counts.

Counters and self times are exact for every call. Span records (id, parent
id, request id, name, start, end) are kept in memory, at most SPAN_CAP of
them, and written once when the run ends. Calls of the per-element helpers
in LEAF_HELPERS run millions of times per request, so they are folded into
their caller's span (counted and timed, but not recorded one by one).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

LAYERS = ("subsets", "laurent", "quantum", "wscoll", "reduction", "positivity", "verify", "cli")
METHODS = {
    "subsets": (("Dihedral", "apply_subset"),),
    "wscoll": (("WSCollection", "of"),),
    "quantum": (("NCPoly", "__mul__"),),
    "laurent": (("Laurent", "__mul__"), ("Laurent", "__add__")),
}
LEAF_HELPERS = frozenset(
    {
        "subsets.as_subset",
        "subsets.check_in_range",
        "subsets.weakly_separated",
        "subsets.precedes",
        "subsets.is_boundary",
        "subsets.diameter",
        "subsets.Dihedral.apply_subset",
        "wscoll.WSCollection.of",
        "quantum.normalize_word",
        "quantum.inversion_positions",
        "laurent.Laurent.__mul__",
        "laurent.Laurent.__add__",
    }
)
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._request = 0
        self._move_cache = None

    # -- span bookkeeping --------------------------------------------------
    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, name, start, child = frame
        self._stack.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if name not in LEAF_HELPERS:
            if len(self.spans) < SPAN_CAP:
                parent_id = parent[0] if parent is not None else None
                self.spans.append((span_id, parent_id, self._request, name, start, end))
            else:
                self.spans_dropped += 1

    @contextlib.contextmanager
    def request(self, name: str):
        """One benchmark request: the root span that every layer span of
        the request descends from. Wrappers record only inside it."""
        self._request += 1
        self.active = True
        frame = self._enter("request." + name)
        try:
            yield
        finally:
            self._exit(frame)
            self.active = False

    def count(self, name: str, amount: float) -> None:
        if self.active:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping ----------------------------------------------------------
    def wrap(self, name: str, fn, hook=None, watch=()):
        """Wrapper recording a span named `name`; `hook(tracer, args,
        result, deltas)` derives counters, with `deltas` the change in call
        counts of the `watch` names during this call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = [tracer.calls.get(w, 0) for w in watch]
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                deltas = {w: tracer.calls.get(w, 0) - b for w, b in zip(watch, before)}
                hook(tracer, args, result, deltas)
            return result

        return wrapper

    def install(self) -> None:
        """Patch wrappers into every loaded wsep module."""
        modules = {layer: importlib.import_module("wsep." + layer) for layer in LAYERS}
        namespaces = [importlib.import_module("wsep")] + list(modules.values())
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                hook, watch = HOOKS.get(name, (None, ()))
                replace[id(obj)] = self.wrap(name, obj, hook, watch)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    continue
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, raw))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replace:
                    setattr(ns, attr, replace[id(obj)])
        # propagate() reads exchange moves through this private lru_cache;
        # its hit ratio is read from cache_info() when the cache exists.
        cache = getattr(modules["positivity"], "_move_edges", None)
        if cache is not None and hasattr(cache, "cache_info"):
            self._move_cache = cache

    def move_cache_info(self):
        return self._move_cache.cache_info() if self._move_cache is not None else None

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent_id, request, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent_id,
                            "request": request,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def _validate_hook(tracer, args, result, deltas):
    m = len(args[0])
    tracer.count("wscoll.validate.pairs_checked", m * (m - 1) // 2)


def _find_moves_hook(tracer, args, result, deltas):
    tracer.count("wscoll.find_moves.moves_returned", len(result))


def _reduce_hook(tracer, args, result, deltas):
    tracer.count("wscoll.reduce_to_base.path_moves", len(result.moves))


def _enumerate_hook(tracer, args, result, deltas):
    tracer.count("wscoll.enumerate_component.new_states", len(result) - 1)
    tracer.count("wscoll.enumerate_component.apply_moves", deltas["wscoll.apply_move"])


def _generate_hook(tracer, args, result, deltas):
    tracer.count("reduction.generate_w3.distinct", len(result))
    tracer.count("reduction.generate_w3.translates", deltas["wscoll.translate"])


HOOKS = {
    "wscoll.validate": (_validate_hook, ()),
    "wscoll.find_moves": (_find_moves_hook, ()),
    "wscoll.reduce_to_base": (_reduce_hook, ()),
    "wscoll.enumerate_component": (_enumerate_hook, ("wscoll.apply_move",)),
    "reduction.generate_w3": (_generate_hook, ("wscoll.translate",)),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, spec: list[dict], cache_before, overhead_ratio: float) -> dict:
    """Values for every per-layer metric named in BENCHMARK.json. A function
    that no longer exists, or that the workload never calls, reads 0."""
    c = tracer.counters
    derived = {
        "wscoll.enumerate_component.new_state_ratio": _ratio(
            c.get("wscoll.enumerate_component.new_states", 0),
            c.get("wscoll.enumerate_component.apply_moves", 0),
        ),
        "reduction.generate_w3.translate_useful_ratio": _ratio(
            c.get("reduction.generate_w3.distinct", 0),
            c.get("reduction.generate_w3.translates", 0),
        ),
        "trace.overhead_ratio": overhead_ratio,
    }
    info = tracer.move_cache_info()
    if info is not None and cache_before is not None:
        hits = info.hits - cache_before.hits
        misses = info.misses - cache_before.misses
        derived["positivity.move_cache.hit_ratio"] = _ratio(hits, hits + misses)
    out = {}
    for m in spec:
        name = m["name"]
        base, _, stat = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif name in c:
            value = c[name]
        elif stat == "calls":
            value = tracer.calls.get(base, 0)
        elif stat == "self_s":
            value = tracer.self_time.get(base, 0.0)
        else:
            value = 0
        out[name] = {"value": value, "unit": m["unit"]}
    return out
