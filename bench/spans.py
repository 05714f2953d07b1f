"""Spans around the public functions of atomon's layers, recorded from outside.

``Tracer.installed()`` rebinds each listed function in every ``atomon.*``
namespace that holds it (``atomon.coproduct.eps_sum_many`` is the same object
as ``atomon.lengths.eps_sum_many``), so calls between layers get their own
nested spans. Leaving the block restores the originals, so untraced passes
run the program exactly as shipped. Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, job, info]``: ``parent`` is the index of
the enclosing span or -1, and ``info`` holds the counts a function's inputs or
result give. Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time


def _n_classes(result) -> int:
    return len(set(result.leader))


# layer name -> functions, each with an optional note(arguments, result) ->
# counts, where arguments maps parameter names to the values of the call.
# enumerate_homs is a generator: its span covers the whole iteration, and its
# "result" is the number of homs it yielded.
LAYERS = {
    "serialize": {"load_monoid": None},
    "core": {
        "new_monoid": lambda a, r: {"elements": len(a["names"])},
        "units": None,
        "atoms": None,
        "check_property": None,
        "new_hom": None,
        "enumerate_homs": lambda a, r: {"candidates": a["target"].size ** (a["source"].size - 1), "found": r},
    },
    "lengths": {
        "power_layers": lambda a, r: {"preperiod": r.preperiod, "period": r.period},
        "length_set": None,
        "length_system": lambda a, r: {"entries": len(r)},
        "eps_minkowski_sum": None,
        "eps_sum_many": None,
        "eps_union": None,
        "eps_intersect": None,
        "union_k": None,
    },
    "coproduct": {
        "fp_union_k": None,
        "fp_length_system_bounded": lambda a, r: {"entries": len(r)},
        "fp_length_set": None,
        "fp_mul": None,
        "reduce": None,
        "gamma_admissible": lambda a, r: {"admitted": int(r)},
    },
    "product": {
        "ap_length_system": lambda a, r: {"entries": len(r)},
        "ap_union_k": None,
    },
    "limits": {
        "congruence_closure": lambda a, r: {"classes": _n_classes(r), "merges": a["m"].size - _n_classes(r)},
        "quotient": None,
    },
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.clock(), None, self.stack[-1] if self.stack else -1, self.job, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, info=None) -> None:
        span = self.spans[sid]
        span[2] = self.clock()
        span[5] = info
        if self.stack and self.stack[-1] == sid:
            self.stack.pop()
        elif sid in self.stack:  # a generator abandoned before exhaustion
            self.stack.remove(sid)

    def reset(self) -> list[list]:
        spans, self.spans, self.stack = self.spans, [], []
        return spans

    def wrap(self, name: str, fn, note):
        if note is not None:
            signature = inspect.signature(fn)
            call_note = note
            note = lambda args, kwargs, result: call_note(signature.bind(*args, **kwargs).arguments, result)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                sid = self.open(name)
                found = 0
                try:
                    for item in fn(*args, **kwargs):
                        found += 1
                        yield item
                finally:
                    self.close(sid, note(args, kwargs, found) if note else None)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(sid, {"raised": type(exc).__name__})
                raise
            self.close(sid, note(args, kwargs, result) if note else None)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every listed function in every loaded atomon module."""
        wrapped = {}
        for layer, funcs in LAYERS.items():
            module = sys.modules[f"atomon.{layer}"]
            for fname, note in funcs.items():
                fn = getattr(module, fname)
                wrapped[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn, note))
        rebound = []
        for modname, module in list(sys.modules.items()):
            if modname != "atomon" and not modname.startswith("atomon."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    rebound.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in rebound:
                setattr(module, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-function totals for one pass: ``<name>.self_s``, ``<name>.calls``,
    ``<name>.rejects`` (calls that raised) and the sum of each counted note,
    plus ``trace.root_s``, the summed duration of spans with no parent."""
    out: dict[str, float] = {"trace.root_s": 0.0}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, _job, info = span
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if parent < 0:
            out["trace.root_s"] += end - start
        if info and "raised" in info:
            out[f"{name}.rejects"] = out.get(f"{name}.rejects", 0) + 1
        elif info:
            for key, value in info.items():
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    return out
