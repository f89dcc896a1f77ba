"""Span tracer that instruments gwharmonic from outside the package.

Every public module-level function of a layer module is wrapped once, and the
wrapper is bound in place of the original under every name, in every
`gwharmonic.*` namespace, that holds the original object.  Matching by
identity rather than by name catches aliases such as `experiments.reduce_tree`
(which is `trees.reduce`).  The `cli` layer is represented by the per-stage
span the benchmark opens around each `cli.main` call, so its own functions are
not wrapped; `rngs` does no measurable work and is left alone.

Spans are kept in memory as (id, name, start, end, parent, stage, counts) and
written out once at the end.  Counts are read from arguments and return
values, never from inside the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import resource
import sys
import time

LAYERS = ("offspring", "trees", "network", "rde", "beta", "continuum", "experiments")


def _nodes(reduced) -> int:
    return int(reduced.tree.node_count)


def _eps_suffix(args) -> str:
    return f".eps{round(-math.log2(args[1]))}"


# Counters per wrapped function: fn(args, result) -> {counter: value}.
COUNTERS = {
    "offspring.sample_offspring": lambda a, r: {"offspring.draws": int(r.size)},
    "trees.sample_conditioned_batch": lambda a, r: {
        "trees.trials": r[1],
        "trees.survivors": r[2],
        "trees.materialised": len(r[0]),
        "trees.reduced_nodes": sum(_nodes(t) for t in r[0]),
    },
    "trees.sample_fixed_size_conditioned": lambda a, r: {"trees.fixed_size_trials": r[1]},
    "network.conductance_to_level": lambda a, r: {"network.swept_nodes": _nodes(a[0])},
    "network.harmonic_measure_exact": lambda a, r: {"network.swept_nodes": _nodes(a[0])},
    "rde.phi_step": lambda a, r: {"rde.particles_stepped": r.size},
    "rde.solve_fixpoint": lambda a, r: {"rde.solve_iterations": len(r.trace)},
    "rde.save_cloud": lambda a, r: {"rde.cloud_bytes": os.path.getsize(a[1])},
    "beta.beta_moment": lambda a, r: {"beta.beta_moment.tuples": r.sample_count},
    "beta.beta_triple": lambda a, r: {"beta.beta_triple.tuples": r.sample_count},
    "beta.beta_shift": lambda a, r: {"beta.beta_shift.tuples": r.sample_count},
    "continuum.ray_mass_samples": lambda a, r: {
        "continuum.rays": int(r.size),
        "continuum.rss_high_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    },
}

# Wrapped functions whose span name also carries an argument.
SPAN_SUFFIX = {"continuum.ray_mass_samples": _eps_suffix}

# Counters that keep their maximum over spans instead of the sum.
MAX_COUNTERS = {"continuum.rss_high_mb"}


class Tracer:
    """Holds the spans of one process; `install` patches the package."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.stage = None
        self.wrapped = []

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, time.perf_counter(), None, parent, self.stage, None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()
        return result, record

    def _wrap(self, qualname, fn):
        counter = COUNTERS.get(qualname)
        suffix = SPAN_SUFFIX.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = qualname + suffix(args) if suffix else qualname
            result, record = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                record[6] = counter(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of each layer, bound under any name."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("gwharmonic.") and mod is not None}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"gwharmonic.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    qualname = f"{layer}.{obj.__name__}"
                    wrappers[id(obj)] = (obj, self._wrap(qualname, obj))
                    self.wrapped.append(qualname)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"wrapped": self.wrapped, "spans": self.spans}, fh)


def aggregate(wrapped, spans) -> dict:
    """Per-span-name busy time, self time and calls, plus summed counters.

    Self time is a span's duration minus the time its direct children cover
    (children run nested, so their intervals do not overlap).
    """
    child_time = [0.0] * len(spans)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for name in wrapped:
        out[f"{name}.calls"] = 0
        out[f"{name}.busy_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for sid, name, start, end, parent, _, counts in spans:
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + (end - start)
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child_time[sid])
        for key, value in (counts or {}).items():
            if key in MAX_COUNTERS:
                out[key] = max(out.get(key, 0.0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
