"""Outside-in tracer: spans around the public functions of each layer.

The package is not edited.  ``Tracer.install`` wraps every function named
in a layer module's ``__all__`` (or, for a module without one, every
public function it defines), plus ``scipy.linalg.expm``, ``eigh`` and
``null_space``, and rebinds each wrapper in every ``heattrack`` namespace
that holds the original by name.  ``Tracer.restore`` puts the originals
back.

Each call is a span with a name, start, end and parent span.  Self time
(a span's duration minus the time its child spans cover, less the
wrapper cost each child call leaves with its caller, ``caller_charge_s``,
measured when the tracer is made) and call and error counts are accumulated per phase (set-up, or the op index), so
spans of one op share that phase as their identifier.  Spans are kept in
memory and written as JSON lines by ``write_jsonl``; for names called
more than ``KEEP_SPANS`` times in a phase, only the first ``KEEP_SPANS``
spans are kept (a track op makes 210,000 kernel calls), while the counts
and self times still cover every call.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("spectral", "placement", "control", "plasmonic", "restriction",
          "harness.config", "harness.experiments", "harness.manifest",
          "harness.cli")

KEEP_SPANS = 2000

# scipy.linalg functions traced as part of the layer that calls them.
SCIPY_SPANS = {"expm": "control.expm",
               "eigh": "harness.experiments.eigh",
               "null_space": "harness.experiments.eigh"}


def _operator_key(args, kwargs) -> str:
    """Digest of what fixes a Volterra operator: centers, coupling,
    kappa, dt and the step count Q."""
    import numpy as np

    names = ("centers", "coupling", "kappa", "times")
    vals = dict(zip(names, args))
    vals.update({k: v for k, v in kwargs.items() if k in names})
    times = np.asarray(vals["times"], dtype=float)
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(vals["centers"], dtype=float).tobytes())
    digest.update(np.ascontiguousarray(vals["coupling"], dtype=float).tobytes())
    digest.update(repr((float(vals["kappa"]), float(times[1] - times[0]),
                        times.shape[0] - 1)).encode())
    return digest.hexdigest()


def measure_caller_charge(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds per traced call that land in the caller's self time.

    The call into the wrapper and the arithmetic after a span closes run
    outside that span.  Measured as the self time of a traced loop of
    calls to a traced empty function, less the same loop untraced; the
    median over ``repeats``.
    """
    def empty():
        return None

    def loop(fn):
        def run():
            for _ in range(calls):
                fn()
        return run

    charges = []
    for _ in range(repeats):
        plain = loop(empty)
        began = time.perf_counter()
        plain()
        untraced = time.perf_counter() - began
        probe = Tracer(caller_charge_s=0.0)
        probe.span("probe.loop", loop(probe.span("probe.empty", empty)))()
        charges.append((probe.stats[("setup", "probe.loop")][1] - untraced)
                       / calls)
    return statistics.median(charges)


class Tracer:
    def __init__(self, caller_charge_s=None):
        self.phase = "setup"
        self.caller_charge_s = (measure_caller_charge()
                                if caller_charge_s is None else caller_charge_s)
        self.stack = []          # open spans: [id, name, start, covered, children]
        self.next_id = 0
        self.spans = []          # kept spans: (id, parent, name, phase, start, end, ok)
        self.stats = defaultdict(lambda: [0, 0.0, 0])  # (phase, name) -> calls, self_s, errors
        self.operators = defaultdict(set)              # phase -> Volterra operator keys
        self.extra = defaultdict(float)                # (phase, metric) -> total
        self._patches = []       # (namespace, attribute, original)

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            # The span opens before and closes after the wrapper's own
            # bookkeeping, so that cost is charged to this span, not to
            # the self time of its caller.
            start = time.perf_counter()
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [span_id, name, start, 0.0, 0]
            tracer.stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer.stack.pop()
                stat = tracer.stats[(tracer.phase, name)]
                stat[0] += 1
                stat[2] += not ok
                if ok and after is not None:
                    after(tracer.phase, args, kwargs)
                keep = stat[0] <= KEEP_SPANS
                end = time.perf_counter()
                duration = end - start
                stat[1] += (duration - frame[3]
                            - frame[4] * tracer.caller_charge_s)
                if tracer.stack:
                    tracer.stack[-1][3] += duration
                    tracer.stack[-1][4] += 1
                if keep:
                    tracer.spans.append((span_id, parent, name, tracer.phase,
                                         start, end, ok))

        wrapper.__wrapped__ = fn
        return wrapper

    def _volterra(self, phase, args, kwargs):
        self.operators[phase].add(_operator_key(args, kwargs))
        times = args[3] if len(args) > 3 else kwargs["times"]
        self.extra[(phase, "plasmonic.volterra_solve.steps")] += len(times) - 1

    def _csv_bytes(self, phase, args, kwargs):
        path = args[0] if args else kwargs["path"]
        self.extra[(phase, "harness.manifest.write_csv.bytes")] += \
            os.path.getsize(path)

    # -- installation ------------------------------------------------------

    def install(self):
        import scipy.linalg

        hooks = {"plasmonic.volterra_solve": self._volterra,
                 "harness.manifest.write_csv": self._csv_bytes}
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules["heattrack." + layer]
            names = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")]
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = self.span(name, fn, hooks.get(name))
        for attr, name in SCIPY_SPANS.items():
            fn = getattr(scipy.linalg, attr)
            wrappers[id(fn)] = self.span(name, fn)
            self._rebind(scipy.linalg, attr, wrappers[id(fn)])
        for modname, module in list(sys.modules.items()):
            if modname != "heattrack" and not modname.startswith("heattrack."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._rebind(module, attr, wrappers[id(value)])
        return self

    def _rebind(self, namespace, attr, wrapper):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def restore(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def phase_metrics(self, phase) -> dict:
        """Per-function and per-layer totals of one phase."""
        out = defaultdict(float)
        for (ph, name), (calls, self_s, errors) in self.stats.items():
            if ph != phase:
                continue
            layer = name.rsplit(".", 1)[0]
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += self_s
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.errors"] += errors
        for (ph, metric), value in self.extra.items():
            if ph == phase:
                out[metric] += value
        if self.operators.get(phase):
            out["plasmonic.volterra_solve.distinct_operators"] = \
                len(self.operators[phase])
        return dict(out)

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, phase, start, end, ok in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "phase": phase,
                                     "start": start, "end": end,
                                     "ok": ok}) + "\n")
            for (phase, name), (calls, self_s, errors) in sorted(
                    self.stats.items(), key=lambda kv: str(kv[0])):
                fh.write(json.dumps({"summary": name, "phase": phase,
                                     "calls": calls, "self_s": self_s,
                                     "errors": errors}) + "\n")
