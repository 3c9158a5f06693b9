"""One workload process: set up, then run ops in a closed loop.

Started by ``run.py`` in a fresh interpreter, one process per sample of
set-up time.  It imports the package from ``<root>/src``, loads the
workload's configs, reports readiness, then runs ops one after another
(each op starts only after the previous one returned) and prints one
JSON line per event on standard output:

    {"ready": <monotonic clock>, "setup_yard": {...} | null}
    {"op": i, "s": <wall seconds>, "time_s": <seconds the metrics use>,
     "traced": bool, "error": null | "...", "out": {...}}
    {"done": true, "rss_kb": <ru_maxrss>, "layers": {...},
     "caller_charge_s": <tracer's per-call charge> | null}

The op's own printing is captured, so stdout carries only these lines.

Speed normalisation.  The speed of a shared host can change by a factor
of two within seconds, because of load outside this process.  Untraced
processes of a ``NORMALISED`` workload therefore run a fixed yardstick
loop (``yardstick``) from a ``SIGALRM`` handler every
``SAMPLE_PERIOD_S`` seconds, in the same thread as the op, so the loop
sees the speed the op sees.  An interval's time at reference speed is
its wall time less the yardstick's own time, times ``YARD_REF_S`` over
the interval's mean yardstick time (each sample clipped at ``CLIP`` times
the interval's 10th percentile, so that a sample preempted by the kernel
does not count as a slow host).  ``time_s`` is that time for a
``NORMALISED`` workload and the wall time otherwise.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time

import numpy as np

SAMPLE_PERIOD_S = 0.02
YARD_REF_S = 2.5e-4  # yardstick time that defines reference speed
CLIP = 2.5
# Workloads whose ops run on one thread in the interpreter, so that they
# slow down by the yardstick's factor.  ``studies`` keeps both cores busy
# with OpenBLAS threads and does not follow the yardstick.
NORMALISED = {"track-default"}


def yardstick():
    """Fixed interpreter-bound work: scalar numpy arithmetic in a loop."""
    acc = 0.0
    for s in range(1, 300):
        acc += (4.0 * np.pi * 0.3 * s) ** -1.5 * np.exp(-1.0 / s)
    return acc


class Yardstick:
    """Samples the yardstick's duration every ``SAMPLE_PERIOD_S``."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        began = time.perf_counter()
        yardstick()
        self.samples.append(time.perf_counter() - began)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def mark(self) -> int:
        return len(self.samples)

    def interval(self, since: int) -> dict:
        """Yardstick time spent and speed scale since ``mark()``."""
        got = self.samples[since:]
        if not got:
            raise RuntimeError("no yardstick sample in a timed interval")
        cut = CLIP * sorted(got)[len(got) // 10]
        mean = sum(min(x, cut) for x in got) / len(got)
        return {"n": len(got), "spent_s": sum(got), "scale": YARD_REF_S / mean}

    def reference_s(self, wall_s: float, since: int) -> float:
        """Wall time of an interval, converted to reference speed."""
        yard = self.interval(since)
        return (wall_s - yard["spent_s"]) * yard["scale"]


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines]


def make_workload(name, seed, configs_dir, scratch):
    """Load the workload's configs; return ``(run, collect)``.

    ``run`` is the timed op.  ``collect`` turns its result into the
    outputs the parent checks, outside the timed region.
    """
    from heattrack.harness import cli, config, experiments

    if name == "track-default":
        config.load_config("default", seed)

        def run():
            out_dir = tempfile.mkdtemp(dir=scratch)
            with contextlib.redirect_stdout(io.StringIO()) as text:
                rc = cli.main(["track", "--config", "default",
                               "--seed", str(seed), "--out", out_dir])
            return rc, out_dir, text.getvalue()

        def collect(result):
            rc, out_dir, text = result
            try:
                budget = read_csv(os.path.join(out_dir, "budget.csv"))
                summary = read_csv(os.path.join(out_dir, "summary.csv"))
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            return {"rc": rc,
                    "failed_assertions": [line for line in text.splitlines()
                                          if line.startswith("[FAIL]")],
                    "budget": [dict(zip(budget[0], row)) for row in budget[1:]],
                    "summary": dict(summary[1:])}
        return run, collect

    if name == "studies":
        box3 = config.load_config(os.path.join(configs_dir, "box3.yaml"), seed)
        default = config.load_config("default", seed)

        def run():
            return (experiments.run_place(box3),
                    experiments.run_simulate(box3, strict=False),
                    experiments.run_restriction(box3, strict=False),
                    experiments.run_coercivity(default))

        def collect(result):
            (_, matrices, report, _), sim, restriction, (coercivity, _) = result
            failed = [k for group in (sim[4], restriction[1])
                      for k, (ok, _) in group.items() if not ok]
            return {"genericity_failures": report.failures,
                    "place_sigma_min": matrices.sigma_min,
                    "failed_assertions": failed,
                    "coercivity_cells": list(coercivity.cells),
                    "coercivity_constants": coercivity.constants.tolist()}
        return run, collect

    raise SystemExit(f"unknown workload {name!r}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=1_000_000,
                        help="most ops to run (0: set-up only)")
    parser.add_argument("--until", type=float, default=0.0,
                        help="monotonic time after which no op may end")
    parser.add_argument("--trace", default="",
                        help="write spans to this JSON-lines file")
    args = parser.parse_args()

    yard = (Yardstick().start()
            if args.workload in NORMALISED and not args.trace else None)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import heattrack
    import heattrack.harness.cli  # noqa: F401  (part of set-up)

    if not os.path.abspath(heattrack.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise SystemExit(f"heattrack imported from {heattrack.__file__}, "
                         f"not from {src}")
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer().install()
    scratch = os.path.join(args.root, ".perfbench_out")
    run, collect = make_workload(
        args.workload, args.seed,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs"),
        scratch)
    if tracer is not None:
        tracer.restore()
    emit({"ready": time.monotonic(),
          "setup_yard": yard.interval(0) if yard else None})

    # At least one op after the first (one traced and one not, with tracing).
    last, ran, least = 0.0, 0, 2 if tracer is None else 3
    for index in range(args.ops):
        if index >= least and time.monotonic() + last > args.until:
            break
        # With tracing, even ops are traced and odd ops are not, so the
        # tracing overhead is measured on neighbouring ops.
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.phase = index
            tracer.install()
        since = yard.mark() if yard else None
        began = time.perf_counter()
        try:
            result, error = run(), None
        except Exception as exc:  # an op failure is a measured outcome
            result, error = None, f"{type(exc).__name__}: {exc}"
        last = time.perf_counter() - began
        # A failed op may end before the first sample: it keeps its wall time.
        time_s = (yard.reference_s(last, since) if yard and not error
                  else last)
        if traced:
            tracer.restore()
        ran += 1
        out = None
        if error is None:
            try:
                out = collect(result)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        emit({"op": index, "s": last, "time_s": time_s, "traced": traced,
              "error": error, "out": out})

    if yard is not None:
        yard.stop()
    layers = None
    if tracer is not None:
        tracer.write_jsonl(args.trace)
        layers = {str(phase): tracer.phase_metrics(phase)
                  for phase in ["setup"] + list(range(0, ran, 2))}
    emit({"done": True,
          "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          "layers": layers,
          "caller_charge_s": tracer.caller_charge_s if tracer else None})


if __name__ == "__main__":
    main()
