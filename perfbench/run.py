"""heattrack benchmark: one closed-loop client per workload.

Run from the repository root:

    python3 perfbench/run.py --workload track-default --seed 7 \
        --seconds 55 --trace 0

Every op runs in a child interpreter (``child.py``) that imports the
package from ``src/``; one client sends each op only after the previous
one returned.  The outputs of every op are checked against
``reference.py``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics, spending ``--seconds`` on
  * set-up probes: fresh interpreters that only set up;
  * short processes, one after another for ``SHORT_SHARE`` of the time,
    each of which sets up and runs one op;
  * one long-lived process that runs ops until the time is spent.
  ``setup_s`` is the median set-up over all processes, ``first_op_s``
  the median first op of the short and long processes, ``op_s.p50`` the
  median of the long process's later ops and ``peak_rss_mb`` the long
  process's ``ru_maxrss``.  Times of a ``NORMALISED`` workload are at
  reference speed (see the speed normalisation in ``child.py``); the raw
  wall medians are printed too.
``--trace 1`` runs one process whose set-up and even ops are traced
  (``tracer.py``) and whose odd ops are not.  Each per-layer metric is
  its set-up value plus its median over the traced ops after the first;
  ``trace.overhead_s`` is the median traced op after the first minus the
  median untraced op.  Spans go to ``.perfbench_out/`` as JSON lines.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402

WORKLOADS = ("track-default", "studies")
SETUP_PROBES = 3
SHORT_SHARE = 0.5  # share of the run spent on one-op processes
GRACE_S = 90.0  # how far past its time budget a run may go before it is killed


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def stamp(seed: int) -> dict:
    """Host and library stack of this run."""
    import numpy
    from importlib import metadata

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": {k: os.environ.get(k, "unset") for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")},
            "seed": seed, "commit": commit}


class Child:
    """A finished child interpreter and what it reported."""

    def __init__(self, workload, seed, ops, until, deadline, trace="",
                 importtime=False):
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [os.path.join(HERE, "child.py"), "--root", os.getcwd(),
                "--workload", workload, "--seed", str(seed),
                "--ops", str(ops), "--until", repr(until)]
        if trace:
            cmd += ["--trace", trace]
        err_path = os.path.join(".perfbench_out",
                                f"stderr-{os.getpid()}-{time.monotonic_ns()}")
        spawned = time.monotonic()
        with open(err_path, "w+", encoding="utf-8") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    text=True)
            try:
                stdout, _ = proc.communicate(
                    timeout=max(1.0, deadline - time.monotonic()))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            err.seek(0)
            self.stderr = err.read()
        os.remove(err_path)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} child exited {proc.returncode}:\n"
                               + self.stderr[-2000:])
        records = [json.loads(line) for line in stdout.splitlines()]
        self.setup_wall_s = records[0]["ready"] - spawned
        yard = records[0]["setup_yard"]
        self.setup_s = self.setup_wall_s if yard is None else (
            (self.setup_wall_s - yard["spent_s"]) * yard["scale"])
        self.ops = [r for r in records if "op" in r]
        self.rss_mb = records[-1]["rss_kb"] / 1024.0
        self.layers = records[-1]["layers"]
        self.caller_charge_s = records[-1]["caller_charge_s"]


def import_times(stderr: str) -> dict:
    """Cumulative import seconds from ``-X importtime`` output."""
    found = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                found[name.strip()] = int(cumulative) * 1e-6
    return {"import.heattrack_s": found.get("heattrack", 0.0),
            "import.scipy.linalg_s": found.get("scipy.linalg", 0.0)}


def layer_metrics(child: Child, names, overhead_s: float) -> dict:
    steady = [str(op["op"]) for op in child.ops[1:] if op["traced"]]
    values = {}
    for name in names:
        per_op = [child.layers[phase].get(name, 0.0) for phase in steady]
        values[name] = (child.layers["setup"].get(name, 0.0)
                        + statistics.median(per_op))
    values.update(import_times(child.stderr))
    values["trace.overhead_s"] = overhead_s
    return {name: values[name] for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exit that stops the running child.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not os.path.isdir("src"):
        sys.exit("run from the repository root: src/ is missing")
    os.makedirs(".perfbench_out", exist_ok=True)
    info = stamp(args.seed)
    expected = reference.expected(args.workload, args.seed)

    start = time.monotonic()
    until = start + args.seconds
    deadline = until + GRACE_S

    def spawn(ops, **kw):
        return Child(args.workload, args.seed, ops, until, deadline, **kw)

    if args.trace:
        trace_path = os.path.join(
            ".perfbench_out", f"trace-{args.workload}-seed{args.seed}.jsonl")
        traced = spawn(10 ** 6, trace=trace_path, importtime=True)
        op_children = [traced]
    else:
        setup_only = [spawn(0) for _ in range(SETUP_PROBES)]
        short, last = [], 0.0
        short_until = start + SHORT_SHARE * args.seconds
        while len(short) < 2 or time.monotonic() + last <= short_until:
            began = time.monotonic()
            short.append(spawn(1))
            last = time.monotonic() - began
        long_lived = spawn(10 ** 6)
        op_children = short + [long_lived]

    ops = [op for child in op_children for op in child.ops]
    failures = []
    for op in ops:
        problems = ([op["error"]] if op["error"] else
                    reference.check(args.workload, op["out"], expected))
        if problems:
            failures.append((op["op"], problems))
    for index, problems in failures[:5]:
        print(f"op {index} failed: " + "; ".join(problems[:5]))

    if args.trace:
        overhead = (
            statistics.median(op["s"] for op in traced.ops[1:] if op["traced"])
            - statistics.median(op["s"] for op in traced.ops
                                if not op["traced"]))
        print(f"tracer charge per call subtracted from callers: "
              f"{traced.caller_charge_s * 1e9:.0f} ns")
        units = per_layer_units()
        values = layer_metrics(traced, units, overhead)
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in values.items()}
    else:
        children = setup_only + op_children
        first = [c.ops[0] for c in op_children]
        steady = long_lived.ops[1:]
        metrics = {
            "setup_s": {"value": statistics.median(
                c.setup_s for c in children), "unit": "s"},
            "first_op_s": {"value": statistics.median(
                op["time_s"] for op in first), "unit": "s"},
            "op_s.p50": {"value": statistics.median(
                op["time_s"] for op in steady), "unit": "s"},
            "peak_rss_mb": {"value": long_lived.rss_mb, "unit": "MB"},
        }
        print(f"samples: setup_s {len(children)}, first_op_s {len(first)}, "
              f"op_s.p50 {len(steady)}")
        print("raw wall medians: setup {:.4f} s, first op {:.4f} s, "
              "later ops {:.4f} s".format(
                  statistics.median(c.setup_wall_s for c in children),
                  statistics.median(op["s"] for op in first),
                  statistics.median(op["s"] for op in steady)))

    for name, entry in metrics.items():
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}")
    print(f"fail_frac {len(failures)}/{len(ops)}")
    print("stamp " + json.dumps(info, sort_keys=True))
    result = {"correct": not failures, "attempted": len(ops),
              "failed": len(failures), "metrics": metrics}
    with open(os.path.join(".perfbench_out",
                           f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "stamp": info}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
