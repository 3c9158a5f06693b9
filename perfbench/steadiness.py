"""Steadiness check: repeated runs of one commit must agree.

Run from the repository root:

    python3 perfbench/steadiness.py

For each workload of BENCHMARK.json it makes ``SETS`` sets of ``RUNS``
untraced runs of ``run_seconds`` each, every run with another seed, and
reports per end-to-end metric the spread of each set (distance between
the first and third quartile as a share of the median) and how far the
second set's median moved from the first.  It exits 1 when a spread
exceeds the metric's bound in BENCHMARK.json, or a median got worse by
more than it.
"""

import json
import statistics
import subprocess
import sys

SETS = 2
RUNS = 10
FIRST_SEED = 100


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the check")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ok = True
    seed = FIRST_SEED
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
                seed += 1
            sets.append(runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, cells = [], []
            for runs in sets:
                q1, med, q3 = statistics.quantiles([r[name] for r in runs], n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                cells.append(f"median {med:.4g} spread {spread:.3f}")
                if spread > bound:
                    ok = False
                    cells[-1] += " (over bound)"
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            cells.append(f"moved {worse:+.3f}")
            if worse > bound:
                ok = False
                cells[-1] += " (over bound)"
            print(f"{workload:18s} {name:12s} bound {bound:.2f}  "
                  + "; ".join(cells), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
