"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root:

    python3 perfbench/stability.py --seeds 1-10 [--workloads pipeline,dense-scale]
                                   [--write-baseline]

Runs ``BENCHMARK.json``'s command once per workload and seed, one run at a
time, and prints for each metric the median and the quartile spread
(Q3 - Q1, as ``statistics.quantiles(values, n=4)`` gives them) as a share of
the median, next to the metric's bound.  ``--write-baseline`` stores the
medians in ``perfbench/baseline.json``, which every later result echoes so a
change can be compared with the commit that defined the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--write-baseline", action="store_true")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                ok = False
                continue
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        summary[name] = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name][metric] = med
            bound = bounds.get(metric)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:12s} {metric:12s} median {med:10.4g}  spread {spread:6.3f}"
                  f"  bound {bound}{flag}")
    if args.write_baseline:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or None
        path = os.path.join(HERE, "baseline.json")
        doc = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        for name, medians in summary.items():
            doc[name] = {"commit": sha, "seeds": f"{args.seeds[0]}-{args.seeds[-1]}",
                         "medians": medians}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
