"""nilmap benchmark: one seeded workload, end to end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload small-maps --seed 1 --seconds 28 --trace 0

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs every operation twice, once
plain and once with spans recorded around each nilmap layer, and reports
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.

End-to-end times are reported at a reference machine speed.  Between
blocks of operations, and around each set-up, the run times a fixed piece
of exact arithmetic that does not touch nilmap (``reference_work``); every
raw time is scaled by ``REF_MS`` over the reference time measured around
it.  A shared 2-vCPU host was seen to drift in speed by up to a third over
tens of seconds; the reference drifts with it, so the scaled times follow
nilmap's cost rather than the host's.  The raw times
are in the ``record`` line.

``--write-golden`` runs every operation of the golden seed once and writes
the digests that later runs of that seed must reproduce.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
GOLDEN_DIR = os.path.join(HERE, "golden")
GOLDEN_SEED = 1
SETUP_REPEATS = 3
WARMUP_OPS = 3
PROBE_REPEATS = 5
SIGMA_MAPS = 3
# Candidate tail percentiles; the highest one with at least ten samples
# beyond it is reported.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# Machine-speed reference: nominal time of one reference_work() call (ms,
# about its median on a 2-vCPU Xeon at 2.1 GHz), calls per reference sample,
# operation time between samples (s), and blocks on each side of a block
# whose samples are averaged into its speed.
REF_MS = 1.8
REF_CALLS = 8
BLOCK_S = 0.5
SMOOTH_BLOCKS = 2
_REF_A = [((i % 4, i * 7 % 5, i * 3 % 4), Fraction(i * 37 % 101 - 50, i % 13 + 1))
          for i in range(1, 19)]
_REF_B = [((j % 3, j * 5 % 4, j * 2 % 5), Fraction(j * 53 % 97 - 48, j % 11 + 2))
          for j in range(1, 21)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true")
    return p.parse_args(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def tail_percentile(latencies):
    """(percentile, value) at the highest ladder step with >= 10 samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p * n / 100))  # nearest-rank, 1-based
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    if best is None:
        return 100.0, ordered[-1]
    return best


def reference_work() -> int:
    """A fixed sparse product of rational polynomials, independent of nilmap."""
    acc = {}
    for ea, ca in _REF_A:
        for eb, cb in _REF_B:
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            acc[key] = acc.get(key, 0) + ca * cb
    return len(acc)


def reference_ms(calls: int = REF_CALLS) -> float:
    """Median time (ms) of `calls` calls of reference_work()."""
    times = []
    for _ in range(calls):
        t = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1000.0


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def probe_ms() -> tuple[float, float]:
    """Median wall times (ms) of a bare interpreter and of `import nilmap.cli`.

    The two probes alternate, so both see the same machine conditions.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = {"pass": [], "import nilmap.cli": []}
    for _ in range(PROBE_REPEATS):
        for code, samples in times.items():
            t = time.perf_counter()
            # Pipes let communicate() return at the child's exit; a bare
            # wait(timeout) polls with sleeps of up to 50 ms.
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, timeout=60)
            samples.append(time.perf_counter() - t)
    bare, imported = (statistics.median(v) * 1000.0 for v in times.values())
    return bare, imported - bare


def setup(workloads, name, seed):
    """Build the operation list, write its input files, warm up; return ops."""
    builder, rounds = workloads.WORKLOADS[name]
    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = builder(random.Random(f"{name}:{seed}"), rounds, workdir)
    for op in ops[:WARMUP_OPS]:
        op.run()
    return ops


class Verdicts:
    """Failure bookkeeping over executions of the operation list."""

    def __init__(self, ops, golden):
        self.ops = ops
        self.golden = golden
        self.first = {}  # op index -> (result, digest)
        self.failed_ops: dict[int, str] = {}

    def record(self, i, result, error=None):
        op = self.ops[i]
        if error is not None:
            self.failed_ops.setdefault(i, f"exception: {error!r}")
            return
        reason = op.failure(result)
        d = digest(op.output(result))
        if reason is None and self.golden is not None and self.golden[i] != d:
            reason = "output differs from the golden digest"
        if i in self.first:
            if reason is None and self.first[i][1] != d:
                reason = "output differs between executions"
        else:
            self.first[i] = (result, d)
        if reason is not None:
            self.failed_ops.setdefault(i, reason)

    def run_checks(self):
        for i, (result, _) in sorted(self.first.items()):
            if i in self.failed_ops:
                continue
            try:
                reason = self.ops[i].check(result)
            except Exception as exc:  # a malformed output is a failure, not a crash
                reason = f"check raised {exc!r}"
            if reason is not None:
                self.failed_ops[i] = reason

    def failures(self, executed):
        return sum(1 for i in executed if i in self.failed_ops)

    def details(self):
        return [
            {"op": i, "label": self.ops[i].label, "reason": r}
            for i, r in sorted(self.failed_ops.items())[:20]
        ]


def timed(op):
    t = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:
        result, error = None, exc
    return time.perf_counter() - t, result, error


def run_plain(ops, seconds, verdicts):
    """Closed loop until the operations have taken `seconds` in total.

    Checking an output happens between operations and is not timed.  After
    every BLOCK_S of operation time, and before the first block, a reference
    sample is taken.  Returns the raw latencies, the latencies scaled to the
    reference speed, and the executed operation indices.
    """
    latencies, executed = [], []
    samples = [reference_ms()]
    ends = []  # latencies[ends[b - 1]:ends[b]] is block b
    busy = block = 0.0
    j = 0
    while busy < seconds:
        i = j % len(ops)
        dt, result, error = timed(ops[i])
        verdicts.record(i, result, error)
        latencies.append(dt)
        executed.append(i)
        busy += dt
        block += dt
        j += 1
        if block >= BLOCK_S or busy >= seconds:
            samples.append(reference_ms())
            ends.append(len(latencies))
            block = 0.0
    scaled = []
    start = 0
    for b, end in enumerate(ends):
        # Block b lies between samples b and b + 1.
        near = samples[max(0, b - SMOOTH_BLOCKS):b + SMOOTH_BLOCKS + 2]
        factor = REF_MS * len(near) / sum(near)
        scaled.extend(dt * factor for dt in latencies[start:end])
        start = end
    return latencies, scaled, executed


def run_traced(ops, seconds, verdicts, tracer):
    """Each operation plain and traced, alternating which goes first."""
    plain_s = traced_s = 0.0
    executed = []
    start = time.perf_counter()
    j = 0
    while True:
        i = j % len(ops)
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            if traced:
                tracer.op = j
                tracer.install()
                try:
                    dt, result, error = timed(ops[i])
                finally:
                    tracer.remove()
                traced_s += dt
            else:
                dt, result, error = timed(ops[i])
                plain_s += dt
            verdicts.record(i, result, error)
        executed.append(i)
        j += 1
        if time.perf_counter() - start >= seconds:
            break
    return executed, traced_s / plain_s


def sigma_probe(workloads, seed):
    """Median untraced `nilpotency_equations` time per dimension n = 3..6.

    Every traced run measures it on the same kind of input, the nilpotent
    degree-2 maps of dense-scale, so the figure means the same on every
    workload.
    """
    rng = random.Random(f"sigma:{seed}")
    out = {}
    for n in range(3, 7):
        times = []
        for _ in range(SIGMA_MAPS):
            H = workloads.triangular_nilpotent(rng, n, 2)
            t = time.perf_counter()
            workloads.analysis.nilpotency_equations(H)
            times.append(time.perf_counter() - t)
        out[n] = statistics.median(times)
    return out


def layer_metrics(tracer, ops_traced, overhead, workloads, seed):
    per_op = 1.0 / ops_traced
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer, ns in tracer.layer_self_ns().items():
        put(f"{layer}.self_s", ns / 1e9 * per_op, "s/op")
    for key in ("poly.mul", "poly.add", "poly.substitute", "linalg.poly_det",
                "linalg.kernel", "linalg.rref", "analysis.is_nilpotent",
                "analysis.linear_dependence"):
        put(f"{key}.calls", tracer.calls(key) * per_op, "calls/op")
    for key in ("poly.substitute", "poly.compose", "poly.exact_div",
                "linalg.principal_minor_sum", "linalg.matmul",
                "analysis.bruteforce", "analysis.conjugate",
                "classify.recognize_canonical_pair", "classify.nilpotency_system",
                "tame.formal_inverse", "tame.classify_and_decompose",
                "parsing.parse", "parsing.format"):
        put(f"{key}.s", tracer.group_ns(key) / 1e9 * per_op, "s/op")
    for n, seconds in sigma_probe(workloads, seed).items():
        put(f"analysis.sigma_s.n{n}", seconds, "s")
    interpreter, import_ms = probe_ms()
    put("cli.interpreter_ms", interpreter, "ms")
    put("cli.import_ms", import_ms, "ms")
    put("trace.overhead_ratio", overhead, "ratio")
    return m


def write_golden(workloads, name):
    ops = setup(workloads, name, GOLDEN_SEED)
    verdicts = Verdicts(ops, None)
    for i, op in enumerate(ops):
        _, result, error = timed(op)
        verdicts.record(i, result, error)
    verdicts.run_checks()
    if verdicts.failed_ops:
        print(json.dumps(verdicts.details(), indent=2), file=sys.stderr)
        return 1
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": GOLDEN_SEED,
                   "digests": [verdicts.first[i][1] for i in range(len(ops))]}, fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(ops)} golden digests for {name}")
    return 0


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t_import = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import nilmap from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import
    if not os.path.abspath(workloads.analysis.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"nilmap was imported from {workloads.analysis.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.write_golden:
        return write_golden(workloads, args.workload)

    # Set-up times are scaled like operation times, by reference samples
    # taken just before and after each set-up.  A set-up lasts up to a few
    # seconds, over which the host's speed can change, so these samples are
    # longer: about 0.2 s each.  The previous
    # set-up's inputs are freed first, so each one starts as a fresh
    # process would.
    before = reference_ms(16 * REF_CALLS)
    import_scaled = import_s * REF_MS / before
    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        ops = None
        gc.collect()
        t = time.perf_counter()
        ops = setup(workloads, args.workload, args.seed)
        dt = time.perf_counter() - t
        after = reference_ms(16 * REF_CALLS)
        setup_times.append(dt)
        setup_scaled.append(dt * REF_MS * 2 / (before + after))
        before = after
    setup_s = import_scaled + statistics.median(setup_scaled)

    golden = None
    if args.seed == GOLDEN_SEED:
        doc = load_json(os.path.join(GOLDEN_DIR, f"{args.workload}.json"))
        if doc is None or len(doc["digests"]) != len(ops):
            print(f"golden digests for {args.workload} are missing or stale", file=sys.stderr)
            return 2
        golden = doc["digests"]

    verdicts = Verdicts(ops, golden)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        executed, overhead = run_traced(ops, args.seconds, verdicts, tracer)
        verdicts.run_checks()
        metrics = layer_metrics(tracer, len(executed), overhead, workloads, args.seed)
        os.makedirs(WORK, exist_ok=True)
        trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "ops": len(executed)})
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        raw, scaled, executed = run_plain(ops, args.seconds, verdicts)
        verdicts.run_checks()
        pct, tail = tail_percentile(scaled)
        metrics = {
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(scaled) * 1000.0, "unit": "ms"},
            "op_tail_ms": {"value": tail * 1000.0, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        strata = {}
        for i, dt in zip(executed, scaled):
            strata.setdefault(ops[i].label, []).append(dt * 1000.0)
        record.update({"tail_percentile": pct, "latency_samples": len(scaled),
                       "setup_runs_s": setup_times, "import_s": import_s,
                       "speed_factor": sum(scaled) / sum(raw),
                       "raw": {"ops_per_s": len(raw) / sum(raw),
                               "op_p50_ms": statistics.median(raw) * 1000.0,
                               "op_tail_ms": tail_percentile(raw)[1] * 1000.0,
                               "setup_s": import_s + statistics.median(setup_times)},
                       "stratum_median_ms": {k: statistics.median(v) for k, v in sorted(strata.items())}})

    attempted = len(executed)
    failed = verdicts.failures(executed)
    record.update({
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "distinct_ops": len(set(executed)),
        "op_list_length": len(ops),
        "golden_checked": golden is not None,
        "failures": verdicts.details(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git": git_state(),
        "baseline": (load_json(os.path.join(HERE, "baseline.json")) or {}).get(args.workload),
        "metrics": metrics,
    })
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:38s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:12s} {'fail_ratio':38s} {failed / attempted:14.6g} ratio")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
