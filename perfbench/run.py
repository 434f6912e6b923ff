"""Benchmark of pwlregions: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enum-random --seed 0 --seconds 30 --trace 0

``--workload all`` (the default) runs every workload in turn, each in a
child process of its own, so that each reports its own peak memory.
``--trace 0`` runs passes of the workload's ops back to back (a closed
loop, one caller, one thread), as many as fit in ``--seconds`` at the
workload's nominal pass time and at least one, and reports the
end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics, with the traced-minus-untraced pass time as
``trace.overhead_s``.  The last line of standard output is one JSON
object; see perfbench/README.md for every metric.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads: one thread, closed loop.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 6      # fresh imports per run, half before and half after the passes
HOP_SECONDS = 0.5      # how often a run moves itself to its next allowed CPU
# Tail percentile: the highest of these with at least ten ops of one pass beyond it.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program():
    """Import pwlregions from this checkout's src/, and nowhere else."""
    if not (SRC / "pwlregions" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'pwlregions'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import pwlregions
    if Path(pwlregions.__file__).resolve().parent != (SRC / "pwlregions").resolve():
        fail(f"imported pwlregions from {pwlregions.__file__}, not from {SRC}")


def time_imports(count: int, hopper) -> list[float]:
    """Wall times of ``count`` fresh interpreters' ``import pwlregions``,
    each started on the next allowed CPU.

    ``setup_s`` is the fastest of them: other load on the machine only
    ever adds time, as for op latencies.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import pwlregions"]
    times = []
    for _ in range(count):
        hopper.hop()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    hopper.release()
    return times


class CpuHopper:
    """While entered, move this process to its next allowed CPU every
    HOP_SECONDS, so that the samples of every op see every CPU.
    ``hop`` makes one such move; a child process starts on the CPU of
    the last one.

    On a shared host one CPU can stay slow for tens of seconds, because
    of load on the other hardware thread of its core, while another is
    fast; a process the scheduler leaves on the slow one would read slow
    for a whole run.  The hop changes only this process's own affinity,
    and is skipped where there is one CPU or the call is not allowed.
    """

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.turn = 0

    def _set(self, cpus) -> None:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass

    def hop(self, *_) -> None:
        if len(self.cpus) > 1:
            self.turn += 1
            self._set({self.cpus[self.turn % len(self.cpus)]})

    def release(self) -> None:
        """Allow every CPU again."""
        if len(self.cpus) > 1:
            self._set(self.cpus)

    def __enter__(self):
        if len(self.cpus) > 1:
            signal.signal(signal.SIGALRM, self.hop)
            signal.setitimer(signal.ITIMER_REAL, HOP_SECONDS, HOP_SECONDS)
        return self

    def __exit__(self, *exc):
        if len(self.cpus) > 1:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.release()


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "bytecode_cache": not sys.dont_write_bytecode}


def nearest_rank(sorted_values, pct: float) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(ops_per_pass: int) -> float:
    eligible = [p for p in TAIL_LADDER
                if ops_per_pass - math.ceil(p / 100.0 * ops_per_pass) >= 10]
    return eligible[-1] if eligible else TAIL_LADDER[0]


class Pass:
    """One run of every op of a workload, in order."""

    def __init__(self, workload):
        from workloads import Verdict

        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.failed = 0
        self.wrong = 0          # failed ops other than a known defect
        self.regions = {}       # op -> regions it enumerated (enum-random)
        digest_a, digest_b = hashlib.sha256(), hashlib.sha256()
        for op in workload.ops:
            exc = None
            out = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as err:   # the op boundary: record and go on
                exc = err
            dt = time.perf_counter() - t0
            self.latencies.append(dt)
            if exc is None:
                verdict = op.check(out)
                known = False
            else:
                verdict = Verdict([f"{type(exc).__name__}: {exc}"],
                                  f"error:{type(exc).__name__}\n".encode(), str(exc).encode())
                known = op.known_defect(exc)
            digest_a.update(verdict.patterns)
            digest_b.update(verdict.bytes)
            if verdict.failures:
                self.failed += 1
                self.wrong += not known
                self.failures.extend(f"{op.label}: {f}" for f in verdict.failures)
            self.regions[op] = verdict.regions
        self.wall_s = sum(self.latencies)
        self.digests = (digest_a.hexdigest(), digest_b.hexdigest())


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name](seed)
    passes = []
    tracer = None
    hopper = CpuHopper()
    if trace:
        with hopper:
            passes.append(Pass(workload))
            tracer = Tracer()
            with tracer:
                passes.append(Pass(workload))
        return workload, None, passes, tracer
    # the first import may also write bytecode caches, so it is not counted
    imports = time_imports(1 + SETUP_REPEATS // 2, hopper)[1:]
    with hopper:
        for _ in range(max(1, int(seconds // workload.pass_seconds))):
            passes.append(Pass(workload))
    imports += time_imports(SETUP_REPEATS - len(imports), hopper)
    return workload, min(imports), passes, tracer


def end_to_end(workload, setup_s, passes):
    """End-to-end metrics over untraced passes, plus the printed-only extras.

    Passes repeat identical inputs, so each op's latency is its fastest
    run in the passes, as ``timeit`` reports: other load on the machine
    only ever adds time.  ``wall_s`` is the sum of those latencies.
    """
    samples = defaultdict(list)
    for p in passes:
        for op, dt in zip(workload.ops, p.latencies):
            samples[op].append(dt)
    latencies = sorted(min(dts) for dts in samples.values())
    wall_s = sum(latencies)
    tail = tail_percentile(len(samples))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (len(samples) / wall_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * nearest_rank(latencies, tail), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {}
    if workload.name == "enum-random":
        extra["regions_per_s"] = (sum(passes[0].regions.values()) / wall_s, "1/s")
    for op, dts in samples.items():
        if op.label == "verify-all":
            extra["verify_all_s"] = (min(dts), "s")
    return metrics, extra, tail, len(samples)


def report(name, seed, setup_s, passes, workload, tracer, env):
    """Print the human-readable lines; return (correct, attempted, failed, metrics)."""
    from tracing import PER_LAYER

    untraced = passes if tracer is None else passes[:1]
    metrics, extra, tail, distinct = end_to_end(workload, setup_s, untraced)
    attempted = len(workload.ops) * len(passes)
    failed = sum(p.failed for p in passes)
    extra["failed_frac"] = (failed / attempted, "1")
    digests = {p.digests for p in passes}
    correct = len(digests) == 1 and not any(p.wrong for p in passes)
    print(f"workload {name} seed {seed}: {len(passes)} pass(es) of {len(workload.ops)} op runs "
          f"({distinct} distinct ops), "
          f"{attempted} attempted, {failed} failed")
    for key, (value, unit) in {**metrics, **extra}.items():
        if value is not None:
            print(f"  {key:<16} {value:.6g} {unit}")
    print(f"  op_tail_ms is p{tail:g} over {distinct} ops, each its fastest run")
    a, b = passes[0].digests
    print(f"  digest.patterns  {a}")
    print(f"  digest.bytes     {b}")
    if len(digests) != 1:
        print("  passes disagree: outputs are not deterministic")
    for line in passes[0].failures[:20]:
        print(f"  fail {line}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    if tracer is None:
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        overhead = passes[1].wall_s - passes[0].wall_s
        values = tracer.metrics(overhead)
        units = dict(PER_LAYER)
        out = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        for k, v in values.items():
            print(f"  {k:<42} {v:.6g} {units[k]}")
        if tracer.absent:
            print(f"  absent trace targets: {', '.join(tracer.absent)}")
    return correct, attempted, failed, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all", "enum-random", "witness-verify", "probe-pointwise"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")

    load_program()
    if args.workload == "all":
        return run_all(args)
    workload, setup_s, passes, tracer = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    correct, attempted, failed, metrics = report(
        args.workload, args.seed, setup_s, passes, workload, tracer, environment())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run each workload in a child process and merge their results; the
    merged metric names carry the workload name as a prefix."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            fail(f"workload {name} exited {child.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
