"""meqlab benchmark: four figure workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload ep-map --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run is a closed loop with one client in one process: after set-up and
a warm-up iteration, the workload runs again and again until --seconds
have passed, and every iteration's outputs are verified. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
  of per-iteration wall and CPU time, each divided by the time of a
  reference kernel run around the iteration (see ``Reference``), the
  median time of fresh set-up processes, and the process's peak resident
  memory; the raw wall and CPU medians in seconds are printed and recorded
  too;
* ``--trace 1`` alternates untraced and traced iterations and reports the
  per-layer metrics, measured by wrapping the library's functions from
  outside (see tracer.py); call counts must repeat exactly between
  traced iterations and match what the workload implies.

The exit code is 0 when every check passed, 1 when an output or count
check failed, and 2 when the program cannot be found or run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"

#: fresh processes timed per run for setup_s
SETUP_REPEATS = 5
#: timed iterations per run, at the least
MIN_ITERATIONS = 3
#: untraced/traced iteration pairs per traced run, at the least
MIN_TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 170

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "MEQLAB_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ep-map, coupling-sweep, transient-ep, ep-locate, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read without running git; None outside a
    repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, workload) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_environment": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "threads_flag": workload.threads,
        "commit": git_commit(ROOT),
        "seed": args.seed,
        "workload": workload.name,
        "work_units_per_iteration": workload.units,
    }


class Reference:
    """A fixed kernel that uses no meqlab code, timed between iterations on
    the benchmark's own thread to measure the machine's current speed.

    The host's speed varies by tens of percent over tens of seconds with
    the load of other tenants; no CPU steal is involved, the cores execute
    more slowly. An iteration's time divided by the reference time around
    it cancels part of that, so runs made at different times compare.
    The kernel mixes the kinds of work the workloads do: an interpreter
    loop, small dense eigenproblems (batched and one at a time), passes
    over a 2 MB array and float formatting. Its arrays take about 2 MB.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrices = rng.standard_normal((150, 10, 10))
        self.stream = rng.standard_normal(250_000)
        self.floats = rng.standard_normal(3000).tolist()

    def seconds(self) -> float:
        """Median of three runs, so that a blip shorter than one run does
        not count as a change of speed."""
        return statistics.median(self._once() for _ in range(3))

    def _once(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * 7 % 13
        np.linalg.eig(self.matrices[:75])
        for m in self.matrices[75:]:
            np.linalg.eig(m)
        for _ in range(8):
            self.stream.sum()
        ",".join(f"{x:.17g}" for x in self.floats)
        return time.perf_counter() - start


class Runner:
    """Runs one workload: set-up, warm-up, timed iterations, verification."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems[: max(0, 20 - len(self.problems))])

    def iteration(self, traced: bool = False) -> dict:
        """One verified iteration; returns its wall and CPU time, and the
        layer snapshot when traced."""
        out = Path(tempfile.mkdtemp(dir=SCRATCH))
        try:
            if traced:
                self.tracer.reset()
                self.tracer.recording = True
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                raw = self.workload.execute(out)
            finally:
                if traced:
                    self.tracer.recording = False
            outcome = self.workload.checked(out, raw)
            sample = {"wall_s": time.perf_counter() - wall0,
                      "cpu_s": time.process_time() - cpu0}
            if traced:
                sample["layers"] = self.tracer.snapshot()
                sample["layers"]["cli.bytes_written"] = sum(
                    p.stat().st_size for p in out.rglob("*") if p.is_file())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.record(outcome)
        return sample

    def setup_times(self, seed: int) -> list[float]:
        """Wall time of fresh processes doing the workload's first calls."""
        times = []
        for _ in range(SETUP_REPEATS):
            out = Path(tempfile.mkdtemp(dir=SCRATCH))
            try:
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "first_call.py"), self.workload.name,
                     str(seed), str(SRC), str(out)],
                    capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
                times.append(time.perf_counter() - start)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            self.attempted += 1
            if proc.returncode != 0:
                self.failed += 1
                self.problems.append(f"set-up process failed: {proc.stderr[-500:]}")
        return times

    def warm_up(self) -> None:
        out = Path(tempfile.mkdtemp(dir=SCRATCH))
        try:
            self.workload.first_call(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.iteration()

    def measure(self, seconds: float, seed: int) -> tuple[dict, dict]:
        setup = self.setup_times(seed)
        self.warm_up()
        reference = Reference()
        samples = []
        before = reference.seconds()
        start = time.perf_counter()
        while len(samples) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
            sample = self.iteration()
            after = reference.seconds()
            sample["ref_s"] = 0.5 * (before + after)
            before = after
            samples.append(sample)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_ref": statistics.median([s["wall_s"] / s["ref_s"] for s in samples]),
            "cpu_ref": statistics.median([s["cpu_s"] / s["ref_s"] for s in samples]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kib / 1024.0,
        }
        detail = {
            "iterations": len(samples),
            "raw_medians_s": {key: statistics.median([s[key] for s in samples])
                              for key in ("wall_s", "cpu_s")},
            "iteration_samples": {key: [s[key] for s in samples]
                                  for key in ("wall_s", "cpu_s", "ref_s")},
            "setup_samples": setup,
        }
        return metrics, detail

    def measure_traced(self, seconds: float) -> tuple[dict, dict]:
        self.warm_up()
        plain, traced = [], []
        start = time.perf_counter()
        while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
            plain.append(self.iteration())
            traced.append(self.iteration(traced=True))
        layers = [s["layers"] for s in traced]
        metrics = {}
        for name, value in layers[0].items():
            values = [lay[name] for lay in layers]
            if not isinstance(value, int):
                metrics[name] = statistics.median(values)
                continue
            metrics[name] = value
            if any(v != value for v in values):
                self.fail_check(f"{name} differs between traced iterations: {values}")
        for name, expected in self.workload.expected_counts().items():
            if layers[0][name] != expected:
                self.fail_check(f"{name} is {layers[0][name]}, the workload implies {expected}")
        metrics["trace.overhead_ratio"] = (statistics.median([s["wall_s"] for s in traced])
                                           / statistics.median([s["wall_s"] for s in plain]))
        metrics["epscan.scan.serial_s"] = 0.0
        metrics["epscan.scan.parallel_efficiency"] = 0.0
        if hasattr(self.workload, "serial_scan_seconds"):
            serial = self.workload.serial_scan_seconds()
            metrics["epscan.scan.serial_s"] = serial
            metrics["epscan.scan.parallel_efficiency"] = (
                serial / (self.workload.threads * metrics["epscan.scan.s"]))
        detail = {"pairs": len(traced),
                  "untraced_wall_s": [s["wall_s"] for s in plain],
                  "traced_wall_s": [s["wall_s"] for s in traced],
                  "bindings": self.tracer.bindings}
        return metrics, detail

    def fail_check(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)


def run_one(args, spec) -> int:
    if not (SRC / "meqlab" / "__init__.py").is_file():
        print(f"error: no meqlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import meqlab

    if Path(meqlab.__file__).resolve().parent != SRC / "meqlab":
        print(f"error: meqlab imported from {meqlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed)
    if args.trace:
        with tracing.Tracer() as tracer:
            runner = Runner(workload, tracer)
            metrics, detail = runner.measure_traced(args.seconds)
        listed = spec["per_layer"]
    else:
        runner = Runner(workload)
        metrics, detail = runner.measure(args.seconds, args.seed)
        listed = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in listed}:
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json lists "
              f"{sorted(m['name'] for m in listed)}", file=sys.stderr)
        return 2
    correct = runner.failed == 0
    detail.update(environment=environment(args, workload), attempted=runner.attempted,
                  failed=runner.failed, failed_ratio=runner.failed / runner.attempted,
                  problems=runner.problems)
    print("detail " + json.dumps(detail))
    for m in listed:
        print(f"{workload.name:15s} {m['name']:38s} {metrics[m['name']]:.6g} {m['unit']}")
    for name, value in detail.get("raw_medians_s", {}).items():
        print(f"{workload.name:15s} {name + ' (raw median)':38s} {value:.6g} s")
    print(f"{workload.name:15s} {'failed_ratio':38s} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Every workload, each in its own process; prints one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: exited with {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return 2
        status = max(status, proc.returncode)
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail ")))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
