"""The repository's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload train-splpg --seed 0 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  Each invocation launches the workload
in a fresh Python process with ``PYTHONPATH=src`` and one BLAS thread
(see ``catalog.LAUNCH_ENV``), waits for it, and prints:

* the metric catalogue, the host block and every metric by name and
  unit (``--trace 0``: the end-to-end metrics of untraced repeats;
  ``--trace 1``: the per-layer metrics of traced repeats);
* as the last line, ``{"correct", "attempted", "failed", "metrics"}``.

The full result (host block, samples, failed checks) is also written
to ``.perfbench/<workload>-seed<n>-trace<k>.json``, and traced runs
write their spans as a Chrome trace next to it.  A failed check makes
the command exit 1; a checkout without ``src/repro`` exits 2.

``--selftest`` runs all three workloads at toy size, traced and
untraced, and checks that ``BENCHMARK.json`` matches the catalogue,
that every run names every metric with its unit, and that the wrapped
runs restore the original callables and reproduce the unwrapped
digests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 170


def cpu_model() -> str:
    """The CPU model name from ``/proc/cpuinfo``."""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def launch(workload: str, seed: int, seconds: float, trace: int,
           toy: bool) -> dict:
    """Run one workload in a fresh process; returns its result."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}{'-toy' if toy else ''}"
    out = os.path.join(OUT_DIR, f"{stem}.child.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"{stem}.trace.json")]
    if toy:
        cmd.append("--toy")
    env = dict(os.environ, **catalog.LAUNCH_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    host = {"nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "loadavg_before": list(os.getloadavg())}
    started = time.perf_counter()
    # The child's stdout is diagnostics only; keep ours for the result.
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise RuntimeError(f"{workload} did not finish in "
                           f"{CHILD_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"{workload} exited with code {code}")
    with open(out) as handle:
        result = json.load(handle)
    os.remove(out)
    host["loadavg_after"] = list(os.getloadavg())
    host["wall_s"] = time.perf_counter() - started
    host.update(result.pop("host"))
    host["note"] = catalog.HOST_NOTE
    result["host"] = host
    if not trace:
        # ru_maxrss is in KiB on Linux: the largest process among the
        # workload and every descendant it waited for.
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            * 1024 / 1e6)
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def render(workload: str, result: dict, units: dict) -> str:
    """The human-readable document of one run."""
    lines = [f"workload {workload}: {catalog.WORKLOADS[workload][0]}",
             "host: " + json.dumps(result["host"]),
             "unscaled: " + json.dumps(
                 result.get("samples", {}).get("unscaled", {})),
             f"ops_failed_ratio: {result['failed']}/{result['attempted']}"
             f" = {result['failed'] / max(result['attempted'], 1):.4g}"]
    lines += [f"failed check: {f}" for f in result["failures"]]
    for name, unit in units.items():
        lines.append(f"  {name} = {result['metrics'][name]:.6g} {unit}")
    return "\n".join(lines)


def summary_line(result: dict, units: dict) -> str:
    """The last line of stdout."""
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": not result["failures"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def units_for(trace: int) -> dict:
    """Metric name -> unit of what a run with ``--trace trace`` reports."""
    return catalog.PER_LAYER_UNITS if trace else catalog.END_TO_END_UNITS


def selftest() -> int:
    """Toy-size run of every workload, traced and untraced."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        if json.load(handle) != catalog.benchmark_document():
            problems.append("BENCHMARK.json differs from the catalogue")
    for workload in catalog.WORKLOADS:
        for trace in (0, 1):
            started = time.perf_counter()
            result = launch(workload, 0, 1, trace, toy=True)
            units = units_for(trace)
            lines = render(workload, result, units).splitlines()
            for name, unit in units.items():
                if not any(line.startswith(f"  {name} = ")
                           and line.endswith(f" {unit}") for line in lines):
                    problems.append(f"{workload}: document lacks {name} "
                                    f"[{unit}]")
                value = result["metrics"].get(name)
                if not isinstance(value, (int, float)) or not math.isfinite(
                        value):
                    problems.append(f"{workload}: {name} = {value!r}")
            problems += [f"{workload} trace {trace}: {f}"
                         for f in result["failures"]]
            print(f"selftest {workload} trace {trace}: "
                  f"{time.perf_counter() - started:.1f} s, "
                  f"{result['attempted']} ops, {result['failed']} failed",
                  file=sys.stderr)
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    """Run one workload (or the self-test); returns the exit code."""
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no program to measure under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required (or --selftest)")
    try:
        result = launch(args.workload, args.seed, args.seconds, args.trace,
                        toy=False)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = units_for(args.trace)
    print(catalog.describe())
    print(render(args.workload, result, units))
    print(summary_line(result, units))
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
