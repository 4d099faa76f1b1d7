"""kernelspectra benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own process
(worker.py), which imports kernelspectra from `src/`, warms up, and times
a fixed list of in-process `kernelspectra.cli.main` calls, checking every
op's output.  With `--trace 0` this prints the end-to-end metrics; set-up
time is the median over that process and SETUP_PROBES more that only set
up.  With `--trace 1` the worker runs half the op list untraced and then
traced, and prints the per-layer metrics, the tracing overhead and, for
the BLAS workloads, a traced pass of one op with one BLAS thread.

The last line of standard output is the result as one JSON object; the
metric names and units are those of BENCHMARK.json.  Spans of traced runs
are written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
DEADLINE_S = 170.0  # the whole run, probes included, ends within this


class BenchError(Exception):
    pass


def spawn(args, mode: str, threads: int, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process passed the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def metric_value(name: str, main: dict, serial: dict | None, setups: list[float]) -> float:
    """Resolve a BENCHMARK.json metric name to its measured value."""
    passes = main["passes"]
    if name == "setup_s":
        return statistics.median(setups)
    if name == "run_s":
        return passes["untraced"]["run_s"]
    if name == "op_s.p50":
        return main["op_s_p50"]
    if name == "peak_rss_mb":
        return main["peak_rss_mb"]
    if name == "trace.untraced_run_s":
        return passes["untraced"]["run_s"]
    if name == "trace.traced_run_s":
        return passes["traced"]["run_s"]
    if name == "trace.overhead_s":
        return passes["traced"]["run_s"] - passes["untraced"]["run_s"]
    if name == "serial.op_s":
        return serial["passes"]["traced"]["run_s"] if serial else 0.0
    if name.startswith("serial."):
        return serial["layers"].get(name.removeprefix("serial."), 0.0) if serial else 0.0
    return main["layers"].get(name, 0.0)  # a layer this workload never reaches


def main() -> int:
    ap = argparse.ArgumentParser(description="kernelspectra benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "kernelspectra" / "cli.py").is_file():
        print(f"error: no kernelspectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    try:
        if args.trace:
            main_result = spawn(args, "trace", nproc, deadline)
            serial = None
            if WORKLOADS[args.workload].uses_blas:
                serial = spawn(args, "serial", 1, deadline)
            setups: list[float] = []
            metrics_spec = spec["per_layer"]
        else:
            main_result = spawn(args, "run", nproc, deadline)
            serial = None
            setups = [main_result["setup_s"]]
            setups += [spawn(args, "setup", nproc, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            metrics_spec = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {
        m["name"]: {"value": metric_value(m["name"], main_result, serial, setups), "unit": m["unit"]}
        for m in metrics_spec
    }
    runs = [main_result] + ([serial] if serial else [])
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(main_result["env"], sort_keys=True))
    for name, p in main_result["passes"].items():
        print(f"  {name} op seconds: " + " ".join(f"{t:.3f}" for t in p["op_s"]))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  ops attempted {attempted}, failed {len(failures)}, "
          f"fail_ratio {len(failures) / attempted:.4g}")
    for f in failures:
        print(f"  FAILED {f['op']}: {', '.join(f['checks'])} (exit {f['exit_code']})")
        if f["error"]:
            print("    " + f["error"].strip().replace("\n", "\n    "))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
