"""One benchmark process: import kernelspectra from the checkout, warm up,
run a workload's op list and print one JSON line with the results.

Started by run.py, which sets the BLAS thread cap in this process's
environment and passes the monotonic time at which it started the
process, so that set-up time includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"


def _write_config(path: Path, config: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out_dir.rglob("*")):
        if f.is_file():
            h.update(f.relative_to(out_dir).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, cli, work_dir: Path):
        self.cli = cli
        self.work_dir = work_dir
        self.count = 0

    def call(self, command: str, config: dict) -> tuple[float, int, Path, str | None]:
        """Run one CLI command in a fresh output directory: (seconds, exit
        code, output directory, error text)."""
        self.count += 1
        cfg_path = self.work_dir / "cfg" / f"{self.count}.cfg"
        out_dir = self.work_dir / f"op{self.count}"
        _write_config(cfg_path, config)
        os.environ["KERNELSPECTRA_OUT_DIR"] = str(out_dir)
        error = None
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                rc = self.cli.main([command, str(cfg_path)])
        except Exception:  # an op that raises is a failed op, never the end of the run
            rc, error = -1, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if rc != 0 and error is None:
            error = stderr.getvalue()
        return elapsed, rc, out_dir, error

    def run_ops(self, ops, digests: dict) -> dict:
        """Time each op, check its output, and compare its payload bytes
        with every earlier op of the same inputs."""
        times, failures = [], []
        for op in ops:
            elapsed, rc, out_dir, error = self.call(op.command, op.config)
            times.append(elapsed)
            try:
                failed = op.check(out_dir, rc)
            except Exception:  # unreadable or missing output
                failed, error = ["output_readable"], traceback.format_exc(limit=3)
            digest = _digest(out_dir)
            if digests.setdefault(op.key, digest) != digest:
                failed.append("same_seed_same_bytes")
            if failed:
                failures.append({"op": op.key, "checks": failed, "exit_code": rc, "error": error})
            shutil.rmtree(out_dir, ignore_errors=True)
        return {"times": times, "run_s": sum(times), "failures": failures}


def environment(blas_threads: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "serial"), required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import kernelspectra
    import kernelspectra.cli as cli
    from workloads import WORKLOADS

    if Path(kernelspectra.__file__).resolve().parent != ROOT / "src" / "kernelspectra":
        print(f"error: imported kernelspectra from {kernelspectra.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    work_dir = OUT_ROOT / f"tmp-{os.getpid()}"
    try:
        runner = Runner(cli, work_dir)
        workload.reference(kernelspectra)
        for command, config in workload.warm_up_ops():
            _, rc, _, error = runner.call(command, config)
            if rc == -1:
                print(f"error: warm-up op raised\n{error}", file=sys.stderr)
                return 1
        setup_s = time.monotonic() - args.t_spawn
        result: dict = {"setup_s": setup_s}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        traced = args.mode != "run"
        ops = workload.plan(args.seed, args.seconds, traced)
        if args.mode == "serial":
            ops = ops[:1]
        digests: dict = {}
        passes = {}
        if args.mode in ("run", "trace"):
            passes["untraced"] = runner.run_ops(ops, digests)
        if traced:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            passes["traced"] = runner.run_ops(ops, digests)
            totals = tracer.totals()
            result["layers"] = {k: v / len(ops) for k, v in totals.items()}
        first = next(iter(passes.values()))
        result.update(
            passes={k: {"run_s": p["run_s"], "op_s": p["times"]} for k, p in passes.items()},
            op_s_p50=statistics.median(first["times"]),
            attempted=sum(len(p["times"]) for p in passes.values()),
            failures=[f for p in passes.values() for f in p["failures"]],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(os.environ.get("OPENBLAS_NUM_THREADS", "default")),
        )
        if traced:
            tracer.dump(
                OUT_ROOT / f"spans-{args.workload}-seed{args.seed}-{args.mode}.json",
                {"workload": args.workload, "seed": args.seed, "mode": args.mode,
                 "env": result["env"], "ops": [op.key for op in ops]},
            )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
