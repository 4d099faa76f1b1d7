import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import kernelspectra
from kernelspectra.sparse_pca import _SparseSymmetric

# No per-example deadline: property tests that check against O(p^3)
# reference solves run slower, not wrong, on a loaded two-core host.
settings.register_profile("kernelspectra", deadline=None)
settings.load_profile("kernelspectra")

_STATUS = Path("/proc/self/status")


def fresh_interpreter_env(**extra) -> dict[str, str]:
    """os.environ with the package on PYTHONPATH, for a subprocess."""
    src = str(Path(kernelspectra.__file__).parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def peak_rss_after_each(command: str, cfgs: list[str], **env: str) -> list[int]:
    """The VmHWM, in kB, of one fresh interpreter once it has imported the
    CLI, and then after each run of the CLI command on the config files in
    cfgs, in order, with env added to its environment; skips where Linux's
    /proc/self/status is missing.  Peak growth is read between two of
    these: ru_maxrss would start from the RSS of the test process that
    spawned the interpreter."""
    if not _STATUS.exists():
        pytest.skip("needs Linux's /proc/self/status")
    script = (
        "import contextlib, io, json\n"
        "from kernelspectra.cli import main\n"
        "def peak():\n"
        f"    with open({str(_STATUS)!r}) as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
        "peaks = [peak()]\n"
        f"for cfg in {cfgs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert main([{command!r}, cfg]) == 0\n"
        "    peaks.append(peak())\n"
        "print(json.dumps(peaks))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_interpreter_env(**env),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def sparse_form(m: np.ndarray) -> _SparseSymmetric:
    """The sweep's sparse form of a symmetric m, from its upper triangle."""
    rows, cols = np.nonzero(np.triu(m, 1))
    indices = rows.astype(np.int32), cols.astype(np.int32)
    return _SparseSymmetric(m.diagonal().copy(), *indices, m[rows, cols])


def dense_form(cell: _SparseSymmetric) -> np.ndarray:
    """The dense matrix of a sparse cell, both triangles filled."""
    m = np.diag(cell.diagonal)
    m[cell.rows, cell.cols] = cell.values
    m[cell.cols, cell.rows] = cell.values
    return m
