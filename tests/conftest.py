import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import kernelspectra

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


def peak_rss_after_each(command: str, cfgs: list[str]) -> list[int]:
    """The VmHWM, in kB, of one fresh interpreter after each run of the CLI
    command on the config files in cfgs, in order; skips where Linux's
    /proc/self/status is missing.  Peak growth is read between two runs:
    ru_maxrss would start from the RSS of the test process that spawned
    the interpreter."""
    if not _STATUS.exists():
        pytest.skip("needs Linux's /proc/self/status")
    script = (
        "import contextlib, io, json\n"
        "from kernelspectra.cli import main\n"
        "peaks = []\n"
        f"for cfg in {cfgs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert main([{command!r}, cfg]) == 0\n"
        f"    with open({str(_STATUS)!r}) as fh:\n"
        "        peaks.append(next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:')))\n"
        "print(json.dumps(peaks))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_interpreter_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
