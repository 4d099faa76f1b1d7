"""Every name the benchmark tracer patches must exist in the package.

`perfbench/tracing.py` wraps each `TARGETS` entry with `getattr`, so a
deleted or renamed function would crash traced benchmark runs.  The file
is loaded read-only from the checkout; nothing is installed or patched.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = load_targets()
    assert targets
    for span, module_name, attr, _ in targets:
        owner = importlib.import_module(f"kernelspectra.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)  # AttributeError names the stale target
        assert callable(owner), (span, module_name, attr)
