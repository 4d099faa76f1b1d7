import ast
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

from kernelspectra import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # a name the README calls and the package removed used to go unnoticed;
    # the blocks share one namespace, in order, as a reader runs them
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_shell_examples_match_the_parser():
    # a removed flag or config key used to linger in the README's examples:
    # each kernelspectra line must parse, and each key its printf config
    # file sets must be one its command reads
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    configs: dict[str, list[str]] = {}
    runs = 0
    for line in "\n".join(blocks).splitlines():
        written = re.fullmatch(r"printf '(.*)' > (\S+)", line.strip())
        if written:
            configs[written.group(2)] = [
                item.split("=", 1)[0].strip() for item in written.group(1).split("\\n") if item
            ]
        elif line.startswith("kernelspectra "):
            args = cli.build_parser().parse_args(shlex.split(line)[1:])
            keys = configs[args.config] + [item.split("=", 1)[0] for item in args.set]
            source = inspect.getsource(cli.COMMANDS[args.command])
            read = set(re.findall(r'cfg\.get_\w+\("(\w+)"', source))
            if "_get_seed(cfg)" in source:
                read.add("seed")
            assert set(keys) <= read, (line, set(keys) - read)
            runs += 1
    assert runs == len(cli.COMMANDS)


def test_readme_cap_values_match_the_package():
    # a cap the README states used to drift from the code, or outlive it.
    # A constant is a name of two or more capitals before its first
    # underscore, so `P_0 = n` is not one
    import kernelspectra

    defined = {
        name: value
        for info in pkgutil.iter_modules(kernelspectra.__path__)
        for name, value in vars(importlib.import_module(f"kernelspectra.{info.name}")).items()
    }
    stated = re.findall(r"`([A-Z]{2,}_[A-Z0-9_]*) =\s+([^`]+)`", README.read_text())
    assert len(stated) >= 10
    for name, value in stated:
        assert name in defined, f"the README states {name}, which the package does not define"
        assert defined[name] == ast.literal_eval(value.strip()), (name, defined[name])
