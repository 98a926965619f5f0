"""Each layer module imports on its own, whatever was imported first.

The package root imports the scenario builder, which loads ``net`` and
``mac`` in an order that can hide an import cycle between them. Each
case runs in a fresh interpreter with the root package stubbed out, so
only the module's own imports run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

STUB = """\
import importlib, sys, types
pkg = types.ModuleType("repro")
pkg.__path__ = [{src!r}]
sys.modules["repro"] = pkg
importlib.import_module({mod!r})
"""


@pytest.mark.parametrize(
    "mod", ["repro.mac.frames", "repro.phy.channel", "repro.mac.dcf"]
)
def test_module_imports_without_the_package_root(mod):
    proc = subprocess.run(
        [sys.executable, "-c", STUB.format(src=str(SRC), mod=mod)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
