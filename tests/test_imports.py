"""Each layer module imports on its own, whatever was imported first,
and the PHY reaches no MAC internals.

The package root imports the scenario builder, which loads ``net`` and
``mac`` in an order that can hide an import cycle between them. Each
case runs in a fresh interpreter with the root package stubbed out, so
only the module's own imports run.
"""

import ast
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
    "mod", ["repro.mac.frames", "repro.phy.channel", "repro.mac.dcf",
            "repro.mac.arena"]
)
def test_module_imports_without_the_package_root(mod):
    proc = subprocess.run(
        [sys.executable, "-c", STUB.format(src=str(SRC), mod=mod)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _mac_object(node) -> bool:
    """Whether *node* names a MAC: ``mac``, ``macs[...]``, ``X.mac``."""
    if isinstance(node, ast.Subscript):
        node = node.value
        return (isinstance(node, ast.Name) and node.id == "macs"
                or isinstance(node, ast.Attribute) and node.attr == "macs")
    return (isinstance(node, ast.Name) and node.id == "mac"
            or isinstance(node, ast.Attribute) and node.attr == "mac")


def _mac_internals(path):
    """``line: source`` of each MAC private reached from module *path*."""
    source = path.read_text()
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        private = node.attr.startswith("_") and not node.attr.startswith("__")
        if node.attr == "_macs" or private and _mac_object(node.value):
            hits.append(f"{node.lineno}: {ast.get_source_segment(source, node)}")
    return hits


@pytest.mark.parametrize(
    "path", sorted((SRC / "phy").glob("*.py")), ids=lambda p: p.name
)
def test_phy_reaches_no_mac_internals(path):
    # DCF's NAV, deferral and backoff live in repro.mac (the contention
    # arena resolves both carrier-edge halves); the PHY reports edges
    # and receptions through the MAC's public methods only.
    assert _mac_internals(path) == []
