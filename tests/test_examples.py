"""Every example compiles, imports names that exist, and configures
:class:`ScenarioConfig` with real fields and model names.

Checked on the AST, so no example runs: a deleted module, class or
config field breaks this test instead of an example nobody runs.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from repro.scenario import MOBILITY_MODELS, PROTOCOLS, ScenarioConfig

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))
FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}
#: Config keywords whose value is a model name, with the names allowed.
MODEL_NAMES = {"mobility": MOBILITY_MODELS, "protocol": PROTOCOLS}


def _parse(source: str, name: str) -> ast.Module:
    compile(source, name, "exec")
    return ast.parse(source, name)


def unresolved_imports(tree: ast.Module):
    """``module.name`` for every ``repro`` import that does not resolve."""
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            try:
                module = importlib.import_module(node.module)
            except ImportError:
                bad.append(node.module)
                continue
            bad += [f"{node.module}.{a.name}" for a in node.names
                    if not hasattr(module, a.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    try:
                        importlib.import_module(alias.name)
                    except ImportError:
                        bad.append(alias.name)
    return bad


def _config_keywords(tree: ast.Module):
    """Every keyword passed to ``ScenarioConfig(...)``/``.with_(...)``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in ("ScenarioConfig", "with_"):
            yield from (kw for kw in node.keywords if kw.arg is not None)


def unknown_config_keywords(tree: ast.Module):
    """Config keywords that are not config fields."""
    return [kw.arg for kw in _config_keywords(tree) if kw.arg not in FIELDS]


def unknown_model_names(tree: ast.Module):
    """String literals given as ``mobility=``/``protocol=`` that name no
    model the harness can build."""
    return [kw.value.value for kw in _config_keywords(tree)
            if kw.arg in MODEL_NAMES and isinstance(kw.value, ast.Constant)
            and kw.value.value not in MODEL_NAMES[kw.arg]]


def test_examples_exist():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    assert unresolved_imports(_parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_config_keywords_are_fields(path):
    assert unknown_config_keywords(_parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_model_names_exist(path):
    assert unknown_model_names(_parse(path.read_text(), str(path))) == []


def test_checks_catch_deleted_names():
    tree = _parse(
        "from repro.traffic import CbrSource, ReliableSource\n"
        "import repro.mobility.walk\n"
        "cfg = ScenarioConfig(traffic_model='onoff', mobility='rpgm', seed=1)\n"
        "cfg = cfg.with_(propagation='freespace', protocol='tora')\n"
        "cfg = cfg.with_(mobility='static', protocol=name)\n",
        "<deleted>",
    )
    assert unresolved_imports(tree) == ["repro.traffic.ReliableSource", "repro.mobility.walk"]
    assert unknown_config_keywords(tree) == ["traffic_model", "propagation"]
    assert unknown_model_names(tree) == ["rpgm", "tora"]


def test_syntax_error_fails():
    with pytest.raises(SyntaxError):
        _parse("def broken(:\n", "<broken>")
