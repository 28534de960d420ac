"""Every module uses every name it imports, and importing the CLI loads no
module only the service paraphraser needs."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bugaug

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").rglob("*.py")])


def unused_imports(source: str, exported: frozenset[str] = frozenset()) -> list[str]:
    """Names source imports and never references, save those in exported;
    `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in referenced and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_name_it_imports(path):
    exported = frozenset(bugaug.__all__) if path == Path(bugaug.__file__) else frozenset()
    assert unused_imports(path.read_text("utf-8"), exported) == []


def test_unused_import_scan_sees_plain_from_and_dotted_imports():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from typing import Any, Sequence as Seq\nimport re\nre.compile('x')\n")
    assert unused_imports(source) == ["line 2: json", "line 3: os", "line 4: Any", "line 4: Seq"]
    assert unused_imports("from .model import Token\n", frozenset({"Token"})) == []


def test_importing_the_cli_loads_neither_urllib_request_nor_ssl():
    """Only the service paraphraser speaks HTTP, so every other run starts
    without urllib.request and the ssl module it pulls in."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, bugaug.cli; print(sorted({'urllib.request', 'ssl'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                            check=True)
    assert result.stdout.strip() == "[]"
