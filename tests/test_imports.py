"""Every module uses every name it imports, importing the CLI loads no
module only the service paraphraser needs, and no run loads a process pool."""

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


def test_neither_the_cli_nor_a_pipeline_run_loads_a_process_pool(tmp_path):
    """Report shards are forked directly: multiprocessing and
    concurrent.futures would cost their import, their threads and memory."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    corpus, out = tmp_path / "corpus", tmp_path / "run"
    code = (
        "import sys, bugaug.cli as cli\n"
        "pools = lambda: sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules))\n"
        "print(pools())\n"
        f"assert cli.main(['fixture', '--out', {str(corpus)!r}, '--bugs', '10']) == 0\n"
        f"assert cli.main(['pipeline', '--bugs', {str(corpus / 'bugs.jsonl')!r}, "
        f"'--diffs', {str(corpus / 'diffs')!r}, '--links', {str(corpus / 'links.jsonl')!r}, "
        f"'--out', {str(out)!r}, '--factor', '2']) == 0\n"
        "print(pools())\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                            check=True)
    lines = result.stdout.splitlines()
    assert f"pipeline complete; artifacts in {out}" in lines
    assert lines[0] == lines[-1] == "[]"
