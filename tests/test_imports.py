"""Every module uses every name it imports and parses as Python 3.10, every
function, class and method of the package has a caller outside the tests,
the package's version is pyproject.toml's, importing the CLI loads no module
only the service paraphraser, the fixture command or CSV output needs, no
run loads a process pool, and the benchmark's tracer still finds every name
it wraps."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bugaug import __version__
from bugaug.fixtures import generate_corpus

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.joinpath("src", "bugaug").rglob("*.py"))
MODULES = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").rglob("*.py")])
PERFBENCH = sorted(ROOT.joinpath("perfbench").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names source imports and never references; `from __future__` imports
    are directives, not names."""
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
            if name not in referenced]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_unused_import_scan_sees_plain_from_and_dotted_imports():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from typing import Any, Sequence as Seq\nimport re\nre.compile('x')\n")
    assert unused_imports(source) == ["line 2: json", "line 3: os", "line 4: Any", "line 4: Seq"]


def parse_as_3_10(source: str) -> ast.Module:
    """source parsed with Python 3.10's grammar, the oldest pyproject.toml's
    requires-python admits: syntax new in 3.11, such as `except*`, raises
    SyntaxError. Only syntax is checked: a library call new in 3.11, such
    as `import tomllib`, parses."""
    return ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("path", [*MODULES, *PERFBENCH], ids=lambda p: str(p.relative_to(ROOT)))
def test_module_parses_as_python_3_10(path):
    parse_as_3_10(path.read_text("utf-8"))


def test_the_3_10_parse_refuses_an_exception_group_handler():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11 and greater"):
        parse_as_3_10("try:\n    pass\nexcept* ValueError:\n    pass\n")


def test_the_package_version_is_the_one_in_pyproject():
    """Every stage's resume key holds bugaug.__version__, so it must be the
    [project] version pyproject.toml declares. A regex reads the table:
    tomllib is new in 3.11."""
    text = ROOT.joinpath("pyproject.toml").read_text("utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r'^version\s*=\s*"([^"]*)"$', project, re.M) == [__version__]


def definitions(source: str) -> list[str]:
    """The top-level functions and classes of source, and the methods of its
    classes that are no dunders, as name or Class.method."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return names


def references(source: str) -> set[str]:
    """Every name source may reach a definition by: a name, an attribute, an
    imported name or alias, or a string that is an identifier (a getattr or
    globals() lookup)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
    return found


# Reference implementations no production path calls: tests compare the
# production paths against them.
_TEST_REFERENCES = {
    # augment_paragraph's planned operators: test_planned_augmentation_equals_the_stacked_operators,
    # test_criterion_5_operator_constraint_suite
    "dictionary_insert", "random_swap", "random_delete",
    # augment_code_sample's operators: test_augment_code_sample_equals_the_stacked_operators,
    # test_criterion_5_operator_constraint_suite
    "code_token_replace", "code_token_insert", "code_token_swap",
    # stats from the dataset lines: test_stats_counts_from_the_dataset_lines_what_the_datasets_count,
    # test_criterion_3_balancing_smooths_the_skew
    "distribution_report",
}


def uncalled(definitions_by_module: dict[str, list[str]], referenced: set[str]) -> list[str]:
    """The definitions no reference reaches, as module:name; the stage
    functions are looked up by the name of their cli.STAGES row."""
    reached = referenced | _TEST_REFERENCES
    return [f"{module}:{name}" for module, names in definitions_by_module.items() for name in names
            if name.rpartition(".")[2] not in reached and not name.startswith("stage_")]


def test_every_definition_of_the_package_has_a_caller_outside_the_tests():
    callers = [*PACKAGE, *sorted(ROOT.joinpath("perfbench").rglob("*.py"))]
    referenced = set().union(*(references(path.read_text("utf-8")) for path in callers))
    found = {path.stem: definitions(path.read_text("utf-8")) for path in PACKAGE}
    assert uncalled(found, referenced) == []


def test_caller_scan_sees_functions_classes_methods_and_string_lookups():
    source = ("class Box:\n    def __init__(self): pass\n    def put(self): pass\n"
              "    def take(self): pass\n\ndef helper(): pass\ndef lookup(): pass\n")
    assert definitions(source) == ["Box", "Box.put", "Box.take", "helper", "lookup"]
    callers = "from m import Box as B\nB().take()\ngetattr(m, 'lookup')\nprint('not an id')\n"
    found = {"m": definitions(source)}
    assert uncalled(found, references(callers)) == ["m:Box.put", "m:helper"]


def test_importing_the_cli_loads_neither_urllib_request_nor_ssl():
    """Only the service paraphraser speaks HTTP, so every other run starts
    without urllib.request and the ssl module it pulls in."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, bugaug.cli; print(sorted({'urllib.request', 'ssl'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                            check=True)
    assert result.stdout.strip() == "[]"


def test_importing_the_cli_loads_neither_the_fixture_generator_nor_csv():
    """Only `bugaug fixture` generates a corpus and only `stats --csv` writes
    CSV, so every other start skips both imports."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, bugaug.cli; print(sorted({'bugaug.fixtures', 'csv'} & set(sys.modules)))"
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


def test_the_benchmark_tracer_wraps_every_stage_and_hot_layer(tmp_path):
    """perfbench/tracing.py patches names it looks up in bugaug's modules; a
    traced pipeline run records a span for each stage and for each hot layer
    the benchmark's per-layer metrics read."""
    corpus, out, trace = tmp_path / "corpus", tmp_path / "run", tmp_path / "trace.json"
    generate_corpus(corpus, n_bugs=10, seed=3)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(trace), "pipeline",
         "--bugs", str(corpus / "bugs.jsonl"), "--diffs", str(corpus / "diffs"),
         "--links", str(corpus / "links.jsonl"), "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    names = {span[0] for span in json.loads(trace.read_text("utf-8"))["spans"]}
    stages = ("ingest", "extract", "augment", "balance", "stats", "retrieve", "eval")
    expected = {*(f"cli.{stage}" for stage in stages),
                "metrics.eval", "retrieval.index", "retrieval.rank", "builder.report",
                "extract.structure", "nl_ops.paragraph", "nl_ops.retokenize", "nl_ops.paraphrase",
                "code_ops.sample"}
    assert expected - names == set()
