"""Dead-code guard: every top-level function and public method in
``src/multipar`` is named somewhere in the package outside its own
definition, so code that no subcommand can reach does not creep back.

The few definitions kept for readers outside the package are allowlisted,
each with its reason.  Names are matched by identifier alone, so a method
that shares its name with one in use (``save``, ``from_json_dict``) passes.
"""

import ast
from collections import Counter
from pathlib import Path

import multipar

PACKAGE = Path(multipar.__file__).parent

ALLOWED = {
    "FtDataset.records": "perfbench/tracing.py counts datasets by record",
    "count_boosted": "tested, and to be wired into report as its count of improved directions",
    "LidModel.log_score": "the seam that pins every LID score to the direct formula",
}


def _names(node) -> Counter:
    """How often each identifier is named, as a variable or an attribute."""
    names = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
    return names


def _definitions(tree):
    """``(qualified name, node)`` of each top-level function and each public
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def test_every_definition_is_named_elsewhere_in_the_package():
    trees = _trees()
    named = sum((_names(tree) for tree in trees.values()), Counter())
    dead = [
        f"{path.name}: {qualified}"
        for path, tree in sorted(trees.items())
        for qualified, node in _definitions(tree)
        if named[node.name] == _names(node)[node.name] and qualified not in ALLOWED
    ]
    assert dead == []


def test_the_allowlist_names_existing_definitions():
    defined = {qualified for tree in _trees().values() for qualified, _ in _definitions(tree)}
    assert sorted(set(ALLOWED) - defined) == []


def test_no_subcommand_writes_outside_its_staging_directory():
    # main() stages each subcommand's output and writes run.json itself; a
    # cmd_* that reads args.out or writes the manifest would bypass the
    # rollback on error
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 12
    bypasses = [
        f"{command.name}: {ast.unparse(node)}"
        for command in commands
        for node in ast.walk(command)
        if (isinstance(node, ast.Attribute) and node.attr == "out"
            and isinstance(node.value, ast.Name) and node.value.id == "args")
        or (isinstance(node, ast.Name) and node.id == "_write_run_manifest")
    ]
    assert bypasses == []


def test_only_the_pool_starts_processes():
    # pool's docstring calls it the only module that starts processes, and
    # its fault path reports a fault instead of printing a traceback
    starts = {"fork", "_exit", "waitpid"}
    trees = _trees()
    assert {name for name in starts if _names(trees[PACKAGE / "pool.py"])[name]} == starts
    elsewhere = [
        f"{path.name}: {name}"
        for path, tree in sorted(trees.items()) if path.name != "pool.py"
        for name in sorted(starts) if _names(tree)[name]
    ]
    tracebacks = [
        path.name
        for path, tree in sorted(trees.items())
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "traceback" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "traceback")
    ]
    assert elsewhere == [] and tracebacks == []


def test_only_textio_reads_lines():
    # one reader splits every text input into lines; a second line parser
    # elsewhere would fork the rules for line ends, bad bytes and file:line
    trees = _trees()
    assert _names(trees[PACKAGE / "textio.py"])["read_line_chunks"]
    elsewhere = [path.name for path, tree in sorted(trees.items())
                 if path.name != "textio.py" and _names(tree)["read_line_chunks"]]
    assert elsewhere == []
