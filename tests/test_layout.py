"""Layout checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "braidcomm"

# definitions that nothing in src/ reads, each kept for a reader outside it
KEPT = {
    "audit.audit_script": "the audit's entry point for criterion 10, CI and the benchmark",
    "quotients.sg3_as_quotient_of_sg4": "perfbench/tracing.py patches it",
}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(module: str, tree: ast.Module):
    """Qualified names of the module-level functions, classes and assigned
    names that are not dunders, and of the methods of those classes that
    are not dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, f"{module}.{node.name}"
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not is_dunder(name.id):
                        yield name.id, f"{module}.{name.id}"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not is_dunder(item.name)):
                    yield item.name, f"{module}.{node.name}.{item.name}"


def reads(tree: ast.Module, imports: bool):
    """Every name that a ``Name`` or an ``Attribute`` reads, and, if
    ``imports``, every import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]


def test_every_src_definition_is_read_in_src():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    # a re-export from the package's __init__ is no use of the name
    read = {name for module, tree in trees.items()
            for name in reads(tree, imports=module != "__init__")}
    unread = sorted(qualified for module, tree in trees.items()
                    for name, qualified in definitions(module, tree)
                    if name not in read and qualified not in KEPT)
    assert unread == [], f"defined in src/ but read nowhere there: {unread}"
    defined = {qualified for module, tree in trees.items()
               for _, qualified in definitions(module, tree)}
    assert set(KEPT) <= defined, f"kept names that no longer exist: {sorted(set(KEPT) - defined)}"
