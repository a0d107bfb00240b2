"""Every exported function has a caller outside the tests.

A public function that only its own unit tests call is code the program
does not need: it should become part of something that is used, or go.
This scan parses the package's modules (without `__init__.py`, which
re-exports everything) and the benchmark harness, collects every name,
attribute and string constant they use (the `__all__` lists aside, and
strings too, because `perfbench/spans.py` names the functions it wraps),
and lists the functions named in a module's `__all__` that none of them
uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: exported functions that may have no caller in the program, with why
ALLOWED_UNUSED = {
    # the discrete vorticity, whose mass over a core is pi times its degree:
    # kept public on purpose as the diagnostic for fields such as the cell
    # corrector's, though no program path reads it yet
    "jacobian",
}


def _sources() -> list[Path]:
    package = sorted((ROOT / "src" / "vortexlab").glob("*.py"))
    return ([p for p in package if p.name != "__init__.py"]
            + sorted((ROOT / "perfbench").glob("*.py")))


def _is_all(node: ast.AST) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _used_and_exported(tree: ast.Module) -> tuple[set[str], set[str]]:
    exported_names: set[str] = set()
    functions = {node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    used: set[str] = set()
    skip: set[int] = set()
    for node in tree.body:
        if _is_all(node):
            exported_names |= set(ast.literal_eval(node.value))
            skip |= {id(n) for n in ast.walk(node)}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used, exported_names & functions


def test_every_exported_function_has_a_caller():
    used: set[str] = set()
    exported: set[str] = set()
    for path in _sources():
        names, functions = _used_and_exported(
            ast.parse(path.read_text(encoding="utf-8")))
        used |= names
        exported |= functions
    assert exported, "the scan found no exported function"
    assert exported - used == ALLOWED_UNUSED
