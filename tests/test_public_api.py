"""Every exported function, method and property has a caller outside the
tests.

A public function that only its own unit tests call is code the program
does not need: it should become part of something that is used, or go.
This scan parses the package's modules (without `__init__.py`, which
re-exports everything) and the benchmark harness, collects every name,
attribute and string constant they use (the `__all__` lists aside, and
strings too, because `perfbench/spans.py` names the functions it wraps),
and lists the functions named in a module's `__all__`, and the public
methods and properties of the classes named there, that none of them
uses.

Methods and properties are matched by name alone, so one whose name
another object's attribute shares escapes the scan: a `domain` property
on `gl_solver.GLParameters` counted as read because the program reads
`VortexMeasure.domain` and `ExperimentConfig.domain`.
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

#: public methods and properties of exported classes that may have no caller
#: in the program, with why
ALLOWED_UNUSED_METHODS = {
    # `BallTimeline`'s invariants (the total radius at a time, the weight
    # that merging conserves), which the planned property tests of ball
    # disjointness and weight conservation read
    "total_radius_at",
    "total_weight",
}


def _sources() -> list[Path]:
    package = sorted((ROOT / "src" / "vortexlab").glob("*.py"))
    return ([p for p in package if p.name != "__init__.py"]
            + sorted((ROOT / "perfbench").glob("*.py")))


def _is_all(node: ast.AST) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _is_function(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _scan(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """(used names, exported functions, public methods and properties of
    exported classes) of one module."""
    exported_names: set[str] = set()
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
    exported = [node for node in tree.body
                if getattr(node, "name", None) in exported_names]
    functions = {node.name for node in exported if _is_function(node)}
    methods = {item.name for node in exported if isinstance(node, ast.ClassDef)
               for item in node.body
               if _is_function(item) and not item.name.startswith("_")}
    return used, functions, methods


def _program_scan() -> tuple[set[str], set[str], set[str]]:
    used: set[str] = set()
    functions: set[str] = set()
    methods: set[str] = set()
    for path in _sources():
        names, module_functions, module_methods = _scan(
            ast.parse(path.read_text(encoding="utf-8")))
        used |= names
        functions |= module_functions
        methods |= module_methods
    return used, functions, methods


def test_every_exported_function_has_a_caller():
    used, functions, _ = _program_scan()
    assert functions, "the scan found no exported function"
    assert functions - used == ALLOWED_UNUSED


def test_every_public_method_and_property_has_a_caller():
    used, _, methods = _program_scan()
    assert methods, "the scan found no public method"
    assert methods - used == ALLOWED_UNUSED_METHODS
