"""Every public function and class of the package has a caller outside the tests.

A public top-level ``def`` or ``class`` of a module in ``src/ebcompose`` counts
as reached when ``src/`` or ``perfbench/`` names it as ``module.name``,
imports it with ``from ... import``, uses it by bare name in its own module,
or names it as a string in the trace table of ``perfbench/tracing.py``.  Code
reached only from its own unit tests is deleted, unless ``ALLOWED`` names it
with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ebcompose"

ALLOWED = {
    ("criteria", "sn_lower_fidelity"): "acceptance criterion 06",
    ("criteria", "subblock"): "acceptance criterion 07",
    ("criteria", "d4_ptinv_2eb_certificate"): "the planned d = 4 PT-invariance rung",
    ("criteria", "sn_trim_bound"): "the planned Schmidt-number iteration rung",
    ("criteria", "iteration_count"): "the planned Schmidt-number iteration rung",
    ("criteria", "johnston_block_check"): "the lemma behind the ball certificate, tested through it",
    ("choi", "depolarizing_map"): "the paper's completely depolarizing map, a test fixture",
    ("catalog", "annihilation_identity_check"): "acceptance criterion 10",
    ("sdp", "counterexample_search"): "acceptance criterion 11",
    ("catalog", "build"): "the documented replay API for serialized catalog maps",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public_definitions() -> set:
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.add((path.stem, node.name))
    return found


def _trace_table_names(tree: ast.Module) -> set:
    # entries (module, "name", "group", stats) of the tracing table
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                and isinstance(node.elts[0], ast.Name)
                and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)):
            names.add((node.elts[0].id, node.elts[1].value))
    return names


def _reached() -> set:
    reached = set()
    paths = list((ROOT / "src").rglob("*.py")) + list((ROOT / "perfbench").rglob("*.py"))
    for path in paths:
        tree = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reached.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rsplit(".", 1)[-1]
                reached |= {(module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if path.parent == PACKAGE:
                    reached.add((path.stem, node.id))
        if path.name == "tracing.py" and path.parent.name == "perfbench":
            reached |= _trace_table_names(tree)
    return reached


def test_every_public_name_has_a_caller_or_a_reason():
    unreached = _public_definitions() - _reached() - set(ALLOWED)
    assert unreached == set(), sorted(unreached)


def test_allow_list_names_only_unreached_definitions():
    # an entry whose name gained a caller, or was deleted, leaves the list
    stale = set(ALLOWED) - (_public_definitions() - _reached())
    assert stale == set(), sorted(stale)
