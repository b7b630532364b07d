"""Layout rule: src/proxdyn holds no code that only the tests call.

Every public top-level function and class of `src/proxdyn/*.py`, and every
public method (properties included) of those classes, must be referenced
in src/proxdyn, scripts/ or bench/ outside its own definition.  A
reference is a name, an attribute, or a string constant equal to the
name (bench/ patches callables by attribute name); methods are matched by
name alone, so a method counts as called when any attribute of that name
is.  The re-exports of `proxdyn/__init__.py` do not count.  Helpers that
only tests call belong in `tests/oracles.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "proxdyn"

# Documented entry points that no program in the repo calls yet.
ALLOWED = {
    ("cli", "parse_config"): "the file-reading API, parse_config_dict on a JSON file",
    ("diagnostics", "energy_balance_residual"): "the energy-dissipation equality defect, "
    "which the exact energy ledger of ROADMAP item 4 builds on",
}


def _is_public_def(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _public_definitions():
    """{(module, qualified name): (name, first line, last line)} of public
    top-level defs and of the public methods of top-level classes."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not _is_public_def(node):
                continue
            out[(path.stem, node.name)] = (node.name, node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _is_public_def(item):
                        qual = f"{node.name}.{item.name}"
                        out[(path.stem, qual)] = (item.name, item.lineno, item.end_lineno)
    return out


def _references():
    """{name: [(module or None, line)]} of the names referenced in
    src/proxdyn (but __init__), scripts/ and bench/; the module is None
    outside src/proxdyn."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    refs = {}
    for path in files:
        module = path.stem if path.parent == PACKAGE else None
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            refs.setdefault(name, []).append((module, node.lineno))
    return refs


def test_every_public_definition_has_a_program_caller():
    refs = _references()
    unused = []
    for (mod, qual), (name, first, last) in _public_definitions().items():
        called = any(
            ref_mod != mod or not first <= line <= last for ref_mod, line in refs.get(name, ())
        )
        if not called and (mod, qual) not in ALLOWED:
            unused.append(f"{mod}.{qual}")
    assert not unused, f"public but called only from tests (move to tests/oracles.py): {unused}"


def test_allowlist_names_existing_definitions():
    assert set(ALLOWED) <= set(_public_definitions())
