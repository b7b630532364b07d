"""Layout rule: src/proxdyn holds no code that only the tests call.

Every public top-level function and class of `src/proxdyn/*.py` must be
referenced in src/proxdyn, scripts/ or bench/ outside its own definition.
A reference is a name, an attribute, or a string constant equal to the
name (bench/ patches callables by attribute name).  The re-exports of
`proxdyn/__init__.py` do not count.  Helpers that only tests call belong
in `tests/oracles.py`.
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


def _public_definitions():
    """{(module, name): (first line, last line)} of public top-level defs."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[(path.stem, node.name)] = (node.lineno, node.end_lineno)
    return out


def _referenced_names(defs):
    """Names referenced in src/proxdyn (but __init__), scripts/ and bench/,
    each outside the definition of the same name in its own module."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    names = set()
    for path in files:
        own = path.parent == PACKAGE
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            span = defs.get((path.stem, name)) if own else None
            if span is None or not span[0] <= node.lineno <= span[1]:
                names.add(name)
    return names


def test_every_public_definition_has_a_program_caller():
    defs = _public_definitions()
    names = _referenced_names(defs)
    unused = sorted(
        f"{mod}.{name}" for mod, name in defs if name not in names and (mod, name) not in ALLOWED
    )
    assert not unused, f"public but called only from tests (move to tests/oracles.py): {unused}"


def test_allowlist_names_existing_definitions():
    assert set(ALLOWED) <= set(_public_definitions())
