"""Layout rule: src/proxdyn holds no code that only the tests call.

Every public top-level function and class of `src/proxdyn/*.py`, and every
public method (properties included) of those classes, must be referenced
in src/proxdyn, scripts/ or bench/ outside its own definition.  A
reference is a name, an attribute, or a string constant equal to the
name (bench/ patches callables by attribute name); a method is reached
through an attribute or a string constant only, so a local variable of
the method's name does not count.  Methods are matched by name alone, so
a method counts as called when any attribute of that name is.  The
re-exports of `proxdyn/__init__.py` do not count.  Helpers that
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
    "which the energy-dissipation equality closure of ROADMAP item 6 builds on",
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


def _references(names=True):
    """{name: [(module or None, line)]} of the names referenced in
    src/proxdyn (but __init__), scripts/ and bench/; the module is None
    outside src/proxdyn.  With names False, plain names do not count."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    refs = {}
    for path in files:
        module = path.stem if path.parent == PACKAGE else None
        # An import alone does not call anything: a used import has its
        # Name or Attribute elsewhere.
        for name, line in _named(ast.parse(path.read_text(encoding="utf-8")), False, names):
            refs.setdefault(name, []).append((module, line))
    return refs


def _named(tree, imports=True, names=True):
    """(name, line) of every name (with names), attribute, string constant
    and (with imports) imported name in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and names:
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias) and imports:
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_public_definition_has_a_program_caller():
    refs, attribute_refs = _references(), _references(names=False)
    unused = []
    for (mod, qual), (name, first, last) in _public_definitions().items():
        pool = attribute_refs if "." in qual else refs
        called = any(
            ref_mod != mod or not first <= line <= last for ref_mod, line in pool.get(name, ())
        )
        if not called and (mod, qual) not in ALLOWED:
            unused.append(f"{mod}.{qual}")
    assert not unused, f"public but called only from tests (move to tests/oracles.py): {unused}"


def test_allowlist_names_existing_definitions():
    assert set(ALLOWED) <= set(_public_definitions())


def test_a_local_variable_does_not_call_a_method():
    tree = ast.parse("padded = np.zeros(n)\nx = field.padded()\ny = getattr(f, 'padded')\n")
    assert sorted(_named(tree, names=False)) == [
        ("padded", 2), ("padded", 3), ("zeros", 1),
    ]


# The banded Cholesky has one owner: `SymBand.factor` calls LAPACK's dpbtrf
# and `band_solve` its dpbtrs, and both check the result, so every solver
# gets the same typed errors.
BANDED_CHOLESKY = {"cholesky_banded", "cho_solve_banded", "dpbtrf", "dpbtrs"}
BANDED_CHOLESKY_OWNERS = {("convex", "SymBand.factor"), ("convex", "band_solve")}


def test_banded_cholesky_has_one_owner():
    defs = _public_definitions()
    owned = {
        (mod, line)
        for mod, qual in BANDED_CHOLESKY_OWNERS
        for line in range(defs[mod, qual][1], defs[mod, qual][2] + 1)
    }
    stray = [
        f"{path.stem}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _named(ast.parse(path.read_text(encoding="utf-8")))
        if name in BANDED_CHOLESKY and (path.stem, line) not in owned
    ]
    assert not stray, f"banded Cholesky named outside SymBand.factor and band_solve: {stray}"


def test_banded_cholesky_guard_sees_a_stray_call():
    tree = ast.parse("import scipy.linalg\nx = scipy.linalg.cho_solve_banded(c, b)\n"
                     "from scipy.linalg.lapack import dpbtrf\n")
    assert sorted((line, n) for n, line in _named(tree) if n in BANDED_CHOLESKY) == [
        (2, "cho_solve_banded"),
        (3, "dpbtrf"),
    ]


# The convexity defect has one owner: `EnergySpec.lambda_conv` derives it
# from the energy's decomposition, so no other module sets it or hands it
# in, and no builder computes an eigenvalue of its own.
def _defect_writes(tree):
    """Lines that assign lambda_conv (as a name, an attribute, or the name
    handed to setattr) or pass it as a keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "lambda_conv":
            yield node.value.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name, line in _named(target):
                    if name == "lambda_conv":
                        yield line
        elif (
            isinstance(node, ast.Call)
            and {"setattr", "__setattr__"} & {name for name, _ in _named(node.func)}
            and any(isinstance(a, ast.Constant) and a.value == "lambda_conv" for a in node.args)
        ):
            yield node.lineno


def test_convexity_defect_has_one_owner():
    stray = [
        f"{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "core"
        for line in _defect_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not stray, f"lambda_conv set or passed outside core.EnergySpec: {stray}"
    models = ast.parse((PACKAGE / "models.py").read_text(encoding="utf-8"))
    assert "eigenvalue" not in {name for name, _ in _named(models)}


def test_convexity_defect_guard_sees_a_planted_keyword():
    tree = ast.parse("spec = EnergySpec(quad_op=a, lambda_conv=2.0 * lam)\n"
                     "lambda_conv = 1.0\nen.lambda_conv = 0.0\n"
                     "object.__setattr__(en, 'lambda_conv', 3.0)\nx = en.lambda_conv\n"
                     "y = getattr(en, 'lambda_conv')\n")
    assert sorted(_defect_writes(tree)) == [1, 2, 3, 4]


# The builders hold no dense matrix and call no eigensolver: the one
# eigenpair they need, the lowest Dirichlet mode, is `grid.dirichlet_mode`
# in closed form.  The dense helpers serve `ProblemSpec` alone until ROADMAP
# item 2 replaces them too.
DENSE_SPECTRAL = {"first_eigenpair", "laplacian_matrix", "operator_norm", "linalg"}


def _dense_spectral_names(tree):
    """Sorted (line, name) of each dense helper or `linalg` named in a tree."""
    return sorted((line, name) for name, line in _named(tree) if name in DENSE_SPECTRAL)


def test_builders_call_no_dense_eigensolver():
    models = ast.parse((PACKAGE / "models.py").read_text(encoding="utf-8"))
    stray = _dense_spectral_names(models)
    assert not stray, (
        f"models.py names a dense spectral helper or linalg: {stray}; the builders take "
        "grid.dirichlet_mode, and the dense helpers wait for ROADMAP item 2's closed forms"
    )


def test_dense_eigensolver_guard_sees_planted_names():
    tree = ast.parse("from .grid import first_eigenpair, laplacian_matrix\n"
                     "w = np.linalg.eigvalsh(a)\nn = operator_norm(a)\n"
                     "from scipy import linalg\n")
    assert _dense_spectral_names(tree) == [
        (1, "first_eigenpair"), (1, "laplacian_matrix"), (2, "linalg"), (3, "operator_norm"),
        (4, "linalg"),
    ]


# One energy ledger: `stepper` evaluates the energy (E_0(u0) once per run,
# E_{t_n}(U^n) once per step) and `diagnostics.edi_scan` is the one pass
# that sums the step reports' dissipation terms; every other output reads
# its records.  `__init__.py` only re-exports energy_total.
LEDGER_SUMS = {"psi", "psi_star"}


def _ledger_strays(module, tree, scan_lines=range(0)):
    """'module:line name' of each energy_total named outside core, stepper
    and __init__, and of each read of a report's psi or psi_star attribute
    on a line outside scan_lines."""
    if module not in ("core", "stepper", "__init__"):
        yield from (f"{module}:{line} {name}" for name, line in _named(tree) if name == "energy_total")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in LEDGER_SUMS
            and isinstance(node.ctx, ast.Load)
            and node.lineno not in scan_lines
        ):
            yield f"{module}:{node.lineno} .{node.attr}"


def test_energy_ledger_has_one_pass():
    _, first, last = _public_definitions()["diagnostics", "edi_scan"]
    stray = [
        found
        for path in sorted(PACKAGE.glob("*.py"))
        for found in _ledger_strays(
            path.stem,
            ast.parse(path.read_text(encoding="utf-8")),
            range(first, last + 1) if path.stem == "diagnostics" else range(0),
        )
    ]
    assert not stray, f"energy evaluated or step reports summed outside the ledger: {stray}"


def test_energy_ledger_guard_sees_a_planted_sum():
    tree = ast.parse("e0 = energy_total(spec, 0.0, traj.U[0].values)\n"
                     "acc = tau * sum(r.psi + r.psi_star for r in reports)\n"
                     "rep = StepReport(psi=psi, psi_star=pairing - psi)\nrep.psi = 0.0\n")
    assert sorted(_ledger_strays("cli", tree)) == ["cli:1 energy_total", "cli:2 .psi", "cli:2 .psi_star"]
    assert sorted(_ledger_strays("diagnostics", tree, range(2, 3))) == ["diagnostics:1 energy_total"]
    assert list(_ledger_strays("stepper", tree, range(2, 3))) == []


# The bracketed Newton-bisection serves only the root whose function is
# not convex: the quartic branch (`SitePotential._branch_root`).  The
# power-law root is convex in its own variable and takes the monotone
# Newton, which needs no bracket, and the composite conjugate is bounded in
# closed form.
NEWTON_BISECT_USERS = {"SitePotential._branch_root"}


def _functions(tree):
    """{qualified name: (first line, last line)} of the top-level functions
    and of the methods of top-level classes."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out[f"{node.name}.{item.name}"] = (item.lineno, item.end_lineno)
    return out


def _newton_bisect_callers(tree):
    """{qualified function name or None (module level): lines} where
    `_newton_bisect` is named."""
    spans = _functions(tree)
    out = {}
    for name, line in _named(tree):
        if name == "_newton_bisect":
            owner = next((q for q, (a, b) in spans.items() if a <= line <= b), None)
            out.setdefault(owner, []).append(line)
    return out


def test_newton_bisection_serves_only_non_convex_roots():
    callers = {
        (path.stem, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner in _newton_bisect_callers(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert callers == {("convex", owner) for owner in NEWTON_BISECT_USERS}
    convex = ast.parse((PACKAGE / "convex.py").read_text(encoding="utf-8"))
    first, last = _functions(convex)["_power_solve"]
    assert any(n == "_monotone_newton" and first <= line <= last for n, line in _named(convex))


def test_newton_bisection_guard_sees_a_planted_call():
    tree = ast.parse("def _power_solve(w, g, q, t):\n    return _newton_bisect(fun, 0.0, t)\n"
                     "class SitePotential:\n    def _branch_root(self, z):\n"
                     "        return _newton_bisect(fun, lo, hi)\n"
                     "from .convex import _newton_bisect\n")
    assert _newton_bisect_callers(tree) == {
        "_power_solve": [2], "SitePotential._branch_root": [5], None: [6],
    }


# One inner solve per step: `stepper.incremental_minimize` calls its inner
# solver once, and the solver stops on the step's own acceptance test
# (`StepProblem.accept`), so no loop there re-solves with other tolerances.
INNER_SOLVERS = {"solve_pd", "solve_prox_gradient"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _looped_solves(tree, function="incremental_minimize"):
    """Sorted lines where a loop inside `function` names an inner solver."""
    return sorted({
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
        for loop in ast.walk(node)
        if isinstance(loop, LOOPS)
        for name, line in _named(loop)
        if name in INNER_SOLVERS
    })


def test_each_step_calls_its_inner_solver_once():
    tree = ast.parse((PACKAGE / "stepper.py").read_text(encoding="utf-8"))
    _, first, last = _public_definitions()["stepper", "incremental_minimize"]
    named = {name for name, line in _named(tree) if first <= line <= last}
    assert INNER_SOLVERS <= named
    assert _looped_solves(tree) == [], "an inner solve inside a loop of incremental_minimize"


def test_one_solve_guard_sees_a_planted_loop():
    tree = ast.parse("def incremental_minimize(spec):\n"
                     "    for _ in range(3):\n        u = convex.solve_pd(prob, w)\n"
                     "    while not ok:\n        ok = solve_prox_gradient(prob, w)[2]\n"
                     "    reps = [convex.solve_pd(prob, w) for w in starts]\n"
                     "    u = convex.solve_pd(prob, w)\n"
                     "def run(spec):\n    for n in steps:\n        convex.solve_pd(prob, w)\n")
    assert _looped_solves(tree) == [3, 5, 6]


# A run is arrays on its time grid: `Trajectory` keeps U (one Field per
# node of `times`, which bench/ reads by `.values`), the step reports, each
# with its own step length, and E_0(u0); the velocity is derived from U and
# the reports where it is read.  `diagnostics` works on arrays and names no
# Field.
TRAJECTORY_FIELDS = ["spec", "times", "U", "reports", "energy0"]


def _class_fields(tree, name="Trajectory"):
    """The annotated fields of the top-level class `name`, in order."""
    return [
        item.target.id
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == name
        for item in node.body
        if isinstance(item, ast.AnnAssign)
    ]


def _field_lines(tree):
    """Sorted lines where `Field` is named, imported or referenced."""
    return sorted(line for name, line in _named(tree) if name == "Field")


def test_a_run_is_arrays_on_its_time_grid():
    stepper = ast.parse((PACKAGE / "stepper.py").read_text(encoding="utf-8"))
    assert _class_fields(stepper) == TRAJECTORY_FIELDS
    diagnostics = ast.parse((PACKAGE / "diagnostics.py").read_text(encoding="utf-8"))
    assert _field_lines(diagnostics) == [], "diagnostics names grid.Field"


def test_time_grid_guard_sees_planted_names():
    tree = ast.parse("from .grid import Field, h_norm\n"
                     "class Trajectory:\n    spec: ProblemSpec\n    tau: float\n"
                     "    V: tuple\n    n_steps = property(len)\n"
                     "v0 = grid.Field(x, g)\nw = Field(y, g)\n")
    assert _class_fields(tree) == ["spec", "tau", "V"]
    assert _field_lines(tree) == [1, 7, 8]
