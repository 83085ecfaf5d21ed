"""Static checks of the package and script sources, parsed with ast.

They catch what a refactor tends to leave behind: an import that nothing
uses, a private module-level def in the package that nothing calls, and an
export that only the tests call.  Every dataclass in the package is a
frozen, slotted value.
In the package they also hold the numeric and error rules: tolerances are
named constants, no float is raised to a power, no handler is broad
enough to catch a bug as if it were a refusal, the oracles stay
independent: they import the solver only, never each other, and every
file is written by one writer.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "elastowave").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))
# the package's __init__ imports only to export
IMPORTERS = [path for path in SOURCES if path.name != "__init__.py"]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dunder_all(tree: ast.Module) -> list[str]:
    """The entries of the module's ``__all__``, [] if it has none."""
    return [
        e.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for e in node.value.elts
    ]


def _used_names(tree: ast.Module) -> set[str]:
    """Names a module reads, and the entries of its ``__all__``.  Quoted
    annotations are not read: under ``from __future__ import annotations``
    none is needed."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | set(_dunder_all(tree))


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
    return names


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = _tree(path)
    unused = [name for name in _imported_names(tree) if name not in _used_names(tree)]
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_every_private_def_is_referenced():
    referenced = set()
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {a.name for a in node.names}
    orphans = [
        f"{path.name}:{node.name}"
        for path in PACKAGE
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not orphans, f"private defs that nothing references: {orphans}"


def _small_float_literals(tree: ast.Module) -> list[ast.Constant]:
    """Float literals in (0, 1e-6), tolerances in practice, that are not the
    value of a module-level constant."""
    named = {
        id(node.value)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Constant)
    }
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < node.value < 1e-6
        and id(node) not in named
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_tolerances_are_named_constants(path):
    # a tolerance written inline is one more scale to keep in step; the
    # package names its own (DEFAULT_TOL, and the audit gate in verify)
    found = [f"line {node.lineno}: {node.value!r}" for node in _small_float_literals(_tree(path))]
    assert not found, f"{path.name} has tolerance literals outside a module constant: {found}"


def _float_powers(tree: ast.Module) -> list[ast.BinOp]:
    """``**`` whose base is not an int literal: on a float it raises
    OverflowError where the product x * x gives inf, and it is not
    correctly rounded."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and not (isinstance(node.left, ast.Constant) and type(node.left.value) is int)
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_float_powers(path):
    found = sorted(node.lineno for node in _float_powers(_tree(path)))
    assert not found, f"{path.name} raises a possible float to a power on lines {found}"


# a handler that names one of these would turn a bug into a refusal
_TOO_BROAD = {"ValueError", "RuntimeError", "Exception", "BaseException"}


def _broad_handlers(tree: ast.Module) -> list[ast.ExceptHandler]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(
                isinstance(c, ast.Name) and c.id in _TOO_BROAD for c in caught
            ):
                found.append(node)
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_broad_except(path):
    # refusals are Refusal, config errors ConfigError; catch those by name
    found = sorted(node.lineno for node in _broad_handlers(_tree(path)))
    assert not found, f"{path.name} catches a broad exception class on lines {found}"


# the exact solver, and the oracles that check it independently: a solver
# module imports only solver modules, and an oracle imports the solver only,
# never the other oracle or the front end
_SOLVER = {"core", "curves", "riemann", "boundary"}
_ORACLES = {"verify", "numerics"}


def _sibling_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, by relative import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.stem in _SOLVER | _ORACLES], ids=lambda p: p.stem
)
def test_solver_and_oracles_import_only_the_solver(path):
    outside = sorted(_sibling_imports(_tree(path)) - _SOLVER)
    assert not outside, f"{path.name} imports {outside}, outside the solver {sorted(_SOLVER)}"


def test_verify_takes_only_the_sampler_from_riemann():
    # the oracle checks do not re-run the solve they check: of riemann,
    # verify samples a structure it is given, and builds none itself
    tree = _tree(ROOT / "src" / "elastowave" / "verify.py")
    taken = sorted(
        alias.name if node.module else "riemann"  # `from . import riemann` takes it all
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if node.module in ("riemann", "elastowave.riemann")
        or (node.module is None and alias.name == "riemann")
    )
    assert taken == ["sample_many"], f"verify.py imports {taken} from riemann"


def test_front_end_applies_no_tolerance():
    # the audits' gate and tolerances live in verify.audit; the front end
    # only reports its verdict
    tree = _tree(ROOT / "src" / "elastowave" / "cli.py")
    found = sorted(
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        for name in {alias.name, alias.asname or alias.name}
        if name.endswith("_TOL")
    )
    assert not found, f"cli.py imports tolerances {found}"


def _names_of(tree: ast.Module, name: str) -> list[int]:
    """Lines where ``name`` is read, bound, imported or taken as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, (ast.Import, ast.ImportFrom))
            and any(name in (a.name, a.asname) for a in node.names))
    )


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.stem in _SOLVER], ids=lambda p: p.stem)
def test_solver_applies_no_audit_gate(path):
    # the solver applies DEFAULT_TOL only; the audit gate lives in verify,
    # beside audit and in_admissible_set, the checks that apply it
    found = _names_of(_tree(path), "_AUDIT_TOL")
    assert not found, f"{path.name} names the audit gate _AUDIT_TOL on lines {found}"


# the one function that opens a file for writing, and where it lives
_WRITER = ("cli.py", "_write_artifact")


def _write_opens(tree: ast.Module, skip: ast.AST | None) -> list[ast.Call]:
    """Calls that open a file for writing: ``os.open``, ``write_text`` or
    ``write_bytes``, and ``open`` with a mode that is not a read-only
    literal.  Calls inside ``skip`` are not counted."""
    skipped = {id(node) for node in ast.walk(skip)} if skip else set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skipped:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes") or (
            name == "open" and isinstance(func, ast.Attribute) and ast.unparse(func.value) == "os"
        ):
            found.append(node)
        elif name == "open":
            # builtin open(file, mode), Path.open(mode)
            args = node.args[1:] if isinstance(func, ast.Name) else node.args
            mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
            mode = mode or (args[0] if args else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")):
                found.append(node)
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_files_are_written_by_one_writer(path):
    # one home for the write policy: in place, cut to length, empty on failure
    tree = _tree(path)
    writer = next(
        (node for node in tree.body
         if isinstance(node, ast.FunctionDef) and (path.name, node.name) == _WRITER),
        None,
    )
    found = sorted(node.lineno for node in _write_opens(tree, skip=writer))
    assert not found, f"{path.name} opens a file for writing outside {_WRITER[1]} on lines {found}"
    assert writer is not None or path.name != _WRITER[0], f"{_WRITER[1]} is not in {path.name}"


def _dataclass_keywords(node: ast.ClassDef) -> dict | None:
    """The keywords of the class's ``@dataclass`` decorator, as literals
    ({} for a bare ``@dataclass``); None if it has no such decorator."""
    for deco in node.decorator_list:
        call = deco if isinstance(deco, ast.Call) else None
        name = ast.unparse(call.func if call else deco)
        if name in ("dataclass", "dataclasses.dataclass"):
            return {k.arg: ast.literal_eval(k.value) for k in call.keywords} if call else {}
    return None


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_dataclasses_are_frozen_and_slotted(path):
    # checked once on construction, then immutable, and without a
    # per-instance __dict__: the closed-form path builds many of them
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ClassDef):
            keywords = _dataclass_keywords(node)
            if keywords is not None and not (keywords.get("frozen") and keywords.get("slots")):
                found.append(node.name)
    assert not found, f"{path.name} has dataclasses without frozen=True, slots=True: {found}"


# the code that calls the package: its own modules, the scripts and the
# benchmark, not the tests
CALLERS = IMPORTERS + [
    path for path in sorted((ROOT / "perfbench").glob("*.py")) if not path.name.startswith("test_")
]


def _called_names(tree: ast.Module) -> set[str]:
    """Names a module reads, takes as an attribute or imports."""
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            called.add(node.id)
        elif isinstance(node, ast.Attribute):
            called.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            called |= {a.name for a in node.names}
    return called


def test_every_export_has_a_caller_outside_the_tests():
    # a name the package exports for the tests alone belongs in the tests,
    # and one that only its own module calls belongs to that module
    init = _tree(ROOT / "src" / "elastowave" / "__init__.py")
    exported = [(a.asname or a.name, ROOT / "src" / "elastowave" / f"{node.module}.py")
                for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]
    called = {path: _called_names(_tree(path)) for path in CALLERS}
    orphans = sorted(
        name for name, home in exported
        if not any(name in names for path, names in called.items() if path != home)
    )
    assert not orphans, (
        f"exports that nothing in src, scripts or perfbench calls outside their module: {orphans}"
    )


def _bound_names(tree: ast.Module) -> set[str]:
    """Names the module binds at its top level: by def, class, assignment
    or import."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return bound


def test_all_names_what_the_module_has():
    # an __all__ entry left behind by a removed name breaks a star import
    # only; and the package exports only what its modules list as public
    home = ROOT / "src" / "elastowave"
    found = [
        f"{path.name}: __all__ lists {name!r}, which it neither defines nor imports"
        for path in PACKAGE
        for tree in [_tree(path)]
        for name in _dunder_all(tree)
        if name not in _bound_names(tree)
    ]
    for node in _tree(home / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = _dunder_all(_tree(home / f"{node.module}.py"))
            found += [
                f"__init__.py re-exports {a.name!r}, which is not in {node.module}.__all__"
                for a in node.names
                if a.name not in public
            ]
    assert not found, found


def _main_guards(tree: ast.Module) -> list[int]:
    """Lines of top-level ``if __name__ == "__main__"`` blocks."""
    return [
        node.lineno
        for node in tree.body
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and {ast.unparse(node.test.left), *map(ast.unparse, node.test.comparators)}
        == {"__name__", "'__main__'"}
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_one_entry_path(path):
    # the package runs as `python -m elastowave` or as the console script;
    # a module run by its own path would be a third entry
    found = _main_guards(_tree(path)) if path.name != "__main__.py" else []
    assert not found, f"{path.name} has an `if __name__ == '__main__'` block on lines {found}"
