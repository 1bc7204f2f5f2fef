"""Every module of the package uses each name it imports at top level, and
every top-level function and class, and every public method and property of
a top-level class, is used somewhere, every private top-level one by the package
itself, and every dataclass field is read."""

import ast
import collections
import pathlib

import pytest

import boundarykit

PACKAGE = pathlib.Path(boundarykit.__file__).parent
TESTS = pathlib.Path(__file__).parent
# __init__.py imports names only to re-export them through __all__
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_modules_are_found():
    assert {"certifier.py", "sampling.py", "reports.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def identifiers(node):
    """Every name, attribute and imported name used under `node`."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):  # imports, re-exports included
            yield child.name


def uses(path):
    """(path, enclosing top-level definition or None, identifier) triples."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for statement in tree.body:
        owner = statement.name if isinstance(statement, DEFINITIONS) else None
        for name in identifiers(statement):
            yield path, owner, name


def unreferenced_definitions(files, private_only=False):
    """Top-level functions and classes of the package (private ones only, with
    `private_only`) that no file of `files` uses outside their own body."""
    references = {}
    for path in files:
        for where, owner, name in uses(path):
            references.setdefault(name, set()).add((where, owner))
    unused = []
    for path in MODULES:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(statement, DEFINITIONS)
                    and (statement.name.startswith("_") or not private_only)):
                own_body = {(path, statement.name)}  # not a use of itself
                if not references.get(statement.name, set()) - own_body:
                    unused.append(f"{path.stem}.{statement.name}")
    return unused


def test_every_top_level_definition_is_referenced():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert unreferenced_definitions(files) == []


def test_every_private_top_level_definition_is_used_by_the_package():
    # a private twin of a kernel that only tests call is a second implementation
    assert unreferenced_definitions(sorted(PACKAGE.glob("*.py")), private_only=True) == []


def test_every_public_method_is_referenced():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    references = collections.Counter(name for path in files for _, _, name in uses(path))
    unused = []
    for path in MODULES:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or method.name.startswith("_")):
                    continue
                own_body = collections.Counter(identifiers(method))[method.name]
                if references[method.name] == own_body:
                    unused.append(f"{path.stem}.{cls.name}.{method.name}")
    assert unused == []


# written whole into reports by dataclasses.asdict, so each field is read there
WRITTEN_WHOLE = {"RegionSpec", "SamplerConfig"}


def is_dataclass(cls):
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    # this file reads `.name` and the like on AST nodes, which are no reads
    files = sorted(PACKAGE.glob("*.py")) + sorted(p for p in TESTS.glob("*.py")
                                                  if p.name != "test_imports.py")
    read = {node.attr for path in files
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in MODULES:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(cls, ast.ClassDef) and is_dataclass(cls)
                    and cls.name not in WRITTEN_WHOLE):
                unread.extend(f"{path.stem}.{cls.name}.{field.target.id}" for field in cls.body
                              if isinstance(field, ast.AnnAssign)
                              and field.target.id not in read)
    assert unread == []


def test_the_lobachevsky_series_has_one_reader():
    # one Horner loop serves the scalar and the batch routes; a second reader
    # of the coefficients is a second copy of the series
    readers = {f"{where.stem}.{owner}" for path in MODULES for where, owner, name in uses(path)
               if name == "_COEFF" and owner is not None}
    assert readers == {"volume._lobachevsky_series"}
