"""Package layout: no module imports a sibling module's private names,
and every public definition has a caller outside the tests."""

import ast
from pathlib import Path

import pytest

import grassmult

PACKAGE = Path(grassmult.__file__).parent
REPO = PACKAGE.parents[1]


def test_no_private_names_imported_across_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    offenders = [
        (path.name, node.module, alias.name)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").startswith("grassmult"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert offenders == []


def references(tree, modules, home=None):
    """The (module, name) pairs a syntax tree refers to: an import of the
    name from its module, an attribute ``module.name``, a "module.name"
    string (the benchmark's tracer names its targets that way) and,
    inside module ``home``, a bare name.  A local variable or attribute
    elsewhere that is spelled like a public name is not a reference, and
    neither is ``grassmult.name`` through a re-export of __init__.py."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.startswith("grassmult."):
                found |= {(module.rpartition(".")[2], alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute):
            found.add((getattr(node.value, "id", getattr(node.value, "attr", None)), node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(tuple(node.value.partition(".")[::2]))
        elif home and isinstance(node, ast.Name):
            found.add((home, node.id))
    return {(module, name) for module, name in found if module in modules}


def uncalled(callers):
    """The public definitions of the package that neither its other
    top-level statements (not the re-exports of __init__.py) nor the
    scripts `callers` refer to."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    del trees["__init__"]
    outside = set()
    for path in callers:
        outside |= references(ast.parse(path.read_text()), trees)
    assert outside, "no demos or benchmark found next to the package"
    tops = [(top, references(top, trees, home=module)) for module, tree in trees.items() for top in tree.body]
    return [
        "%s.%s" % (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and (module, node.name) not in outside
        and not any((module, node.name) in found for top, found in tops if top is not node)
    ]


def test_every_public_definition_has_a_caller():
    # Callers are the other top-level statements of the package, the
    # demos, and the benchmark harness, whose frozen copy of the library
    # in bench/seedlib does not count.  What only the tests call belongs
    # in tests/, as tests/oracles.py.
    found = uncalled(sorted(REPO.glob("demos/*.py")) + sorted(REPO.glob("bench/*.py")))
    assert not found, "only the tests call " + ", ".join(found)


# What only the benchmark and the tests call: it moves to tests/oracles.py
# once the benchmark's tracer table no longer names it (ROADMAP item 4).
# A change that grows this set edits it and says why.  bounded_insert and
# its mirror reverse_bounded_insert are the checked one-step doors of
# insertion; the library's loops, brsk.brsk_trace among them, run the
# kernels directly, and the two doors move together (ROADMAP item 7).
BENCH_ONLY = {
    "groebner.bounded_multisets_of_degree",
    "multisets.multiset_order_leq",
    "tableaux.bitableau_bounded_by",
    "tableaux.bounded_insert",
    "tableaux.iota_bitableau",
    "tableaux.reverse_bounded_insert",
}


def test_bench_only_definitions_are_frozen():
    assert set(uncalled(sorted(REPO.glob("demos/*.py")))) == BENCH_ONLY


@pytest.mark.parametrize(
    "message",
    [
        "pair entries must be integers",  # multisets.check_integers
        "degree bound must be nonnegative",  # groebner._check_degree
        "point %r is not in the grid regions",  # grassmannian.check_in_grid
        "indices have different sizes",  # grassmannian.build_bound_multisets
    ],
)
def test_each_refusal_has_one_owner(message):
    # one function states each rule, and every door that needs it calls it
    sources = "".join(path.read_text() for path in sorted(PACKAGE.glob("*.py")))
    assert sources.count(message) == 1


def test_every_imported_name_is_used():
    # __init__.py imports to re-export; every other module imports only
    # what it uses, so a removal leaves no stale import behind
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s imports %s" % (path.name, name) for name in sorted(imported - used)]
    assert not unused, "; ".join(unused)
