"""SoftSet._unchecked skips the constructor's checks, so only code that
builds from parts already valid may call it: the soft-set operations, whose
results fold, subset or multiply their members' validated parts (the family
operations through _on_family, which wraps their mask-level cores), and the
harness's instance draw, whose soft sets lie over a structure's carrier.  No
files or cli path, which reads outside input, may reach it."""

import ast
import random
from pathlib import Path

import pytest

from softgamma import DomainError, SoftSet
from softgamma.soft_sets import (
    and_intersect_family,
    cartesian_product,
    extended_intersect,
    extended_union,
    or_union_family,
    restricted_intersect,
    restricted_union,
)

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "softgamma").glob("*.py"))

UNCHECKED = "_unchecked"

# (module, function) pairs that may call SoftSet._unchecked, and must
ALLOWED = {
    ("soft_sets.py", "_on_family"),
    ("soft_sets.py", "cartesian_product"),
    ("harness.py", "_draw_instance"),
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_unchecked(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == UNCHECKED
        or isinstance(node, ast.Name) and node.id == UNCHECKED
        or isinstance(node, ast.Constant) and node.value == UNCHECKED
    )


def _callers() -> set:
    """(module, top-level definition) of every reference to _unchecked; its
    own def names it in no expression, so a SoftSet method that calls it
    shows up as ("soft_sets.py", "SoftSet")."""
    return {
        (path.name, getattr(top, "name", "<module>"))
        for path in SOURCES
        for top in _tree(path).body
        if any(_names_unchecked(node) for node in ast.walk(top))
    }


def test_the_constructor_is_defined_once_on_soft_set():
    defined = [
        (path.name, node.name)
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == UNCHECKED
    ]
    assert defined == [("soft_sets.py", "SoftSet")]


def test_only_the_operations_and_the_instance_draw_call_it():
    assert _callers() == ALLOWED


@pytest.mark.parametrize("module", ["files.py", "cli.py"])
def test_input_reading_modules_never_name_it(module):
    tree = _tree(next(path for path in SOURCES if path.name == module))
    assert not any(_names_unchecked(node) for node in ast.walk(tree))


def _random_soft_set(rng: random.Random, universe: tuple) -> SoftSet:
    params = tuple(rng.sample("abcde", rng.randint(1, 4)))
    return SoftSet(universe, params, tuple(rng.getrandbits(len(universe)) for _ in params))


@pytest.mark.parametrize(
    "op",
    [
        restricted_intersect,
        restricted_union,
        extended_intersect,
        extended_union,
        and_intersect_family,
        or_union_family,
        cartesian_product,
    ],
)
def test_operation_results_pass_the_public_checks(op):
    rng = random.Random(61)
    universe = tuple("uvwxyz")
    for _ in range(200):
        # only the cartesian product takes members over different universes
        widths = [rng.randint(1, 6) if op is cartesian_product else 6 for _ in range(rng.randint(1, 3))]
        family = [_random_soft_set(rng, universe[:w]) for w in widths]
        try:
            result = op(family)
        except DomainError:
            continue
        assert type(result.parameters) is tuple and type(result.masks) is tuple
        assert SoftSet(result.universe, result.parameters, result.masks) == result
